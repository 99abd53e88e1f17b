"""The benchmark's workloads and the correctness gate for their reports.

Each workload is one fixed ``curralg`` CLI invocation.  The sweeps behind
them are exhaustive over fixed windows, so there is no input to sample: the
benchmark seed only permutes the order of events in a run.  The expected
values were recorded at commit a6a1489; a change that alters a report byte,
a verdict or a count fails the gate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "parse_report", "gate"]


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple  # CLI arguments; the benchmark appends --no-timestamp
    sha256: str  # of the --no-timestamp stdout
    expect: tuple  # ((section, key, value), ...) that must read exactly so
    all_pass: tuple = ()  # sections whose every value must read PASS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tables-su3-n3",
            args=("verify-tables", "--algebra", "su3", "--dim", "3"),
            sha256="b8176f95063cb5774c2d733ac665ef6711c30369cdc211cfa568ca54daee84dc",
            expect=(
                ("table MF", "triples", "6545"),
                ("table CLASSICAL_MF", "triples", "7770"),
                ("table EMB2", "triples", "35990"),
                ("table DIFF_EXT", "triples", "41664"),
                ("table EMB1", "jgg_triples", "2400"),
                ("table EMB1", "other_triples", "30109"),
                ("embeddings", "CLASSICAL_MF -> EMB2", "PASS (630 pairs)"),
                ("embeddings", "MF -> EMB1", "PASS (561 pairs)"),
                ("result", "status", "PASS"),
            ),
        ),
        Workload(
            name="fock-su2-n2-w1",
            args=("verify-fock", "--algebra", "su2", "--dim", "2", "--mode-window", "1"),
            sha256="0f4e700282fa0c3c828765639284ca34c2370f1a8003f0b10923659f8bdcdb5a",
            expect=(
                ("oracle_sweep", "columns_compared", "79152"),
                ("oracle_sweep", "mismatches", "0"),
                ("result", "status", "PASS"),
            ),
        ),
        Workload(
            name="measure-su2-n2",
            args=("measure", "--algebra", "su2", "--dim", "2"),
            sha256="acc4cf073beca2225f0551a8b906db1327f27f36b0c91cf032e60f511621efb9",
            expect=(("result", "status", "PASS"),),
            all_pass=("verdicts",),
        ),
    )
}


def parse_report(text: str) -> dict:
    """Sections of a text report as {section: {key: value}}."""
    sections: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
        elif current is not None and " = " in line:
            key, _, value = line.partition(" = ")
            current[key] = value
    return sections


def gate(workload: Workload, exit_code: int, stdout: bytes) -> list:
    """Reasons the invocation fails the correctness gate; empty if it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != workload.sha256:
        problems.append(f"stdout sha256 {digest[:16]}... differs from the seed's {workload.sha256[:16]}...")
    sections = parse_report(stdout.decode("utf-8", errors="replace"))
    for section, key, value in workload.expect:
        got = sections.get(section, {}).get(key)
        if got != value:
            problems.append(f"[{section}] {key} = {got!r}, expected {value!r}")
    for section in workload.all_pass:
        rows = sections.get(section)
        if not rows:
            problems.append(f"[{section}] missing")
            continue
        for key, value in rows.items():
            if value != "PASS":
                problems.append(f"[{section}] {key} = {value!r}, expected 'PASS'")
    return problems
