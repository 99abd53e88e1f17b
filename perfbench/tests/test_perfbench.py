"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

They start real CLI runs (traced twice per workload), so they take a few
minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, load_spans, self_times_from_spans  # noqa: E402
from workloads import WORKLOADS, gate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Exact work counts at commit a6a1489, per workload: (traced name, stat) -> value.
SEED_COUNTS = {
    "tables-su3-n3": {
        ("formal_algebra.jacobiator", "calls"): 156987,
        ("formal_algebra.bracket", "calls"): 944304,
        ("formal_algebra.bracket", "distinct"): 119378,
        ("formal_algebra.reduce_closedness", "calls"): 156987,
        ("poly.Poly.__mul__", "calls"): 455650,
        ("fock_oracle.FockOracle.apply_exact", "calls"): 0,
        ("vertex_fock.OperatorMatrix.column", "calls"): 0,
    },
    "fock-su2-n2-w1": {
        ("fock_oracle.FockOracle.commutator_column", "calls"): 79152,
        ("fock_oracle.FockOracle.apply_exact", "calls"): 389442,
        ("fock_oracle.FockOracle.apply_exact", "distinct"): 151072,
        ("fock_oracle.states_equal", "calls"): 79152,
        ("formal_algebra.bracket", "calls"): 0,
        ("vertex_fock.OperatorMatrix.column", "calls"): 0,
    },
    "measure-su2-n2": {
        ("vertex_fock.OperatorMatrix.column", "calls"): 935388,
        ("vertex_fock.OperatorMatrix.column", "distinct"): 343708,
        ("formal_algebra.bracket", "calls"): 201933,
        ("formal_algebra.bracket", "distinct"): 277,
        ("fock_oracle.FockOracle.apply_exact", "calls"): 0,
    },
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _traced(workload, prefix) -> tuple:
    cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), str(prefix), *workload.args, "--no-timestamp"]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, timeout=170)
    with open(f"{prefix}.summary.json", encoding="utf-8") as fh:
        return proc.returncode, proc.stdout, json.load(fh)["layers"]


def _bench(cwd, *args) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    layer = run.layer_metric_units()
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*layer, *run.END_TO_END_UNITS, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_speed_probe_samples_while_the_block_runs():
    with hostspeed.SpeedProbe() as speed:
        time.sleep(4 * hostspeed.PERIOD_S)
        mark = speed.mark()
    assert mark >= 2 and len(speed.samples) >= mark
    assert all(sample > 0 for sample in speed.samples)
    assert speed.scale() == pytest.approx(hostspeed.REFERENCE_UNIT_S * len(speed.samples) / sum(speed.samples))
    assert speed.scale(len(speed.samples)) > 0  # an empty window times one unit on the spot


def test_tracer_patches_imported_names_and_restores_them(capsys):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from curralg import cli, fock_oracle, lie_core, poly

    originals = (cli.build_su, cli._COMMANDS["measure"], fock_oracle.apply_body, poly.Poly.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.build_su is lie_core.build_su is not originals[0]
        assert cli._COMMANDS["measure"] is cli.cmd_measure is not originals[1]
        assert cli.apply_body is fock_oracle.apply_body is not originals[2]
        assert poly.Poly.__rmul__ is poly.Poly.__mul__ is not originals[3]
        assert cli.main(["verify-lie", "--algebra", "su2", "--no-timestamp"]) == 0
    finally:
        tracer.restore()
    assert (cli.build_su, cli._COMMANDS["measure"], fock_oracle.apply_body, poly.Poly.__rmul__) == originals
    assert lie_core.build_su is originals[0] and poly.Poly.__mul__ is originals[3]
    capsys.readouterr()

    layers = tracer.summary()
    # cli calls both through the names it imported from lie_core
    assert layers["lie_core.build_su"]["calls"] == 1
    assert layers["lie_core.verify_identities"]["calls"] == 1
    assert layers["reports.Report.render_text"]["calls"] == 1
    assert len(tracer.span_end) == sum(row["calls"] for row in layers.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_match_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first = _traced(workload, tmp_path / "a")
    second = _traced(workload, tmp_path / "b")
    for code, stdout, _ in (first, second):
        assert gate(workload, code, stdout) == []  # tracing changes no output byte
    for layer, row in first[2].items():
        for stat in ("calls", "distinct", "distinct_ratio"):
            if stat in row:
                assert second[2][layer][stat] == row[stat], (layer, stat)
    for (layer, stat), value in SEED_COUNTS[name].items():
        assert first[2][layer][stat] == value, (layer, stat)

    spans = load_spans(str(tmp_path / "a.spans"))
    assert len(spans[1]) == sum(row["calls"] for row in first[2].values())
    recomputed = self_times_from_spans(*spans)
    for layer, row in first[2].items():
        assert recomputed[layer] / 1e9 == row["self_s"], layer


def test_tampered_report_counts_as_failed(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    cli = tmp_path / "src" / "curralg" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    honest = 'rows.append(("triples", jrep.triples_checked))'
    assert honest in text
    cli.write_text(text.replace(honest, 'rows.append(("triples", jrep.triples_checked + 1))'), encoding="utf-8")

    proc = _bench(str(tmp_path), "--workload", "tables-su3-n3", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "triples = '6546', expected '6545'" in proc.stderr


def test_gate_rejects_each_kind_of_tampering():
    workload = WORKLOADS["fock-su2-n2-w1"]
    report = b"[oracle_sweep]\ncolumns_compared = 79152\nmismatches = 0\n\n[result]\nstatus = PASS\n"
    problems = gate(workload, 0, report)
    assert len(problems) == 1 and "sha256" in problems[0]
    problems = gate(workload, 1, report.replace(b"79152", b"79151"))
    assert any("exit code 1" in p for p in problems)
    assert any("columns_compared = '79151'" in p for p in problems)
    measure = WORKLOADS["measure-su2-n2"]
    problems = gate(measure, 0, b"[verdicts]\nc2_equals_k2 = FAIL\n\n[result]\nstatus = PASS\n")
    assert any("c2_equals_k2 = 'FAIL'" in p for p in problems)


def test_traced_run_reports_every_layer_metric():
    proc = _bench(ROOT, "--workload", "tables-su3-n3", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == list(run.layer_metric_units())
    assert result["metrics"]["trace.overhead"]["value"] > 1.0
    assert result["metrics"]["formal_algebra.bracket.calls"]["value"] == 944304
    host = json.loads(proc.stdout.splitlines()[-2].split(" ", 1)[1])
    assert set(host) == {"python", "nproc", "cpu_model"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench(str(tmp_path), "--workload", "measure-su2-n2", "--seed", "1", "--seconds", "10", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
