"""Command line front end for the verification suites.

Five subcommands: verify-lie (structure constant identities), verify-tables
(symbolic bracket tables, embeddings, the obstruction), verify-fock (closed
form against the brute-force oscillator oracle), measure (charges and cross
checks), report (all of the above in one document).

Exit codes: 0 all checks pass, 1 a verification failed, 2 the request
itself was invalid.  Configuration comes from flags, optionally layered
over a flat ``key = value`` file; flags win.

Every run pays for this module's imports before its first sweep, so it
imports only what every run uses: ``json`` loads for ``--format json``
alone, and the records are named tuples or slotted classes, not
dataclasses.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import NamedTuple

from .scalars import format_scalar
from .lie_core import StructureConstants, build_su, verify_identities
from . import formal_algebra as fa
from . import wick_currents as wc
from .fock_oracle import FockOracle, apply_body, state_add, states_equal
from . import vertex_fock as vf
from .reports import Report, certification_floor

__all__ = ["RunConfig", "UsageError", "SweepReport", "load_config_file", "main", "oracle_sweep"]


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 2."""


class RunConfig:
    """The settings of one run.  Construction checks every value and raises
    :class:`UsageError` on the first bad one."""

    __slots__ = (
        "algebra", "algebra_file", "dim", "tables", "level", "momentum_window",
        "mode_window", "tolerance", "format", "output", "timestamp",
    )

    def __init__(
        self,
        algebra: str = "su2",
        algebra_file: str = "",
        dim: int = 2,
        tables: tuple = fa.TABLE_NAMES,
        level: int = 4,
        momentum_window: int = 1,
        mode_window: int = 3,
        tolerance: float = 1e-8,
        format: str = "text",
        output: str = "",
        timestamp: bool = True,
    ):
        if not algebra_file:
            parse_su(algebra)  # raises UsageError on bad selectors
        if dim < 1:
            raise UsageError(f"dim must be at least 1, got {dim}")
        if not tables:
            raise UsageError("tables must name at least one table")
        bad = [t for t in tables if t not in fa.TABLE_NAMES]
        if bad:
            raise UsageError(f"unknown tables {bad}; known: {', '.join(fa.TABLE_NAMES)}")
        repeated = sorted({t for t in tables if tables.count(t) > 1})
        if repeated:
            raise UsageError(f"tables named more than once: {', '.join(repeated)}")
        if level < 1:
            raise UsageError("level must be at least 1")
        if momentum_window < 1 or mode_window < 1:
            raise UsageError("momentum and mode windows must be at least 1")
        if not 0 <= tolerance < math.inf:
            raise UsageError(f"tolerance must be finite and not negative, got {tolerance!r}")
        if format not in ("text", "json"):
            raise UsageError(f"format must be text or json, got {format!r}")
        self.algebra = algebra
        self.algebra_file = algebra_file
        self.dim = dim
        self.tables = tables
        self.level = level
        self.momentum_window = momentum_window
        self.mode_window = mode_window
        self.tolerance = tolerance
        self.format = format
        self.output = output
        self.timestamp = timestamp


# verify-lie, the cheapest command, takes about 160 s at su(8) on a 2-vCPU
# host and grows about as dim^4 = (n^2 - 1)^4 in n
_SU_MAX_N = 8


def parse_su(name: str) -> int:
    # suN or su(N): the closing parenthesis only after an opening one
    m = re.fullmatch(r"su(\()?([0-9]+)(?(1)\))", name.strip().lower())
    if not m:
        raise UsageError(f"algebra selector {name!r} is not of the form suN or su(N)")
    n = int(m.group(2))
    if n < 2:
        raise UsageError(f"{name}: the su(n) family needs n >= 2 (su({n}) has no adjoint basis)")
    if n > _SU_MAX_N:
        raise UsageError(f"{name}: su(n) is supported up to n = {_SU_MAX_N}")
    return n


def resolve_algebra(cfg: RunConfig) -> tuple:
    """(StructureConstants, display name).  File parse errors are usage errors."""
    if cfg.algebra_file:
        try:
            with open(cfg.algebra_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read algebra file: {exc}")
        try:
            return StructureConstants.from_text(text), cfg.algebra_file
        except ValueError as exc:
            raise UsageError(f"algebra file {cfg.algebra_file}: {exc}")
    return build_su(parse_su(cfg.algebra)), cfg.algebra


# setting -> its declared type as the string _PARSE is keyed by ("str",
# "int", ...); annotations are strings under ``from __future__ import annotations``
_CONFIG_TYPES = RunConfig.__init__.__annotations__
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def load_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; keys mirror flags."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_TYPES:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSE[_CONFIG_TYPES[key]](value)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}")
    return values


def _split_tables(value: str) -> tuple:
    return tuple(t.strip().upper() for t in value.split(",") if t.strip())


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {value!r}")


# option text -> value, by the declared type of the RunConfig argument
_PARSE = {"str": str, "int": int, "float": float, "bool": _parse_bool, "tuple": _split_tables}


# -- verify-lie ---------------------------------------------------------------


def cmd_verify_lie(cfg: RunConfig) -> tuple:
    sc, name = resolve_algebra(cfg)
    report = Report("structure constant verification")
    report.add("algebra", [("source", name), ("dim", sc.dim)])
    idrep = verify_identities(sc)
    rows = []
    for check in idrep.checks:
        if check.passed:
            rows.append((check.name, "PASS"))
        else:
            rows.append(
                (
                    check.name,
                    f"FAIL at {check.first_violation}, residual {format_scalar(check.violation_value)}",
                )
            )
    rows.append(("d_tensor", "identically zero" if sc.d_is_zero else "nonzero"))
    report.add("identities", rows)
    report.add("result", [("status", "PASS" if idrep.passed else "FAIL")])
    return report, idrep.passed


def _failed(report: Report, reason: str) -> tuple:
    """Close ``report`` as a failed verification that names its reason."""
    report.add("result", [("status", "FAIL"), ("reason", reason)])
    return report, False


def _invalid_constants(report: Report, idrep) -> tuple:
    """Close ``report`` with the first failed structure constant identity."""
    bad = next(c for c in idrep.checks if not c.passed)
    return _failed(report, f"structure constants invalid: {bad.name} at {bad.first_violation}")


# -- verify-tables -------------------------------------------------------------


def _failure_text(failure: tuple) -> str:
    """A symbolic sweep's (label, detail) failure as one row: ``label: detail``, its lines joined by ``; ``."""
    label, detail = failure
    return f"{label}: " + "; ".join(detail.splitlines())


def cmd_verify_tables(cfg: RunConfig) -> tuple:
    if cfg.dim < 2:
        raise UsageError("the bracket tables carry antisymmetric index pairs; needs dim >= 2")
    sc, name = resolve_algebra(cfg)
    report = Report("bracket table verification")
    report.add("algebra", [("source", name), ("dim_lie", sc.dim), ("dim", cfg.dim)])
    idrep = verify_identities(sc)
    if not idrep.passed:
        return _invalid_constants(report, idrep)
    ok = True

    for table_name in cfg.tables:
        table = fa.make_table(table_name, sc, cfg.dim)
        if table_name == "EMB1":
            jrep = fa.emb1_obstruction(table)
            rows = [("jgg_triples", jrep.jgg_checked), ("other_triples", jrep.other_checked)]
            rows.append(("obstruction_pattern", "d^{abc} m_rho S3^{mu,nu,rho}(m+n+r)"))
            failure_row = "mismatch"
        else:
            jrep = fa.jacobi_sweep(table)
            rows = []
            rows.append(("triples", jrep.triples_checked))
            failure_row = "first_failure"
        table_ok = jrep.passed
        if jrep.failures:
            rows.append((failure_row, _failure_text(jrep.failures[0])))
        if table_name == "EMB1" and cfg.dim == 3:
            concrete = fa.emb1_obstruction(fa.make_table("EMB1", sc, 3, chain_mode="CONCRETE_3D"))
            support = "nonzero" if concrete.nonzero_on_support else "identically zero"
            rows.append(("obstruction_on_support", support))
            # the obstruction survives on the support exactly when d is nonzero
            if not concrete.passed or concrete.nonzero_on_support == sc.d_is_zero:
                table_ok = False
                rows.append(("obstruction_check", "FAIL: support does not track the d tensor"))
        ok = ok and table_ok
        rows.append(("status", "PASS" if table_ok else "FAIL"))
        report.add(f"table {table_name}", rows)

    emb_rows = []
    for src_name, dst_name in fa.EMBEDDINGS:
        if dst_name not in cfg.tables and src_name not in cfg.tables:
            continue
        erep = fa.verify_embedding(fa.make_table(src_name, sc, cfg.dim), fa.make_table(dst_name, sc, cfg.dim))
        status = "PASS" if erep.passed else f"FAIL: {_failure_text(erep.failures[0])}"
        ok = ok and erep.passed
        emb_rows.append((f"{src_name} -> {dst_name}", f"{status} ({erep.checked} pairs)"))
    if emb_rows:
        report.add("embeddings", emb_rows)

    report.add("result", [("status", "PASS" if ok else "FAIL")])
    return report, ok


# -- verify-fock ---------------------------------------------------------------

_CURRENT_CAP = 3  # current-sector particle cap of verify-fock's oracle and measure's vertex space


class SweepReport(NamedTuple):
    """Outcome of one engine-versus-oracle sweep."""

    pairs: int
    columns: int
    mismatches: int
    first_mismatch: str = ""


def oracle_sweep(fams: dict, level_max: int, npart_max: int, mode_pairs) -> SweepReport:
    """Compare the closed-form commutator with the oscillator oracle.

    Every unordered pair of families at every mode pair (m, n), column by
    column on every safe key.  The oracle projects after every factor
    (matrix semantics), so the closed-form bilinear is applied with the
    same cutoffs before the exact comparison.
    """
    oracle = FockOracle(fams, level_max, npart_max)
    labels = sorted(fams)
    pairs = columns = mismatches = 0
    first_mismatch = ""
    for i, lab1 in enumerate(labels):
        for lab2 in labels[i:]:
            for m, n in mode_pairs:
                body, anomaly = wc.mode_commutator(fams[lab1], m, fams[lab2], n)
                for key in oracle.safe_keys(m, n):
                    want = apply_body({key: 1}, body, m + n, (level_max, npart_max))
                    if anomaly != 0:
                        state_add(want, {key: 1}, anomaly)  # a safe key is inside the cutoffs
                    got = oracle.commutator_column(lab1, m, lab2, n, key)
                    columns += 1
                    if not states_equal(got, want):
                        mismatches += 1
                        if not first_mismatch:
                            first_mismatch = f"[{lab1}@{m}, {lab2}@{n}] on {key}"
                pairs += 1
        oracle.forget(lab1)  # later pairs only apply labels[i + 1:]
    return SweepReport(pairs, columns, mismatches, first_mismatch)


def cmd_verify_fock(cfg: RunConfig) -> tuple:
    sc, name = resolve_algebra(cfg)
    N = cfg.dim
    report = Report("closed-form engine against the oscillator oracle")
    report.add(
        "space",
        [
            ("algebra", name),
            ("dim", N),
            ("level_cutoff", cfg.level),
            ("particle_cap", _CURRENT_CAP),
            ("mode_window", cfg.mode_window),
        ],
    )
    report.add("conventions", sorted(wc.conventions().items()))

    idrep = verify_identities(sc)
    if not idrep.passed:
        return _invalid_constants(report, idrep)

    W = cfg.mode_window
    mode_pairs = [(m, n) for m in range(-W, W + 1) for n in range(m, W + 1)]
    sweep = oracle_sweep(wc.build_currents(sc, N), cfg.level, _CURRENT_CAP, mode_pairs)
    sweep_rows = [
        ("bracket_evaluations", sweep.pairs),
        ("columns_compared", sweep.columns),
        ("mismatches", sweep.mismatches),
    ]
    if sweep.first_mismatch:
        sweep_rows.append(("first_mismatch", sweep.first_mismatch))
    report.add("oracle_sweep", sweep_rows)

    km_rows = wc.check_km_table(sc, N)
    km_bad = [r for r in km_rows if not r.ok]
    table_rows = [("brackets", len(km_rows)), ("failures", len(km_bad))]
    if km_bad:
        table_rows.append(("first_failure", f"{km_bad[0].lab1} {km_bad[0].lab2}: {km_bad[0].detail}"))
    report.add("km_table", table_rows)

    # k and (k1, k2) come from disjoint current families, so each is
    # measured even when the other's pattern fails
    charge_rows, failures = [], []
    try:
        charge_rows.append(("k", format_scalar(wc.measure_level(sc, N))))
    except wc.AnomalyPatternError as exc:
        failures.append(str(exc))
    if N >= 2:
        try:
            k1, k2 = wc.measure_k1_k2(sc, N)
            charge_rows += [("k1", format_scalar(k1)), ("k2", format_scalar(k2))]
        except wc.AnomalyPatternError as exc:
            failures.append(str(exc))
    if failures:
        charge_rows.append(("anomaly_pattern", "FAIL: " + "; ".join(failures)))
    report.add("charges", charge_rows)

    ok = not (sweep.mismatches or km_bad or failures)
    report.add("result", [("status", "PASS" if ok else "FAIL")])
    return report, ok


# -- measure -------------------------------------------------------------------


def _measure_space(cfg: RunConfig, sc) -> vf.VertexSpace:
    P = max(2, 2 * cfg.momentum_window)
    spec = vf.TruncationSpec(
        N=cfg.dim, L=cfg.level, P=P, M=2, current_cap=_CURRENT_CAP
    )
    return vf.VertexSpace(sc, spec)


def cmd_measure(cfg: RunConfig) -> tuple:
    if cfg.dim < 2:
        raise UsageError("charge separation needs dim >= 2 (k1/k2 and c1/c2 are not separable at dim 1)")
    sc, name = resolve_algebra(cfg)
    idrep = verify_identities(sc)
    if not idrep.passed:
        return _invalid_constants(Report("charge measurement"), idrep)
    tol = cfg.tolerance

    try:
        k = wc.measure_level(sc, cfg.dim)
        k1, k2 = wc.measure_k1_k2(sc, cfg.dim)
    except wc.AnomalyPatternError as exc:
        return _failed(Report("charge measurement"), f"anomaly pattern: {exc}")
    space = _measure_space(cfg, sc)
    k_s1 = vf.measure_vertex_level(space)
    fit = vf.measure_c1_c2(space, include_T=True)

    scale = max(abs(float(v)) for v in (k, k1, k2, fit.c1, fit.c2))
    floor = certification_floor(scale)
    # one (key, residual, bracket) row per measured check
    checks = [
        ("k_cross_sector", max(abs(k_s1 - float(k)), floor),
         "[J^a(m), J^a(n)] one-chain term vs [J^a_m, J^a_n] anomaly"),
        ("c1_identity", max(abs(fit.c1 - (1 + float(k1))), floor), "[L_2(m), L_1(n)] cocycle vs 1 + k1"),
        ("c2_identity", max(abs(fit.c2 - float(k2)), floor), "[L_1(m), L_2(n)] cocycle vs k2"),
        ("cocycle_fit", max(fit.residual, floor),
         "[L_mu(m), L_nu(n)] minus its bilinear part vs m_rho S1^rho(m+n)"),
    ]
    charges = {"k": float(k), "c1": fit.c1, "c2": fit.c2}
    for table_name in [t for t in cfg.tables if t in vf.NUMERIC_TABLES]:
        rows = vf.check_table_numeric(table_name, space, charges, window=cfg.momentum_window)
        worst = max(rows, key=lambda r: r.deviation)
        if worst.deviation > 0:
            where = f"[{worst.label1}({worst.m}), {worst.label2}({worst.n})]"
        else:
            where = f"all {len(rows)} brackets exact at this window"
        checks.append((f"sweep_{table_name}", max(worst.deviation, floor), where))

    residuals = {key: value for key, value, _ in checks}
    _, worst_value, worst_bracket = max(checks, key=lambda check: check[1])
    ok = worst_value <= tol

    report = Report("charge measurement")
    report.add(
        "space",
        [
            ("algebra", name),
            ("dim", cfg.dim),
            ("level_cutoff", cfg.level),
            ("lattice_window", space.spec.P),
            ("tolerance", repr(tol)),
        ],
    )
    report.add("conventions", sorted(wc.conventions().items()))
    report.add(
        "charges",
        [
            ("k", format_scalar(k)),
            ("k1", format_scalar(k1)),
            ("k2", format_scalar(k2)),
            ("k_from_one_chain", repr(k_s1)),
            ("c1", repr(fit.c1)),
            ("c2", repr(fit.c2)),
        ],
    )
    report.add(
        "residuals",
        [(key, f"{value:.3e}") for key, value in residuals.items()]
        + [("certification_floor", f"{floor:.3e}")],
    )
    verdict_rows = [
        ("c1_equals_1_plus_k1", "PASS" if residuals["c1_identity"] <= tol else "FAIL"),
        ("c2_equals_k2", "PASS" if residuals["c2_identity"] <= tol else "FAIL"),
        ("k_same_in_both_sectors", "PASS" if residuals["k_cross_sector"] <= tol else "FAIL"),
    ]
    report.add("verdicts", verdict_rows)
    result_rows = [("status", "PASS" if ok else "FAIL")]
    if not ok:
        result_rows.append(
            (
                "diagnostic",
                f"worst bracket: {worst_bracket}; residual {worst_value:.3e} "
                f"exceeds tolerance {tol:g}",
            )
        )
    report.add("result", result_rows)

    json_doc = {
        "conventions": wc.conventions(),
        "k": float(k),
        "k1": float(k1),
        "k2": float(k2),
        "c1": fit.c1,
        "c2": fit.c2,
        "residuals": residuals,
    }
    return report, ok, json_doc


# -- report (everything) ---------------------------------------------------------


def cmd_report(cfg: RunConfig) -> tuple:
    combined = Report("current algebra verification report")
    ok = True
    for label, runner in (
        ("verify-lie", cmd_verify_lie),
        ("verify-tables", cmd_verify_tables),
        ("verify-fock", cmd_verify_fock),
        ("measure", cmd_measure),
    ):
        out = runner(cfg)
        combined.extend(out[0], prefix=f"{label}: ")
        ok = ok and out[1]
    combined.add("result", [("status", "PASS" if ok else "FAIL")])
    return combined, ok


# -- argument plumbing -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--algebra", help="algebra selector, e.g. su2 or su3")
    common.add_argument("--algebra-file", dest="algebra_file", help="structure constant file")
    common.add_argument("--dim", type=int, help="spacetime dimension N")
    common.add_argument("--tables", type=_split_tables, help="comma separated table subset")
    common.add_argument("--level", type=int, help="oscillator level cutoff")
    common.add_argument("--momentum-window", dest="momentum_window", type=int, help="lattice sweep bound")
    common.add_argument("--mode-window", dest="mode_window", type=int, help="circle mode sweep bound")
    common.add_argument("--tolerance", type=float, help="acceptance tolerance for measured checks")
    common.add_argument("--format", choices=("text", "json"), help="output format")
    common.add_argument("--output", help="write the report to this path instead of stdout")
    common.add_argument(
        "--no-timestamp",
        dest="timestamp",
        action="store_false",
        default=None,
        help="omit the generated-at header for byte-identical output",
    )

    parser = argparse.ArgumentParser(
        prog="curralg", description="verification suites for current algebra extensions"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("verify-lie", "structure constant identities"),
        ("verify-tables", "symbolic bracket tables, embeddings, obstruction"),
        ("verify-fock", "closed-form engine vs oscillator oracle"),
        ("measure", "charges and cross-sector checks"),
        ("report", "run every suite and emit one document"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


_COMMANDS = {
    "verify-lie": cmd_verify_lie,
    "verify-tables": cmd_verify_tables,
    "verify-fock": cmd_verify_fock,
    "measure": cmd_measure,
    "report": cmd_report,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in RunConfig.__slots__:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _check_writable(path: str) -> None:
    """Raise UsageError if ``path`` cannot be opened for writing.

    ``main`` calls this before the command, so a bad path costs no run.  The
    probe opens in append mode, so an existing file keeps its bytes, and a
    file the probe created is removed again.
    """
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = build_config(args)
        if cfg.output:
            _check_writable(cfg.output)
        out = _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only a completed measurement carries its own JSON document
    report, ok, *doc = out
    if cfg.format == "json":
        import json  # loaded only for the JSON format

        text = json.dumps(doc[0], indent=2) + "\n" if doc else report.render_json()
    else:
        text = report.render_text(timestamp=cfg.timestamp)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
