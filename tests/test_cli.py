"""Command line behaviour: exit codes, report content, config layering.

Everything drives ``cli.main`` in process.  Runtime-heavy commands use the
small mode window; the default windows are exercised by the acceptance
suite.
"""

import argparse
import dataclasses
import hashlib
import json
from dataclasses import fields
from fractions import Fraction

import pytest

from curralg import cli, lie_core
from curralg import vertex_fock as vf
from curralg.cli import RunConfig, UsageError, load_config_file, main, parse_su


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- verify-lie ----------------------------------------------------------------


def test_verify_lie_su3_passes(capsys):
    code, out, _ = run(capsys, "verify-lie", "--algebra", "su3", "--no-timestamp")
    assert code == 0
    assert "status = PASS" in out
    assert "d_tensor = nonzero" in out


def test_verify_lie_su2_reports_vanishing_d(capsys):
    code, out, _ = run(capsys, "verify-lie", "--algebra", "su2", "--no-timestamp")
    assert code == 0
    assert "d_tensor = identically zero" in out


def test_verify_lie_broken_file_names_the_violation(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("dim 3\nf 1 2 3 1\nf 1 1 2 1\n")
    code, out, _ = run(capsys, "verify-lie", "--algebra-file", str(bad), "--no-timestamp")
    assert code == 1
    assert "FAIL at (1, 1, 2)" in out
    assert "status = FAIL" in out


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _combine(x, a, y, b):
    """x a + y b for matrices of (re, im) pairs and complex pairs x, y."""
    return [
        [tuple(p + q for p, q in zip(_cmul(x, u), _cmul(y, v))) for u, v in zip(row_a, row_b)]
        for row_a, row_b in zip(a, b)
    ]


def test_verify_lie_reports_a_non_hermitian_basis(capsys, monkeypatch):
    # a complex rotation of T^1 and T^8 (cosh 5/4, sinh 3/4) keeps
    # 2 tr(T^a T^b) = delta^{ab}, so the metric check passes, but the two
    # generators stop being hermitian and f and d lose their symmetries
    real = lie_core.su_generators
    cosh, i_sinh = (Fraction(5, 4), Fraction(0)), (Fraction(0), Fraction(3, 4))
    minus_i_sinh = (Fraction(0), Fraction(-3, 4))

    def rotated(n):
        gens = real(n)
        t1, t8 = gens[0], gens[7]
        gens[0] = _combine(cosh, t1, i_sinh, t8)
        gens[7] = _combine(minus_i_sinh, t1, cosh, t8)
        return gens

    monkeypatch.setattr(lie_core, "su_generators", rotated)
    code, out, _ = run(capsys, "verify-lie", "--algebra", "su3", "--no-timestamp")
    assert code == 1
    assert "f-first-pair-antisymmetry = FAIL at (1, 1, 1), residual 21/8*sqrt(3)" in out
    assert "status = FAIL" in out


def test_su1_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify-lie", "--algebra", "su1")
    assert code == 2
    assert "su1" in err


def test_malformed_algebra_file_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "garbled.txt"
    bad.write_text("dim 3\nf 1 2 1\n")
    code, _, err = run(capsys, "verify-lie", "--algebra-file", str(bad))
    assert code == 2


def test_missing_algebra_file_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify-lie", "--algebra-file", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "cannot read" in err


def test_parse_su_accepts_parenthesised_form():
    assert parse_su("su(3)") == 3
    assert parse_su("SU2") == 2
    with pytest.raises(UsageError):
        parse_su("so3")
    with pytest.raises(UsageError):
        parse_su("su0")


# -- verify-tables -------------------------------------------------------------


def test_verify_tables_su3_full(capsys):
    code, out, _ = run(capsys, "verify-tables", "--algebra", "su3", "--dim", "3", "--no-timestamp")
    assert code == 0
    for table in ("MF", "EMB1", "CLASSICAL_MF", "EMB2", "DIFF_EXT"):
        assert f"[table {table}]" in out
    assert "obstruction_pattern = d^{abc} m_rho S3^{mu,nu,rho}(m+n+r)" in out
    assert "obstruction_on_support = nonzero" in out
    assert "CLASSICAL_MF -> EMB2 = PASS" in out
    assert "MF -> EMB1 = PASS" in out


def test_verify_tables_su2_obstruction_vanishes(capsys):
    code, out, _ = run(
        capsys, "verify-tables", "--algebra", "su2", "--dim", "3",
        "--tables", "EMB1", "--no-timestamp",
    )
    assert code == 0
    assert "obstruction_on_support = identically zero" in out


def test_emb1_status_follows_the_support_check(capsys, monkeypatch):
    # the CONCRETE_3D support check fails on its own: the section's status
    # must read FAIL with it, not only the report's
    real = cli.fa.emb1_obstruction

    def flipped(table):
        rep = real(table)
        if table.chain_mode == "CONCRETE_3D":
            rep = dataclasses.replace(rep, nonzero_on_support=not rep.nonzero_on_support)
        return rep

    monkeypatch.setattr(cli.fa, "emb1_obstruction", flipped)
    code, out, _ = run(
        capsys, "verify-tables", "--algebra", "su2", "--dim", "3",
        "--tables", "EMB1", "--no-timestamp",
    )
    assert code == 1
    section = out.split("[table EMB1]\n", 1)[1].split("\n\n", 1)[0]
    assert section.endswith(
        "obstruction_check = FAIL: support does not track the d tensor\nstatus = FAIL"
    ), section


def test_verify_tables_subset_at_dim_2(capsys):
    code, out, _ = run(
        capsys, "verify-tables", "--algebra", "su2", "--dim", "2",
        "--tables", "EMB2", "--no-timestamp",
    )
    assert code == 0
    assert "[table EMB2]" in out
    assert "[table MF]" not in out
    assert "CLASSICAL_MF -> EMB2 = PASS" in out


# The default report is byte-deterministic: these digests were recorded from
# `curralg verify-tables ... --no-timestamp` and change only with the report.
@pytest.mark.parametrize(
    "algebra, dim, digest",
    [
        ("su2", 3, "4e621afa80a483badca1f9f65a42c216bdd706bf44d8e626e312e131b7ddf26b"),
        ("su3", 2, "6e805c207ab8aee5a221f89368158ec699972a1e27f0e332874d73aff7b12773"),
        ("su3", 3, "b8176f95063cb5774c2d733ac665ef6711c30369cdc211cfa568ca54daee84dc"),
    ],
    ids=["su2-dim3", "su3-dim2", "su3-dim3"],
)
def test_verify_tables_report_bytes_are_pinned(capsys, algebra, dim, digest):
    code, out, _ = run(capsys, "verify-tables", "--algebra", algebra, "--dim", str(dim), "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# The measure report prints floats, so its digest also pins the order of
# every float operation in the vertex Fock space.  Momentum window 2 runs at
# P = 4, so its columns include shifted kernels at the window's edge.
_MEASURE_DIGESTS = [
    ((), "8bc50f16625f65b91ccf836fe3e41e4c1d3ec7bc6e681c332d4e88fcdc07f1d6"),
    (("--momentum-window", "2"), "b1bad86be29a4e4baa76ea25f704d2d76c7d2a55fac8ad32053f169c138c7b50"),
]


def test_measure_report_bytes_are_pinned(capsys):
    for flags, digest in _MEASURE_DIGESTS:
        code, out, _ = run(
            capsys, "measure", "--algebra", "su2", "--dim", "2", *flags, "--tables", "CLASSICAL_MF", "--no-timestamp",
        )
        assert code == 0, flags
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, flags


def test_verify_tables_rejects_dim_1(capsys):
    code, _, err = run(capsys, "verify-tables", "--algebra", "su2", "--dim", "1")
    assert code == 2
    assert "dim >= 2" in err


def test_verify_tables_rejects_broken_structure_constants(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("dim 3\nf 1 2 3 1\nf 1 1 2 1\n")
    code, out, _ = run(capsys, "verify-tables", "--algebra-file", str(bad), "--dim", "2", "--no-timestamp")
    assert code == 1
    assert "reason = structure constants invalid: f-first-pair-antisymmetry at (1, 1, 2)" in out
    assert "[table " not in out


def test_unknown_table_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify-tables", "--tables", "MF,BOGUS")
    assert code == 2
    assert "BOGUS" in err


def test_empty_table_list_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify-tables", "--tables", ",")
    assert code == 2
    assert out == ""
    assert "at least one table" in err


# -- verify-fock ---------------------------------------------------------------


def test_verify_fock_small_window(capsys):
    code, out, _ = run(
        capsys, "verify-fock", "--algebra", "su2", "--dim", "2",
        "--mode-window", "1", "--no-timestamp",
    )
    assert code == 0
    assert "mismatches = 0" in out
    assert "failures = 0" in out
    assert "k = 8" in out
    assert "k1 = 3" in out
    assert "k2 = 27" in out
    assert "mode_transform" in out
    # the whole report is byte-deterministic, like the pins above
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0f4e700282fa0c3c828765639284ca34c2370f1a8003f0b10923659f8bdcdb5a"
    )


def test_verify_fock_mode_room_beyond_the_level_cutoff(capsys):
    # At level 1 the mode pair (-3, 2) leaves no column that truncation
    # cannot cut, so the sweep compares none there instead of the vacuum.
    code, out, _ = run(
        capsys, "verify-fock", "--algebra", "su2", "--dim", "1", "--level", "1",
        "--mode-window", "3", "--no-timestamp",
    )
    assert code == 0
    assert "mismatches = 0" in out
    assert "columns_compared = 6300" in out
    assert "status = PASS" in out


def test_verify_fock_rejects_broken_structure_constants(capsys, tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("dim 3\nf 1 2 3 1\nf 1 1 2 1\n")
    code, out, _ = run(
        capsys, "verify-fock", "--algebra-file", str(bad),
        "--mode-window", "1", "--no-timestamp",
    )
    assert code == 1
    assert "structure constants invalid" in out


# -- measure -------------------------------------------------------------------


def test_measure_su2_defaults(capsys):
    code, out, _ = run(
        capsys, "measure", "--algebra", "su2", "--dim", "2",
        "--tables", "CLASSICAL_MF", "--no-timestamp",
    )
    assert code == 0
    assert "c1 = 4.0" in out
    assert "c2 = 27.0" in out
    assert "c1_equals_1_plus_k1 = PASS" in out
    assert "c2_equals_k2 = PASS" in out
    assert "k_same_in_both_sectors = PASS" in out
    assert "sweep_CLASSICAL_MF" in out


def test_measure_tolerance_below_certification_floor_fails(capsys):
    # a zero tolerance is a tolerance, not a request for the default
    for tolerance in ("1e-20", "0"):
        code, out, _ = run(
            capsys, "measure", "--algebra", "su2", "--dim", "2",
            "--tables", "CLASSICAL_MF", "--tolerance", tolerance, "--no-timestamp",
        )
        assert code == 1
        assert "status = FAIL" in out
        assert "worst bracket" in out
        assert f"exceeds tolerance {tolerance}" in out


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_measure_rejects_a_tolerance_that_is_not_finite(capsys, tolerance):
    code, out, err = run(capsys, "measure", "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert "tolerance must be finite and not negative" in err


def test_measure_names_the_worst_sweep_bracket(capsys, monkeypatch):
    # the sweeps pass at su(2), so a planted deviation stands in for a failing one
    deviation = vf.BracketDeviation(("J", 1), ("H", 1, 1, 2), (1, 0), (0, 1), 0.5)
    monkeypatch.setattr(vf, "check_table_numeric", lambda *args, **kwargs: [deviation])
    code, out, _ = run(
        capsys, "measure", "--algebra", "su2", "--dim", "2", "--tables", "CLASSICAL_MF", "--no-timestamp",
    )
    assert code == 1
    assert "sweep_CLASSICAL_MF = 5.000e-01\n" in out
    assert out.endswith(
        "diagnostic = worst bracket: [('J', 1)((1, 0)), ('H', 1, 1, 2)((0, 1))]; "
        "residual 5.000e-01 exceeds tolerance 1e-08\n"
    )


def test_measure_json_contract(capsys):
    code, out, _ = run(
        capsys, "measure", "--algebra", "su2", "--dim", "2",
        "--tables", "CLASSICAL_MF", "--format", "json", "--no-timestamp",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"conventions", "k", "k1", "k2", "c1", "c2", "residuals"}
    assert doc["k"] == 8.0
    assert doc["k1"] == 3.0
    assert doc["k2"] == 27.0
    assert doc["c1"] == 4.0
    assert doc["c2"] == 27.0
    assert all(0 < v < 1e-8 for v in doc["residuals"].values())
    assert "mode_transform" in doc["conventions"]


def test_measure_json_refuses_broken_structure_constants(capsys, tmp_path):
    # the documented key set belongs to a completed measurement; a refusal
    # is the plain report document, as for every other command
    bad = tmp_path / "broken.txt"
    bad.write_text("dim 3\nf 1 2 3 1\nf 1 1 2 1\n")
    code, out, _ = run(capsys, "measure", "--algebra-file", str(bad), "--dim", "2", "--format", "json")
    assert code == 1
    result = json.loads(out)["sections"]["result"]
    assert result["status"] == "FAIL"
    assert result["reason"] == "structure constants invalid: f-first-pair-antisymmetry at (1, 1, 2)"


# su(2) + u(1): valid structure constants whose (J, J) diagonals carry
# different levels (8 on su(2), 0 on u(1)), so no single k exists
SU2_U1 = "dim 4\nf 1 2 3 1\nf 1 3 2 -1\nf 2 1 3 -1\nf 2 3 1 1\nf 3 1 2 1\nf 3 2 1 -1\n"
UNEQUAL_LEVELS = "(J,J) diagonal levels differ: 8 at a=1, 0 at a=4"


@pytest.fixture
def su2_u1(tmp_path):
    path = tmp_path / "su2_u1.txt"
    path.write_text(SU2_U1)
    return str(path)


def test_verify_fock_names_unequal_diagonal_levels(capsys, su2_u1):
    code, out, _ = run(
        capsys, "verify-fock", "--algebra-file", su2_u1, "--dim", "2",
        "--mode-window", "1", "--level", "1", "--no-timestamp",
    )
    assert code == 1
    assert "mismatches = 0" in out
    # the (T, T) family passes on its own, so k1 and k2 are still reported
    assert f"[charges]\nk1 = 4\nk2 = 36\nanomaly_pattern = FAIL: {UNEQUAL_LEVELS}\n" in out


def test_measure_fails_cleanly_on_unequal_diagonal_levels(capsys, su2_u1):
    code, out, err = run(capsys, "measure", "--algebra-file", su2_u1, "--dim", "2", "--no-timestamp")
    assert code == 1
    assert err == ""
    assert out.endswith(f"[result]\nstatus = FAIL\nreason = anomaly pattern: {UNEQUAL_LEVELS}\n")


def test_measure_json_reports_unequal_diagonal_levels(capsys, su2_u1):
    code, out, _ = run(capsys, "measure", "--algebra-file", su2_u1, "--dim", "2", "--format", "json")
    assert code == 1
    result = json.loads(out)["sections"]["result"]
    assert result == {"status": "FAIL", "reason": f"anomaly pattern: {UNEQUAL_LEVELS}"}


def test_report_fails_cleanly_on_unequal_diagonal_levels(capsys, su2_u1):
    code, out, err = run(
        capsys, "report", "--algebra-file", su2_u1, "--dim", "2",
        "--mode-window", "1", "--level", "1", "--no-timestamp",
    )
    assert code == 1
    assert err == ""
    assert f"[measure: result]\nstatus = FAIL\nreason = anomaly pattern: {UNEQUAL_LEVELS}\n" in out
    assert out.endswith("[result]\nstatus = FAIL\n")


def test_measure_rejects_dim_1(capsys):
    code, _, err = run(capsys, "measure", "--dim", "1")
    assert code == 2
    assert "dim >= 2" in err


# -- config files ----------------------------------------------------------------


def test_config_file_layered_under_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nalgebra = su3\ndim = 3\ntables = EMB1\n")
    code, out, _ = run(capsys, "verify-tables", "--config", str(cfg), "--no-timestamp")
    assert code == 0
    assert "source = su3" in out

    code, out, _ = run(
        capsys, "verify-tables", "--config", str(cfg), "--algebra", "su2", "--no-timestamp"
    )
    assert code == 0
    assert "source = su2" in out
    assert "obstruction_on_support = identically zero" in out


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 3\n")
    code, _, err = run(capsys, "verify-lie", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


def test_config_duplicate_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 2\ndim = 3\n")
    with pytest.raises(UsageError, match="duplicate"):
        load_config_file(str(cfg))


def test_config_value_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "level = 6\ntolerance = 1e-9\ntables = mf, emb1\ntimestamp = no\nalgebra = su3\n"
    )
    values = load_config_file(str(cfg))
    assert values == {
        "level": 6,
        "tolerance": 1e-9,
        "tables": ("MF", "EMB1"),
        "timestamp": False,
        "algebra": "su3",
    }


def test_config_bad_int(tmp_path):
    cfg = tmp_path / "run.cfg"
    for line in ("level = six", "timestamp = maybe", "tolerance = tiny"):
        cfg.write_text(line + "\n")
        with pytest.raises(UsageError, match="run.cfg:1"):
            load_config_file(str(cfg))


def test_tables_flag_and_config_key_parse_alike(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tables = mf, emb1\n")
    args = cli._build_parser().parse_args(["verify-tables", "--tables", "mf,emb1"])
    assert cli.build_config(args).tables == load_config_file(str(cfg))["tables"] == ("MF", "EMB1")


def test_runconfig_validation_errors():
    with pytest.raises(UsageError):
        RunConfig(dim=0)
    with pytest.raises(UsageError):
        RunConfig(tables=("MF", "NOPE"))
    with pytest.raises(UsageError):
        RunConfig(format="yaml")
    with pytest.raises(UsageError):
        RunConfig(level=0)
    with pytest.raises(UsageError):
        RunConfig(tables=())
    for tolerance in (-1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="tolerance must be finite and not negative"):
            RunConfig(tolerance=tolerance)


def test_every_config_key_is_a_flag():
    # config keys mirror the flags, so no setting is reachable from a file alone
    keys = {f.name for f in fields(RunConfig)}
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        assert keys <= {a.dest for a in parser._actions}, name


# -- output handling -------------------------------------------------------------


def test_output_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, out, _ = run(
            capsys, "verify-lie", "--algebra", "su3", "--no-timestamp",
            "--output", str(path),
        )
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "verify-lie", "--algebra", "su2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ")
    assert not target.exists()


def test_unwritable_output_is_rejected_before_the_command_runs(capsys, tmp_path, monkeypatch):
    def never(cfg):
        raise AssertionError("the command ran before the output path was checked")

    monkeypatch.setitem(cli._COMMANDS, "report", never)
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "report", "--algebra", "su2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ")


def test_output_file_holds_the_stdout_bytes(capsys, tmp_path):
    argv = ("verify-lie", "--algebra", "su2", "--no-timestamp")
    _, stdout, _ = run(capsys, *argv)
    target = tmp_path / "out.txt"
    target.write_text("older and much longer content than the report itself\n" * 50)
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == stdout


def test_usage_error_leaves_no_output_file(capsys, tmp_path):
    target = tmp_path / "x.txt"
    code, _, err = run(capsys, "measure", "--algebra", "su2", "--dim", "1", "--output", str(target))
    assert code == 2
    assert err.startswith("error: charge separation needs dim >= 2")
    assert not target.exists()


def test_timestamp_header_present_by_default(capsys):
    code, out, _ = run(capsys, "verify-lie", "--algebra", "su2")
    assert code == 0
    assert out.splitlines()[1].startswith("generated: ")


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify-lie", "--algebra", "su2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["result"]["status"] == "PASS"


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_command_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
