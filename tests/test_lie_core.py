"""Structure constants: exact values against an independent float oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from curralg.lie_core import StructureConstants, build_su, verify_identities
from curralg.scalars import SurdSum, sqrt_scalar


# -- independent oracle ---------------------------------------------------
# Same basis ordering convention, but built with numpy complex arithmetic
# and trace formulas evaluated in floating point.


def _oracle_generators(n: int):
    mats = []
    for k in range(2, n + 1):
        for j in range(1, k):
            sym = np.zeros((n, n), dtype=complex)
            sym[j - 1, k - 1] = sym[k - 1, j - 1] = 0.5
            mats.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[j - 1, k - 1] = -0.5j
            asym[k - 1, j - 1] = 0.5j
            mats.append(asym)
        c = 1.0 / math.sqrt(2 * k * (k - 1))
        diag = np.zeros((n, n), dtype=complex)
        for i in range(k - 1):
            diag[i, i] = c
        diag[k - 1, k - 1] = -(k - 1) * c
        mats.append(diag)
    return mats


def _oracle_f_d(n: int):
    mats = _oracle_generators(n)
    dim = n * n - 1
    f = np.zeros((dim, dim, dim))
    d = np.zeros((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            for c in range(dim):
                f[a, b, c] = (-2j * np.trace(comm @ mats[c])).real
                d[a, b, c] = (2 * np.trace(anti @ mats[c])).real
    return f, d


@pytest.mark.parametrize("n", [2, 3, 4])
def test_build_su_matches_float_oracle(n):
    sc = build_su(n)
    f_o, d_o = _oracle_f_d(n)
    dim = n * n - 1
    assert sc.dim == dim
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                assert abs(float(sc.f_at(a, b, c)) - f_o[a - 1, b - 1, c - 1]) < 1e-12
                assert abs(float(sc.d_at(a, b, c)) - d_o[a - 1, b - 1, c - 1]) < 1e-12


def test_su2_is_epsilon_tensor():
    sc = build_su(2)
    assert sc.f_at(1, 2, 3) == 1
    assert sc.f_at(2, 1, 3) == -1
    assert sc.f_at(2, 3, 1) == 1
    assert sc.d_is_zero
    assert len(sc.f) == 6  # all permutations of (1,2,3)


def test_su3_textbook_values():
    sc = build_su(3)
    r3 = sqrt_scalar(3)
    half = Fraction(1, 2)
    assert sc.f_at(1, 2, 3) == 1
    assert sc.f_at(1, 4, 7) == half
    assert sc.f_at(1, 5, 6) == -half
    assert sc.f_at(2, 4, 6) == half
    assert sc.f_at(2, 5, 7) == half
    assert sc.f_at(3, 4, 5) == half
    assert sc.f_at(3, 6, 7) == -half
    # as products, since the scalars have no division: 1 / r3 = r3 / 3, -1 / (2 r3) = -r3 / 6
    assert sc.f_at(4, 5, 8) == r3 * half
    assert sc.f_at(6, 7, 8) == r3 * half
    assert sc.d_at(1, 1, 8) == r3 * Fraction(1, 3)
    assert sc.d_at(2, 2, 8) == r3 * Fraction(1, 3)
    assert sc.d_at(3, 3, 8) == r3 * Fraction(1, 3)
    assert sc.d_at(8, 8, 8) == r3 * Fraction(-1, 3)
    assert sc.d_at(4, 4, 8) == r3 * Fraction(-1, 6)
    assert sc.d_at(7, 7, 8) == r3 * Fraction(-1, 6)
    assert sc.d_at(1, 4, 6) == half
    assert sc.d_at(1, 5, 7) == half
    assert sc.d_at(2, 4, 7) == -half
    assert sc.d_at(2, 5, 6) == half
    assert sc.d_at(3, 4, 4) == half
    assert sc.d_at(3, 6, 6) == -half
    assert not sc.d_is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_all_identities_pass(n):
    report = verify_identities(build_su(n))
    assert report.passed, report
    assert len(report.checks) == 6


def test_identity_names_and_order():
    report = verify_identities(build_su(2))
    names = [c.name for c in report.checks]
    assert names == [
        "f-first-pair-antisymmetry",
        "f-cyclic",
        "d-first-pair-symmetry",
        "d-cyclic",
        "jacobi-ff",
        "jacobi-fd",
    ]


def test_planted_violation_is_located():
    # f^{112} = 1 breaks antisymmetry in the first index pair at (1,1,2)
    sc = StructureConstants.from_text("dim 3\nf 1 1 2 1\n")
    report = verify_identities(sc)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert failed[0].name == "f-first-pair-antisymmetry"
    assert failed[0].first_violation == (1, 1, 2)
    assert failed[0].violation_value == 2
    assert (failed[1].name, failed[1].first_violation, failed[1].violation_value) == ("f-cyclic", (1, 1, 2), -1)


def test_text_roundtrip_exact():
    for n in (2, 3):
        sc = build_su(n)
        again = StructureConstants.from_text(sc.to_text())
        assert again.dim == sc.dim
        assert again.f == sc.f
        assert again.d == sc.d


def test_from_text_literal_no_symmetrization():
    sc = StructureConstants.from_text("dim 3\nf 1 2 3 1\n")
    assert sc.f_at(1, 2, 3) == 1
    assert sc.f_at(2, 3, 1) == 0  # only the written entry exists
    report = verify_identities(sc)
    assert not report.passed


def test_from_text_errors():
    with pytest.raises(ValueError, match="dim line must come first"):
        StructureConstants.from_text("f 1 2 3 1\ndim 3\n")
    with pytest.raises(ValueError, match="duplicate entry"):
        StructureConstants.from_text("dim 3\nf 1 2 3 1\nf 1 2 3 1\n")
    with pytest.raises(ValueError, match="unknown tensor"):
        StructureConstants.from_text("dim 3\ng 1 2 3 1\n")
    with pytest.raises(ValueError, match="missing dim"):
        StructureConstants.from_text("# empty\n")
    with pytest.raises(ValueError, match="indices"):
        StructureConstants.from_text("dim 3\nf 1 2 9 1\n")


def test_comments_and_d_default():
    sc = StructureConstants.from_text("dim 3\n# full epsilon\n" + build_su(2).to_text().split("\n", 1)[1])
    assert sc.d_is_zero
    assert verify_identities(sc).passed


def test_su1_rejected():
    with pytest.raises(ValueError, match="n >= 2"):
        build_su(1)


def test_zero_entries_leave_the_callers_dict_alone():
    f = {(1, 2, 3): Fraction(1), (1, 1, 1): Fraction(0)}
    sc = StructureConstants(dim=3, f=f)
    assert f == {(1, 2, 3): Fraction(1), (1, 1, 1): Fraction(0)}
    assert sc.f == {(1, 2, 3): Fraction(1)}



def test_rows_are_the_sparse_view_of_the_entries():
    root = sqrt_scalar(Fraction(3))
    # entry order deliberately not sorted, with rows (1, 2) and (2, 1) interleaved
    f = {
        (1, 2, 3): Fraction(2, 2),
        (2, 1, 3): Fraction(1, 2),
        (1, 2, 1): root,
        (1, 3, 2): Fraction(0),
        (3, 1, 2): Fraction(-3),
    }
    d = {(2, 2, 2): Fraction(0), (1, 1, 3): 5}
    f_in, d_in = dict(f), dict(d)
    sc = StructureConstants(dim=3, f=f, d=d)
    # the caller's dicts keep their zero entries and their Fraction values
    assert (f, d) == (f_in, d_in) and type(f[1, 2, 3]) is Fraction
    assert sc.f_rows == {(1, 2): [(3, 1), (1, root)], (2, 1): [(3, Fraction(1, 2))], (3, 1): [(2, -3)]}
    assert sc.d_rows == {(1, 1): [(3, 5)]}
    # integral values are int; Fraction and SurdSum values keep their type
    assert [type(v) for row in sc.f_rows.values() for _, v in row] == [int, SurdSum, Fraction, int]
    assert type(sc.d_rows[1, 1][0][1]) is int
    # every nonzero entry appears exactly once, under its (a, b), in entry order
    for tensor, rows in ((sc.f, sc.f_rows), (sc.d, sc.d_rows)):
        flat = [(a, b, c) for (a, b), row in rows.items() for c, _ in row]
        assert sorted(flat) == sorted(tensor)
        for (a, b), row in rows.items():
            assert [c for c, _ in row] == [k[2] for k in tensor if k[:2] == (a, b)]
            assert all(v == tensor[a, b, c] for c, v in row)
    # a zero entry has no row
    assert (1, 3) not in sc.f_rows and (2, 2) not in sc.d_rows
