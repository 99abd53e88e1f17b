"""Wick engine vs brute-force Fock oracle, anomaly patterns, measured charges.

The oracle tests come first: the closed-form engine is only trusted after
the literal mode-sum machinery it is checked against has been exercised on
cases small enough to verify by hand.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curralg.cli import oracle_sweep
from curralg.lie_core import StructureConstants, build_su
from curralg.fock_oracle import (
    apply_body,
    apply_oscillator,
    enumerate_keys,
    key_level,
    key_npart,
    state_add,
    states_equal,
    vacuum,
)
from curralg.wick_currents import (
    AnomalyPatternError,
    build_currents,
    check_km_table,
    conventions,
    expected_bracket,
    flavors_for,
    jacobi_residual,
    measure_k1_k2,
    measure_level,
    mode_commutator,
)

SU2 = build_su(2)
SU3 = build_su(3)
# su(2) + u(1): a valid algebra whose J^4 current is empty, so its level is 0
SU2_U1 = StructureConstants(dim=4, f=dict(SU2.f))


# -- oracle mechanics, checked by hand ------------------------------------


def test_oracle_creators_and_counts():
    # Xbar_{-1} twice builds a doubly occupied slot; X_1 annihilates it
    # with minus the occupation count, X_2 finds nothing.
    st = apply_oscillator(vacuum(), "X", True, -1)
    st = apply_oscillator(st, "X", True, -1)
    (key, amp), = st.items()
    assert key == ((("X", True, -1), 2),)
    assert amp == 1
    down = apply_oscillator(st, "X", False, 1)
    (key, amp), = down.items()
    assert key == ((("X", True, -1), 1),)
    assert amp == -2
    assert apply_oscillator(st, "X", False, 2) == {}


def test_oracle_ccr_on_occupied_state():
    # [Xbar_j, X_k] = delta_{j+k,0} on a state with one unbarred zero mode.
    base = apply_oscillator(vacuum(), "X", False, 0)
    for j, k in ((1, -1), (2, -2), (1, -2)):
        xy = apply_oscillator(apply_oscillator(base, "X", False, k), "X", True, j)
        yx = apply_oscillator(apply_oscillator(base, "X", True, j), "X", False, k)
        comm = dict(xy)
        state_add(comm, yx, -1)
        if j + k == 0:
            assert states_equal(comm, base)
        else:
            assert comm == {}


def test_oracle_unbarred_annihilator_sign():
    # X_k kills slot (X, True, -k) with amplitude -count.
    st = apply_oscillator(vacuum(), "X", True, -2)
    down = apply_oscillator(st, "X", False, 2)
    assert down == {(): -1}


def test_oracle_bilinear_toy_commutator():
    # Single conjugate flavor pair: C = sum :A Bbar:, D = sum :B Abar:.
    # Double contraction gives [C_m, D_{-m}]|0> = -m|0> + bilinear part;
    # on the vacuum at m = 1 only the anomaly survives.
    C = {("A", "B"): Fraction(1)}
    D = {("B", "A"): Fraction(1)}
    col = apply_body(apply_body(vacuum(), D, -1), C, 1)
    back = apply_body(apply_body(vacuum(), C, 1), D, -1)
    state_add(col, back, -1)
    assert col == {(): -1}


def test_oracle_bilinear_level_bookkeeping():
    # Every surviving term of a mode-m bilinear changes level by exactly -m.
    body = {("A", "B"): Fraction(1), ("B", "A"): Fraction(2)}
    start = apply_oscillator(apply_oscillator(vacuum(), "A", True, -2), "B", False, -1)
    for m in (-2, -1, 0, 1, 2, 3):
        out = apply_body(start, {("A", "B"): 1}, m)
        for key in out:
            assert key_level(key) == 3 - m
    out = apply_body(start, body, 1)
    for key in out:
        assert key_npart(key) in (0, 2, 4)


def test_oracle_enumeration_small_window():
    # One flavor, level <= 1, npart <= 2: slots are (F,False,0), (F,False,-1),
    # (F,True,-1); states are vacuum, 3 singles, and the doubles that fit
    # the level bound (only those with a zero-mode factor, plus 00).
    keys = enumerate_keys(["F"], 1, 2)
    singles = [k for k in keys if key_npart(k) == 1]
    doubles = [k for k in keys if key_npart(k) == 2]
    assert () in keys
    assert len(singles) == 3
    assert sorted(key_level(k) for k in doubles) == [0, 1, 1]
    assert len(keys) == 1 + 3 + 3


# -- the oracle equivalence sweep (acceptance criterion) -------------------

MODE_PAIRS = ((1, -1), (2, -2), (3, -3), (2, -1), (1, 1))


def test_wick_engine_matches_matrix_oracle_everywhere():
    """su(2), N=2, L=4: every family pair, every safe column, exact match."""
    t0 = time.time()
    sc, N, L, cap = SU2, 2, 4, 3
    fams = build_currents(sc, N)
    sweep = oracle_sweep(fams, flavors_for(sc.dim, N), L, cap, MODE_PAIRS)
    elapsed = time.time() - t0
    assert sweep.mismatches == 0, sweep.first_mismatch
    assert sweep.pairs == len(fams) * (len(fams) + 1) // 2 * len(MODE_PAIRS)
    assert sweep.columns > 50000
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_wick_engine_matches_matrix_oracle_su3_n2():
    """su(3), N=2, L=1: every family pair on a mode-pair subset, exact match.

    (-1, 1) carries the J-J central term and the pure-creator terms; the
    rest cover the zero modes and the lowering side.  su(3) bodies hold
    ``Fraction`` and surd coefficients, so the exact non-integer path runs.
    """
    t0 = time.time()
    sc, N, L, cap = SU3, 2, 1, 3
    fams = build_currents(sc, N)
    mode_pairs = ((-1, 1), (0, 0), (0, 1), (1, 1))
    sweep = oracle_sweep(fams, flavors_for(sc.dim, N), L, cap, mode_pairs)
    elapsed = time.time() - t0
    assert sweep.mismatches == 0, sweep.first_mismatch
    assert sweep.pairs == len(fams) * (len(fams) + 1) // 2 * len(mode_pairs)
    assert sweep.columns == 215784
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_anomaly_only_in_jj_among_km_species():
    # Among the J/G/H families the anomaly lives on the (J,J) diagonal only.
    fams = build_currents(SU2, 2)
    km = [lab for lab in sorted(fams) if lab[0] in ("J", "G", "H")]
    for lab1, lab2 in itertools.combinations_with_replacement(km, 2):
        for m in (1, 2, 3):
            _, anomaly = mode_commutator(fams[lab1], m, fams[lab2], -m)
            if lab1[0] == lab2[0] == "J" and lab1[1] == lab2[1]:
                assert anomaly == 8 * m
            else:
                assert anomaly == 0, (lab1, lab2, m)


def test_anomaly_vanishes_off_diagonal():
    fams = build_currents(SU2, 2)
    J1 = fams[("J", 1)]
    assert mode_commutator(J1, 2, J1, -1)[1] == 0
    assert mode_commutator(J1, 0, J1, 0)[1] == 0


# -- measured charges, frozen ----------------------------------------------


@pytest.mark.parametrize(
    "dim,N,k,k1,k2",
    [(2, 2, 8, 3, 27), (2, 3, 14, 6, 42), (3, 2, 12, 8, 72)],
)
def test_frozen_charges(dim, N, k, k1, k2):
    sc = build_su(dim)
    assert measure_level(sc, N) == k
    assert measure_k1_k2(sc, N) == (k1, k2)


def test_charge_laws_in_closed_form():
    """k = n(1 + N + N(N-1)/2), k1 = dim(N-1), k2 = dim(N+1)(N+4)/2 over
    su(2..4) x N = 2..4, dim = n^2 - 1 (derivation in the README)."""
    t0 = time.time()
    for n in (2, 3, 4):
        sc = build_su(n)
        dim = n * n - 1
        for N in (2, 3, 4):
            assert measure_level(sc, N) == n * (1 + N + N * (N - 1) // 2), (n, N)
            assert measure_k1_k2(sc, N) == (dim * (N - 1), dim * (N + 1) * (N + 4) // 2), (n, N)
    assert time.time() - t0 < 60.0


@pytest.mark.parametrize("dim,N", [(2, 2), (2, 3), (3, 2)])
def test_km_table_reproduced(dim, N):
    rows = check_km_table(build_su(dim), N)
    bad = [r for r in rows if not r.ok]
    assert not bad, bad[:3]
    anomalous = {(r.lab1, r.lab2) for r in rows if r.anomaly_slope != 0}
    for lab1, lab2 in anomalous:
        assert lab1[0] == lab2[0] in ("J", "T")
        if lab1[0] == "J":
            assert lab1[1] == lab2[1]


def test_km_row_count_su2_N2():
    # 3 J + 6 G + 3 H + 4 T = 16 families, 136 unordered pairs.
    rows = check_km_table(SU2, 2)
    assert len(rows) == 136


def test_measure_k1_k2_needs_two_directions():
    with pytest.raises(ValueError):
        measure_k1_k2(SU2, N=1)


def test_measure_level_names_unequal_diagonal_levels():
    # every (J, J) bracket matches the table, but the diagonals disagree
    assert not [r for r in check_km_table(SU2_U1, 2) if not r.ok]
    with pytest.raises(AnomalyPatternError, match="diagonal levels differ: 8 at a=1, 0 at a=4"):
        measure_level(SU2_U1, 2)


# -- bracket spot checks ----------------------------------------------------


def test_su2_gg_brackets_vanish():
    # d = 0 kills the H channel entirely.
    fams = build_currents(SU2, 2)
    for a, b in itertools.product(range(1, 4), repeat=2):
        for mu, nu in itertools.product((1, 2), repeat=2):
            assert mode_commutator(fams[("G", a, mu)], 1, fams[("G", b, nu)], -1) == ({}, 0)


def test_su3_gg_bracket_hits_d_channel():
    # [G^{1,mu}, G^{1,nu}] = sum_c d^{11c} H^{c,mu,nu}; d^{118} = 1/sqrt(3).
    fams = build_currents(SU3, 2)
    body, _ = mode_commutator(fams[("G", 1, 1)], 1, fams[("G", 1, 2)], 2)
    want = {}
    for c in range(1, 9):
        coeff = SU3.d_at(1, 1, c)
        if coeff != 0:
            for pair, w in fams[("H", c, 1, 2)].items():
                cur = want.get(pair, 0)
                new = cur + coeff * w
                if new == 0:
                    want.pop(pair, None)
                else:
                    want[pair] = new
    assert SU3.d_at(1, 1, 8) != 0
    assert body == want


def test_expected_bracket_antisymmetry():
    fams = build_currents(SU3, 2)
    body_ab, slope_ab = expected_bracket(fams, SU3, 2, ("J", 1), ("G", 2, 1))
    body_ba, slope_ba = expected_bracket(fams, SU3, 2, ("G", 2, 1), ("J", 1))
    assert slope_ab == slope_ba == 0
    neg = {pair: -c for pair, c in body_ba.items()}
    assert body_ab == neg


def test_current_annihilates_vacuum_at_positive_mode():
    fams = build_currents(SU2, 2)
    for lab in sorted(fams):
        for m in (1, 2, 3):
            assert apply_body(vacuum(), fams[lab], m) == {}


# -- the one commutator on random bodies --------------------------------------

_FLAVOR = st.sampled_from(("A", "B", "C"))
_BODIES = st.dictionaries(
    st.tuples(_FLAVOR, _FLAVOR), st.fractions(-3, 3, max_denominator=4).filter(bool), max_size=4
)
_MODES = st.integers(-3, 3)


@settings(max_examples=500, deadline=None)
@given(P=_BODIES, m=_MODES, Q=_BODIES, n=_MODES)
def test_mode_commutator_is_antisymmetric(P, m, Q, n):
    # the unordered table check in check_km_table relies on this
    body, anomaly = mode_commutator(P, m, Q, n)
    back, back_anomaly = mode_commutator(Q, n, P, m)
    assert body == {pair: -coeff for pair, coeff in back.items()}
    assert anomaly == -back_anomaly


@settings(max_examples=500, deadline=None)
@given(P=_BODIES, m=_MODES, Q=_BODIES, n=_MODES, R=_BODIES, r=_MODES)
def test_jacobi_residual_vanishes_on_random_bodies(P, m, Q, n, R, r):
    assert jacobi_residual((P, m), (Q, n), (R, r)) == ({}, 0)


# -- Jacobi identity of the measured structure ------------------------------

MODE_TRIPLES = ((1, 1, -2), (1, -1, 0), (2, -1, -1))


def test_wick_jacobi_su2_full():
    fams = build_currents(SU2, 2)
    labels = sorted(fams)
    checked = 0
    for lab1, lab2, lab3 in itertools.combinations_with_replacement(labels, 3):
        for m, n, r in MODE_TRIPLES:
            body, anomaly = jacobi_residual((fams[lab1], m), (fams[lab2], n), (fams[lab3], r))
            assert not body and anomaly == 0, (lab1, lab2, lab3, m, n, r)
            checked += 1
    assert checked == 816 * len(MODE_TRIPLES)


def test_wick_jacobi_su3_spot():
    fams = build_currents(SU3, 2)
    triples = [
        (("J", 1), ("J", 2), ("J", 3)),
        (("J", 1), ("G", 2, 1), ("G", 3, 2)),
        (("G", 1, 1), ("G", 1, 2), ("T", 1, 2)),
        (("T", 1, 1), ("T", 1, 2), ("T", 2, 1)),
        (("J", 8), ("H", 1, 1, 2), ("T", 2, 2)),
    ]
    for lab1, lab2, lab3 in triples:
        for m, n, r in MODE_TRIPLES:
            body, anomaly = jacobi_residual((fams[lab1], m), (fams[lab2], n), (fams[lab3], r))
            assert not body and anomaly == 0


# -- conventions block -------------------------------------------------------


def test_conventions_block_is_complete():
    block = conventions()
    for key in (
        "statistics",
        "frequency_split",
        "mode_transform",
        "anomaly_sign",
        "zeta_pairing",
        "current_normalization",
        "level_sign",
        "gl_central_sign",
    ):
        assert key in block and isinstance(block[key], str)
    assert "e^{-int}" in block["mode_transform"]
