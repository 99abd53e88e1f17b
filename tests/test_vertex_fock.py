"""Realized-generator checks: vertex mechanics, table sweeps, charge fits."""

from __future__ import annotations

import functools
import hashlib
import math
import re
import time

import pytest

from curralg.formal_algebra import generator_labels, make_table
from curralg.lie_core import build_su
from curralg.fock_oracle import key_level, key_npart, state_add
from curralg.wick_currents import measure_level, measure_k1_k2
from curralg import vertex_fock
from curralg.vertex_fock import (
    NUMERIC_TABLES,
    VACUUM_QP,
    BoundaryError,
    FitError,
    OperatorMatrix,
    RealizedGenerators,
    TruncationSpec,
    VertexSpace,
    check_table_numeric,
    default_charges,
    default_probe_keys,
    measure_c1_c2,
    measure_vertex_level,
    p_slot_key,
    q_slot_key,
    stage_deviations,
    _bracket_at,
    _expected_column,
    _fit,
)

SU2 = build_su(2)
DEFAULT = TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3)

PHI1 = ((("phi", 1), False, 0), 1)
PHI2 = ((("phi", 2), False, 0), 1)


@functools.lru_cache(maxsize=None)
def _space(spec: TruncationSpec = DEFAULT) -> VertexSpace:
    return VertexSpace(SU2, spec)


@functools.lru_cache(maxsize=None)
def _gens(spec: TruncationSpec = DEFAULT, include_T: bool = True) -> RealizedGenerators:
    return RealizedGenerators(_space(spec), include_T=include_T)


@functools.lru_cache(maxsize=None)
def _charges(spec: TruncationSpec = DEFAULT) -> tuple:
    ch = default_charges(_space(spec))
    return tuple(sorted(ch.items()))


def _as_dict(col: tuple) -> dict:
    """A flat column (i1, amp1, i2, amp2, ...) as {i: amp}, in column order."""
    it = iter(col)
    return dict(zip(it, it))


def _keyed(space: VertexSpace, state: dict) -> dict:
    """A state over basis indices as {basis key: amp}, in its order."""
    return {space.key(i): amp for i, amp in state.items()}


def _column(op: OperatorMatrix, key: tuple) -> dict:
    """The column of ``op`` on the basis key ``key``, as {basis key: amp} in column order."""
    return _keyed(op.space, _as_dict(op.column(op.space.index(key))))


def _commutator(op_x: OperatorMatrix, op_y: OperatorMatrix, key: tuple) -> dict:
    """The commutator column [op_x, op_y] on the basis key ``key``, as {basis key: amp}."""
    return _keyed(op_x.space, op_x.commutator_column(op_y, op_x.space.index(key)))


def _merge(dst: dict, src: dict, factor=1) -> dict:
    for key, amp in src.items():
        new = dst.get(key, 0) + amp * factor
        if new == 0:
            dst.pop(key, None)
        else:
            dst[key] = new
    return dst


def _dist(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def _total_level(key: tuple) -> int:
    """Excitation level of a basis key (qp_key, w, cur_key): trajectory plus current sector."""
    return key_level(key[0]) + key_level(key[2])


def boundary_probe_keys(space: VertexSpace) -> list:
    """Probes where the lattice window or the particle cap can clip.

    A commutator on these states loses weight asymmetrically between its two
    application orders, so the deviation from the closed form is nonzero and
    must shrink when every cutoff grows by one stage.
    """
    sp = space.spec
    zero = (0,) * sp.N
    edge = (sp.P,) + zero[1:]
    cap_filler = (PHI1, (PHI2[0], sp.current_cap - 2)) if sp.current_cap > 2 else (PHI1,)
    return [
        (VACUUM_QP, edge, ()),
        (p_slot_key(1), edge, ()),
        (VACUUM_QP, zero, tuple(sorted(cap_filler))),
        (VACUUM_QP, edge, (PHI1,)),
    ]


# -- truncation spec ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(N=0)
    with pytest.raises(ValueError):
        TruncationSpec(L=0)
    with pytest.raises(ValueError):
        TruncationSpec(P=0)
    with pytest.raises(ValueError):
        TruncationSpec(M=0)
    with pytest.raises(ValueError):
        TruncationSpec(current_cap=1)


def test_scaled_stage_grows_every_biting_cutoff():
    assert DEFAULT.scaled_stage() == TruncationSpec(N=2, L=6, P=3, M=2, current_cap=5)


# -- vertex mode basics -------------------------------------------------------


def test_vertex_at_zero_momentum():
    space = _space()
    zero = (0, 0)
    ident = OperatorMatrix(space, ("V", zero, 0))
    probe = (p_slot_key(1), (1, 0), (PHI1,))
    assert _column(ident, probe) == {probe: 1}
    for mode in (-2, -1, 1, 2):
        assert _column(OperatorMatrix(space, ("V", zero, mode)), probe) == {}


def test_vertex_zero_mode_shifts_vacuum():
    space = _space()
    m = (1, -1)
    op = OperatorMatrix(space, ("V", m, 0))
    vac = (VACUUM_QP, (0, 0), ())
    shifted = (VACUUM_QP, m, ())
    col = _column(op, vac)
    assert col[shifted] == 1
    assert all(key[1] == m for key in col)


def test_vertex_creator_mode_on_vacuum():
    # (V_m)_{-1}|0> = i m_mu q^mu_{-1}|m>, which is m_mu q^mu_{-1}|m> in the
    # basis rephased by i^(n_q - n_p); positive modes annihilate.
    space = _space()
    m = (1, -1)
    vac = (VACUUM_QP, (0, 0), ())
    col = _column(OperatorMatrix(space, ("V", m, -1)), vac)
    want = {
        (q_slot_key(1), m, ()): m[0],
        (q_slot_key(2), m, ()): m[1],
    }
    assert _dist(col, want) == 0
    assert _column(OperatorMatrix(space, ("V", m, 1)), vac) == {}
    assert _column(OperatorMatrix(space, ("V", m, 2)), vac) == {}


def test_vertex_mode_beyond_level_39():
    # (V_m)_{-40}|0> at N = M = 1 is the single state (q_{-1})^40 |m>,
    # weighted (i m)^40 / 40!; the amplitude needs 40!, past any short table.
    space = VertexSpace(SU2, TruncationSpec(N=1, L=40, P=2, M=1))
    col = space.apply_vertex((1,), -40, {(VACUUM_QP, (0,), ()): 1.0})
    q40 = ((((("traj", 1), False, -1), 40),), (1,), ())
    assert list(col) == [q40]
    assert col[q40] == pytest.approx(1 / math.factorial(40))


def test_vertex_momentum_window_enforced():
    space = _space()
    with pytest.raises(BoundaryError):
        OperatorMatrix(space, ("V", (3, 0), 0))


def test_vertex_elements_stable_under_level_growth():
    # Exact per-state expansion: growing L cannot move any element between
    # low-level states.
    small = _space()
    big = _space(TruncationSpec(N=2, L=6, P=2, M=2, current_cap=3))
    m = (1, 0)
    probes = [
        (VACUUM_QP, (0, 0), ()),
        (p_slot_key(1), (0, 0), ()),
        (q_slot_key(2), (0, 0), ()),
    ]
    for mode in (-2, -1, 0, 1):
        op_s = OperatorMatrix(small, ("V", m, mode))
        op_b = OperatorMatrix(big, ("V", m, mode))
        for probe in probes:
            col_s = {k: v for k, v in _column(op_s, probe).items() if _total_level(k) <= 1}
            col_b = {k: v for k, v in _column(op_b, probe).items() if _total_level(k) <= 1}
            assert _dist(col_s, col_b) < 1e-10


# -- realized generator structure ---------------------------------------------


def test_all_generators_preserve_total_level():
    gens = _gens()
    momenta = ((1, 0), (0, -1), (1, 1))
    probes = default_probe_keys(_space())
    for label in generator_labels(("J", "G", "H", "S1", "L"), SU2.dim, DEFAULT.N):
        for m in momenta:
            op = gens.operator(label, m)
            for probe in probes:
                for key in _column(op, probe):
                    assert _total_level(key) == _total_level(probe), (label, m, probe)


def test_realized_currents_annihilate_vacuum():
    gens = _gens()
    space = _space()
    for label in generator_labels(("J", "G", "H"), SU2.dim, DEFAULT.N):
        for m in ((0, 0), (1, 0), (0, 1), (1, -1)):
            for w in ((0, 0), (1, 0)):
                assert _column(gens.operator(label, m), (VACUUM_QP, w, ())) == {}


def test_one_chain_closedness_matrix_identity():
    # (m)_rho S1^rho(m) = 0 on every probe, and S1 at zero argument is zero.
    gens = _gens()
    for m in ((1, 0), (0, 1), (1, -1), (2, 1)):
        for probe in default_probe_keys(_space()):
            acc: dict = {}
            for rho in (1, 2):
                if m[rho - 1]:
                    _merge(acc, _column(gens.operator(("S1", rho), m), probe), m[rho - 1])
            assert _dist(acc, {}) == 0
    for rho in (1, 2):
        op = gens.operator(("S1", rho), (0, 0))
        for probe in default_probe_keys(_space()):
            assert _column(op, probe) == {}


def test_current_bracket_f_channel():
    # [Jcal^1(m), Jcal^2(n)] = f^{12c} Jcal^c(m+n) away from the diagonal.
    gens = _gens()
    m, n = (1, 0), (0, 1)
    r = (1, 1)
    probe = (p_slot_key(1), (0, 0), (PHI1,))
    got = _commutator(gens.operator(("J", 1), m), gens.operator(("J", 2), n), probe)
    want: dict = {}
    for c in (1, 2, 3):
        coeff = float(SU2.f_at(1, 2, c))
        if coeff:
            _merge(want, _column(gens.operator(("J", c), r), probe), coeff)
    assert _dist(got, want) < 1e-12


def test_l_s1_bracket_matches_module_action():
    # [L_mu(m), S1^nu(n)] = n_mu S1^nu(m+n) + delta^nu_mu m_rho S1^rho(m+n)
    gens = _gens()
    m, n = (1, 0), (0, 1)
    r = (1, 1)
    for mu in (1, 2):
        for nu in (1, 2):
            for probe in (
                (p_slot_key(1), (0, 0), ()),
                (p_slot_key(2), (1, 0), ()),
            ):
                got = _commutator(gens.operator(("L", mu), m), gens.operator(("S1", nu), n), probe)
                want: dict = {}
                if n[mu - 1]:
                    _merge(want, _column(gens.operator(("S1", nu), r), probe), n[mu - 1])
                if mu == nu:
                    for rho in (1, 2):
                        if m[rho - 1]:
                            _merge(
                                want,
                                _column(gens.operator(("S1", rho), r), probe),
                                m[rho - 1],
                            )
                assert _dist(got, want) < 1e-12, (mu, nu, probe)


def test_h_family_commutes_numerically():
    gens = _gens()
    probe = (p_slot_key(1), (0, 0), (PHI1,))
    op1 = gens.operator(("H", 1, 1, 2), (1, 0))
    op2 = gens.operator(("H", 2, 1, 2), (0, -1))
    assert _dist(_commutator(op1, op2, probe), {}) == 0


def test_generator_momentum_window_enforced():
    gens = _gens()
    with pytest.raises(BoundaryError):
        gens.operator(("J", 1), (3, 0))


def test_momentum_window_enforced_after_the_label_is_memoised():
    gens = RealizedGenerators(_space())
    inside = gens.operator(("J", 1), (2, 0))
    assert gens.operator(("J", 1), (2, 0)) is inside  # a memo hit
    for m in ((3, 0), (0, -3), (2, 3)):
        with pytest.raises(BoundaryError):
            gens.operator(("J", 1), m)
        assert gens.operator(("J", 1), (2, 0)) is inside


def test_operator_keys_are_checked_when_the_handle_is_made():
    # labels the space does not realize, or a lattice vector of the wrong
    # dimension, are refused before any column is built
    space = VertexSpace(SU2, DEFAULT)
    gens = RealizedGenerators(space)
    for label in (("S1", 5), ("L", 3), ("G", 1, 3), ("J", 9), ("H", 1, 2, 1), "V"):
        with pytest.raises(ValueError, match="unknown generator label"):
            gens.operator(label, (1, 0))
    with pytest.raises(ValueError, match="wrong dimension"):
        gens.operator(("J", 1), (1, 0, 0))
    with pytest.raises(ValueError, match="wrong dimension"):
        OperatorMatrix(space, ("V", (1, 0, 0), 0))
    assert not space._columns and not space._kernels and not space._current_memo and not space._vertex_memo
    assert gens.operator(("J", 1), (1, 0)).op_key == (("J", 1), (1, 0), True)


# -- charge measurements (the cross-sector identities) -----------------------


# One generator per realized species, and states whose keys share a
# trajectory key or a current key but not the lattice point, so that a term
# memo keyed without w, cur_key or qp_key hands one state another's terms.
_MEMO_LABELS = [("J", 1), ("G", 2, 1), ("H", 3, 1, 2), ("S1", 2), ("L", 1)]
_MEMO_MOMENTA = [(1, 0), (0, -1), (1, 1)]
_MEMO_STATES = [
    (p_slot_key(1), (0, 0), ()),
    (p_slot_key(1), (1, 0), ()),
    (p_slot_key(1), (-1, 1), (PHI1,)),
    (VACUUM_QP, (1, 0), (PHI1,)),
    (VACUUM_QP, (0, -1), (PHI1,)),
    (q_slot_key(2), (0, -1), (PHI1,)),
    (p_slot_key(1), (-1, 1), (PHI2,)),
    (p_slot_key(1) + p_slot_key(2), (0, 0), ()),
    (p_slot_key(1) + p_slot_key(2), (1, -1), (PHI1,)),
]


def _memo_columns(space: VertexSpace) -> list:
    gens = RealizedGenerators(space)
    return [
        _column(gens.operator(label, m), key)
        for label in _MEMO_LABELS
        for m in _MEMO_MOMENTA
        for key in _MEMO_STATES
    ]


def test_term_memos_give_the_columns_of_a_fresh_space():
    warmed = VertexSpace(SU2, DEFAULT)
    _memo_columns(warmed)
    assert warmed._current_memo and warmed._vertex_memo
    again = _memo_columns(warmed)
    fresh = []
    for label in _MEMO_LABELS:
        for m in _MEMO_MOMENTA:
            for key in _MEMO_STATES:
                gens = RealizedGenerators(VertexSpace(SU2, DEFAULT))
                fresh.append(_column(gens.operator(label, m), key))
    assert again == fresh
    assert any(again)


def test_term_memos_belong_to_one_space():
    # M bounds the q creators a vertex mode emits, so a memo shared between
    # spaces would hand one space the other's terms.
    narrow = TruncationSpec(N=2, L=4, P=2, M=1, current_cap=3)
    cols_default = _memo_columns(VertexSpace(SU2, DEFAULT))
    space = VertexSpace(SU2, narrow)
    assert not space._current_memo and not space._vertex_memo
    cols = _memo_columns(space)
    assert cols == _memo_columns(VertexSpace(SU2, narrow))
    assert cols != cols_default


def _stored_columns(space: VertexSpace) -> int:
    return sum(len(columns) for columns in space._columns.values())


# One probe with a trajectory and a current quantum keeps the sweeps below quick.
_STORE_PROBES = [(p_slot_key(1), (0, 0), (PHI1,))]


def test_column_store_is_shared_across_table_sweeps():
    charges = dict(_charges())
    warmed = VertexSpace(SU2, DEFAULT)
    for name in ("CLASSICAL_MF", "EMB2"):
        check_table_numeric(name, warmed, probes=_STORE_PROBES, charges=charges)
    before = _stored_columns(warmed)
    rows = check_table_numeric("DIFF_EXT", warmed, probes=_STORE_PROBES, charges=charges)
    fresh = VertexSpace(SU2, DEFAULT)
    assert rows == check_table_numeric("DIFF_EXT", fresh, probes=_STORE_PROBES, charges=charges)
    # the earlier sweeps already built part of what DIFF_EXT needs
    assert 0 < _stored_columns(warmed) - before < _stored_columns(fresh)
    filled = _stored_columns(warmed)
    assert check_table_numeric("DIFF_EXT", warmed, probes=_STORE_PROBES, charges=charges) == rows
    assert _stored_columns(warmed) == filled


def test_column_store_keeps_include_T_apart():
    space = VertexSpace(SU2, DEFAULT)
    m = (1, 1)
    with_T = RealizedGenerators(space, include_T=True).operator(("L", 1), m)
    without_T = RealizedGenerators(space, include_T=False).operator(("L", 1), m)
    cols_T = [_column(with_T, key) for key in _MEMO_STATES]
    cols_no_T = [_column(without_T, key) for key in _MEMO_STATES]
    assert cols_T != cols_no_T
    assert {key for key in space._columns if key[0] == ("L", 1)} == {(("L", 1), m, True), (("L", 1), m, False)}
    for include_T, cols in ((True, cols_T), (False, cols_no_T)):
        fresh = RealizedGenerators(VertexSpace(SU2, DEFAULT), include_T=include_T).operator(("L", 1), m)
        assert cols == [_column(fresh, key) for key in _MEMO_STATES]


def test_column_store_shares_keys_and_the_empty_column():
    space = VertexSpace(SU2, DEFAULT)
    charges = dict(_charges())
    measure_c1_c2(space)
    for name in NUMERIC_TABLES:
        check_table_numeric(name, space, probes=_STORE_PROBES, charges=charges)
    # L's zero-mode term w_mu V_{m,0} is merged before the column is
    # flattened: on the shifted vacuum, L_1(0) has an empty kernel and only that term
    shifted_vacuum = space.index((VACUUM_QP, (1, 0), ()))
    assert RealizedGenerators(space).operator(("L", 1), (0, 0)).column(shifted_vacuum) == (shifted_vacuum, 1.0)
    stored = [(op_key, i, col) for op_key, columns in space._columns.items() for i, col in columns.items()]
    kernels = [kernel for by_key in space._kernels.values() for kernel in by_key.values()]
    # every column and kernel is a flat tuple: (index, amp, ...) and (qp_key, cur_key, amp, ...)
    assert all(type(col) is tuple and len(col) % 2 == 0 for _, _, col in stored)
    assert all(type(kernel) is tuple and len(kernel) % 3 == 0 for kernel in kernels)
    assert {type(amp) for _, _, col in stored for amp in col[1::2]} == {float}
    assert {type(amp) for kernel in kernels for amp in kernel[2::3]} == {float}
    # columns and stores hold basis indices, shared between columns; the index holds one object per key
    indices = [j for _, _, col in stored for j in col[::2]] + [i for _, i, _ in stored]
    assert {type(j) for j in indices} == {int}
    assert set(indices) <= set(range(len(space._keys))) and len(set(indices)) < len(indices)
    assert len({id(key) for key in space._keys}) == len(set(space._keys)) == len(space._keys)
    empty = [col for _, _, col in stored if not col]
    assert empty and all(col == () for col in empty)
    fresh = VertexSpace(SU2, DEFAULT)
    shifted = [
        (op_key, space.key(i), col)
        for op_key, i, col in stored
        if op_key[0][0] == "L" and space.key(i)[1][op_key[0][1] - 1]
    ]
    assert any(col for _, _, col in shifted)
    for op_key, key, col in shifted:
        want = _column(OperatorMatrix(fresh, op_key), key)
        assert list(_keyed(space, _as_dict(col)).items()) == list(want.items()), (op_key, key)


def test_column_refuses_a_lattice_label_of_the_wrong_dimension():
    # the lattice label must have N components: a shorter or longer one is
    # refused by name when the key is indexed, so no column is read, and
    # nothing is stored for it
    space = VertexSpace(SU2, DEFAULT)
    gens = RealizedGenerators(space)
    for op, key in (
        (OperatorMatrix(space, ("V", (1, 0), 0)), (VACUUM_QP, (0,), ())),
        (OperatorMatrix(space, ("V", (1, 0), 0)), (VACUUM_QP, (0, 0, 7), ())),
        (gens.operator(("L", 2), (1, 0)), (VACUUM_QP, (1,), ())),
        (gens.operator(("J", 1), (0, 1)), (p_slot_key(1), (1, 0, 0), (PHI1,))),
    ):
        with pytest.raises(ValueError, match=re.escape(f"basis key {key} has a lattice label of the wrong dimension")):
            op.column(space.index(key))
    assert not any(space._columns.values()) and not any(space._kernels.values())
    assert not space._index and not space._keys


def test_basis_index_is_one_to_one_over_the_stored_keys():
    # a space enumerates no basis when it is built: a key gets its index when it is first met
    space = VertexSpace(SU2, DEFAULT)
    assert not space._index and not space._keys
    measure_c1_c2(space)
    check_table_numeric("EMB2", space, probes=_STORE_PROBES, charges=dict(_charges()))
    keys = space._keys
    assert len(keys) > 1 and sorted(space._index.values()) == list(range(len(keys)))
    assert len(set(keys)) == len(keys)
    for i, key in enumerate(keys):
        copy = tuple(list(key))  # an equal key, another object
        assert copy is not key and space.index(copy) == i
        assert space.key(space.index(copy)) is key
    # a new key gets the next index, once
    new, n = (p_slot_key(1) + p_slot_key(2), (2, -2), (PHI1,)), len(keys)
    assert new not in space._index
    assert space.index(new) == n and space.index(new) == n and space.key(n) is new


# Oscillator keys, each met at several lattice points: the centre, the
# window's edges and corners, and points with both w_mu nonzero.  Each
# operator builds one kernel per oscillator key and serves every lattice
# point from it; a momentum that carries w + m out of the window empties the
# column.
_KERNEL_OSC = [
    (VACUUM_QP, ()),
    (p_slot_key(1), ()),
    (q_slot_key(2), (PHI1,)),
    (p_slot_key(1) + p_slot_key(2), (PHI1,)),
]
_KERNEL_W = [(0, 0), (1, -1), (-1, 2), (2, 0), (0, -2), (2, 2), (-2, 1)]
_KERNEL_MOMENTA = [(1, 0), (0, -1), (1, 1), (-2, 1)]


def _kernel_ops(labels: list, L_momenta: list) -> list:
    return (
        [("V", m, j) for m in _KERNEL_MOMENTA for j in (-1, 0, 2)]
        + [(label, m, True) for label in labels for m in _KERNEL_MOMENTA]
        + [(("L", mu), m, include_T) for mu in (1, 2) for m in L_momenta for include_T in (True, False)]
    )


# The su(2) amplitudes are multiples of 1/12; at su(3) 128 of the 1,344
# columns carry multiples of sqrt(3), so a change in the order of a float
# sum could show there.  Each input pins the SHA-256 of every column's sorted
# items, which fixes the amplitudes whatever the key order; the su(2) input
# also pins the order of the keys, which VertexSpace.apply shares with the
# kernels.
_KERNEL_INPUTS = {
    "su2": (
        SU2,
        _MEMO_LABELS[:4],
        _KERNEL_MOMENTA + [(0, 0)],
        0,
        "4dbcfa5394c59ac978e7e518586d09d0bf264abce6b81f8ab3f82fd230dbd367",
        "0628be08636bd0720840ecabd6f04c961a8a31f63a25a51d8cbcba735c90fe11",
    ),
    "su3": (
        build_su(3),
        [("J", 4), ("J", 8), ("G", 8, 1), ("H", 8, 1, 2), ("S1", 2)],
        _KERNEL_MOMENTA,
        128,
        None,
        "34d6c9150d720e357e64499bae2778a6e156064e2ae47a57718316cc8d6b8951",
    ),
}


@pytest.mark.parametrize("name", list(_KERNEL_INPUTS))
def test_kernel_columns_are_the_projected_columns(name):
    # a column is its kernel re-keyed at w + m, with L_mu's zero-mode term
    # w_mu V_{m,0} added last from V_{m,0}'s kernel; the amplitudes and the
    # order of the keys are those of projecting the exact application
    sc, labels, L_momenta, irrational_columns, ordered_digest, sorted_digest = _KERNEL_INPUTS[name]
    space = VertexSpace(sc, DEFAULT)
    counts = {"empty": 0, "edge": 0, "w_mu": 0}
    ordered, order_free = hashlib.sha256(), hashlib.sha256()
    served = set()  # (operator, oscillator key) pairs with a column whose w + m is in the window
    columns = irrational = 0
    for op_key in _kernel_ops(labels, L_momenta):
        op = OperatorMatrix(space, op_key)
        head, m, _ = op_key
        for qp_key, cur_key in _KERNEL_OSC:
            for w in _KERNEL_W:
                key = (qp_key, w, cur_key)
                col = _column(op, key)
                want = space.project(space.apply(op_key, key))
                assert list(col.items()) == list(want.items()), (op_key, key)
                ordered.update(repr(list(col.items())).encode())
                order_free.update(repr(sorted(col.items())).encode())
                columns += 1
                at_w_mu = head[0] == "L" and w[head[1] - 1] != 0
                if space.in_window([a + b for a, b in zip(w, m)]):
                    served.add((op_key, qp_key, cur_key))
                    if at_w_mu:
                        served.add((("V", m, 0), qp_key, cur_key))
                if not col:
                    counts["empty"] += 1
                    continue
                counts["edge"] += DEFAULT.P in map(abs, next(iter(col))[1])
                counts["w_mu"] += at_w_mu
                irrational += any(abs(12 * amp - round(12 * amp)) > 1e-9 for amp in col.values())
    assert min(counts.values()) > 0, counts
    assert (columns, irrational) == (1344, irrational_columns)
    if ordered_digest is not None:
        assert ordered.hexdigest() == ordered_digest
    assert order_free.hexdigest() == sorted_digest
    # one kernel per operator and oscillator key it serves, whatever the
    # lattice point, and V_{m,0}'s for L_mu's columns at w_mu != 0
    assert sum(map(len, space._kernels.values())) == len(served)


def test_vertex_level_equals_wick_level():
    t0 = time.time()
    k_vertex = measure_vertex_level(_space())
    k_wick = measure_level(SU2, N=2)
    assert abs(k_vertex - float(k_wick)) < 1e-8
    assert k_wick == 8
    assert time.time() - t0 < 300.0


def test_c1_c2_match_wick_charges():
    t0 = time.time()
    fit = measure_c1_c2(_space(), include_T=True)
    k1, k2 = measure_k1_k2(SU2, N=2)
    assert abs(fit.c1 - (1 + float(k1))) < 1e-8
    assert abs(fit.c2 - float(k2)) < 1e-8
    assert (fit.c1, fit.c2) == (4.0, 27.0)
    assert fit.residual < 1e-9
    assert abs(fit.k_s1 - 8.0) < 1e-8
    assert time.time() - t0 < 300.0


@pytest.mark.parametrize("n,N", [(3, 2), (2, 3)])
def test_c1_c2_cross_check_off_the_default_point(n, N):
    """c1 = 1 + k1 and c2 = k2 away from su(2) at N = 2; the vertex level
    equals the Wick level there too."""
    t0 = time.time()
    sc = build_su(n)
    fit = measure_c1_c2(VertexSpace(sc, TruncationSpec(N=N, L=4, P=2, M=2, current_cap=3)))
    k1, k2 = measure_k1_k2(sc, N)
    assert (fit.c1, fit.c2) == (1 + k1, k2)
    assert fit.k_s1 == measure_level(sc, N)
    assert fit.residual == 0.0
    assert time.time() - t0 < 30.0


def test_c1_c2_with_currents_switched_off():
    # Pure qp sector: the +1 of c1 = 1 + k1 survives, everything else drops.
    fit = measure_c1_c2(_space(), include_T=False)
    assert abs(fit.c1 - 1.0) < 1e-8
    assert abs(fit.c2 - 0.0) < 1e-8


def test_rephased_sector_holds_only_real_amplitudes():
    # In the basis rephased by i^(n_q - n_p) every realized amplitude is a
    # real double, and a zero charge fits as +0.0.
    space = _space()
    measure_c1_c2(space)
    check_table_numeric("DIFF_EXT", space, window=1, charges=dict(_charges()))
    amps = [amp for columns in space._columns.values() for col in columns.values() for amp in _as_dict(col).values()]
    assert amps
    assert {type(amp) for amp in amps} == {float}
    c2 = measure_c1_c2(space, include_T=False).c2
    assert c2 == 0.0 and math.copysign(1.0, c2) == 1.0


def test_charge_fits_need_two_directions():
    space = VertexSpace(SU2, TruncationSpec(N=1, L=4, P=3, M=2, current_cap=3))
    with pytest.raises(ValueError):
        measure_vertex_level(space)
    with pytest.raises(ValueError):
        measure_c1_c2(space)


# The fit kernel on the (J^1(e1), J^1(e2)) bracket, whose column is
# -k S1^1(e1 + e2) with k = 8 on both probes.
_FIT_PROBES = [(p_slot_key(1), (0, 0), ()), (p_slot_key(2), (0, 0), ())]
_J_E1, _J_E2 = (("J", 1), (1, 0)), (("J", 1), (0, 1))


def _s1_column(i):
    return _gens().operator(("S1", 1), (1, 1)).column(i)


def test_fit_kernel_reads_the_level():
    assert _fit(_gens(), _J_E1, _J_E2, [], _s1_column, _FIT_PROBES, "k") == (-8.0, 0.0)


def test_fit_kernel_refuses_probes_that_disagree():
    scale = dict(zip(_FIT_PROBES, (1.0, 2.0)))

    def reference(i):
        return tuple(x for j, amp in _as_dict(_s1_column(i)).items() for x in (j, amp * scale[_gens().space.key(i)]))

    with pytest.raises(FitError, match="varies across probes"):
        _fit(_gens(), _J_E1, _J_E2, [], reference, _FIT_PROBES, "k")


def test_fit_kernel_refuses_when_no_probe_is_usable():
    # [X, X] vanishes and so does the reference: every probe is skipped
    with pytest.raises(FitError, match="no usable probe"):
        _fit(_gens(), _J_E1, _J_E1, [], lambda probe: (), _FIT_PROBES, "k")


def test_fit_kernel_reads_an_empty_reference_as_zero():
    gens = _gens()
    op_x, op_y = gens.operator(*_J_E1), gens.operator(*_J_E2)
    norm = max(max(abs(a) for a in _commutator(op_x, op_y, probe).values()) for probe in _FIT_PROBES)
    assert norm > 0
    assert _fit(gens, _J_E1, _J_E2, [], lambda probe: (), _FIT_PROBES, "k") == (0.0, norm)


def test_default_charges_contents():
    ch = dict(_charges())
    assert ch["k"] == 8.0
    assert ch["c1"] == 4.0
    assert ch["c2"] == 27.0


# -- numeric table sweeps -----------------------------------------------------


@pytest.mark.parametrize("table_name", ["CLASSICAL_MF", "EMB2", "DIFF_EXT"])
def test_numeric_table_sweep_is_exact_on_safe_probes(table_name):
    rows = check_table_numeric(table_name, _space(), charges=dict(_charges()))
    assert rows
    worst = max(rows, key=lambda r: r.deviation)
    assert worst.deviation < 1e-9, worst


@pytest.mark.parametrize("table_name", NUMERIC_TABLES)
def test_expected_columns_lie_inside_the_cutoffs(table_name):
    """The closed-form column is a sum of projected columns, so projecting
    it again changes nothing, on interior and boundary probes alike."""
    gens, charges = _gens(), dict(_charges())
    space = gens.space
    table = make_table(table_name, SU2, DEFAULT.N)
    labels = generator_labels(table.species, SU2.dim, DEFAULT.N)
    vecs = [(1, 0), (0, -1), (-1, 1)]
    checked = 0
    for probe in default_probe_keys(space) + boundary_probe_keys(space):
        for i, lab1 in enumerate(labels):
            for lab2 in labels[i:]:
                for m in vecs:
                    for n in vecs:
                        at = _bracket_at(gens, charges, lab1, m, lab2, n)
                        col = _keyed(space, _expected_column(gens, table, at, space.index(probe)))
                        assert space.project(col) == col, (lab1, m, lab2, n, probe)
                        checked += bool(col)
    assert checked


def test_numeric_sweep_rejects_symbolic_only_tables():
    with pytest.raises(ValueError):
        check_table_numeric("MF", _space(), {})
    with pytest.raises(ValueError):
        check_table_numeric("EMB1", _space(), {})


def test_numeric_sweeps_reject_inputs_that_check_nothing():
    space, charges = _space(), dict(_charges())
    with pytest.raises(ValueError, match="window"):
        check_table_numeric("CLASSICAL_MF", space, window=-1, charges=charges)
    # the closed form reaches m + n, out to twice the window
    with pytest.raises(ValueError, match=r"window 2 needs P >= 4, got P=2"):
        check_table_numeric("CLASSICAL_MF", space, window=2, charges=charges)
    with pytest.raises(ValueError, match="probe"):
        check_table_numeric("CLASSICAL_MF", space, probes=[], charges=charges)
    element = (("J", 1), (1, 0), ("J", 2), (0, 1), (p_slot_key(1), (0, 0), ()))
    for name in ("MF", "EMB1"):
        with pytest.raises(ValueError, match="numeric sweep supports"):
            stage_deviations(name, space, [element], charges)
    with pytest.raises(ValueError, match="empty"):
        stage_deviations("CLASSICAL_MF", space, [], charges)


def test_stage_deviations_checks_every_momentum_before_any_column():
    # m and n lie in the window, m + n = (3, 0) does not; the element after
    # the valid one is refused before the valid one builds a column
    space = VertexSpace(SU2, DEFAULT)
    inside = (("J", 1), (1, 0), ("J", 2), (0, 1), (p_slot_key(1), (0, 0), ()))
    outside = (("J", 1), (2, 0), ("J", 2), (1, 0), (p_slot_key(1), (0, 0), ()))
    message = re.escape(f"element {outside} needs m, n and m + n within P=2")
    with pytest.raises(ValueError, match=message):
        stage_deviations("CLASSICAL_MF", space, [inside, outside], dict(_charges()))
    assert not space._columns and not space._kernels


def test_numeric_sweeps_reject_probes_and_labels_that_check_nothing():
    # every column on a probe outside the cutoffs is empty, so both sides of
    # every bracket agree on it; a label outside the table's species has no
    # closed form.  Each is refused, by name, before any column is built.
    charges = dict(_charges())
    outside = [
        (VACUUM_QP, (9, 9), ()),  # outside the lattice window
        ((((("traj", 1), False, -2), 3),), (0, 0), ()),  # level 6 > L
        (VACUUM_QP, (0, 0), ((PHI1[0], 5),)),  # five quanta > current_cap
        (VACUUM_QP, (0,), ()),  # lattice label of the wrong dimension
    ]
    for probe in outside:
        space = VertexSpace(SU2, DEFAULT)
        with pytest.raises(ValueError, match=re.escape(f"probe {probe}")):
            check_table_numeric("EMB2", space, charges, probes=[probe])
        element = (("J", 1), (1, 0), ("J", 2), (0, 1), probe)
        with pytest.raises(ValueError, match=re.escape(f"probe {probe}")):
            stage_deviations("EMB2", space, [element], charges)
        assert not space._columns and not space._kernels
    space = VertexSpace(SU2, DEFAULT)
    inside = (p_slot_key(1), (0, 0), ())
    valid = (("J", 1), (1, 0), ("J", 2), (0, 1), inside)
    for element in [(("L", 1), (1, 0), ("J", 2), (0, 1), inside), (("J", 2), (1, 0), ("L", 1), (0, 1), inside)]:
        with pytest.raises(ValueError, match=re.escape("label ('L', 1) is not a generator of EMB2")):
            stage_deviations("EMB2", space, [valid, element], charges)
    # a momentum of the wrong dimension, after a valid element
    element = (("J", 1), (1,), ("J", 2), (0, 1), inside)
    with pytest.raises(ValueError, match=re.escape(f"element {element} has a lattice vector of the wrong dimension")):
        stage_deviations("EMB2", space, [valid, element], charges)
    assert not space._columns and not space._kernels


def test_numeric_entry_points_share_the_deviation_kernel():
    """stage_deviations reproduces every nonzero row of the sweep exactly,
    the worst one included."""
    space, charges = _space(), dict(_charges())
    rows = check_table_numeric("CLASSICAL_MF", space, probes=boundary_probe_keys(space), charges=charges)
    nonzero = [r for r in rows if r.deviation > 0]
    assert nonzero  # the boundary probes clip some brackets
    again = stage_deviations(
        "CLASSICAL_MF", space, [(r.label1, r.m, r.label2, r.n, r.probe) for r in nonzero], charges
    )
    assert again == nonzero


def test_numeric_sweeps_reject_charges_the_table_reads_and_lacks():
    """A charge the table's closed forms read (k with S1, c1 and c2 with L)
    is refused by name before any column is built; one it never reads may
    be left out."""
    small = TruncationSpec(N=2, L=2, P=2, M=1, current_cap=3)
    element = (("J", 1), (1, 0), ("J", 2), (0, 1), (p_slot_key(1), (0, 0), ()))
    for name, charges, missing in (
        ("DIFF_EXT", {"k": 8.0}, "c1, c2"),
        ("DIFF_EXT", {"k": 8.0, "c1": 4.0}, "c2"),
        ("CLASSICAL_MF", {}, "k"),
        ("EMB2", {"c1": 4.0, "c2": 27.0}, "k"),
    ):
        space = VertexSpace(SU2, small)
        message = re.escape(f"{name} reads the charges {missing}, which the charges lack")
        with pytest.raises(ValueError, match=message):
            check_table_numeric(name, space, charges)
        with pytest.raises(ValueError, match=message):
            stage_deviations(name, space, [element], charges)
        assert not space._columns and not space._kernels
    space = VertexSpace(SU2, small)
    rows = check_table_numeric("CLASSICAL_MF", space, {"k": 8.0})
    assert rows == check_table_numeric("CLASSICAL_MF", space, {"k": 8.0, "c1": 4.0, "c2": 27.0})
    assert stage_deviations("CLASSICAL_MF", space, [element], {"k": 8.0})


def test_sweep_work_counts(monkeypatch):
    """The CLASSICAL_MF sweep at su(2), N = 2 makes one formal bracket call
    per generator pair, momentum pair and probe, 36 x 81 x 9, and reads
    121,095 operator columns: work done once per pair or momentum pair
    must not add or drop a bracket call or a column read."""
    space, charges = _space(), dict(_charges())
    calls = {"bracket": 0, "column": 0}
    bracket, column = vertex_fock.fa.bracket, OperatorMatrix.column

    def counted_bracket(*args):
        calls["bracket"] += 1
        return bracket(*args)

    def counted_column(self, key):
        calls["column"] += 1
        return column(self, key)

    monkeypatch.setattr(vertex_fock.fa, "bracket", counted_bracket)
    monkeypatch.setattr(OperatorMatrix, "column", counted_column)
    rows = check_table_numeric("CLASSICAL_MF", space, charges)
    assert len(rows) == 36
    assert calls == {"bracket": 36 * 81 * 9, "column": 121095}


def test_sweep_reads_columns_by_index_and_reports_key_probes(monkeypatch):
    """The CLASSICAL_MF sweep at su(2), N = 2 maps each probe to its index
    once: every column read takes an int, and the rows still name their
    probes as basis keys.  The boundary probes give rows a nonzero
    deviation, so they name a probe."""
    space, charges = _space(), dict(_charges())
    probes = default_probe_keys(space) + boundary_probe_keys(space)
    arg_types = set()
    column = OperatorMatrix.column

    def typed_column(self, i):
        arg_types.add(type(i))
        return column(self, i)

    monkeypatch.setattr(OperatorMatrix, "column", typed_column)
    rows = check_table_numeric("CLASSICAL_MF", space, charges, probes=probes)
    assert arg_types == {int}
    named = [row.probe for row in rows if row.deviation > 0]
    assert named and all(type(probe) is tuple and probe in probes for probe in named)


# [J^2((-1,-1)), J^8((-1,1))] at su(3), N = 2: the formal CLASSICAL_MF bracket
# has a d-channel term, EMB2's has none, and both sweeps read the raw J of EMB2
SU3_SPEC = TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3)
D_CHANNEL_PAIR = (("J", 2), (-1, -1), ("J", 8), (-1, 1))


def _su3_d_channel_deviations(table_name: str, probes=None) -> list:
    su3 = build_su(3)
    space = VertexSpace(su3, SU3_SPEC)
    charges = {"k": float(measure_level(su3, 2)), "c1": 0.0, "c2": 0.0}
    probes = default_probe_keys(space) if probes is None else probes
    return stage_deviations(table_name, space, [D_CHANNEL_PAIR + (probe,) for probe in probes], charges)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: CLASSICAL_MF reads EMB2's raw J, which lacks the d-channel; "
    "the realization through the redefinition J -> J + m_mu G^mu fixes it",
)
def test_classical_mf_d_channel_is_realized_at_su3():
    t0 = time.perf_counter()
    rows = _su3_d_channel_deviations("CLASSICAL_MF")
    elapsed = time.perf_counter() - t0
    if elapsed > 20.0:
        # pytest.fail, not assert: a slow run must not pass as the expected failure
        pytest.fail(f"took {elapsed:.1f}s, bound 20s")
    # until item 1 is done the worst row reads 8/sqrt(3) = 4.6188 on (p_{1,-1}, (0, 0), phi1)
    assert max(r.deviation for r in rows) <= 1e-9, [(r.probe, r.deviation) for r in rows if r.deviation > 1e-9]


def test_emb2_has_no_d_channel_at_su3():
    [row] = _su3_d_channel_deviations("EMB2", probes=[(p_slot_key(1), (0, 0), (PHI1,))])
    assert row.deviation == 0.0


# -- convergence across truncation stages -------------------------------------


def test_boundary_deviations_shrink_at_next_stage():
    """Near-boundary deviations strictly decrease when every cutoff grows."""
    small_space = _space()
    big_space = _space(DEFAULT.scaled_stage())
    edge = (2, 0)
    m1, m_1 = (1, 0), (-1, 0)
    elements = [
        # lattice-window clipping: one commutator path exits |w| <= P
        (("L", 1), m1, ("L", 1), m_1, (VACUUM_QP, edge, ())),
        (("L", 1), m1, ("L", 2), m_1, (p_slot_key(1), edge, ())),
        (("L", 1), m1, ("S1", 2), m_1, (p_slot_key(1), edge, ())),
        # particle-cap clipping: the dressed current pair creation overflows
        (("J", 3), m1, ("J", 1), m_1, (p_slot_key(1), (0, 0), (PHI1, PHI2))),
        # interior elements stay exact at both stages
        (("J", 1), m1, ("J", 2), m_1, (p_slot_key(1), (0, 0), ())),
        (("L", 1), m1, ("G", 1, 2), m_1, (VACUUM_QP, (0, 0), (PHI1,))),
    ]
    dev_small = stage_deviations("DIFF_EXT", small_space, elements, dict(_charges()))
    dev_big = stage_deviations(
        "DIFF_EXT", big_space, elements, dict(_charges(DEFAULT.scaled_stage()))
    )
    nonzero = 0
    for ds, db in zip(dev_small, dev_big):
        if ds.deviation > 0:
            nonzero += 1
            assert db.deviation < ds.deviation, (ds, db)
        else:
            assert db.deviation == 0, (ds, db)
    assert nonzero >= 4


def test_boundary_probe_keys_sit_on_the_boundary():
    for cap in (2, 3, 5):  # cap 2 fills with one phi quantum, a larger cap adds phi^2 quanta
        space = _space(TruncationSpec(N=DEFAULT.N, L=DEFAULT.L, P=DEFAULT.P, M=DEFAULT.M, current_cap=cap))
        keys = boundary_probe_keys(space)
        assert any(key[1][0] == space.spec.P for key in keys)
        assert any(key_npart(key[2]) == cap - 1 for key in keys)


# -- N = 1 degeneration --------------------------------------------------------


# At N = 1 the one-chain vanishes identically, so the realized family must
# close into plain Witt with no extension; the window reaches |m + n| = 4.
N1 = TruncationSpec(N=1, L=4, P=4, M=2, current_cap=6)


@pytest.mark.parametrize("include_T", [False, True])
def test_n1_family_closes_exactly(include_T):
    """[L_1(m), L_1(n)] = (n - m) L_1(m + n) column for column, with the
    current part of L and without it (the trajectory part alone)."""
    space = VertexSpace(SU2, N1)
    gens = RealizedGenerators(space, include_T=include_T)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for probe in default_probe_keys(space):
                col = _commutator(gens.operator(("L", 1), (m,)), gens.operator(("L", 1), (n,)), probe)
                state_add(col, _column(gens.operator(("L", 1), (m + n,)), probe), -(n - m))
                assert col == {}, (m, n, probe)


def test_n1_diff_ext_sweep_is_exact(monkeypatch):
    """The DIFF_EXT sweep at N = 1 is exact on every bracket, and sees a
    planted Witt extension on the one bracket it is planted in.

    c1 and c2 multiply S1, which vanishes at N = 1, so they are set to 0.
    The plants are the two density-valued cocycle shapes of this degree,
    eps (m - n)(m + n)^2 V_{m+n,0} and eps (m - n) V_{m+n,0}, added to the
    closed form of [L_1(m), L_1(n)].  V_{r,0} on the probe p_{1,-1}|0> has
    the term -r^2 q^1_{-1}|r>, its largest amplitude on the default probes,
    so by hand the planted row's worst deviation is eps times
    max |shape| (m + n)^2 over the window: 81 eps and 9 eps, both reached
    first at m = -2, n = -1 (m + n = -3).
    """
    t0 = time.time()
    space = VertexSpace(SU2, N1)
    charges = {"k": float(measure_level(SU2, 1)), "c1": 0.0, "c2": 0.0}
    rows = check_table_numeric("DIFF_EXT", space, charges, window=2)
    assert len(rows) == 36
    assert all(row.deviation == 0.0 for row in rows)

    eps = 1e-3
    L1 = ("L", 1)
    for shape, worst in ((lambda m, n: (m - n) * (m + n) ** 2, 81 * eps), (lambda m, n: m - n, 9 * eps)):

        def planted(gens, table, at, probe, shape=shape):
            out = _expected_column(gens, table, at, probe)
            (label1, m, _), (label2, n, _) = at.op_x.op_key, at.op_y.op_key
            if label1 == label2 == L1:
                plant = _as_dict(OperatorMatrix(gens.space, ("V", (m[0] + n[0],), 0)).column(probe))
                state_add(out, plant, eps * shape(m[0], n[0]))
            return out

        monkeypatch.setattr(vertex_fock, "_expected_column", planted)
        rows = check_table_numeric("DIFF_EXT", space, charges, window=2)
        flipped = [row for row in rows if row.deviation != 0.0]
        assert [(row.label1, row.label2) for row in flipped] == [(L1, L1)]
        assert flipped[0].deviation == pytest.approx(worst, rel=1e-12)
        assert (flipped[0].m, flipped[0].n) == ((-2,), (-1,))
    assert time.time() - t0 < 30.0
