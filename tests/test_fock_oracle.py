"""The oscillator core of the Fock oracle: key splicing, projection, scalars.

The splice, the one-pass projection and the cutoff-aware application are
checked against the plain dict-and-sort, two-pass and apply-then-project
rules they replace, on random keys.  The scalar tests pin the integer fast
path: su(2) bodies and oracle columns hold ``int`` amplitudes, while su(3)
keeps its ``Fraction`` and surd values.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curralg.fock_oracle import (
    FockOracle,
    _key_with,
    _osc_key,
    apply_body,
    enumerate_keys,
    key_level,
    key_level_npart,
    key_npart,
    state_project,
)
from curralg.lie_core import build_su
from curralg.scalars import SurdSum, format_scalar
from curralg.wick_currents import build_currents, flavors_for

FLAVORS = ("A", "B")
SLOTS = [(fl, False, -lev) for fl in FLAVORS for lev in range(0, 4)] + [
    (fl, True, -lev) for fl in FLAVORS for lev in range(1, 4)
]

keys = st.dictionaries(st.sampled_from(SLOTS), st.integers(1, 3), max_size=5).map(
    lambda occ: tuple(sorted(occ.items()))
)


def _key_with_by_dict(key, slot, delta):
    """The dict-and-sort rule that the splice replaces."""
    d = dict(key)
    new = d.get(slot, 0) + delta
    if new < 0:
        return None
    if new == 0:
        d.pop(slot, None)
    else:
        d[slot] = new
    return tuple(sorted(d.items()))


@settings(max_examples=400, deadline=None)
@given(keys, st.sampled_from(SLOTS), st.integers(-3, 3))
def test_key_splice_matches_dict_and_sort(key, slot, delta):
    got = _key_with(key, slot, delta)
    want = _key_with_by_dict(key, slot, delta)
    assert got == want
    assert (got is None) == (dict(key).get(slot, 0) + delta < 0)
    if got is not None:
        assert list(got) == sorted(got)
        assert all(cnt > 0 for _, cnt in got)


@settings(max_examples=400, deadline=None)
@given(keys, st.sampled_from(FLAVORS), st.booleans(), st.integers(-3, 3))
def test_oscillator_keeps_the_amplitude_rule(key, flavor, barred, mode):
    hit = _osc_key(key, flavor, barred, mode)
    if (mode <= -1) if barred else (mode <= 0):
        assert hit == (_key_with_by_dict(key, (flavor, barred, mode), 1), 1)
        return
    target = (flavor, not barred, -mode)
    count = dict(key).get(target, 0)
    if count == 0:
        assert hit is None
    else:
        assert hit == (_key_with_by_dict(key, target, -1), count if barred else -count)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(-1, 3), st.integers(-1, 3))
def test_one_pass_projection_matches_the_two_pass_filter(nfl, level_max, npart_max):
    flavors = FLAVORS[:nfl]
    state = {key: i + 1 for i, key in enumerate(enumerate_keys(flavors, 4, 4))}
    got = state_project(state, level_max, npart_max)
    want = {
        key: amp
        for key, amp in state.items()
        if key_level(key) <= level_max and key_npart(key) <= npart_max
    }
    assert got == want
    assert list(got) == list(want)
    assert sorted(got) == sorted(enumerate_keys(flavors, level_max, npart_max))
    for key in state:
        assert key_level_npart(key) == (key_level(key), key_npart(key))


# -- projected columns ------------------------------------------------------------

FAMILIES = {"su2": build_currents(build_su(2), 2), "su3": build_currents(build_su(3), 2)}


def _keys_over(flavors):
    slots = [(fl, False, -lev) for fl in flavors for lev in range(0, 5)]
    slots += [(fl, True, -lev) for fl in flavors for lev in range(1, 5)]
    return st.dictionaries(st.sampled_from(slots), st.integers(1, 3), max_size=4).map(
        lambda occ: tuple(sorted(occ.items()))
    )


@pytest.mark.parametrize("algebra", sorted(FAMILIES))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(-3, 3), level_max=st.integers(0, 4), npart_max=st.integers(0, 5))
def test_memoised_column_is_the_projected_uncut_column(algebra, data, m, level_max, npart_max):
    fams = FAMILIES[algebra]
    label = data.draw(st.sampled_from(sorted(fams)), label="label")
    body = fams[label]
    pairs = data.draw(st.lists(st.sampled_from(sorted(body)), min_size=1, max_size=2), label="pairs")
    key = data.draw(_keys_over(sorted({fl for pair in pairs for fl in pair})), label="key")
    oracle = FockOracle(fams, level_max, npart_max)
    got = oracle.apply_exact(label, m, key)
    assert got == state_project(apply_body({key: 1}, body, m), level_max, npart_max)
    # every key of a memoised column lies inside the cutoffs, also for keys outside them
    for column in oracle._memo[label].values():
        for new_key in column:
            level, npart = key_level_npart(new_key)
            assert level <= level_max and npart <= npart_max


# -- the basis at many flavors -----------------------------------------------------


@pytest.mark.parametrize("npart_max, count", [(1, 109), (2, 3_091), (3, 41_767)])
def test_basis_counts_and_order_at_twelve_flavors(npart_max, count):
    # twelve flavors, 108 slots; the counts were recorded with a depth-first
    # builder, independently of the multiset enumeration
    keys = enumerate_keys(flavors_for(3, 2), 4, npart_max)
    assert len(keys) == count
    ranks = [(key_npart(k), key_level(k), k) for k in keys]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))  # sorted, no duplicate


# -- negative cutoffs --------------------------------------------------------------


@pytest.mark.parametrize("level_max, npart_max", [(-1, 2), (-3, 0), (0, -1), (2, -1), (-1, -1)])
def test_negative_cutoff_admits_no_key(level_max, npart_max):
    assert enumerate_keys(["F"], level_max, npart_max) == []


def test_safe_keys_are_empty_when_the_mode_room_exceeds_the_level():
    fams = build_currents(build_su(2), 1)
    oracle = FockOracle(fams, 1, 3)
    assert oracle.safe_keys(-3, 2) == []
    assert oracle.safe_keys(-1, 1)[0] == ()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_oracle_flavors_are_the_flavors_of_its_bodies(n, N):
    sc = build_su(n)
    assert FockOracle(build_currents(sc, N), 4, 3).flavors == set(flavors_for(sc.dim, N))


# -- the integer fast path ---------------------------------------------------------


def test_su2_bodies_and_oracle_columns_are_int():
    fams = build_currents(build_su(2), 2)
    values = [coeff for body in fams.values() for coeff in body.values()]
    assert values and all(type(v) is int for v in values)
    oracle = FockOracle(fams, 4, 3)
    key = (((("phi", 1), False, 0), 1), ((("phi", 2), False, -1), 1))
    col = oracle.commutator_column(("J", 1), 1, ("J", 2), -1, key)
    assert len(col) == 2 and all(type(v) is int for v in col.values())


def test_su3_bodies_keep_their_exact_types():
    fams = build_currents(build_su(3), 2)
    values = [coeff for body in fams.values() for coeff in body.values()]
    assert any(type(v) is Fraction and v == Fraction(1, 2) for v in values)
    assert any(isinstance(v, SurdSum) for v in values)
    assert not any(type(v) is Fraction and v.denominator == 1 for v in values)


def test_int_and_fraction_render_alike():
    assert format_scalar(2) == format_scalar(Fraction(2)) == "2"
    assert format_scalar(-3) == format_scalar(Fraction(-3))


# -- the per-label memo -------------------------------------------------------------


def test_forgetting_a_label_keeps_the_other_columns():
    fams = build_currents(build_su(2), 2)
    oracle = FockOracle(fams, 4, 3)
    key = (((("phi", 1), False, 0), 1), ((("phi", 2), False, -1), 1))
    j1, j2 = ("J", 1), ("J", 2)
    col = oracle.commutator_column(j1, 1, j2, -1, key)
    dropped = oracle.apply_exact(j1, 1, key)
    kept = oracle.apply_exact(j2, -1, key)
    oracle.forget(j1)
    assert oracle.apply_exact(j2, -1, key) is kept  # still memoised
    again = oracle.apply_exact(j1, 1, key)
    assert again is not dropped and again == dropped  # recomputed, equal
    assert oracle.commutator_column(j1, 1, j2, -1, key) == col
    oracle.forget(("J", 3))  # a label never applied: nothing to drop
