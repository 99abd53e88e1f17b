"""Symbolic bracket tables: normal forms, Jacobi sweeps, embeddings."""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curralg.lie_core import build_su
from curralg.formal_algebra import (
    AlgebraTable,
    Expression,
    G,
    GeneratorTerm,
    H,
    J,
    L,
    Momentum,
    S1,
    S3,
    TABLE_NAMES,
    TableMismatchError,
    all_generators,
    bracket,
    emb1_obstruction,
    generator,
    generator_labels,
    jacobi_sweep,
    jacobiator,
    make_table,
    redefine,
    reduce_closedness,
    verify_embedding,
)
from curralg.formal_algebra import (
    _ADJOINT_SPECIES,
    _FAILURES_LISTED,
    _SPACETIME_ARITY,
    _ZERO,
    _generator,
    _sort_with_sign,
    _triples,
)
from curralg.poly import Poly
from curralg.scalars import SurdSum

SU2 = build_su(2)
SU3 = build_su(3)


def _sym(name, N=3):
    return Momentum.symbol(name, N)


def _contracted_S1(sym, arg=None):
    """a_rho S1^rho(arg), defaulting to arg = sym."""
    arg = arg if arg is not None else sym
    out = Expression()
    for rho in range(1, arg.N + 1):
        out = out + S1(rho, arg).scaled(sym.component(rho))
    return out


# -- normal form ----------------------------------------------------------


def test_antisymmetric_index_normalization():
    m = _sym("m")
    assert H(1, 2, 1, m) == -H(1, 1, 2, m)
    assert H(1, 1, 1, m).is_zero
    assert S3(3, 1, 2, m) == S3(1, 2, 3, m)
    assert S3(2, 1, 3, m) == -S3(1, 2, 3, m)
    assert S3(1, 1, 2, m).is_zero


def _cycle_sign(indices: tuple) -> int:
    """(-1)^(len - cycles) of the permutation that sorts distinct indices."""
    ranks = [sorted(indices).index(x) for x in indices]
    seen: set = set()
    cycles = 0
    for start in range(len(ranks)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = ranks[i]
    return (-1) ** (len(ranks) - cycles)


def test_index_sign_is_the_cycle_parity():
    for length in range(5):
        for indices in itertools.product(range(1, 5), repeat=length):
            if len(set(indices)) < length:
                assert _sort_with_sign(indices) == (0, None)
            else:
                assert _sort_with_sign(indices) == (_cycle_sign(indices), tuple(sorted(indices)))


def test_expression_equality_is_order_independent():
    m, n = _sym("m"), _sym("n")
    a = J(1, m) + H(2, 1, 3, n)
    b = H(2, 1, 3, n) + J(1, m)
    assert a == b
    assert not (a - b).terms


def test_momentum_arithmetic():
    m, n = _sym("m"), _sym("n")
    s = m + n
    assert s.render() == "m+n"
    assert (s + (-n)).render() == "m"
    assert (m + m).render() == "2m"
    assert (m + (-m)).is_zero
    with pytest.raises(ValueError):
        m + _sym("n", N=2)


# a momentum as built by Momentum.symbol, sums and negation: parts sorted by
# name, each name once, no zero coefficient
momenta = st.dictionaries(
    st.sampled_from("klmnpr"), st.integers(-3, 3).filter(bool), max_size=5
).map(lambda coeffs: Momentum(3, tuple(sorted(coeffs.items()))))


@settings(max_examples=400, deadline=None)
@given(momenta, momenta)
def test_momentum_sum_merges_like_dict_and_sort(a, b):
    coeffs = dict(a.parts)
    for name, c in b.parts:
        coeffs[name] = coeffs.get(name, 0) + c
    want = tuple(sorted((k, v) for k, v in coeffs.items() if v))
    got = (a + b).parts
    assert got == want
    assert list(got) == sorted(got) and len({name for name, _ in got}) == len(got)
    assert all(c != 0 for _, c in got)


# -- golden bracket outputs ------------------------------------------------


def test_bracket_J_H_with_chain():
    m, n = _sym("m"), _sym("n")
    mf = make_table("MF", SU3, 3)
    out = bracket(mf, J(1, m), H(1, 1, 2, n))
    assert out.render() == "m_3*S3{1,2,3}(m+n)"
    out2 = bracket(mf, J(1, m), H(2, 1, 2, n))
    assert out2.render() == "1*H^3{1,2}(m+n)"


def test_bracket_G_G_produces_H():
    m, n = _sym("m"), _sym("n")
    emb2 = make_table("EMB2", SU3, 3)
    out = bracket(emb2, G(1, 1, m), G(4, 2, n))
    assert out.render() == "1/2*H^6{1,2}(m+n)"
    assert bracket(emb2, G(1, 1, m), G(2, 2, n)).is_zero  # d^{12c} = 0
    assert bracket(emb2, H(1, 1, 2, m), H(2, 1, 3, n)).is_zero


def test_bracket_L_S1():
    m, n = _sym("m"), _sym("n")
    de = make_table("DIFF_EXT", SU3, 3)
    out = bracket(de, L(1, m), S1(1, n))
    assert out.render() == (
        "(m_1 + n_1)*S1{1}(m+n)\n"
        "m_2*S1{2}(m+n)\n"
        "m_3*S1{3}(m+n)"
    )
    out2 = bracket(de, L(2, m), S1(1, n))
    assert out2.render() == "n_2*S1{1}(m+n)"


def test_bracket_J_J_charge_term():
    m, n = _sym("m"), _sym("n")
    emb2 = make_table("EMB2", SU3, 3)
    same = bracket(emb2, J(4, m), J(4, n))
    assert same.render() == (
        "-k*m_1*S1{1}(m+n)\n"
        "-k*m_2*S1{2}(m+n)\n"
        "-k*m_3*S1{3}(m+n)"
    )
    mixed = bracket(emb2, J(1, m), J(2, n))
    assert mixed.render() == "1*J^3(m+n)"


def _foreign(table, arg):
    """One generator of every species the table does not define."""
    out = []
    for sp in _SPACETIME_ARITY:
        if sp not in table.species:
            adjoint = 1 if sp in _ADJOINT_SPECIES else 0
            term = GeneratorTerm(sp, adjoint, tuple(range(1, _SPACETIME_ARITY[sp] + 1)), arg)
            out.append(Expression({term: Poly.const(1)}))
    return out


def test_bracket_antisymmetry_sweep():
    # the table digests cover i <= j only; here every ordered pair, on a
    # table warmed in one order and on one warmed in the other
    for su in (SU2, SU3):
        m, n = _sym("m", 2), _sym("n", 2)
        for name in TABLE_NAMES:
            results = []
            for reverse in (False, True):
                table = make_table(name, su, 2)
                xs, ys = all_generators(table, m), all_generators(table, n)
                got = {}
                for (lx, x), (ly, y) in itertools.product(xs, ys):
                    if reverse:
                        yx, xy = bracket(table, y, x), bracket(table, x, y)
                    else:
                        xy, yx = bracket(table, x, y), bracket(table, y, x)
                    assert (xy + yx).is_zero
                    got[lx, ly] = xy
                results.append(got)
                # one canonical entry per unordered generator pair, zeros shared
                assert all(t1.sort_key() <= t2.sort_key() for t1, t2 in table._memo)
                pairs = {frozenset((_generator(x), _generator(y))) for (_, x), (_, y) in itertools.product(xs, ys)}
                assert len(table._memo) == len(pairs)
                assert all(v is _ZERO for v in table._memo.values() if v.is_zero)
                # the species check still runs on a warmed memo
                for bad in _foreign(table, m):
                    with pytest.raises(TableMismatchError):
                        bracket(table, bad, ys[0][1])
                    with pytest.raises(TableMismatchError):
                        bracket(table, xs[0][1], bad)
            assert results[0] == results[1]
    assert _ZERO.is_zero


def test_diagonal_bracket_vanishes_mod_closedness():
    m = _sym("m")
    emb2 = make_table("EMB2", SU3, 3)
    selfbr = bracket(emb2, J(3, m), J(3, m))
    assert not selfbr.is_zero  # raw charge term survives ...
    assert reduce_closedness(selfbr).is_zero  # ... but is a closedness multiple


def test_species_not_in_table_rejected():
    m, n = _sym("m"), _sym("n")
    mf = make_table("MF", SU3, 3)
    with pytest.raises(TableMismatchError):
        bracket(mf, L(1, m), J(1, n))
    with pytest.raises(TableMismatchError):
        bracket(mf, J(1, m), S1(1, n))
    with pytest.raises(TableMismatchError):
        bracket(make_table("EMB2", SU3, 3), J(1, m), S3(1, 2, 3, n))


def test_species_check_covers_both_arguments():
    # a zero expression on either side still has its partner's species
    # checked: a fresh empty one, the shared zero, and an inner bracket that
    # vanished, in both argument orders
    t = make_table("CLASSICAL_MF", build_su(2), N=3)
    m, n = _sym("m"), _sym("n")
    g = G(1, 1, m)
    vanished = bracket(t, H(1, 1, 2, m), H(2, 1, 3, n))
    assert vanished is _ZERO
    for empty in (Expression(), _ZERO, vanished):
        with pytest.raises(TableMismatchError, match="species G"):
            bracket(t, g, empty)
        with pytest.raises(TableMismatchError, match="species G"):
            bracket(t, empty, g)
    # with both sides defined, an empty side gives the shared zero
    assert bracket(t, J(1, m), Expression()) is _ZERO
    assert bracket(t, Expression(), J(1, m)) is _ZERO


def test_plain_current_algebra_limit():
    # with d = 0 (su(2)) and the charge k sent to zero, every table's (J,J)
    # row is the bare current algebra f^{abc} J^c(m+n)
    m, n = _sym("m", 2), _sym("n", 2)
    kill_k = {"k": Poly()}
    for name in ("MF", "EMB1", "CLASSICAL_MF", "EMB2", "DIFF_EXT"):
        table = make_table(name, SU2, 2)
        out = bracket(table, J(1, m), J(2, n)).substitute(kill_k)
        assert out == J(3, m + n)


def test_witt_limit_of_LL():
    m, n = _sym("m"), _sym("n")
    de = make_table("DIFF_EXT", SU3, 3)
    out = bracket(de, L(1, m), L(2, n)).substitute({"c1": Poly(), "c2": Poly()})
    tot = m + n
    want = L(2, tot).scaled(n.component(1)) - L(1, tot).scaled(m.component(2))
    assert out == want


# -- closedness reduction --------------------------------------------------


def test_reduce_full_contraction_to_zero():
    m, n = _sym("m"), _sym("n")
    assert reduce_closedness(_contracted_S1(m)).is_zero
    # (m+n)_rho S1^rho(m+n) -> 0 after expanding the coefficient
    tot = m + n
    both = Expression()
    for rho in range(1, 4):
        both = both + S1(rho, tot).scaled(tot.component(rho))
    assert reduce_closedness(both).is_zero


def test_reduce_keeps_mismatched_contraction():
    m, n, r = _sym("m"), _sym("n"), _sym("r")
    tot = m + n + r
    expr = Expression()
    for rho in range(1, 4):
        expr = expr + S3(1, 2, rho, tot).scaled(m.component(rho))
    reduced = reduce_closedness(expr)
    assert reduced == expr  # argument differs from the contraction vector


def test_reduce_S3_full_contraction():
    # m_rho S3^{12 rho}(m) collapses to m_3 S3^{123}(m) at N = 3, which is
    # the closedness relation at free indices (1,2): reduces to zero
    m = _sym("m")
    expr = Expression()
    for rho in range(1, 4):
        expr = expr + S3(1, 2, rho, m).scaled(m.component(rho))
    assert reduce_closedness(expr).is_zero
    # a coefficient outside the argument ideal survives
    n = _sym("n")
    kept = S3(1, 2, 3, m).scaled(n.component(1))
    assert reduce_closedness(kept) == kept


def test_reduce_S1_partial_multiple():
    # c = q*a + residue splits off the residue canonically
    m, n = _sym("m"), _sym("n")
    tot = m + n
    expr = _contracted_S1(m, tot) + _contracted_S1(n, tot)  # (m+n) contraction
    assert reduce_closedness(expr).is_zero
    lone = _contracted_S1(m, tot)
    kept = reduce_closedness(lone)
    assert not kept.is_zero  # m_rho S1^rho(m+n) is not a multiple of (m+n)


def test_reduce_wedge_at_N4():
    m, n = _sym("m", 4), _sym("n", 4)
    tot = m + n
    # a wedge pattern: c_{mu nu rho} = a_mu b_{nu rho} antisymmetrized is in
    # the relation submodule iff it contains the argument vector; build
    # (m+n) wedge (m wedge n) which is such a multiple
    expr = Expression()
    a = tot
    for mu, nu, rho in itertools.permutations(range(1, 5), 3):
        coeff = a.component(mu) * m.component(nu) * n.component(rho)
        expr = expr + S3(mu, nu, rho, tot).scaled(coeff)
    assert reduce_closedness(expr).is_zero
    # m wedge n wedge r equals (r wedge m) wedge (m+n), so it is a
    # closedness multiple too and must be deleted
    r = _sym("r", 4)
    wedge3 = Expression()
    for mu, nu, rho in itertools.permutations(range(1, 5), 3):
        coeff = (
            m.component(mu)
            * n.component(nu)
            * r.component(rho)
        )
        wedge3 = wedge3 + S3(mu, nu, rho, tot).scaled(coeff)
    assert reduce_closedness(wedge3).is_zero
    # a constant unit 3-form is not: its wedge with (m+n) has a (m+n)_4 piece
    keep = S3(1, 2, 3, tot)
    assert reduce_closedness(keep) == keep


# -- redefinition and embeddings --------------------------------------------


def test_redefine_golden():
    m, n = _sym("m"), _sym("n")
    out = redefine(J(1, m).scaled(2) - J(2, n))
    want = (
        J(1, m).scaled(2)
        + G(1, 1, m).scaled(2 * m.component(1))
        + G(1, 2, m).scaled(2 * m.component(2))
        + G(1, 3, m).scaled(2 * m.component(3))
        - J(2, n)
        - G(2, 1, n).scaled(n.component(1))
        - G(2, 2, n).scaled(n.component(2))
        - G(2, 3, n).scaled(n.component(3))
    )
    assert out == want
    assert redefine(H(1, 1, 2, m)) == H(1, 1, 2, m)


@pytest.mark.parametrize("pair", [("MF", "EMB1"), ("CLASSICAL_MF", "EMB2")])
@pytest.mark.parametrize("sc,N", [(SU2, 2), (SU2, 3), (SU3, 2), (SU3, 3)])
def test_embeddings_match(pair, sc, N):
    src, tgt = pair
    rep = verify_embedding(make_table(src, sc, N), make_table(tgt, sc, N))
    assert rep.passed, rep
    assert rep.pairs_checked > 0


def test_embedding_rejects_unsupported_pair():
    text = (
        "unsupported pair (CLASSICAL_MF, MF); "
        "supported source -> target pairs: [('CLASSICAL_MF', 'EMB2'), ('MF', 'EMB1')]"
    )
    with pytest.raises(ValueError, match=re.escape(text)):
        verify_embedding(make_table("CLASSICAL_MF", SU3, 3), make_table("MF", SU3, 3))


# -- Jacobi sweeps -----------------------------------------------------------


@pytest.mark.parametrize("name", ["MF", "CLASSICAL_MF", "EMB2", "DIFF_EXT"])
@pytest.mark.parametrize("sc", [SU2, SU3], ids=["su2", "su3"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_jacobiator_vanishes(name, sc, N):
    rep = jacobi_sweep(make_table(name, sc, N))
    assert rep.passed, rep
    assert rep.triples_checked > 0


def test_emb1_is_not_a_lie_algebra():
    # the (J, G, G) obstruction makes the plain sweep fail; the report lists
    # the first failures in sweep order
    rep = jacobi_sweep(make_table("EMB1", SU3, 3))
    assert not rep.passed
    assert len(rep.failures) == _FAILURES_LISTED == 20
    assert rep.failures[0] == ("(J^1(m), G^1{1}(n), G^8{2}(r))", "1/3*sqrt(3)*m_3*S3{1,2,3}(m+n+r)")


# (J, G, G) and other triple counts of the EMB1 sweep, by (dim of the Lie algebra, N)
_EMB1_TRIPLES = {(3, 2): (63, 301), (3, 3): (135, 1889), (8, 2): (1088, 4896), (8, 3): (2400, 30109)}


@pytest.mark.parametrize("sc,N", [(SU2, 2), (SU2, 3), (SU3, 2), (SU3, 3)])
def test_emb1_obstruction_formal(sc, N):
    table = make_table("EMB1", sc, N)
    rep = emb1_obstruction(table)
    assert rep.passed, rep
    assert (rep.jgg_checked, rep.other_checked) == _EMB1_TRIPLES[(sc.dim, N)]
    # one J^a times an unordered pair (with repetition) of the dim*N generators G^{b mu}
    assert rep.jgg_checked == sc.dim * math.comb(sc.dim * N + 1, 2)
    n_gen = len(all_generators(table, _sym("m", N)))
    assert rep.jgg_checked + rep.other_checked == math.comb(n_gen + 2, 3)


def test_emb1_obstruction_value():
    m, n, r = _sym("m"), _sym("n"), _sym("r")
    emb1 = make_table("EMB1", SU3, 3)
    jac = jacobiator(emb1, J(8, m), G(1, 1, n), G(1, 2, r))
    assert jac.render() == "1/3*sqrt(3)*m_3*S3{1,2,3}(m+n+r)"
    # su(2) has d = 0: same triple type vanishes
    m2, n2, r2 = _sym("m", 2), _sym("n", 2), _sym("r", 2)
    emb1_su2 = make_table("EMB1", SU2, 2)
    assert jacobiator(emb1_su2, J(3, m2), G(1, 1, n2), G(1, 2, r2)).is_zero


def test_jacobiator_total_antisymmetry():
    m, n, r = _sym("m"), _sym("n"), _sym("r")
    emb1 = make_table("EMB1", SU3, 3)
    base = jacobiator(emb1, J(8, m), G(1, 1, n), G(1, 2, r))
    swapped = jacobiator(emb1, G(1, 1, n), J(8, m), G(1, 2, r))
    cycled = jacobiator(emb1, G(1, 1, n), G(1, 2, r), J(8, m))
    assert swapped == -base
    assert cycled == base


def _is_jgg(x, y, z):
    return (_generator(x).species, _generator(y).species, _generator(z).species) == ("J", "G", "G")


def test_jacobiator_is_the_reduced_sum_of_its_brackets():
    # the one-dict sum equals reduce_closedness of the three outer brackets
    # added with Expression.__add__; the cases hold sums that survive
    # reduction, sums removed by closedness and brackets that cancel
    t0 = time.perf_counter()
    cases = [
        (make_table("DIFF_EXT", SU2, 2), lambda x, y, z: True),
        (make_table("EMB1", SU2, 3), _is_jgg),
        (make_table("EMB1", SU3, 3), _is_jgg),
    ]
    checked = surviving = closed = cancelling = 0
    for table, keep in cases:
        for (_, x), (_, y), (_, z) in _triples(table):
            if not keep(x, y, z):
                continue
            outer = [
                bracket(table, x, bracket(table, y, z)),
                bracket(table, y, bracket(table, z, x)),
                bracket(table, z, bracket(table, x, y)),
            ]
            raw = outer[0] + outer[1] + outer[2]
            want = reduce_closedness(raw)
            assert jacobiator(table, x, y, z) == want
            checked += 1
            surviving += not want.is_zero
            closed += not raw.is_zero and want.is_zero
            cancelling += raw.is_zero and any(not b.is_zero for b in outer)
    assert checked == 816 + 135 + 2400
    assert surviving and closed and cancelling
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"check took {elapsed:.1f}s"


def test_sweeps_leave_the_shared_zero_empty():
    t0 = time.perf_counter()
    assert jacobi_sweep(make_table("DIFF_EXT", SU2, 2)).passed
    assert emb1_obstruction(make_table("EMB1", SU3, 3)).passed
    assert verify_embedding(make_table("MF", SU3, 3), make_table("EMB1", SU3, 3)).passed
    assert _ZERO.terms == {}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"sweeps took {elapsed:.1f}s"


# -- concrete three-chain -----------------------------------------------------


def test_concretize_requires_N3_and_chain():
    with pytest.raises(ValueError, match="no three-chain"):
        make_table("EMB2", SU3, 3, chain_mode="CONCRETE_3D")
    with pytest.raises(ValueError, match="requires N = 3"):
        make_table("MF", SU2, 2, chain_mode="CONCRETE_3D")


def test_concrete_epsilon_signs():
    m, n = _sym("m"), _sym("n")
    mf = make_table("MF", SU3, 3, chain_mode="CONCRETE_3D")
    # [J^1(m), H^1{1,2}(n)] carries m_rho S3^{12 rho}; concretely eps^{123} = +1
    out = bracket(mf, J(1, m), H(1, 1, 2, n))
    assert out.render() == "m_3*delta(m+n)"
    # the (2,3) pair picks up eps^{231} = +1 on rho = 1
    out2 = bracket(mf, J(1, m), H(1, 2, 3, n))
    assert out2.render() == "m_1*delta(m+n)"
    # (1,3) pair: eps^{132} = -1 on rho = 2
    out3 = bracket(mf, J(1, m), H(1, 1, 3, n))
    assert out3.render() == "-m_2*delta(m+n)"


def test_concrete_obstruction_on_support():
    rep = emb1_obstruction(make_table("EMB1", SU3, 3, chain_mode="CONCRETE_3D"))
    assert rep.passed, rep
    assert rep.nonzero_on_support
    rep2 = emb1_obstruction(make_table("EMB1", SU2, 3, chain_mode="CONCRETE_3D"))
    assert rep2.passed, rep2
    assert not rep2.nonzero_on_support


def test_concrete_jacobi_both_modes_agree_for_MF():
    # the sweep passes in formal mode and stays zero after the chain is
    # realized concretely and deltas are evaluated on support
    for sc in (SU2, SU3):
        formal = jacobi_sweep(make_table("MF", sc, 3))
        concrete = jacobi_sweep(make_table("MF", sc, 3, chain_mode="CONCRETE_3D"))
        assert formal.passed, formal
        assert concrete.passed, concrete


def test_discharge_on_support():
    m, n = _sym("m"), _sym("n")
    mf = make_table("MF", SU3, 3, chain_mode="CONCRETE_3D")
    out = bracket(mf, J(1, m), H(1, 1, 2, n))  # m_3 * delta(m+n)
    assert list(out.terms) == [GeneratorTerm("1", 0, (), m + n)]  # a delta is the generator "1"
    assert out.discharged() == out  # m_3 is not constrained by m+n = 0
    # but a coefficient proportional to (m+n)_3 dies on support
    tot = m + n
    expr = out.scaled(tot.component(3))
    assert not expr.is_zero
    assert expr.discharged().is_zero


# -- table construction guards ------------------------------------------------


@pytest.mark.parametrize("sc", [SU2, SU3], ids=["su2", "su3"])
def test_generator_labels_are_the_one_vocabulary(sc):
    # The numeric sweeps realize generators by label; every table's labels
    # must round-trip through the generator they name, in sweep order.
    for N in (2, 3, 4):
        m = _sym("m", N)
        for name in TABLE_NAMES:
            table = make_table(name, sc, N)
            gens = all_generators(table, m)
            terms = [next(iter(x.terms)) for _, x in gens]
            assert [lab for lab, _ in gens] == [t.render() for t in terms]
            assert all(generator(t.label, m) == x for t, (_, x) in zip(terms, gens))
            assert generator_labels(table.species, sc.dim, N) == [t.label for t in terms]
    with pytest.raises(ValueError, match="unknown species"):
        generator_labels(("K",), 3, 2)
    with pytest.raises(ValueError, match="unknown generator label"):
        generator(("K", 1), m)


def test_table_constraints():
    with pytest.raises(ValueError, match="N >= 2"):
        make_table("MF", SU3, 1)
    with pytest.raises(ValueError, match="N >= 2"):
        make_table("EMB1", SU3, 1)
    with pytest.raises(ValueError, match="unknown table"):
        make_table("MF1", SU3, 3)
    with pytest.raises(ValueError, match="N = 3"):
        AlgebraTable("MF", SU3, 4, "CONCRETE_3D")
    with pytest.raises(ValueError, match="no three-chain"):
        AlgebraTable("EMB2", SU3, 3, "CONCRETE_3D")


def test_MF_at_N2_has_zero_chain():
    # allowed, with the three-chain identically absent
    m, n = _sym("m", 2), _sym("n", 2)
    mf = make_table("MF", SU3, 2)
    out = bracket(mf, J(1, m), H(1, 1, 2, n))
    assert out.is_zero  # f^{11c} = 0 and no room for three distinct indices


# -- the integer fast path ---------------------------------------------------------


def _coefficients(expr):
    return [c for poly in expr.terms.values() for c in poly.terms.values()]


def test_su2_jacobiators_hold_only_int_coefficients():
    # su(2)'s structure constants are integers, so no Fraction arises anywhere
    # in a Jacobiator: not in its nested brackets, nor in the bracket memo
    table = make_table("DIFF_EXT", SU2, 3)
    seen = []
    for (_, x), (_, y), (_, z) in itertools.islice(_triples(table), 0, None, 23):
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            seen += _coefficients(bracket(table, a, bracket(table, b, c)))
        seen += _coefficients(jacobiator(table, x, y, z))
    seen += [c for expr in table._memo.values() for c in _coefficients(expr)]
    assert seen and all(type(c) is int for c in seen)


def test_su3_bracket_coefficients_keep_their_exact_types():
    table = make_table("EMB1", SU3, 3)
    m, n = _sym("m"), _sym("n")
    seen = []
    for a, b in itertools.product(range(1, SU3.dim + 1), repeat=2):
        seen += _coefficients(bracket(table, J(a, m), J(b, n)))
        seen += _coefficients(bracket(table, G(a, 1, m), G(b, 2, n)))
    assert Fraction(1, 2) in seen and Fraction(-1, 2) in seen
    assert any(isinstance(c, SurdSum) for c in seen)
    assert not any(type(c) is Fraction and c.denominator == 1 for c in seen)


def test_generator_terms_keep_fields_repr_and_equality():
    m = _sym("m")
    term = next(iter(J(1, m).terms))
    arg = m
    assert GeneratorTerm._fields == ("species", "adjoint", "sidx", "arg")
    assert Momentum._fields == ("N", "parts")
    assert (term.species, term.adjoint, term.sidx, term.arg) == ("J", 1, (), arg)
    assert repr(arg) == "Momentum(N=3, parts=(('m', 1),))"
    assert repr(term) == "GeneratorTerm(species='J', adjoint=1, sidx=(), arg=Momentum(N=3, parts=(('m', 1),)))"
    same = GeneratorTerm("J", 1, (), Momentum(3, (("m", 1),)))
    assert term == same and hash(term) == hash(same)
    assert term != GeneratorTerm("J", 2, (), arg)
    assert term != GeneratorTerm("J", 1, (), _sym("n"))
    assert arg + _sym("n") == Momentum(3, (("m", 1), ("n", 1)))
    assert (arg + -arg).is_zero


# -- pinned tables ---------------------------------------------------------------

# SHA-256 of every rendered bracket [x_i(m), y_j(n)], i <= j in all_generators
# order, one per line.  The Jacobi sweeps pass on any consistent table; these
# digests change when any entry of a table does.
_TABLE_DIGESTS = {
    (3, 3, "MF"): "3190a94c0450f827ed8c2d2b8e12943fe5fc88897a3786aad2dbc2d89cc0623f",
    (3, 3, "EMB1"): "8830f45d646d99bf4c44d1cba8acd57cbec4ffd6c7d5df5df4a99e80d66a77b4",
    (3, 3, "CLASSICAL_MF"): "3de20a65b14aa5e7653e8e5232169fa5837d3b51329733f4355c7a0bb70c8ccd",
    (3, 3, "EMB2"): "e28ff81599dddeb6f7b020682adf8fcb70c0c108b4fe841da075852ffa353523",
    (3, 3, "DIFF_EXT"): "3668aae8c1ab692def82d0d2a4e907cd1d6e56d3f8ea549e0baa80934f06264a",
    (2, 4, "MF"): "c198d4de927520ec8c11b437cdebf31052dff1a3a1e167a9eca2c07fa94a1687",
    (2, 4, "EMB1"): "ec0e1edcb5a8da362e03365ce2a7bc2ec694d9bae3489a1946c97efe173fa3fc",
    (2, 4, "CLASSICAL_MF"): "60ed3da5b6442d29f3b2671aac1708cee8e80a292e183d5ab2a9d28e6ea0af20",
    (2, 4, "EMB2"): "651b155f5ea27ff5e8abec607d8e5b94377a6ddf169dc2bd69f87529201795cd",
    (2, 4, "DIFF_EXT"): "467057898f5e48e53ca634c2ef9c1fcfe0af2bd8f4d97f9e7598c8bfdce07dc5",
}


def test_every_table_entry_is_pinned():
    got = {}
    for n, N in ((3, 3), (2, 4)):
        sc = build_su(n)
        for name in TABLE_NAMES:
            table = make_table(name, sc, N)
            xs = all_generators(table, _sym("m", N))
            ys = all_generators(table, _sym("n", N))
            digest = hashlib.sha256()
            for i, (_, x) in enumerate(xs):
                for _, y in ys[i:]:
                    digest.update((bracket(table, x, y).render() + "\n").encode("utf-8"))
            got[(n, N, name)] = digest.hexdigest()
    assert got == _TABLE_DIGESTS
