"""Verdicts and counts do not depend on the Lie algebra basis.

The rotated su(3) basis of ``rotations.SU3_ROTATIONS`` has dense ``f`` and
``d`` tensors with ``Fraction`` and ``SurdSum`` entries, where the Gell-Mann
basis is sparse and mostly rational; the reflected su(2) basis flips the
sign of every ``f`` entry.  Every layer (the symbolic table sweeps, the
closed-form Wick table and charges, the oscillator oracle and the vertex
Fock space) must still give the standard basis's counts, verdicts and
charges.  Each test measures its own wall time against a stated bound.
"""

from __future__ import annotations

import time

import pytest
from rotations import SU3_ROTATIONS, givens_rotated, reflected

from curralg import cli
from curralg import formal_algebra as fa
from curralg import vertex_fock as vf
from curralg import wick_currents as wc
from curralg.lie_core import build_su, verify_identities
from curralg.scalars import SurdSum

SU2 = build_su(2)
SU3 = build_su(3)
SU3_ROTATED = givens_rotated(SU3, SU3_ROTATIONS)
SU2_REFLECTED = reflected(SU2, 1)


def _within(bound: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < bound, f"took {elapsed:.1f}s, bound {bound}s"


def _table_results(sc, N):
    """The counts and verdicts of every table sweep and embedding check at N."""
    out = {}
    for name in fa.TABLE_NAMES:
        table = fa.make_table(name, sc, N)
        if name == "EMB1":
            ob = fa.emb1_obstruction(table)
            out[name] = (ob.jgg_checked, ob.other_checked, ob.passed)
        else:
            rep = fa.jacobi_sweep(table)
            out[name] = (rep.checked, rep.passed)
    for src, dst in fa.EMBEDDINGS:
        rep = fa.verify_embedding(fa.make_table(src, sc, N), fa.make_table(dst, sc, N))
        out[src, dst] = (rep.checked, rep.passed)
    return out


def test_rotated_su3_is_a_dense_basis_of_the_same_algebra():
    rot = SU3_ROTATED
    assert verify_identities(rot).passed
    assert len(rot.f) > len(SU3.f) and len(rot.d) > len(SU3.d)
    assert any(isinstance(v, SurdSum) for v in rot.f.values())
    # rotating back by the inverse rotations restores the Gell-Mann basis
    back = givens_rotated(rot, [(plane, (c, -s)) for plane, (c, s) in reversed(SU3_ROTATIONS)])
    assert back.f == SU3.f and back.d == SU3.d


def test_table_sweeps_are_basis_independent_at_N2():
    want = _table_results(SU3, 2)
    assert all(row[-1] for row in want.values())
    assert _table_results(SU3_ROTATED, 2) == want


def test_reflected_su2_flips_every_f_entry():
    assert verify_identities(SU2_REFLECTED).passed
    assert SU2_REFLECTED.f == {key: -v for key, v in SU2.f.items()}
    assert SU2_REFLECTED.d == SU2.d == {}


def _wick_results(sc, N):
    """The Wick layer's table rows and charges at N."""
    rows = [(r.lab1, r.lab2, r.ok, r.anomaly_slope) for r in wc.check_km_table(sc, N)]
    return rows, wc.measure_level(sc, N), wc.measure_k1_k2(sc, N)


def test_wick_table_and_charges_are_basis_independent_at_N2():
    t0 = time.perf_counter()
    rows, k, k1_k2 = _wick_results(SU3, 2)
    assert len(rows) == 666 and all(ok for _, _, ok, _ in rows)
    assert (k, k1_k2) == (12, (8, 72))
    assert _wick_results(SU3_ROTATED, 2) == (rows, k, k1_k2)
    _within(30.0, t0)


def _sweep(sc, N, level):
    """``cli.oracle_sweep`` at mode window 1 and the command's particle cap."""
    mode_pairs = [(m, n) for m in range(-1, 2) for n in range(m, 2)]
    return cli.oracle_sweep(wc.build_currents(sc, N), level, cli._CURRENT_CAP, mode_pairs)


@pytest.mark.parametrize(
    "standard, other, N, level, columns",
    [(SU2, SU2_REFLECTED, 2, 4, 79152), (SU3, SU3_ROTATED, 1, 1, 30294)],
    ids=["reflected-su2-N2", "rotated-su3-N1"],
)
def test_oracle_sweep_is_basis_independent(standard, other, N, level, columns):
    t0 = time.perf_counter()
    want = _sweep(standard, N, level)
    assert (want.columns, want.mismatches) == (columns, 0)
    assert _sweep(other, N, level) == want
    _within(60.0, t0)


def _vertex_results(sc):
    """c1, c2, the vertex-sector level and the worst EMB2 deviation in
    ``cli measure``'s vertex space at N = 2."""
    space = cli._measure_space(cli.RunConfig(dim=2), sc)
    fit = vf.measure_c1_c2(space, include_T=True)
    charges = {"k": float(wc.measure_level(sc, 2)), "c1": fit.c1, "c2": fit.c2}
    rows = vf.check_table_numeric("EMB2", space, charges, window=1)
    return fit.c1, fit.c2, vf.measure_vertex_level(space), max(r.deviation for r in rows)


def test_vertex_charges_are_basis_independent_at_N2():
    t0 = time.perf_counter()
    want = _vertex_results(SU2)
    assert want == (4.0, 27.0, 8.0, 0.0)
    assert _vertex_results(SU2_REFLECTED) == want
    _within(30.0, t0)
