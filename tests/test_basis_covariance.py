"""Verdicts and counts do not depend on the Lie algebra basis.

The rotated su(3) basis of ``rotations.SU3_ROTATIONS`` has dense ``f`` and
``d`` tensors with ``Fraction`` and ``SurdSum`` entries, where the Gell-Mann
basis is sparse and mostly rational; every sweep must still give the
standard basis's counts and verdicts.
"""

from __future__ import annotations

from rotations import SU3_ROTATIONS, givens_rotated

from curralg import formal_algebra as fa
from curralg.lie_core import build_su, verify_identities
from curralg.scalars import SurdSum

SU3 = build_su(3)


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
            out[name] = (rep.triples_checked, rep.passed)
    for src, dst in fa.EMBEDDINGS:
        rep = fa.verify_embedding(fa.make_table(src, sc, N), fa.make_table(dst, sc, N))
        out[src, dst] = (rep.pairs_checked, rep.passed)
    return out


def test_rotated_su3_is_a_dense_basis_of_the_same_algebra():
    rot = givens_rotated(SU3, SU3_ROTATIONS)
    assert verify_identities(rot).passed
    assert len(rot.f) > len(SU3.f) and len(rot.d) > len(SU3.d)
    assert any(isinstance(v, SurdSum) for v in rot.f.values())
    # rotating back by the inverse rotations restores the Gell-Mann basis
    back = givens_rotated(rot, [(plane, (c, -s)) for plane, (c, s) in reversed(SU3_ROTATIONS)])
    assert back.f == SU3.f and back.d == SU3.d


def test_table_sweeps_are_basis_independent_at_N2():
    want = _table_results(SU3, 2)
    assert all(row[-1] for row in want.values())
    assert _table_results(givens_rotated(SU3, SU3_ROTATIONS), 2) == want
