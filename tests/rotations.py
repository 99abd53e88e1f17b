"""Exact orthogonal changes of Lie algebra basis, for basis-covariance tests.

A Givens rotation by ``(c, s)`` with ``c*c + s*s == 1`` and rational ``c``
and ``s`` (a Pythagorean triple over its hypotenuse) is an exact rational
orthogonal matrix, so the rotated structure constants stay in the exact
scalar ring.  A reflection ``e_i -> -e_i`` is the improper case.  Both
tensors transform in every index:
``f'^{abc} = R_{aa'} R_{bb'} R_{cc'} f^{a'b'c'}``, likewise ``d``.
"""

from __future__ import annotations

from fractions import Fraction

from curralg.lie_core import StructureConstants


def _rotate_axis(tensor: dict, axis: int, i: int, j: int, c: Fraction, s: Fraction) -> dict:
    """Apply the rotation in the (i, j) plane to one index of a 3-tensor:
    e'_i = c e_i + s e_j and e'_j = -s e_i + c e_j."""
    out: dict = {}
    for key, v in tensor.items():
        k = key[axis]
        if k == i:
            images = ((i, c), (j, -s))
        elif k == j:
            images = ((i, s), (j, c))
        else:
            images = ((k, 1),)
        for new, r in images:
            new_key = key[:axis] + (new,) + key[axis + 1:]
            out[new_key] = out.get(new_key, 0) + r * v
    return {key: v for key, v in out.items() if v != 0}


def givens_rotated(sc: StructureConstants, rotations) -> StructureConstants:
    """``sc`` in the basis reached by the Givens rotations ``((i, j), (c, s))``,
    applied in order; planes are 1-based pairs of basis indices."""
    f, d = dict(sc.f), dict(sc.d)
    for (i, j), (c, s) in rotations:
        c, s = Fraction(c), Fraction(s)
        if c * c + s * s != 1:
            raise ValueError(f"({c}, {s}) is not a rotation")
        for axis in range(3):
            f = _rotate_axis(f, axis, i, j, c, s)
            d = _rotate_axis(d, axis, i, j, c, s)
    return StructureConstants(dim=sc.dim, f=f, d=d)


def reflected(sc: StructureConstants, i: int) -> StructureConstants:
    """``sc`` in the basis with ``e_i -> -e_i``: an entry changes sign once
    for each of its indices that equals ``i``."""
    def flip(tensor):
        return {key: v * (-1) ** key.count(i) for key, v in tensor.items()}

    return StructureConstants(dim=sc.dim, f=flip(sc.f), d=flip(sc.d))


# su(3) rotated out of the Gell-Mann basis: the plane (1, 4) by (3/5, 4/5),
# then the plane (3, 8) by (5/13, 12/13); the second mixes sqrt(3) entries
# into rational ones, so f and d become dense and largely irrational.
SU3_ROTATIONS = (((1, 4), (Fraction(3, 5), Fraction(4, 5))), ((3, 8), (Fraction(5, 13), Fraction(12, 13))))
