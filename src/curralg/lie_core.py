"""Structure constants of compact Lie algebras, held and checked exactly.

A :class:`StructureConstants` instance stores the totally antisymmetric
tensor ``f`` and the totally symmetric tensor ``d`` of a basis with metric
``g^{ab} = delta^{ab}``.  Entries are exact scalars (:mod:`curralg.scalars`),
so every identity check below is an exact-zero test, not a tolerance test.

``build_su(n)`` constructs both tensors from hermitian generators ``T^a``
normalised by ``tr(T^a T^b) = delta^{ab}/2`` as the imaginary and real parts
of one trace ``t = tr(T^a T^b T^c)``, whose conjugate is ``tr(T^b T^a T^c)``:

    f^{abc} = -2i tr([T^a, T^b] T^c) = 4 Im t
    d^{abc} =  2  tr({T^a, T^b} T^c) = 4 Re t

Each generator is a scalar times a sparse matrix of Gaussian integers, so
the traces are exact integer sums over the few nonzero entries, and the
scalar factor is applied once per nonzero entry of f and d.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .scalars import Scalar, as_int_if_integral, format_scalar, parse_scalar, sqrt_scalar

__all__ = [
    "StructureConstants",
    "IdentityCheck",
    "IdentityReport",
    "build_su",
    "verify_identities",
]

_ZERO = Fraction(0)


def su_generators(n: int) -> list:
    """Hermitian generators of su(n) with tr(T^a T^b) = delta^{ab}/2.

    Each generator is ``(scale, entries)``: T = scale * G, where ``entries``
    maps the 0-based position ``(i, j)`` of each nonzero entry of G to its
    value as an ``(re, im)`` pair, integers in this basis.  Ordering: for
    each k = 2..n the off-diagonal pairs (j, k) contribute a symmetric then
    an antisymmetric generator for j = 1..k-1, followed by the diagonal
    generator of rank k-1.  For n = 2 this is the Pauli basis over 2, for
    n = 3 the standard lambda-matrix basis over 2.
    """
    if n < 2:
        raise ValueError(f"su({n}) has no semisimple generator set; need n >= 2")
    half = Fraction(1, 2)
    gens = []
    for k in range(1, n):
        for j in range(k):
            gens.append((half, {(j, k): (1, 0), (k, j): (1, 0)}))
            gens.append((half, {(j, k): (0, -1), (k, j): (0, 1)}))
        diag = {(i, i): (1, 0) for i in range(k)}
        diag[k, k] = (-k, 0)
        gens.append((half * sqrt_scalar(Fraction(2, k * (k + 1))), diag))
    return gens


class IdentityCheck(NamedTuple):
    """Outcome of one exact identity sweep."""

    name: str
    passed: bool
    first_violation: tuple[int, ...] | None = None
    violation_value: Scalar | None = None


class IdentityReport(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class StructureConstants:
    """Exact f and d tensors over a basis with unit metric.

    ``f`` and ``d`` map 1-based index triples to nonzero exact scalars;
    absent triples are zero.  ``f_rows`` and ``d_rows``, the one sparse view
    that every layer reads, map ``(a, b)`` to ``[(c, value), ...]`` over the
    nonzero entries in entry order, integral values as ``int``.  All four
    are built here and read-only: nothing mutates them after construction.
    """

    __slots__ = ("dim", "f", "d", "f_rows", "d_rows")

    def __init__(self, dim: int, f: dict | None = None, d: dict | None = None):
        if dim < 1:
            raise ValueError("dim must be positive")
        f, d = f or {}, d or {}
        for name, tensor in (("f", f), ("d", d)):
            for key in tensor:
                if len(key) != 3 or not all(1 <= i <= dim for i in key):
                    raise ValueError(f"{name}{key}: indices must lie in 1..{dim}")
        self.dim = dim
        # filtered copies: the caller's dicts are left as they were passed
        self.f = {key: val for key, val in f.items() if val != 0}
        self.d = {key: val for key, val in d.items() if val != 0}
        self.f_rows = _rows(self.f)
        self.d_rows = _rows(self.d)

    # -- element access ---------------------------------------------------

    def f_at(self, a: int, b: int, c: int) -> Scalar:
        return self.f.get((a, b, c), _ZERO)

    def d_at(self, a: int, b: int, c: int) -> Scalar:
        return self.d.get((a, b, c), _ZERO)

    @property
    def d_is_zero(self) -> bool:
        return not self.d

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """Render as the line format read back by :meth:`from_text`."""
        lines = [f"dim {self.dim}"]
        for name, tensor in (("f", self.f), ("d", self.d)):
            for (a, b, c) in sorted(tensor):
                lines.append(f"{name} {a} {b} {c} {format_scalar(tensor[(a, b, c)])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StructureConstants":
        """Parse the ``dim`` / ``f a b c value`` / ``d a b c value`` line format.

        Entries are stored exactly as written; no symmetry is imposed, so a
        file inconsistent with the tensor symmetries is accepted here and
        flagged by :func:`verify_identities`.
        """
        dim = None
        f: dict = {}
        d: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "dim":
                    if dim is not None:
                        raise ValueError("duplicate dim line")
                    if len(parts) != 2:
                        raise ValueError("expected 'dim <n>'")
                    dim = int(parts[1])
                    continue
                if parts[0] not in ("f", "d"):
                    raise ValueError(f"unknown tensor {parts[0]!r}")
                if dim is None:
                    raise ValueError("dim line must come first")
                if len(parts) != 5:
                    raise ValueError(f"expected '{parts[0]} a b c value'")
                key = (int(parts[1]), int(parts[2]), int(parts[3]))
                tensor = f if parts[0] == "f" else d
                if key in tensor:
                    raise ValueError(f"duplicate entry {parts[0]}{key}")
                tensor[key] = parse_scalar(parts[4])
            except (ValueError, ZeroDivisionError) as exc:
                # int() and parse_scalar name the bad text, not its line
                raise ValueError(f"line {lineno}: {exc}") from None
        if dim is None:
            raise ValueError("missing dim line")
        return cls(dim=dim, f=f, d=d)


def build_su(n: int) -> StructureConstants:
    """Structure constants of su(n) in the standard hermitian basis."""
    gens = su_generators(n)
    # by_row[b][k]: the (j, value) entries of row k of G^b
    by_row = []
    for _, entries in gens:
        rows: dict = {}
        for (k, j), z in entries.items():
            rows.setdefault(k, []).append((j, z))
        by_row.append(rows)
    # closing[(i, j)]: the (c, G^c[j][i]) pairs over the nonzero G^c[j][i], so
    # tr(P G^c) sums P[i][j] G^c[j][i] over the nonzero entries of P alone
    closing: dict = {}
    for c, (_, entries) in enumerate(gens):
        for (j, i), z in entries.items():
            closing.setdefault((i, j), []).append((c, z))

    f: dict = {}
    d: dict = {}
    for a, (sa, ga) in enumerate(gens):
        for b, (sb, _) in enumerate(gens):
            # P = G^a G^b over the nonzero entries only
            prod: dict = {}
            for (i, k), (xr, xi) in ga.items():
                for j, (yr, yi) in by_row[b].get(k, ()):
                    pr, pi = prod.get((i, j), (0, 0))
                    prod[i, j] = (pr + xr * yr - xi * yi, pi + xr * yi + xi * yr)
            # metric sanity: 2 tr(T^a T^b) = 2 s_a s_b tr(G^a G^b) must be exactly delta^{ab}
            scale_ab = 4 * sa * sb
            tr_re = tr_im = 0
            for (i, j), (pr, pi) in prod.items():
                if i == j:
                    tr_re, tr_im = tr_re + pr, tr_im + pi
            if tr_im != 0 or scale_ab * tr_re != (2 if a == b else 0):
                raise AssertionError(f"generator normalisation broken at ({a + 1},{b + 1})")
            traces: dict = {}
            for ij, (pr, pi) in prod.items():
                for c, (zr, zi) in closing.get(ij, ()):
                    t_re, t_im = traces.get(c, (0, 0))
                    traces[c] = (t_re + pr * zr - pi * zi, t_im + pr * zi + pi * zr)
            for c in sorted(traces):
                # tr(T^b T^a T^c) is the conjugate of t for hermitian generators; a
                # basis that is not hermitian breaks the symmetries verify_identities checks
                t_re, t_im = traces[c]
                scale = scale_ab * gens[c][0]
                if t_im != 0:
                    f[a + 1, b + 1, c + 1] = scale * t_im
                if t_re != 0:
                    d[a + 1, b + 1, c + 1] = scale * t_re
    return StructureConstants(dim=len(gens), f=f, d=d)


def _rows(tensor: dict) -> dict:
    """(a, b) -> [(c, value), ...] in entry order, integral values as int."""
    rows: dict = {}
    for (a, b, c), v in tensor.items():
        rows.setdefault((a, b), []).append((c, as_int_if_integral(v)))
    return rows


def _check_permuted(name, tensor, n, perm, sign) -> IdentityCheck:
    """tensor at the index triple permuted by ``perm`` == sign * tensor, for
    every triple in lexicographic order."""
    get = tensor.get
    p, q, r = perm
    for idx in itertools.product(range(1, n + 1), repeat=3):
        resid = get((idx[p], idx[q], idx[r]), 0) - sign * get(idx, 0)
        if resid != 0:
            return IdentityCheck(name, False, idx, resid)
    return IdentityCheck(name, True)


def _check_quartic(name, first_rows, second, n, middle_sign) -> IdentityCheck:
    """sum_x first[a][e][x] second[b][c][x] +- first[a][c][x] second[b][e][x]
    + first[a][b][x] second[c][e][x] == 0 for every (a, b, c, e).

    The middle sign is -1 when ``second`` is antisymmetric (Jacobi) and +1
    when it is symmetric (invariance of d under the adjoint action); both
    follow from ad-invariance of the respective tensor.
    """
    get = second.get
    span = range(1, n + 1)
    for a in span:
        rows = [()] + [first_rows.get((a, x), ()) for x in span]
        for b, c, e in itertools.product(span, repeat=3):
            acc: Scalar = 0
            for x, v in rows[e]:
                acc = acc + v * get((b, c, x), 0)
            for x, v in rows[c]:
                acc = acc + middle_sign * v * get((b, e, x), 0)
            for x, v in rows[b]:
                acc = acc + v * get((c, e, x), 0)
            if acc != 0:
                return IdentityCheck(name, False, (a, b, c, e), acc)
    return IdentityCheck(name, True)


def verify_identities(sc: StructureConstants) -> IdentityReport:
    """Run the six defining identity sweeps, exactly and exhaustively.

    Checks, in order: antisymmetry of f under swap of the first pair,
    cyclic invariance of f, symmetry of d under swap of the first pair,
    cyclic invariance of d, the Jacobi identity on f, and the mixed
    Jacobi-type identity coupling f to d.  Each failed check reports the
    first violating index tuple in lexicographic order.
    """
    n = sc.dim
    checks = (
        _check_permuted("f-first-pair-antisymmetry", sc.f, n, (1, 0, 2), -1),
        _check_permuted("f-cyclic", sc.f, n, (1, 2, 0), +1),
        _check_permuted("d-first-pair-symmetry", sc.d, n, (1, 0, 2), +1),
        _check_permuted("d-cyclic", sc.d, n, (1, 2, 0), +1),
        _check_quartic("jacobi-ff", sc.f_rows, sc.f, n, -1),
        _check_quartic("jacobi-fd", sc.f_rows, sc.d, n, +1),
    )
    return IdentityReport(checks)
