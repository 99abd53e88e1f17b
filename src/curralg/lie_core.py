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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar, as_int_if_integral, format_scalar, parse_scalar, sqrt_scalar

__all__ = [
    "StructureConstants",
    "IdentityCheck",
    "IdentityReport",
    "build_su",
    "verify_identities",
]

_ZERO = Fraction(0)

# complex numbers as (re, im) pairs of exact scalars
_CZERO = (_ZERO, _ZERO)


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = _CZERO
            for k in range(n):
                if a[i][k] != _CZERO and b[k][j] != _CZERO:
                    acc = _cadd(acc, _cmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _mat_trace_prod(a, b):
    """tr(a @ b) without forming the product."""
    n = len(a)
    acc = _CZERO
    for i in range(n):
        for j in range(n):
            if a[i][j] != _CZERO and b[j][i] != _CZERO:
                acc = _cadd(acc, _cmul(a[i][j], b[j][i]))
    return acc


def _zeros(n):
    return [[_CZERO for _ in range(n)] for _ in range(n)]


def su_generators(n: int) -> list:
    """Hermitian generators of su(n) with tr(T^a T^b) = delta^{ab}/2.

    Ordering: for each k = 2..n the off-diagonal pairs (j, k) contribute a
    symmetric then an antisymmetric generator for j = 1..k-1, followed by
    the diagonal generator of rank k-1.  For n = 2 this is the Pauli basis
    over 2, for n = 3 the standard lambda-matrix basis over 2.
    """
    if n < 2:
        raise ValueError(f"su({n}) has no semisimple generator set; need n >= 2")
    half = Fraction(1, 2)
    gens = []
    for k in range(2, n + 1):
        for j in range(1, k):
            sym = _zeros(n)
            sym[j - 1][k - 1] = (half, _ZERO)
            sym[k - 1][j - 1] = (half, _ZERO)
            gens.append(sym)
            asym = _zeros(n)
            asym[j - 1][k - 1] = (_ZERO, -half)
            asym[k - 1][j - 1] = (_ZERO, half)
            gens.append(asym)
        m = k - 1
        c = half * sqrt_scalar(Fraction(2, m * (m + 1)))
        diag = _zeros(n)
        for i in range(m):
            diag[i][i] = (c, _ZERO)
        diag[m][m] = (-m * c, _ZERO)
        gens.append(diag)
    return gens


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one exact identity sweep."""

    name: str
    passed: bool
    first_violation: tuple[int, ...] | None = None
    violation_value: Scalar | None = None


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass
class StructureConstants:
    """Exact f and d tensors over a basis with unit metric.

    ``f`` and ``d`` map 1-based index triples to nonzero exact scalars;
    absent triples are zero.  ``f_rows`` and ``d_rows``, the one sparse view
    that every layer reads, map ``(a, b)`` to ``[(c, value), ...]`` over the
    nonzero entries in entry order, integral values as ``int``.  All four
    are built here and read-only: nothing mutates them after construction.
    """

    dim: int
    f: dict[tuple[int, int, int], Scalar] = field(default_factory=dict)
    d: dict[tuple[int, int, int], Scalar] = field(default_factory=dict)
    f_rows: dict = field(init=False, repr=False, compare=False)
    d_rows: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        for name, tensor in (("f", self.f), ("d", self.d)):
            for key in tensor:
                if len(key) != 3 or not all(1 <= i <= self.dim for i in key):
                    raise ValueError(f"{name}{key}: indices must lie in 1..{self.dim}")
        # filtered copies: the caller's dicts are left as they were passed
        self.f = {key: val for key, val in self.f.items() if val != 0}
        self.d = {key: val for key, val in self.d.items() if val != 0}
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
            if parts[0] == "dim":
                if dim is not None:
                    raise ValueError(f"line {lineno}: duplicate dim line")
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: expected 'dim <n>'")
                dim = int(parts[1])
                continue
            if parts[0] not in ("f", "d"):
                raise ValueError(f"line {lineno}: unknown tensor {parts[0]!r}")
            if dim is None:
                raise ValueError(f"line {lineno}: dim line must come first")
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: expected '{parts[0]} a b c value'")
            key = (int(parts[1]), int(parts[2]), int(parts[3]))
            tensor = f if parts[0] == "f" else d
            if key in tensor:
                raise ValueError(f"line {lineno}: duplicate entry {parts[0]}{key}")
            tensor[key] = parse_scalar(parts[4])
        if dim is None:
            raise ValueError("missing dim line")
        return cls(dim=dim, f=f, d=d)


def build_su(n: int) -> StructureConstants:
    """Structure constants of su(n) in the standard hermitian basis."""
    gens = su_generators(n)
    dim = n * n - 1
    prods = [[_mat_mul(gens[a], gens[b]) for b in range(dim)] for a in range(dim)]

    # metric sanity: 2 tr(T^a T^b) must be exactly delta^{ab}
    for a in range(dim):
        for b in range(dim):
            tr = _CZERO
            for i in range(n):
                tr = _cadd(tr, prods[a][b][i][i])
            expect = Fraction(1 if a == b else 0)
            if tr[0] * 2 != expect or tr[1] != 0:
                raise AssertionError(f"generator normalisation broken at ({a + 1},{b + 1})")

    f: dict = {}
    d: dict = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                # tr(T^b T^a T^c) is the conjugate of t for hermitian generators; a
                # basis that is not hermitian breaks the symmetries verify_identities checks
                t = _mat_trace_prod(prods[a][b], gens[c])
                fval = 4 * t[1]
                dval = 4 * t[0]
                if fval != 0:
                    f[(a + 1, b + 1, c + 1)] = fval
                if dval != 0:
                    d[(a + 1, b + 1, c + 1)] = dval
    return StructureConstants(dim=dim, f=f, d=d)


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
