"""Exact multivariate polynomials over the scalar ring.

Coefficients are exact scalars: ``int`` in the integral case, else
``Fraction`` or ``SurdSum``, a ring with no division, so
:meth:`Poly.divmod_linear` needs a rational lead.  Variables are plain
strings; a monomial is a sorted tuple of (variable, exponent) pairs.  The
symbolic bracket engine keeps momentum components and charge parameters as
polynomial indeterminates, so every cancellation it reports is an identity
in those symbols rather than a numeric coincidence.

Integral coefficients stay ``int`` (variables and powers start from ``1``),
so a table whose structure constants are integers does no ``Fraction``
arithmetic; an ``int`` and the equal ``Fraction`` compare and hash alike, so
the coefficient type never shows in equality, hashing or rendering.  A
constant or zero polynomial also hashes like its scalar, which it equals.

A product with a scalar or a constant polynomial scales term by term; the
symbolic sweeps mostly scale by the ``int`` 1 or -1, so a factor 1 returns
the operand itself (a ``Poly`` is immutable) and a factor -1 negates term by
term.  A monomial product merges the two sorted tuples in one scan, and a
``formal_algebra.Momentum`` sum shares that merge.  The
binary operators test ``type(other) is Poly`` before the coefficient types,
because ``isinstance`` against ``Fraction`` goes through its ABC.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, SurdSum, as_int_if_integral, format_scalar

__all__ = ["Poly", "format_poly"]

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by variable name

_ONE: Monomial = ()

_COEFF_TYPES = (int, Fraction, SurdSum)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: one merge of the sorted pairs, reusing the
    pairs of a variable that only one factor holds.  A zero sum is dropped:
    only a ``formal_algebra.Momentum`` sum, which shares this merge, has one."""
    if not m1:
        return m2
    if not m2:
        return m1
    n1, n2 = len(m1), len(m2)
    i = j = 0
    out = []
    while i < n1 and j < n2:
        p, q = m1[i], m2[j]
        if p[0] < q[0]:
            out.append(p)
            i += 1
        elif q[0] < p[0]:
            out.append(q)
            j += 1
        else:
            e = p[1] + q[1]
            if e:
                out.append((p[0], e))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


class Poly:
    """Immutable polynomial; arithmetic returns new instances."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coef in terms.items():
                if coef != 0:
                    self.terms[mono] = coef

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls({_ONE: c})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    @classmethod
    def _of(cls, terms: dict) -> "Poly":
        """Wrap a dict already free of zero coefficients, without a copy."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = Poly.const(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            terms[mono] = terms.get(mono, 0) + coef
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            return _scaled(self, other)
        a, b = self.terms, other.terms
        if len(b) == 1 and _ONE in b:
            return _scaled(self, b[_ONE])
        if len(a) == 1 and _ONE in a:
            return _scaled(other, a[_ONE])
        terms: dict[Monomial, Scalar] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = _mono_mul(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, _COEFF_TYPES):
                return NotImplemented
            other = Poly.const(other)
        return self.terms == other.terms

    def __hash__(self):
        # a constant or zero polynomial equals its scalar, so hashes like it
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and _ONE in terms:
            return hash(terms[_ONE])
        return hash(frozenset(terms.items()))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"Poly({format_poly(self)})"

    # -- substitution and division ------------------------------------------

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace variables by polynomials and expand."""
        out = Poly()
        for mono, coef in self.terms.items():
            term = Poly.const(coef)
            for var, exp in mono:
                rep = mapping.get(var)
                factor = rep if rep is not None else Poly.variable(var)
                term = term * (factor ** exp)
            out = out + term
        return out

    def evaluate(self, assignment: dict[str, Scalar]) -> Scalar:
        """Value of the polynomial at a full scalar assignment."""
        total: Scalar = 0
        for mono, coef in self.terms.items():
            val: Scalar = coef
            for var, exp in mono:
                if var not in assignment:
                    raise KeyError(f"no value for variable {var!r}")
                for _ in range(exp):
                    val = val * assignment[var]
            total = total + val
        return total

    def divmod_linear(self, lin: "Poly", x: str) -> tuple["Poly", "Poly"]:
        """Quotient and remainder on division by a linear polynomial.

        ``lin`` must contain the bare variable ``x`` (exponent 1, alone in
        its monomial) and no other monomial involving ``x``; the remainder
        is then free of ``x`` and the pair (q, r) with self == q*lin + r is
        unique.  The lead, ``x``'s coefficient, is inverted as a ``Fraction``,
        so it must be rational; a ``SurdSum`` lead raises ``TypeError``.
        """
        x_mono: Monomial = ((x, 1),)
        lead = lin.terms.get(x_mono)
        if lead is None or lead == 0:
            raise ValueError(f"divisor has no bare {x!r} term")
        for mono in lin.terms:
            if mono != x_mono and any(v == x for v, _ in mono):
                raise ValueError(f"divisor must be linear in {x!r}")
        inv = as_int_if_integral(1 / Fraction(lead))
        quot = Poly()
        rem = self
        while True:
            pending = [(m, c) for m, c in rem.terms.items() if any(v == x for v, _ in m)]
            if not pending:
                return quot, rem
            # eliminate the highest x-power first; each pass strictly lowers it
            mono, coef = max(pending, key=lambda mc: dict(mc[0])[x])
            exps = dict(mono)
            e = exps.pop(x)
            if e > 1:
                exps[x] = e - 1
            piece = Poly({tuple(sorted(exps.items())): coef * inv})
            quot = quot + piece
            rem = rem - piece * lin


def _scaled(p: Poly, c: Scalar) -> Poly:
    """``p`` times the scalar ``c``, term by term.

    The exact scalars have no zero divisors, so a nonzero factor leaves no
    zero coefficient to prune.  The ``int`` factors 1 and -1 give ``p``
    itself and its negation; either equals the general product, coefficient
    types included.
    """
    if type(c) is int:
        if c == 1:
            return p
        if c == -1:
            return Poly._of({m: -x for m, x in p.terms.items()})
    if c == 0:
        return Poly()
    return Poly._of({m: x * c for m, x in p.terms.items()})


def format_poly(p: Poly) -> str:
    """Human-readable rendering with deterministic term order."""
    if p.is_zero:
        return "0"
    parts = []
    for mono in sorted(p.terms, key=lambda m: (sum(e for _, e in m), m)):
        coef = p.terms[mono]
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        cs = format_scalar(coef)
        negative = cs.startswith("-")
        if negative:
            cs = cs[1:]
        if "+" in cs or "-" in cs[1:]:
            cs = f"({cs})"
        if body:
            piece = body if cs == "1" else f"{cs}*{body}"
        else:
            piece = cs
        if not parts:
            parts.append(("-" if negative else "") + piece)
        else:
            parts.append((" - " if negative else " + ") + piece)
    return "".join(parts)
