"""Exact scalar arithmetic over the rationals extended by square roots.

Scalars are ``int`` (the integral case, which callers keep wherever they
can), ``fractions.Fraction`` or :class:`SurdSum`, a finite sum
``sum_r c_r * sqrt(r)`` with squarefree integer radicands ``r >= 2`` and
rational coefficients ``c_r``.  They form a ring (``+``, ``-``, ``*``, with
no division, inverse or power), which is all the arithmetic the tensors
need, so quantities built from unitary structure constants can be compared
for exact equality; nothing in this module ever rounds.

Arithmetic that lands on a purely rational value is demoted back to
``Fraction``, so a ``SurdSum`` instance always carries at least one
irrational term.  A product with an ``int`` or ``Fraction`` (most products
in the symbolic sweeps) scales each coefficient and needs no radicand
arithmetic; a zero factor gives ``Fraction(0)``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "SurdSum"]

__all__ = ["Scalar", "SurdSum", "as_int_if_integral", "sqrt_scalar", "parse_scalar", "format_scalar"]


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return ``(s, r)`` with ``n == s*s*r`` and ``r`` squarefree (``n >= 1``)."""
    s, r = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    # leftover n is 1 or a prime occurring exactly once
    return s, r * n


def _make(terms: dict[int, Fraction]) -> Scalar:
    terms = {r: c for r, c in terms.items() if c}
    if not terms:
        return Fraction(0)
    if set(terms) == {1}:
        return terms[1]
    out = SurdSum.__new__(SurdSum)
    out._terms = terms
    return out


def _as_terms(x: Scalar) -> dict[int, Fraction]:
    if isinstance(x, SurdSum):
        return x._terms
    return {1: Fraction(x)}


class SurdSum:
    """Immutable sum of rational multiples of square roots of integers.

    Do not call the constructor directly; instances arise from
    :func:`sqrt_scalar`, :func:`parse_scalar` or arithmetic.  Mixed
    operations with ``int`` and ``Fraction`` are supported and purely
    rational results are returned as ``Fraction``.
    """

    __slots__ = ("_terms",)

    _terms: dict[int, Fraction]

    def __init__(self) -> None:
        raise TypeError("use sqrt_scalar() or parse_scalar() to build SurdSum values")

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, SurdSum)):
            return NotImplemented
        terms = dict(self._terms)
        for r, c in _as_terms(other).items():
            terms[r] = terms.get(r, Fraction(0)) + c
        return _make(terms)

    __radd__ = __add__

    def __neg__(self):
        return _make({r: -c for r, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, SurdSum)):
            return NotImplemented
        return self + (-other if isinstance(other, SurdSum) else -Fraction(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + Fraction(other)

    def __mul__(self, other):
        if type(other) is int or type(other) is Fraction:
            # a rational factor scales each coefficient; a nonzero one
            # cannot cancel an irrational term, so nothing is demoted
            if not other:
                return Fraction(0)
            out = SurdSum.__new__(SurdSum)
            out._terms = {r: c * other for r, c in self._terms.items()}
            return out
        if not isinstance(other, (int, Fraction, SurdSum)):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in _as_terms(other).items():
                # radicands are squarefree, so sqrt(r1)*sqrt(r2) = g*sqrt(r1r2/g^2)
                g = math.gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                terms[rad] = terms.get(rad, Fraction(0)) + c1 * c2 * g
        return _make(terms)

    __rmul__ = __mul__

    # -- comparison and conversion ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, SurdSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            # demotion invariant: a SurdSum is never purely rational
            return False
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return True

    def __float__(self):
        return sum(float(c) * math.sqrt(r) for r, c in self._terms.items())

    def __repr__(self):
        return f"SurdSum({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


def as_int_if_integral(x: Scalar) -> Scalar:
    """``x`` as ``int`` when it is an integral ``Fraction``; any other scalar unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def sqrt_scalar(x: Rational) -> Scalar:
    """Exact square root of a nonnegative rational.

    Returns a ``Fraction`` when the root is rational, else a ``SurdSum``
    with a single term.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt_scalar requires a nonnegative argument")
    if x == 0:
        return Fraction(0)
    s, r = _squarefree_split(x.numerator * x.denominator)
    return _make({r: Fraction(s, x.denominator)})


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*sqrt\(\s*(?P<rad1>\d+(?:/\d+)?)\s*\))?
          |
            sqrt\(\s*(?P<rad2>\d+(?:/\d+)?)\s*\)
        )\s*""",
    re.VERBOSE,
)


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal such as ``-2/3``, ``sqrt(2)`` or ``1/2+1/3*sqrt(3)``."""
    pos = 0
    total: Scalar = Fraction(0)
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse scalar literal {text!r} at position {pos}")
        if not first and m.group("sign") == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        rad = m.group("rad1") or m.group("rad2")
        term: Scalar = coef if rad is None else coef * sqrt_scalar(Fraction(rad))
        total = total + sign * term
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty scalar literal")
    return total


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the same literal syntax accepted by :func:`parse_scalar`."""
    if not isinstance(x, SurdSum):
        return str(Fraction(x))
    parts = []
    for r in sorted(x._terms):
        c = x._terms[r]
        if r == 1:
            body = str(abs(c))
        elif abs(c) == 1:
            body = f"sqrt({r})"
        else:
            body = f"{abs(c)}*sqrt({r})"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)
