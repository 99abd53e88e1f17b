"""Multivariate polynomials with exact scalar coefficients.

The example tests pin known values; the ``hypothesis`` properties check the
ring axioms, the spliced monomial product against the dict-and-sort rule it
replaces, division by a linear polynomial, that an ``int`` coefficient
behaves exactly like the equal ``Fraction``, and that a product by a unit or
a rational equals the product taken term by term, coefficient types
included.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curralg.poly import Poly, _mono_mul, format_poly
from curralg.scalars import SurdSum, as_int_if_integral, sqrt_scalar


def _v(name):
    return Poly.variable(name)


def test_ring_basics():
    x, y = _v("x"), _v("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_zero_pruning():
    x = _v("x")
    assert (x - x).is_zero
    assert (x * 0).is_zero
    assert not (x + 1).is_zero


def test_scalar_coefficients_stay_exact():
    x = _v("x")
    p = x * sqrt_scalar(3) * sqrt_scalar(3)
    assert p == 3 * x
    q = x * Fraction(1, 3) * 3
    assert q == x


def test_substitute():
    x, y, z = _v("x"), _v("y"), _v("z")
    p = x * y + z
    assert p.substitute({"x": y}) == y * y + z
    assert p.substitute({"z": Poly()}) == x * y
    # substitution is simultaneous, not sequential
    q = (x + y).substitute({"x": y, "y": x})
    assert q == x + y


def test_evaluate():
    x, y = _v("x"), _v("y")
    p = x * x + 2 * y
    assert p.evaluate({"x": Fraction(1, 2), "y": 3}) == Fraction(25, 4)
    # the sum starts from int 0, so int and float assignments keep their type
    at_int = p.evaluate({"x": 2, "y": 3})
    assert at_int == 10 and type(at_int) is int
    at_float = p.evaluate({"x": 2.0, "y": 3.0})
    assert at_float == 10.0 and type(at_float) is float
    with pytest.raises(KeyError):
        p.evaluate({"x": 1})


def test_divmod_linear_exact_multiple():
    m3, n3 = _v("m_3"), _v("n_3")
    m1 = _v("m_1")
    lin = m3 + n3
    q_true = m1 + 2
    p = q_true * lin
    q, r = p.divmod_linear(lin, "n_3")
    assert q == q_true
    assert r.is_zero


def test_divmod_linear_remainder_free_of_pivot():
    m3, n3, m1 = _v("m_3"), _v("n_3"), _v("m_1")
    lin = m3 + n3
    p = n3 * n3 + m1
    q, r = p.divmod_linear(lin, "n_3")
    assert p == q * lin + r
    assert all("n_3" not in dict(mono) for mono in r.terms)


def test_divmod_linear_scaled_divisor():
    m3 = _v("m_3")
    lin = 2 * m3  # argument 2m, pivot component
    p = 6 * m3
    q, r = p.divmod_linear(lin, "m_3")
    assert q == Poly.const(3)
    assert r.is_zero


def test_format_poly_deterministic_order():
    m1, m2, n1, n2 = (_v(s) for s in ("m_1", "m_2", "n_1", "n_2"))
    p = m1 * n2 - m2 * n1
    assert format_poly(p) == "m_1*n_2 - m_2*n_1"
    assert format_poly(Poly()) == "0"
    assert format_poly(Poly.const(sqrt_scalar(3) * Fraction(1, 3))) == "1/3*sqrt(3)"


def test_scalars_are_a_ring_without_division():
    # brackets, cocycles and charges need only +, - and *: a surd has no
    # inverse, and divmod_linear takes only a rational lead
    r2, r3 = sqrt_scalar(2), sqrt_scalar(3)
    with pytest.raises(TypeError):
        _ = 1 / r3
    with pytest.raises(TypeError):
        _ = r3 / 3
    with pytest.raises(TypeError):
        _ = r2 ** 2
    x = _v("x")
    with pytest.raises(TypeError):
        (x * x).divmod_linear(r2 * x + _v("y"), "x")


# -- properties ------------------------------------------------------------------

VARS = ("c1", "k", "m_1", "m_2", "n_1", "x")

monomials = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3).map(
    lambda exps: tuple(sorted(exps.items()))
)
rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
scalars = st.one_of(
    rationals,
    st.builds(lambda c, r: c * sqrt_scalar(r), st.integers(1, 3), st.sampled_from([2, 3])),
)
polys = st.dictionaries(monomials, scalars, max_size=4).map(Poly)


def _mono_mul_by_dict(m1, m2):
    """The dict-and-sort rule that the merge replaces."""
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly() == p and p * Poly.const(1) == p
    assert (p * Poly()).is_zero and (p - p).is_zero
    assert -(-p) == p and p - q == p + (-q)


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
def test_mono_mul_matches_dict_and_sort(m1, m2):
    got = _mono_mul(m1, m2)
    assert got == _mono_mul_by_dict(m1, m2)
    assert type(got) is tuple and list(got) == sorted(got)


@settings(max_examples=150, deadline=None)
@given(polys, polys, rationals.filter(bool))
def test_divmod_linear_reconstructs(p, rest, lead):
    # a divisor linear in x: lead*x plus an x-free polynomial
    rest = Poly({m: c for m, c in rest.terms.items() if all(v != "x" for v, _ in m)})
    lin = lead * Poly.variable("x") + rest
    q, r = p.divmod_linear(lin, "x")
    assert p == q * lin + r
    assert all(v != "x" for mono in r.terms for v, _ in mono)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(monomials, st.integers(-5, 5), max_size=4))
def test_int_coefficients_equal_fraction_coefficients(terms):
    as_int = Poly(terms)
    as_fraction = Poly({m: Fraction(c) for m, c in terms.items()})
    assert as_int == as_fraction
    assert hash(as_int) == hash(as_fraction)
    assert format_poly(as_int) == format_poly(as_fraction)


def test_integral_coefficients_stay_int():
    x, y = _v("x"), _v("y")
    p = (x + 2 * y) ** 3 - 3 * x * y
    assert all(type(c) is int for c in p.terms.values())
    assert all(type(c) is int for c in (p * Poly.const(-2)).terms.values())
    assert all(type(c) is int for c in (Poly.const(-2) * p).terms.values())
    half = p * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.terms.values())


def test_constant_and_zero_polys_hash_like_their_scalar():
    for c in (3, -1, Fraction(1, 2), sqrt_scalar(2) + 1):
        p = Poly.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert Poly() == 0 and hash(Poly()) == hash(0)
    assert len({Poly(), 0, Fraction(0)}) == 1
    # an integral Fraction constant equals the int, so hashes alike too
    assert hash(Poly.const(Fraction(4, 2))) == hash(2)


# -- the unit and rational factors -----------------------------------------------

# polynomials as the sweeps hold them: integral coefficients as int
normal_polys = st.dictionaries(monomials, scalars.map(as_int_if_integral), max_size=4).map(Poly)
UNITS = (1, -1, Poly.const(1), Poly.const(-1))
factors = st.one_of(st.sampled_from(UNITS), rationals.filter(bool).map(as_int_if_integral))


def _typed(p):
    return [(m, c, type(c)) for m, c in p.terms.items()]


@settings(max_examples=300, deadline=None)
@given(normal_polys, factors)
def test_unit_and_rational_factors_scale_term_by_term(p, factor):
    c = factor.terms[()] if isinstance(factor, Poly) else factor
    want = [(m, x * c, type(x * c)) for m, x in p.terms.items()]
    for got in (p * factor, factor * p):
        assert _typed(got) == want
        assert all(not isinstance(x, SurdSum) or x != 0 for x in got.terms.values())
    if any(factor is u for u in UNITS):
        assert all(type(x) is not Fraction or x.denominator != 1 for x in (p * factor).terms.values())
    if factor is UNITS[0] or factor is UNITS[2]:
        # a Poly is immutable, so a product by 1 is its other factor itself
        assert p * factor is p
    if factor is UNITS[0]:
        assert factor * p is p


@settings(max_examples=100, deadline=None)
@given(normal_polys)
def test_zero_factor_gives_the_zero_poly(p):
    for zero in (0, Fraction(0), Poly()):
        assert (p * zero).is_zero and (zero * p).is_zero
