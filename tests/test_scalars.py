"""Exact scalar arithmetic: rationals extended by square roots."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from curralg.scalars import SurdSum, as_int_if_integral, format_scalar, parse_scalar, sqrt_scalar


def test_perfect_squares_stay_rational():
    assert sqrt_scalar(4) == 2
    assert sqrt_scalar(0) == 0
    assert sqrt_scalar(Fraction(9, 4)) == Fraction(3, 2)
    assert not isinstance(sqrt_scalar(16), SurdSum)


def test_sqrt_squares_back():
    for n in (2, 3, 5, 6, 7, 8, 12, 45):
        s = sqrt_scalar(n)
        assert s * s == n


def test_radicand_normalization():
    # sqrt(8) = 2*sqrt(2), sqrt(12) = 2*sqrt(3)
    assert sqrt_scalar(8) == 2 * sqrt_scalar(2)
    assert sqrt_scalar(12) == 2 * sqrt_scalar(3)
    assert sqrt_scalar(Fraction(1, 3)) == sqrt_scalar(3) * Fraction(1, 3)


def test_mixed_products():
    r2, r3, r6 = sqrt_scalar(2), sqrt_scalar(3), sqrt_scalar(6)
    assert r2 * r3 == r6
    assert r6 * r2 == 2 * r3
    x = Fraction(1, 2) + r3
    y = x * x
    assert y == Fraction(13, 4) + r3


def test_addition_cancels_to_rational():
    r5 = sqrt_scalar(5)
    assert (1 + r5) + (1 - r5) == 2
    assert isinstance((1 + r5) - r5, (int, Fraction))


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        _ = 1 / (sqrt_scalar(2) - sqrt_scalar(2) + 0)


def test_float_conversion():
    x = Fraction(1, 2) + sqrt_scalar(3)
    assert math.isclose(float(x), 0.5 + math.sqrt(3), rel_tol=1e-15)


def test_comparison_with_floats_is_refused():
    r2 = sqrt_scalar(2)
    with pytest.raises(TypeError):
        _ = r2 + 0.5


def test_parse_format_roundtrip():
    samples = [
        "1/2",
        "sqrt(3)",
        "-1/3*sqrt(3)",
        "1/2 + 1/2*sqrt(5)",
        "2 - sqrt(2)",
    ]
    for text in samples:
        value = parse_scalar(text)
        again = parse_scalar(format_scalar(value))
        assert again == value


def test_format_is_deterministic():
    a = sqrt_scalar(3) + Fraction(1, 2)
    b = Fraction(1, 2) + sqrt_scalar(3)
    assert format_scalar(a) == format_scalar(b)


def test_hash_consistency():
    assert hash(sqrt_scalar(4)) == hash(2)
    d = {sqrt_scalar(2) + 1: "x"}
    assert d[1 + sqrt_scalar(2)] == "x"


def test_as_int_if_integral_demotes_only_integral_fractions():
    assert as_int_if_integral(Fraction(4, 2)) == 2 and type(as_int_if_integral(Fraction(4, 2))) is int
    assert as_int_if_integral(Fraction(1, 2)) == Fraction(1, 2)
    assert as_int_if_integral(3) == 3
    root = sqrt_scalar(2)
    assert as_int_if_integral(root) is root


# -- properties of the exact ring ----------------------------------------------

# Sums of up to three rational multiples of sqrt(r) over radicands built from
# the primes 2, 3 and 5; radicand 1 is the rational part.
_RADICANDS = (1, 2, 3, 5, 6, 10, 15, 30)
_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
scalars = st.lists(st.tuples(_rationals, st.sampled_from(_RADICANDS)), max_size=3).map(
    lambda terms: sum((c * sqrt_scalar(r) for c, r in terms), Fraction(0))
)


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, scalars)
def test_surd_sums_satisfy_the_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x
    assert x - x == 0 and x + (-x) == 0
    assert x - y == -(y - x)


@settings(max_examples=300, deadline=None)
@given(scalars)
def test_format_then_parse_is_the_identity(x):
    assert parse_scalar(format_scalar(x)) == x


# -- the rational-factor product -------------------------------------------------

_factors = st.one_of(st.integers(-4, 4), _rationals)


def _holds_irrational_term(x):
    return any(r > 1 and c != 0 for r, c in x._terms.items())


@settings(max_examples=300, deadline=None)
@given(scalars, scalars, _factors)
def test_a_surd_sum_result_always_holds_an_irrational_term(x, y, q):
    for value in (x + y, x - y, x * y, x * q, q * x, -x):
        if isinstance(value, SurdSum):
            assert _holds_irrational_term(value)
        else:
            assert type(value) in (int, Fraction)


@settings(max_examples=300, deadline=None)
@given(scalars, _factors)
def test_rational_factor_scales_each_coefficient(x, q):
    assume(isinstance(x, SurdSum) and q != 0)
    # the general radicand product against q as a sum with one rational term
    want = {r: c * Fraction(q) for r, c in x._terms.items()}
    for got in (x * q, q * x):
        assert isinstance(got, SurdSum)
        assert got._terms == want
        assert list(got._terms) == list(want)
        assert all(type(c) is Fraction for c in got._terms.values())


def test_surd_sum_times_zero_is_the_rational_zero():
    x = Fraction(1, 2) + sqrt_scalar(3)
    for zero in (0, Fraction(0)):
        for got in (x * zero, zero * x):
            assert got == 0 and type(got) is Fraction
