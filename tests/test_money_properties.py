"""Quantity arithmetic and order against fractions.Fraction, and the
canonical form of every result, including the equal-denominator paths."""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.money import Quantity  # noqa: E402

nums = st.integers(-10**6, 10**6)
dens = st.integers(-60, 60).filter(bool)
quantities = st.builds(Quantity, nums, dens)


@st.composite
def operand_pairs(draw):
    """A Quantity and a second operand: any, same denominator, both
    integral, a plain int, its negation (the sum is zero) or an equal value
    (the difference is zero)."""
    a = draw(quantities)
    shape = draw(st.sampled_from(("any", "same-den", "integral", "int", "negation", "equal")))
    if shape == "any":
        b = draw(quantities)
    elif shape == "same-den":
        b = Quantity(draw(nums), a.den)
    elif shape == "integral":
        a, b = Quantity(draw(nums)), Quantity(draw(nums))
    elif shape == "int":
        b = draw(nums)
    elif shape == "negation":
        b = Quantity(-a.num, a.den)
    else:
        b = Quantity(a.num * 3, a.den * 3)
    return a, b


def fraction(x) -> Fraction:
    return Fraction(x.num, x.den) if isinstance(x, Quantity) else Fraction(x)


def assert_canonical(x) -> None:
    assert type(x) is Quantity
    assert x.den > 0
    assert gcd(abs(x.num), x.den) == 1  # so zero is 0/1


@given(nums, dens)
def test_construction_is_canonical(num, den):
    x = Quantity(num, den)
    assert_canonical(x)
    assert fraction(x) == Fraction(num, den)


@given(operand_pairs())
def test_arithmetic_and_order_match_fraction(pair):
    a, b = pair
    fa, fb = fraction(a), fraction(b)
    for got, want in ((a + b, fa + fb), (b + a, fb + fa), (a - b, fa - fb),
                      (b - a, fb - fa), (-a, -fa)):
        assert_canonical(got)
        assert fraction(got) == want
    for left, right, f_left, f_right in ((a, b, fa, fb), (b, a, fb, fa)):
        assert (left < right) == (f_left < f_right)
        assert (left <= right) == (f_left <= f_right)
        assert (left == right) == (f_left == f_right)


@given(operand_pairs())
def test_equal_values_hash_equal(pair):
    # Quantity == int holds for integral values, so a set or dict key must
    # find one by the other
    a, b = pair
    for left, right in ((a, b), (b, a), (a, a.num), (a.num, a)):
        if left == right:
            assert hash(left) == hash(right)
            assert left in {right}
    if a.den == 1:
        assert a == a.num and hash(a) == hash(a.num)
