"""Exact money arithmetic: worked values, parsing, and the algebraic laws.

Property suites draw seeded random rationals and check against
fractions.Fraction, which is independent of the hand-rolled Quantity
implementation.
"""

import random
from fractions import Fraction

import pytest

from rpsf.money import (
    ONE,
    ZERO,
    Quantity,
    add,
    compare,
    inverse,
    multiply,
    negate,
    parse_quantity,
    subtract,
    total_div,
)


def q(n, d=1):
    return Quantity(n, d)


def to_fraction(x: Quantity) -> Fraction:
    return Fraction(x.num, x.den)


def random_quantity(rng: random.Random) -> Quantity:
    num = rng.randint(-10**6, 10**6)
    den = rng.randint(1, 10**4)
    return Quantity(num, den)


class TestWorkedValues:
    def test_credit_markup_gain(self):
        # 110 received against 100 paid leaves exactly 10
        assert add(q(110), q(-100)) == q(10)

    def test_additive_identity(self):
        for value in (q(0), q(7), q(-3, 2), q(123456789, 97)):
            assert add(value, ZERO) == value

    def test_rate_times_principal(self):
        # oracle: independent big-rational arithmetic
        assert Fraction(1, 20) * Fraction(1000) == Fraction(50)
        assert multiply(q(1, 20), q(1000)) == q(50)

    def test_division_by_zero_is_zero(self):
        assert total_div(ONE, ZERO) == ZERO
        assert total_div(q(-7, 3), ZERO) == ZERO

    def test_identity_divisor(self):
        for value in (q(0), q(42), q(-5, 7)):
            assert total_div(value, ONE) == value

    def test_ten_percent_per_year(self):
        assert total_div(q(10), q(100)) == q(1, 10)


class TestCanonicalForm:
    def test_normalisation(self):
        assert Quantity(2, 4) == Quantity(1, 2)
        assert Quantity(-2, -4) == Quantity(1, 2)
        assert Quantity(3, -6) == Quantity(-1, 2)
        assert Quantity(0, 5) == Quantity(0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            Quantity(1, 0)

    def test_an_int_is_found_by_its_quantity(self):
        assert Quantity(1) in {1} and 1 in {Quantity(1)}
        assert {Quantity(4, 2): "two"}[2] == "two"
        assert hash(Quantity(-1)) == hash(-1)

    def test_a_bool_is_not_a_quantity(self):
        # as arithmetic refuses it, equality does
        assert Quantity(1) != True and Quantity(0) != False  # noqa: E712
        assert True != Quantity(1)  # noqa: E712
        with pytest.raises(TypeError):
            Quantity(1) + True

    def test_closure_under_operations(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_quantity(rng), random_quantity(rng)
            for result in (a + b, a - b, a * b, -a, total_div(a, b), inverse(a)):
                assert result.den > 0
                from math import gcd
                assert gcd(abs(result.num), result.den) == 1


class TestParsingAndRendering:
    @pytest.mark.parametrize("text,expected", [
        ("100", q(100)),
        ("-3", q(-3)),
        ("1/20", q(1, 20)),
        ("-7/2", q(-7, 2)),
        ("0.05", q(1, 20)),
        ("1048.50", q(2097, 2)),
        ("-0.25", q(-1, 4)),
    ])
    def test_parse(self, text, expected):
        assert parse_quantity(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.2.3", "1e5"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_quantity(bad)

    def test_render_suppresses_unit_denominator(self):
        assert str(q(10)) == "10"
        assert str(q(-3, 4)) == "-3/4"

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            value = random_quantity(rng)
            assert parse_quantity(str(value)) == value


class TestFieldLawsAgainstOracle:
    """Ring laws over >= 1000 random rationals, checked exactly."""

    def test_arithmetic_matches_fraction(self):
        rng = random.Random(42)
        for _ in range(1200):
            a, b = random_quantity(rng), random_quantity(rng)
            fa, fb = to_fraction(a), to_fraction(b)
            assert to_fraction(a + b) == fa + fb
            assert to_fraction(a - b) == fa - fb
            assert to_fraction(a * b) == fa * fb
            assert to_fraction(-a) == -fa
            if fb != 0:
                assert to_fraction(total_div(a, b)) == fa / fb

    def test_ring_laws(self):
        rng = random.Random(43)
        for _ in range(1000):
            a, b, c = (random_quantity(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a
            assert a * ONE == a
            assert a + (-a) == ZERO


class TestMeadowLaws:
    def test_inverse_of_zero(self):
        assert inverse(ZERO) == ZERO

    def test_meadow_identities(self):
        rng = random.Random(44)
        for _ in range(1200):
            x = random_quantity(rng)
            assert inverse(inverse(x)) == x
            assert x * inverse(x) * x == x

    def test_total_division_by_zero(self):
        rng = random.Random(45)
        for _ in range(1000):
            x = random_quantity(rng)
            assert total_div(x, ZERO) == ZERO


class TestOrder:
    def test_compare_is_subtraction_sign(self):
        rng = random.Random(46)
        for _ in range(1000):
            a, b = random_quantity(rng), random_quantity(rng)
            diff = to_fraction(a) - to_fraction(b)
            want = (diff > 0) - (diff < 0)
            assert compare(a, b) == want
            assert (a < b) == (want == -1)
            assert (a == b) == (want == 0)
            assert (a > b) == (want == 1)

    def test_total_order_sorts(self):
        rng = random.Random(47)
        values = [random_quantity(rng) for _ in range(200)]
        as_fractions = sorted(to_fraction(v) for v in values)
        assert [to_fraction(v) for v in sorted(values)] == as_fractions

    def test_negate_subtract_consistency(self):
        assert subtract(q(5), q(8)) == negate(q(3))
