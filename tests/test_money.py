"""Exact money arithmetic: worked values, parsing, and the algebraic laws.

Property suites draw seeded random rationals and check against
fractions.Fraction, which is independent of the hand-rolled Quantity
implementation.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from rpsf.money import (
    ONE,
    ZERO,
    Quantity,
    inverse,
    parse_quantity,
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
        assert q(110) + q(-100) == q(10)

    def test_additive_identity(self):
        for value in (q(0), q(7), q(-3, 2), q(123456789, 97)):
            assert value + ZERO == value

    def test_rate_times_principal(self):
        # oracle: independent big-rational arithmetic
        assert Fraction(1, 20) * Fraction(1000) == Fraction(50)
        assert q(1, 20) * q(1000) == q(50)

    def test_division_by_zero_is_zero(self):
        assert total_div(ONE, ZERO) == ZERO
        assert total_div(q(-7, 3), ZERO) == ZERO

    def test_a_number_divided_by_a_quantity(self):
        assert 1 / q(3) == q(1, 3)
        assert 2 / ZERO == ZERO

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

    @pytest.mark.parametrize("num, den", [
        (12343, 100),   # canonical already: kept as given
        (-7, 3),        # canonical with a negative numerator
        (0, 1),
        (3, -7),        # coprime, but the sign moves to the numerator
        (-3, -7),
        (24, -4),       # common factor and a negative denominator
        (10**20, 10**18),
    ])
    def test_construction_gives_the_canonical_form(self, num, den):
        value = Quantity(num, den)
        assert Fraction(value.num, value.den) == Fraction(num, den)
        assert value.den > 0 and gcd(value.num, value.den) == 1
        assert type(value.num) is int and type(value.den) is int

    def test_every_construction_runs_post_init(self, monkeypatch):
        # a canonical value returns early from __post_init__, but still
        # passes through it, so a counter wrapped around it sees it
        seen = []
        original = Quantity.__post_init__

        def counting(self):
            seen.append((self.num, self.den))
            original(self)

        monkeypatch.setattr(Quantity, "__post_init__", counting)
        Quantity(5), Quantity(12343, 100), Quantity(2, -4)
        assert seen == [(5, 1), (12343, 100), (2, -4)]

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

    @pytest.mark.parametrize("other", [1.0, "1", None, True, (1, 1)])
    def test_anything_but_a_quantity_or_an_int_is_left_to_the_other_side(self, other):
        assert Quantity(1).__eq__(other) is NotImplemented
        assert Quantity(1) != other and other != Quantity(1)

    def test_closure_under_operations(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_quantity(rng), random_quantity(rng)
            for result in (a + b, a - b, a * b, -a, total_div(a, b), inverse(a)):
                assert result.den > 0
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
    def test_order_is_the_sign_of_the_difference(self):
        rng = random.Random(46)
        for _ in range(1000):
            a, b = random_quantity(rng), random_quantity(rng)
            diff = a - b
            assert to_fraction(diff) == to_fraction(a) - to_fraction(b)
            assert (a < b) == (diff.num < 0)
            assert (a <= b) == (diff.num <= 0)
            assert (a == b) == (diff.num == 0)
            assert (a >= b) == (diff.num >= 0)
            assert (a > b) == (diff.num > 0)

    def test_total_order_sorts(self):
        rng = random.Random(47)
        values = [random_quantity(rng) for _ in range(200)]
        as_fractions = sorted(to_fraction(v) for v in values)
        assert [to_fraction(v) for v in sorted(values)] == as_fractions

    def test_negate_subtract_consistency(self):
        assert q(5) - q(8) == -q(3)
