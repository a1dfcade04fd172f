"""Exact rational money arithmetic with total division.

Every monetary value in the simulator is a Quantity: an arbitrary-precision
rational kept in canonical form (positive denominator, gcd(|num|, den) == 1,
zero is 0/1). Division is total: dividing by zero yields zero, so arithmetic
over quantities never raises. The multiplicative inverse is defined through
that total division, which gives the characteristic laws

    inverse(inverse(x)) == x
    x * inverse(x) * x  == x
    inverse(0)          == 0

No floating point appears anywhere on a money path; decimal literals in
scenario files and on the command line are converted exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Union

QuantityLike = Union["Quantity", int]

_DECIMAL_RE = re.compile(r"^(-?\d+)\.(\d+)$")
_RATIO_RE = re.compile(r"^(-?\d+)\s*/\s*(-?\d+)$")
_INT_RE = re.compile(r"^-?\d+$")


@dataclass(frozen=True, slots=True)
class Quantity:
    """A money amount as a canonical-form rational number.

    Construct with ``Quantity(n)`` or ``Quantity(n, d)``; any d != 0 is
    accepted and normalised (``Quantity(3, -6)`` is ``-1/2``). A zero
    denominator is rejected at construction: 0/0 is not a value, while
    *dividing* by zero is handled by :func:`total_div`.
    """

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den == 1:  # already canonical
            return
        if den == 0:
            raise ValueError("Quantity denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- arithmetic ------------------------------------------------------
    # An operand that is already a Quantity skips _coerce, and equal
    # denominators add numerators directly; every result still goes
    # through the constructor, so it is normalised.

    def __add__(self, other: QuantityLike) -> "Quantity":
        o = other if type(other) is Quantity else _coerce(other)
        if self.den == o.den:
            return Quantity(self.num + o.num, self.den)
        return Quantity(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: QuantityLike) -> "Quantity":
        o = other if type(other) is Quantity else _coerce(other)
        if self.den == o.den:
            return Quantity(self.num - o.num, self.den)
        return Quantity(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other: QuantityLike) -> "Quantity":
        return _coerce(other) - self

    def __mul__(self, other: QuantityLike) -> "Quantity":
        o = other if type(other) is Quantity else _coerce(other)
        return Quantity(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self) -> "Quantity":
        return Quantity(-self.num, self.den)

    def __abs__(self) -> "Quantity":
        return Quantity(abs(self.num), self.den)

    def __truediv__(self, other: QuantityLike) -> "Quantity":
        return total_div(self, _coerce(other))

    def __rtruediv__(self, other: QuantityLike) -> "Quantity":
        return total_div(_coerce(other), self)

    # -- order -----------------------------------------------------------

    def __lt__(self, other: QuantityLike) -> bool:
        o = other if type(other) is Quantity else _coerce(other)
        return self.num * o.den < o.num * self.den

    def __le__(self, other: QuantityLike) -> bool:
        o = other if type(other) is Quantity else _coerce(other)
        return self.num * o.den <= o.num * self.den

    def __gt__(self, other: QuantityLike) -> bool:
        return _coerce(other) < self

    def __ge__(self, other: QuantityLike) -> bool:
        return _coerce(other) <= self

    # An int equals the Quantity of it (a bool is no operand, as in _coerce),
    # so an integral value hashes as its numerator, as fractions.Fraction does.

    def __eq__(self, other: object) -> bool:
        if type(other) is Quantity:
            return self.num == other.num and self.den == other.den
        if isinstance(other, int) and not isinstance(other, bool):
            return self.den == 1 and self.num == other
        if not isinstance(other, Quantity):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self.den == 1:
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return self.num != 0

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"Quantity({self.num}, {self.den})"

    @property
    def is_integral(self) -> bool:
        return self.den == 1


ZERO = Quantity(0)
ONE = Quantity(1)


def _coerce(value: QuantityLike) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Quantity(value)
    raise TypeError(f"cannot treat {value!r} as a Quantity")


def add(a: QuantityLike, b: QuantityLike) -> Quantity:
    return _coerce(a) + b


def subtract(a: QuantityLike, b: QuantityLike) -> Quantity:
    return _coerce(a) - b


def multiply(a: QuantityLike, b: QuantityLike) -> Quantity:
    return _coerce(a) * b


def negate(a: QuantityLike) -> Quantity:
    return -_coerce(a)


def compare(a: QuantityLike, b: QuantityLike) -> int:
    """Three-way comparison: -1, 0 or 1, consistent with subtraction sign."""
    d = _coerce(a) - b
    if d.num < 0:
        return -1
    return 1 if d.num > 0 else 0


def total_div(a: QuantityLike, b: QuantityLike) -> Quantity:
    """Division made total: a/b for b != 0, and exactly 0 when b == 0."""
    a, b = _coerce(a), _coerce(b)
    if b.num == 0:
        return ZERO
    return Quantity(a.num * b.den, a.den * b.num)


def inverse(a: QuantityLike) -> Quantity:
    """Multiplicative inverse under total division; inverse(0) == 0."""
    return total_div(ONE, a)


def parse_quantity(text: str) -> Quantity:
    """Parse "n", "n/d" or a decimal literal into an exact Quantity.

    Decimal literals convert exactly: "0.05" becomes 1/20, never a float.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a quantity string, got {text!r}")
    s = text.strip()
    if _INT_RE.match(s):
        return Quantity(int(s))
    m = _RATIO_RE.match(s)
    if m:
        den = int(m.group(2))
        if den == 0:
            raise ValueError(f"quantity literal {text!r} has a zero denominator")
        return Quantity(int(m.group(1)), den)
    m = _DECIMAL_RE.match(s)
    if m:
        whole, frac = m.group(1), m.group(2)
        scale = 10 ** len(frac)
        sign = -1 if whole.startswith("-") else 1
        return Quantity(int(whole) * scale + sign * int(frac), scale)
    raise ValueError(f"cannot parse quantity literal {text!r}")
