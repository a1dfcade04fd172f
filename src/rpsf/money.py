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
from math import gcd
from operator import attrgetter
from reprlib import recursive_repr
from typing import Callable, Union

QuantityLike = Union["Quantity", int]

_DECIMAL_RE = re.compile(r"^(-?\d+)\.(\d+)$")
_RATIO_RE = re.compile(r"^(-?\d+)\s*/\s*(-?\d+)$")
_INT_RE = re.compile(r"^-?\d+$")


# ---------------------------------------------------------------------------
# records: classes built from their annotated fields
# ---------------------------------------------------------------------------
# ``record`` does for the package what ``dataclasses.dataclass`` would, with
# less work at import: importing ``dataclasses`` loads ``inspect`` and
# ``ast``, and ``dataclass`` compiles three methods per frozen class from
# generated source. Here each class gets one compiled ``__init__``; every
# class shares one ``__repr__``, ``__eq__`` and ``__hash__``, which read its
# fields through one getter built when the class is made, and one pair of
# guards against assignment, since every record is frozen. Every record has a
# slot per field and no ``__dict__``. They behave as the generated ones do:
# equality only within one class over all fields, ``hash(tuple(fields))``,
# and the same repr text.

class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()  # a field without a default, or the default of a factory field


class Field:
    """One field of a record class: its name, and its default or default
    factory (MISSING when it has none)."""

    __slots__ = ("name", "default", "default_factory")

    def __init__(self, name: str, default: object = MISSING,
                 default_factory: object = MISSING) -> None:
        self.name, self.default, self.default_factory = name, default, default_factory

    @property
    def has_default(self) -> bool:
        return self.default is not MISSING or self.default_factory is not MISSING


def field(*, default_factory: Callable[[], object]) -> Field:
    """A field whose default each instance gets fresh from ``default_factory``."""
    return Field("", MISSING, default_factory)


def fields(record_or_class: object) -> tuple[Field, ...]:
    """The fields of a record class, or of a record's class, in order."""
    return record_or_class._record_fields


def replace(obj: object, /, **changes: object) -> object:
    """A new record of ``obj``'s class: its field values, with ``changes``."""
    cls = obj.__class__
    values = dict(zip(cls._record_names, cls._record_values(obj)))
    values.update(changes)
    return cls(**values)


class FrozenRecordError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


# copy and pickle restore a slotted object through setattr, which a record
# refuses; these two hand them the fields in order instead
def _slots_getstate(self) -> tuple:
    return type(self)._record_values(self)


def _slots_setstate(self, state: tuple) -> None:
    for name, value in zip(self._record_names, state):
        object.__setattr__(self, name, value)


def fields_getter(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """The named attributes of an object as a tuple, whatever their number."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return lambda obj: ()


@recursive_repr()
def _record_repr(self) -> str:
    cls = type(self)
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls._record_names)
    return f"{cls.__qualname__}({shown})"


def _record_eq(self, other: object) -> bool:
    if other.__class__ is self.__class__:
        values = self.__class__._record_values
        return values(self) == values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(self.__class__._record_values(self))


def _fields_of(body: dict[str, object]) -> tuple[Field, ...]:
    """The fields a class body annotates, in order, with their defaults."""
    declared: list[Field] = []
    for name in body.get("__annotations__", {}):
        spec = body.get(name, MISSING)
        f = (Field(name, MISSING, spec.default_factory) if isinstance(spec, Field)
             else Field(name, spec))
        if declared and declared[-1].has_default and not f.has_default:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        declared.append(f)
    return tuple(declared)


def _make_init(cls: type, declared: tuple[Field, ...]) -> Callable:
    """Compile a record class's ``__init__``: one statement per field.

    Each field is stored through its slot descriptor, at half the cost of
    ``object.__setattr__``. ``__post_init__`` is looked up on each call, so
    a wrapper put on the class later still runs.
    """
    env: dict[str, object] = {"MISSING": MISSING}
    lines = []
    for i, f in enumerate(declared):
        if f.default_factory is not MISSING:
            env[f"factory{i}"] = f.default_factory
            lines.append(f"if {f.name} is MISSING: {f.name} = factory{i}()")
    for i, f in enumerate(declared):
        env[f"set{i}"] = vars(cls)[f.name].__set__
        lines.append(f"set{i}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    params = ", ".join(["self", *(f.name for f in declared)])
    body = "".join(f"    {line}\n" for line in lines or ["pass"])
    exec(compile(f"def __init__({params}):\n{body}", f"<record {cls.__qualname__}>", "exec"),
         env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    # a factory field's default is MISSING, which the body replaces
    init.__defaults__ = tuple(f.default for f in declared if f.has_default) or None
    return init


def record(cls: type) -> type:
    """Build a frozen record class from the annotated fields of a class body.

    Defaults come from the body; ``field`` gives a default factory. The
    class is made once more, with a slot per field and no ``__dict__``. It
    gets ``__init__``, guards that refuse assignment and deletion, and,
    where its body defines none, the shared ``__repr__``, ``__eq__`` and
    ``__hash__``.
    """
    body = dict(vars(cls))
    declared = _fields_of(body)
    names = tuple(f.name for f in declared)
    # Python itself sets __hash__ to None in a body that defines __eq__
    explicit_hash = "__hash__" in body and not (body["__hash__"] is None and "__eq__" in body)
    namespace = {k: v for k, v in body.items()
                 if k not in names and k not in ("__dict__", "__weakref__")}
    namespace.setdefault("__repr__", _record_repr)
    namespace.setdefault("__eq__", _record_eq)
    if not explicit_hash:
        namespace["__hash__"] = _record_hash
    namespace.update(__qualname__=cls.__qualname__, __slots__=names,
                     __getstate__=_slots_getstate, __setstate__=_slots_setstate,
                     __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
                     _record_fields=declared, _record_names=names,
                     _record_values=fields_getter(names))
    built = type(cls)(cls.__name__, cls.__bases__, namespace)
    built.__init__ = _make_init(built, declared)
    return built


@record
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
        g = gcd(num, den)
        if g == 1 and den > 0:  # already canonical, as 12343/100 is
            return
        if den < 0:
            num, den = -num, -den
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
        return NotImplemented

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


ZERO = Quantity(0)
ONE = Quantity(1)


def _coerce(value: QuantityLike) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Quantity(value)
    raise TypeError(f"cannot treat {value!r} as a Quantity")


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
