"""The shared record methods against the ones ``dataclasses`` generates.

Every record class of the package gets a twin made by ``dataclasses`` with
the same fields, and instances of both are compared: equality, hashing and
repr text must agree.
"""

import dataclasses
import itertools
from dataclasses import fields

import pytest

from rpsf import engine, legality, money, scenarios, synthesis, world
from rpsf.money import Quantity, record

RECORDS = sorted(
    (value for module in (money, world, engine, scenarios, legality, synthesis)
     for value in vars(module).values()
     if isinstance(value, type) and dataclasses.is_dataclass(value)
     and value.__module__ == module.__name__),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _twin(cls):
    """The class ``dataclass`` alone makes of ``cls``'s fields."""
    specs = [(f.name, f.type, dataclasses.field(repr=f.repr, compare=f.compare))
             for f in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs,
                                      frozen=cls.__dataclass_params__.frozen)


def _values(cls):
    return {f.name: i for i, f in enumerate(fields(cls))}


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 46
    assert {"Quantity", "Action", "AfterEvent", "ByDate", "Witness", "_SearchState"} <= names


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not Quantity],
                         ids=lambda cls: cls.__name__)
def test_shared_methods_match_the_generated_ones(cls):
    twin = _twin(cls)
    base = _values(cls)
    # the base values, and each field changed on its own
    variants = [base] + [{**base, name: value + 100} for name, value in base.items()]
    mine = [cls(**v) for v in variants]
    theirs = [twin(**v) for v in variants]
    for a, b in zip(mine, theirs):
        assert repr(a) == repr(b)
        if cls.__hash__ is None:
            assert twin.__hash__ is None
        else:
            assert hash(a) == hash(b) == hash(tuple(
                getattr(a, f.name) for f in fields(cls) if f.compare))
    for (a1, a2), (b1, b2) in zip(itertools.product(mine, repeat=2),
                                  itertools.product(theirs, repeat=2)):
        assert (a1 == a2) is (b1 == b2)
        assert (a1 != a2) is (b1 != b2)


def test_records_of_the_same_shape_differ_by_class():
    pattern = world.ActionTemplate()
    assert world.AfterEvent(pattern) != world.ByDate(pattern)
    assert world.AfterEvent(pattern) == world.AfterEvent(world.ActionTemplate())
    by_shape = itertools.groupby(sorted(RECORDS, key=lambda c: len(fields(c))),
                                 key=lambda c: len(fields(c)))
    for _, group in by_shape:
        same = [cls(**{f.name: 1 for f in fields(cls)}) for cls in group if cls is not Quantity]
        for a, b in itertools.combinations(same, 2):
            assert a != b and not a == b


def test_a_field_left_out_of_comparison():
    action = world.Action(world.ActionKind.PAY, "X")
    first = synthesis.Witness(actions=(action,), origin=("one", None))
    second = synthesis.Witness(actions=(action,), origin=("two", None))
    assert first == second and hash(first) == hash(second)
    assert repr(first) == f"Witness(actions={(action,)!r})"


def test_a_class_keeps_the_methods_its_body_defines():
    assert Quantity(2) == 2 and hash(Quantity(2)) == hash(2)
    assert repr(Quantity(1, 2)) == "Quantity(1, 2)"
    assert synthesis._SearchState.__hash__ is None


@pytest.mark.parametrize("body", [
    {},
    {"__eq__": lambda self, other: True},
    {"__hash__": lambda self: 7},
    {"__eq__": lambda self, other: True, "__hash__": lambda self: 7},
    {"__repr__": lambda self: "mine"},
])
@pytest.mark.parametrize("frozen", [True, False])
def test_what_record_adds_matches_what_dataclass_adds(body, frozen):
    def make(decorate):
        cls = type("R", (), {"__annotations__": {"x": int}, **body})
        return decorate(cls)

    mine = make(record(frozen=frozen))
    theirs = make(dataclasses.dataclass(frozen=frozen))
    assert (mine.__hash__ is None) is (theirs.__hash__ is None)
    for name in ("__eq__", "__hash__", "__repr__"):
        if name in body:
            assert vars(mine)[name] is body[name]
    assert repr(mine(1)) == repr(theirs(1))
    if mine.__hash__ is not None:
        assert hash(mine(1)) == hash(theirs(1))
    assert (mine(1) == mine(2)) is (theirs(1) == theirs(2))
