"""Record classes against the classes ``dataclasses`` makes of the same bodies.

Every record class of the package has a twin: its own class body, read from
its module's source and run again with a frozen, slotted
``dataclasses.dataclass`` in place of ``money.record`` and
``dataclasses.field`` in place of ``money.field``.
Instances of both are compared: the ``__init__`` parameters and defaults,
the fields, equality, hashing, repr text, ``replace`` and the frozen guards
must agree, both have slots and no ``__dict__``, and copies and pickles
keep every field.
"""

import __future__

import copy
import dataclasses
import functools
import inspect
import itertools
import pickle
import sys

import pytest

from rpsf import engine, legality, money, scenarios, synthesis, world
from rpsf.money import MISSING, Quantity, field, fields, record, replace

RECORDS = sorted(
    (value for module in (money, world, engine, scenarios, legality, synthesis)
     for value in vars(module).values()
     if isinstance(value, type) and "_record_fields" in vars(value)
     and value.__module__ == module.__name__),
    key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
WITH_FACTORIES = [cls for cls in RECORDS if any(f.default_factory is not MISSING
                                                for f in fields(cls))]
FROZEN_DATACLASS = functools.partial(dataclasses.dataclass, frozen=True, slots=True)


@functools.cache
def _twin(cls):
    """The class ``dataclass`` makes of ``cls``'s body, in its module."""
    namespace = dict(vars(sys.modules[cls.__module__]),
                     record=FROZEN_DATACLASS, field=dataclasses.field)
    code = compile(inspect.getsource(cls), f"<twin of {cls.__qualname__}>", "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    exec(code, namespace)
    return namespace[cls.__name__]


def _values(cls):
    return {f.name: i for i, f in enumerate(fields(cls))}


def test_every_record_class_is_found():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) == 41
    assert {"Quantity", "Action", "AfterEvent", "ByDate", "Witness"} <= names
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_and_fields_match_the_generated_ones(cls):
    twin = _twin(cls)
    assert [f.name for f in fields(cls)] == [f.name for f in dataclasses.fields(twin)]
    assert [f.name for f in fields(cls)] == list(cls.__annotations__)
    mine = inspect.signature(cls.__init__).parameters.values()
    theirs = inspect.signature(twin.__init__).parameters.values()
    assert [(p.name, p.kind) for p in mine] == [(p.name, p.kind) for p in theirs]
    for p, q, f in zip(list(mine)[1:], list(theirs)[1:], fields(cls)):
        if f.default_factory is not MISSING:
            assert p.default is MISSING and repr(q.default) == "<factory>"
        elif q.default is inspect.Parameter.empty:
            assert p.default is inspect.Parameter.empty
        else:
            assert type(p.default) is type(q.default) and p.default == q.default
    assert vars(cls)["__slots__"] == vars(twin)["__slots__"]
    assert not hasattr(cls(**_values(cls)), "__dict__")


@pytest.mark.parametrize("cls", WITH_FACTORIES, ids=lambda cls: cls.__name__)
def test_each_instance_gets_a_fresh_default(cls):
    required = {f.name: i for i, f in enumerate(fields(cls)) if not f.has_default}
    first, second, twin = cls(**required), cls(**required), _twin(cls)(**required)
    for f in fields(cls):
        if f.default_factory is not MISSING:
            assert getattr(first, f.name) is not getattr(second, f.name)
            assert getattr(first, f.name) == getattr(twin, f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_matches_dataclasses_replace(cls):
    twin = _twin(cls)
    base = _values(cls)
    mine, theirs = cls(**base), twin(**base)
    # each field changed on its own, then all of them at once
    changes = [{name: value + 100} for name, value in base.items()]
    for change in changes + [{k: v for c in changes for k, v in c.items()}]:
        a, b = replace(mine, **change), dataclasses.replace(theirs, **change)
        assert type(a) is cls
        assert [getattr(a, n) for n in base] == [getattr(b, n) for n in base]
    assert replace(mine) == mine and replace(mine) is not mine
    with pytest.raises(TypeError):
        replace(mine, no_such_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_refuses_assignment_and_deletion(cls):
    base = _values(cls)
    for obj in (cls(**base), _twin(cls)(**base)):
        for name in base:
            with pytest.raises(AttributeError):
                setattr(obj, name, 7)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert [getattr(obj, name) for name in base] == [getattr(cls(**base), name)
                                                          for name in base]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_keep_every_field(cls):
    base = _values(cls)
    obj = cls(**base)
    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied is not obj
        assert [getattr(copied, name) for name in base] == [getattr(obj, name) for name in base]


def test_post_init_is_looked_up_on_each_call(monkeypatch):
    # a counter that wraps Quantity.__post_init__ after import sees every call
    calls = []
    original = Quantity.__post_init__
    monkeypatch.setattr(Quantity, "__post_init__", lambda self: calls.append(1) or original(self))
    assert Quantity(2, 4) == Quantity(1, 2) and len(calls) == 2


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
            assert hash(a) == hash(b) == hash(tuple(getattr(a, f.name) for f in fields(cls)))
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


def test_a_class_keeps_the_methods_its_body_defines():
    assert Quantity(2) == 2 and hash(Quantity(2)) == hash(2)
    assert repr(Quantity(1, 2)) == "Quantity(1, 2)"


@pytest.mark.parametrize("body", [
    {},
    {"__eq__": lambda self, other: True},
    {"__hash__": lambda self: 7},
    {"__eq__": lambda self, other: True, "__hash__": lambda self: 7},
    {"__repr__": lambda self: "mine"},
])
def test_what_record_adds_matches_what_dataclass_adds(body):
    def make(decorate):
        cls = type("R", (), {"__annotations__": {"x": int}, **body})
        return decorate(cls)

    mine = make(record)
    theirs = make(FROZEN_DATACLASS)
    assert (mine.__hash__ is None) is (theirs.__hash__ is None)
    for name in ("__eq__", "__hash__", "__repr__"):
        if name in body:
            assert vars(mine)[name] is body[name]
    assert repr(mine(1)) == repr(theirs(1))
    if mine.__hash__ is not None:
        assert hash(mine(1)) == hash(theirs(1))
    assert (mine(1) == mine(2)) is (theirs(1) == theirs(2))


@pytest.mark.parametrize("call", [
    lambda: record(frozen=False),
    lambda: record(slots=True),
    lambda: record(),
    lambda: field(repr=False, default_factory=dict),
    lambda: field(compare=False, default_factory=dict),
    lambda: field(),
], ids=["record-frozen", "record-slots", "record-called", "field-repr", "field-compare",
        "field-bare"])
def test_record_and_field_take_no_options(call):
    with pytest.raises(TypeError):
        call()


def test_a_default_may_not_precede_a_required_field():
    body = {"__annotations__": {"x": int, "y": int}, "x": 0}
    with pytest.raises(TypeError, match="non-default argument 'y' follows default argument"):
        record(type("R", (), body))


def test_missing_reads_as_its_name():
    assert repr(MISSING) == "MISSING"
