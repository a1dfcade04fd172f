"""render_json against json.dumps(value, indent=2) over random values."""

import json
from enum import Enum, IntEnum

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rpsf.money import Quantity  # noqa: E402
from rpsf.world import render_json  # noqa: E402


class Level(IntEnum):
    LOW = 1
    HIGH = -7


class Mode(str, Enum):
    ON = "on"
    ODD = 'q"{[é\n'


# text that exercises escaping: quotes, backslashes, control characters,
# JSON punctuation, non-ASCII and astral code points
TRICKY = st.text(alphabet=st.sampled_from('{}[],:"\\/ \n\t\r\b\f\x00\x1f\x7fé€😀a1'))
FLOATS = st.one_of(st.floats(),
                   st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300]))
LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**60, max_value=10**60),
    FLOATS, st.text(), TRICKY,
    st.sampled_from(list(Level)), st.sampled_from(list(Mode)),
)
KEYS = st.one_of(st.text(), TRICKY, st.integers(), FLOATS, st.booleans(), st.none(),
                 st.sampled_from(list(Level)), st.sampled_from(list(Mode)))
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=150)
@given(VALUES)
def test_renders_what_json_renders(value):
    assert render_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [[]]],
    {3: "int", 2.5: "float", True: "bool", None: "null", Level.HIGH: "intenum", Mode.ON: "str"},
    {"z": 1, "a": 2, "m": 3},
])
def test_empty_containers_and_every_key_type(value):
    assert render_json(value) == json.dumps(value, indent=2)


def test_deep_nesting():
    value: object = "leaf"
    for depth in range(200):
        value = [value] if depth % 3 == 0 else ({"k": value} if depth % 3 == 1 else (value,))
    assert render_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {(1, 2): "tuple key"},
    [object()],
    {"set": {1}},
    {"amount": Quantity(1, 3)},
    Quantity(2),
])
def test_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        render_json(value)
    assert str(got.value) == str(expected.value)
