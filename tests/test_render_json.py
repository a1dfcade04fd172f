"""render_json against json.dumps(value, indent=2) over random values, and
the action texts it keeps from one render to the next."""

import json
import sys
import threading
from enum import Enum, IntEnum

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rpsf import world as world_module  # noqa: E402
from rpsf.engine import Do, Plan, RoundRobin, WaitFor, enumerate_interleavings, run  # noqa: E402
from rpsf.money import Quantity  # noqa: E402
from rpsf.world import (Action, ActionKind, ActionTemplate, AfterEvent, Agent,  # noqa: E402
                        Clause, make_world, render_json, value_to_dict, world_object, world_to_json)


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


# -- the action texts kept from one render to the next ------------------------

def _pay(actor: str, counterparty: str, amount: int, message: str) -> Action:
    return Action(kind=ActionKind.PAY, actor=actor, counterparty=counterparty,
                  amount=Quantity(amount), message=message)


def _account(name: str, rounds: int):
    """The world after a RoundRobin run of ``rounds`` payments each way
    between A and B, every action made for this world alone."""
    plans = (Plan("A", tuple(Do(_pay("A", "B", k + 1, f"{name}a{k}")) for k in range(rounds))),
             Plan("B", tuple(Do(_pay("B", "A", k + 2, f"{name}b{k}")) for k in range(rounds))))
    world = make_world(agents=[Agent("A"), Agent("B")],
                       balances={"A": Quantity(10**6), "B": Quantity(10**6)})
    return run(world, plans, RoundRobin()).world


def _expected(value) -> str:
    return json.dumps(value_to_dict(value), indent=2)


def test_an_action_at_two_depths_renders_as_json_each_time():
    action = _pay("A", "B", 7, "twice")
    value = {"top": action, "nested": [{"deeper": (action, [action])}], "again": action}
    for _ in range(4):
        assert render_json(value) == _expected(value)
        assert render_json([action]) == _expected([action])


def test_only_the_last_two_renders_keep_their_actions():
    worlds = {name: _account(name, 5) for name in "ABC"}
    for name in "ABC":
        assert world_to_json(worlds[name]) == _expected(world_object(worlds[name]))
    kept = {id(entry[0]) for texts in world_module._kept for entry in texts.values()}
    ids = {name: {id(e.action) for e in worlds[name].history} for name in "ABC"}
    assert not kept & ids["A"]
    assert kept == ids["B"] | ids["C"]


def test_threads_rendering_different_worlds_get_the_bytes_of_one_thread():
    worlds = [_account(f"t{i}", 30) for i in range(4)]
    alone = [world_to_json(world) for world in worlds]
    got: dict[int, list[str]] = {}

    def render(i: int) -> None:
        got[i] = [world_to_json(worlds[i]) for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=render, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: [alone[i]] * 10 for i in range(4)}


@pytest.fixture
def action_writes(monkeypatch):
    """A list that grows by one each time the compiled Action writer runs:
    the writers are compiled afresh, with the Action writer wrapped before
    ``_keeping`` wraps it."""
    calls: list = []
    keeping = world_module._keeping

    def counted(write):
        def count(action, newline):
            calls.append(action)
            return write(action, newline)
        return keeping(count)

    monkeypatch.setattr(world_module, "_WRITERS", {})
    monkeypatch.setattr(world_module, "_keeping", counted)
    return calls


def test_a_world_rendered_again_writes_no_action(action_writes):
    world = _account("again", 20)
    first = world_to_json(world)
    assert len(action_writes) == 40
    assert world_to_json(world) == first
    assert len(action_writes) == 40


def test_a_writer_compiled_during_a_render_keeps_that_renders_texts(action_writes):
    # the clause's ActionTemplate writer compiles while the list is written,
    # after the payment's text is kept; building its enum table is no render
    clause = Clause(obliged_party="B", obliged_action=ActionTemplate(kind=ActionKind.PAY))
    actions = [_pay("A", "B", 3, "first"),
               Action(kind=ActionKind.PREPARE_CONTRACT, actor="A", contract_id="c",
                      parties=("A", "B"), clauses=(clause,))]
    assert render_json(actions) == _expected(actions)
    assert render_json(actions) == _expected(actions)
    assert len(action_writes) == 2


def test_every_interleaving_of_nine_actions_writes_each_once(action_writes):
    agents = ("A", "B", "C")
    steps = {a: [Do(_pay(a, agents[(i + 1) % 3], 10 * i + k + 1, f"{a}{k}")) for k in range(3)]
             for i, a in enumerate(agents)}
    steps["B"].insert(1, WaitFor(AfterEvent(ActionTemplate(kind=ActionKind.PAY, actor="A",
                                                           message="A1"))))
    world = make_world(agents=[Agent(a) for a in agents],
                       balances={a: Quantity(1000) for a in agents})
    traces = enumerate_interleavings(world, [Plan(a, tuple(s)) for a, s in steps.items()],
                                     bound=20)
    payload = {"progressions": [{"events": p.events} for p in traces]}
    assert len(traces) == 840
    assert render_json(payload) == _expected(payload)
    assert len(action_writes) == 9
