"""The shared history: every world's log reads as the tuple built by
concatenation, however worlds branch from one another and whichever thread
appends, and an event leaves the world it was applied to as it was."""

import json
import sys
import threading

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.money import Quantity, replace  # noqa: E402
from rpsf.world import (  # noqa: E402
    Action,
    ActionKind,
    Agent,
    Event,
    GoodSpec,
    History,
    WorldState,
    apply_event,
    make_world,
    render_json,
    value_from_dict,
    value_to_dict,
    world_object,
    world_to_json,
)

KINDS = ("pay", "promise", "good", "inform")


def _world() -> WorldState:
    return make_world([Agent("A"), Agent("B")], {"A": Quantity(50), "B": Quantity(50)},
                      overdraft_allowed=True)


def _action(kind: str, n: int) -> Action:
    """An action of each kind that touches one map, or none; ``n`` keeps ids apart."""
    if kind == "pay":  # a zero amount moves nothing
        return Action(kind=ActionKind.PAY, actor="A", counterparty="B", amount=Quantity(n % 4))
    if kind == "promise":  # named after its sequence number
        return Action(kind=ActionKind.PROMISE_PAY, actor="B", counterparty="A",
                      amount=Quantity(n % 5 + 1))
    if kind == "good":
        return Action(kind=ActionKind.PREPARE_GOOD, actor="A", good_id=f"g{n}",
                      good_spec=GoodSpec(kind="asset", market_value=Quantity(n % 9)))
    return Action(kind=ActionKind.INFORM, actor="B", counterparty="A", message=f"m{n}")


def _decoded(world: WorldState) -> WorldState:
    """``world`` with its history read back from its JSON text, as a tuple."""
    history = value_from_dict(tuple[Event, ...], json.loads(world_to_json(world))["history"])
    return WorldState(world.agents, world.accounts, world.goods, world.contracts, history,
                      world.clock, world.overdraft_allowed)


def _ground(world: WorldState) -> str:
    return render_json(world_object(world, include_history=False))


def _reads_as(history, ref: tuple, slices) -> None:
    assert len(history) == len(ref) and bool(history) == bool(ref)
    assert list(history) == list(ref) and repr(history) == repr(ref)
    assert history == ref and ref == history and not history != ref and not ref != history
    assert hash(history) == hash(ref)
    assert history != ref + (None,) and ref + (None,) != history
    for i in range(-len(ref), len(ref)):
        assert history[i] == ref[i]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            history[i]
    for start, stop, step in slices:
        part = history[start:stop:step]
        assert type(part) is tuple and part == ref[start:stop:step]
    tail = ref[-1:]
    for joined, expected in ((history + tail, ref + tail), (tail + history, tail + ref),
                             (history + history, ref + ref)):
        assert type(joined) is tuple and joined == expected


BOUNDS = st.none() | st.integers(-6, 6)
SLICES = st.lists(st.tuples(BOUNDS, BOUNDS, st.none() | st.sampled_from([-2, -1, 1, 3])),
                  max_size=4)


@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(KINDS),
                          st.integers(0, 2)), max_size=30), SLICES)
def test_every_log_reads_as_the_tuple_built_by_concatenation(ops, slices):
    # (world, the tuple its history must read as, its ground levels' text)
    root = _world()
    nodes = [(root, (), _ground(root))]
    for n, kind in enumerate(("pay", "inform")):
        world = apply_event(nodes[-1][0], _action(kind, n), n)
        nodes.append((world, nodes[-1][1] + (world.history[-1],), _ground(world)))
    seeded = nodes[-1]
    nodes.append((_decoded(seeded[0]), seeded[1], seeded[2]))
    assert type(nodes[-1][0].history) is tuple

    for n, (pick, kind, later) in enumerate(ops, start=len(nodes)):
        parent, ref, _ = nodes[pick % len(nodes)]
        action, date = _action(kind, n), parent.clock + later
        child = apply_event(parent, action, date)
        event = child.history[-1]
        assert (event.seq, event.date, event.action) == (len(ref) + 1, date, action)
        nodes.append((child, ref + (event,), _ground(child)))

    # no append reached a log, or a map, of the world it was made from
    for world, ref, ground in nodes:
        _reads_as(world.history, ref, slices)
        assert _ground(world) == ground
    for (first, ref, _), (second, other, _) in zip(nodes, nodes[1:]):
        assert (first.history == second.history) == (ref == other)


def test_a_log_reads_as_a_tuple_in_json():
    world = apply_event(_world(), _action("pay", 1), 0)
    assert type(world.history) is History
    assert render_json(world.history) == render_json(tuple(world.history))
    assert value_to_dict(world.history) == value_to_dict(tuple(world.history))


def test_threads_extending_one_world_each_get_their_own_history():
    # each round, eight threads append at once to a world that holds its
    # buffer's newest event, so each may append in place: at most one may
    # keep the buffer, and every thread must get its own history
    rounds, threads = 150, 8
    bases = [apply_event(_world(), _action("pay", n), 0) for n in range(rounds)]
    start, got = threading.Barrier(threads), {}

    def extend(thread: int) -> None:
        for n, base in enumerate(bases):
            action = _action("inform", thread * 1000 + n)
            start.wait(timeout=60)
            got[thread, n] = action, apply_event(base, action, 0).history

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside an append too
    try:
        running = [threading.Thread(target=extend, args=(t,)) for t in range(threads)]
        for thread in running:
            thread.start()
        for thread in running:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in running)
    assert len(got) == rounds * threads
    for (thread, n), (action, history) in got.items():
        assert [e.action for e in history] == [bases[n].history[0].action, action]
    assert all(len(base.history) == 1 for base in bases)


def test_an_append_that_another_thread_overtook_copies_its_log():
    # the buffer takes another thread's event between this log's check that
    # it holds the newest event and its own append, as an unlucky switch would
    first, rival, mine = (apply_event(_world(), _action("inform", n), 0).history[0]
                          for n in range(3))

    class Overtaken(list):
        def append(self, event):
            if len(self) == 1:
                super().append(rival)
            super().append(event)

    shared = Overtaken([first])
    world = replace(_world(), history=History(shared, 1))
    assert apply_event(world, mine.action, 0).history == (first, replace(mine, seq=2))
    assert shared[1] is rival  # the other thread's log still reads its own event
