"""Engine properties over random inputs: wait checks and scheduled traces."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.engine import (  # noqa: E402
    Branch,
    DeadlockDetected,
    Do,
    Plan,
    RoundRobin,
    SeededRandom,
    WaitFor,
    _EventIndex,
    enumerate_interleavings,
    run,
)
from rpsf.money import Quantity  # noqa: E402
from rpsf.world import (  # noqa: E402
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    BalanceAtLeast,
    ByDate,
    ChoiceIs,
    ContractRecord,
    Event,
    Reason,
    Stage,
    make_world,
    trigger_fired,
)

AGENTS = ("A", "B", "C")
KINDS = (ActionKind.PAY, ActionKind.INFORM, ActionKind.SPOT_SALE)
CONTRACTS = ("c1", "c2")


def maybe(values):
    return st.none() | st.sampled_from(values)


# 1/2 and 1 drawn with varying numerators and denominators, so equal
# amounts are built differently
amounts = st.builds(lambda value, scale: Quantity(value.num * scale, value.den * scale),
                    st.sampled_from((Quantity(1, 2), Quantity(1))), st.integers(1, 3))

actions = st.builds(
    Action,
    kind=st.sampled_from(KINDS),
    actor=st.sampled_from(AGENTS),
    counterparty=maybe(AGENTS),
    amount=st.none() | amounts,
    good_id=maybe(("g",)),
    contract_id=maybe(CONTRACTS),
    reason=st.none() | st.builds(Reason, contract_ids=st.lists(
        st.sampled_from(CONTRACTS), max_size=2, unique=True).map(tuple)),
    message=maybe(("m0", "m1")),
)

patterns = st.builds(
    ActionTemplate,
    kind=maybe(KINDS),
    actor=maybe(AGENTS),
    counterparty=maybe(AGENTS),
    amount=st.none() | amounts,
    good_id=maybe(("g",)),
    contract_id=maybe(CONTRACTS),
    message=maybe(("m0", "m1")),
)


def history_of(acts):
    return tuple(Event(seq=i + 1, date=0, action=a) for i, a in enumerate(acts))


def agrees(index, pattern, history):
    expected = trigger_fired(AfterEvent(pattern), history, 0)
    return index.fired(pattern, history) == expected


class TestEventIndex:
    """The engine's wait check answers as ``world.trigger_fired`` does."""

    @given(st.lists(actions, max_size=6), st.lists(patterns, min_size=1, max_size=6))
    def test_agrees_with_trigger_fired_as_history_grows(self, acts, queries):
        index = _EventIndex()
        history = history_of(acts)
        for n in range(len(history) + 1):
            for pattern in queries:
                assert agrees(index, pattern, history[:n])

    @pytest.mark.parametrize("pattern, action, fired", [
        # no field set: any event at all
        (ActionTemplate(), Action(ActionKind.INFORM, "A"), True),
        # a contract id cited only by the reason
        (ActionTemplate(contract_id="c2"),
         Action(ActionKind.PAY, "A", contract_id="c1", reason=Reason(contract_ids=("c2",))),
         True),
        (ActionTemplate(actor="B", contract_id="c2"),
         Action(ActionKind.PAY, "A", reason=Reason(contract_ids=("c2",))), False),
        # equal amounts in different terms
        (ActionTemplate(amount=Quantity(2, 4)),
         Action(ActionKind.PAY, "A", amount=Quantity(1, 2)), True),
        # a field the pattern sets but the action leaves None
        (ActionTemplate(counterparty="B"), Action(ActionKind.PAY, "A"), False),
        (ActionTemplate(contract_id="c1"), Action(ActionKind.PAY, "A"), False),
    ])
    def test_named_cases(self, pattern, action, fired):
        history = history_of([action])
        assert trigger_fired(AfterEvent(pattern), history, 0) is fired
        assert agrees(_EventIndex(), pattern, ())
        assert agrees(_EventIndex(), pattern, history)


# random small plan sets ------------------------------------------------------

STEP_KINDS = ("do", "do", "after", "date")


@st.composite
def plan_sets(draw):
    """2-3 agents, at most 8 steps, AfterEvent and ByDate waits, one Branch."""
    agents = AGENTS[:draw(st.integers(2, 3))]
    sizes = [draw(st.integers(1, 3)) for _ in agents]
    while sum(sizes) > 5:  # the branch below adds three, for eight in all
        sizes[sizes.index(max(sizes))] -= 1
    plans = []
    counter = 0
    for agent, size in zip(agents, sizes):
        steps = []
        for _ in range(size):
            kind = draw(st.sampled_from(STEP_KINDS))
            if kind == "do":
                counter += 1
                steps.append(Do(Action(
                    ActionKind.PAY, agent, counterparty=draw(st.sampled_from(AGENTS)),
                    amount=Quantity(draw(st.integers(1, 2))), message=f"m{counter}",
                    reason=Reason(contract_ids=("c1",)) if draw(st.booleans()) else None)))
            elif kind == "after":
                steps.append(WaitFor(AfterEvent(ActionTemplate(
                    actor=draw(maybe(AGENTS)), message=draw(maybe(("m1", "m2", "m3"))),
                    contract_id=draw(maybe(("c1",)))))))
            else:
                steps.append(WaitFor(ByDate(draw(st.integers(0, 3)))))
        plans.append(steps)
    # one branch, on a choice or on the ground state at the moment it is reached
    condition = draw(st.sampled_from((ChoiceIs("x"), BalanceAtLeast("A", Quantity(100)))))
    branch = Branch(condition,
                    (Do(Action(ActionKind.ACKNOWLEDGE_RECEIPT, agents[0], message="then")),
                     Do(Action(ActionKind.ACKNOWLEDGE_RECEIPT, agents[0], message="then 2"))),
                    (WaitFor(ByDate(2)),
                     Do(Action(ActionKind.ACKNOWLEDGE_RECEIPT, agents[0], message="else"))))
    where = draw(st.integers(0, len(plans[0])))
    plans[0].insert(where, branch)
    return [Plan(agent, tuple(steps)) for agent, steps in zip(agents, plans)]


class TestScheduledTracesAreEnumerated:
    @given(plan_sets(), st.booleans(), st.integers(0, 2**16))
    def test_round_robin_and_seeded_random_are_members(self, plans, choice, seed):
        contract = ContractRecord(contract_id="c1", parties=frozenset(AGENTS), initiator="A",
                                  clauses=(), signatures=frozenset(AGENTS),
                                  stage=Stage.ACTIVE)
        world = make_world(agents=[Agent(a) for a in AGENTS],
                           balances={a: Quantity(100) for a in AGENTS},
                           contracts=[contract])
        choices = {"x": choice}
        keys = {p.key() for p in enumerate_interleavings(world, plans, bound=8,
                                                          choices=choices)}
        for strategy in (RoundRobin(), SeededRandom(seed)):
            try:
                progression = run(world, plans, strategy, choices=choices)
            except DeadlockDetected:
                continue
            assert progression.key() in keys
