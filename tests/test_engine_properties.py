"""Engine properties over random inputs: wait checks, scheduled and
enumerated traces, replay, conservation, flow equivalence, and the one cash
rule that the ledger, the flows and the legality facts all read."""

import json
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf import legality  # noqa: E402
from rpsf.engine import (  # noqa: E402
    Branch,
    DeadlockDetected,
    Do,
    Exhaustive,
    Plan,
    Progression,
    RoundRobin,
    SeededRandom,
    Stop,
    WaitFor,
    _validate_plans,
    enumerate_interleavings,
    run,
)
from rpsf.money import ZERO, Quantity, replace  # noqa: E402
from rpsf.scenarios import instantiate, scenario_names  # noqa: E402
from rpsf.synthesis import (  # noqa: E402
    ALL_AGENTS,
    Flow,
    canonical,
    equivalent,
    monetary_projection,
    net_positions,
)
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
    Good,
    Reason,
    Stage,
    apply_event,
    make_world,
    replay,
    trigger_fired,
    value_to_dict,
    world_object,
    world_to_json,
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


WAITERS = make_world(agents=[Agent(name) for name in AGENTS])


def wait_table(patterns):
    """The wait table of three plans that wait on ``patterns``, as the one
    walk of the plans (``_validate_plans``) builds it. A waits on every
    third pattern; B on the next ones in a branch's then arm, and on the
    rest in a branch nested in its else arm; C waits on the first pattern
    too, so one pattern object is in two plans."""
    waits = [WaitFor(AfterEvent(p)) for p in patterns]
    nested = Branch(ChoiceIs("y"), (Stop(),), (Branch(ChoiceIs("z"), tuple(waits[2::3])),))
    plans = [Plan("A", tuple(waits[::3])),
             Plan("B", (Branch(ChoiceIs("x"), tuple(waits[1::3]), (nested,)),)),
             Plan("C", (WaitFor(AfterEvent(patterns[0])),))]
    return _validate_plans(WAITERS, plans)[2]


def agrees(table, fired, pattern, history):
    expected = trigger_fired(AfterEvent(pattern), history, 0)
    return bool(fired & table.bit[id(pattern)]) == expected


class TestWaitTable:
    """The engine's fired waits, one int per line of history, answer as
    ``world.trigger_fired`` does."""

    @given(st.lists(actions, max_size=6), st.lists(patterns, min_size=1, max_size=6))
    def test_agrees_with_trigger_fired_as_history_grows(self, acts, queries):
        table = wait_table(queries)
        history = history_of(acts)
        fired = 0
        for n in range(len(history) + 1):
            for pattern in queries:
                assert agrees(table, fired, pattern, history[:n])
            fired = table.fold(fired, history[n:n + 1])

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
        table = wait_table([pattern])
        assert agrees(table, 0, pattern, ())
        assert agrees(table, table.fold(0, history), pattern, history)

    def test_one_bit_per_pattern_object(self):
        shared = ActionTemplate(actor="A")
        equal = [ActionTemplate(actor="B"), ActionTemplate(actor="B")]
        table = wait_table([shared, shared, *equal])
        assert len(table.bit) == 3
        assert table.bit[id(equal[0])] != table.bit[id(equal[1])]
        fired = table.fold(0, history_of([Action(ActionKind.PAY, "B")]))
        assert fired == table.bit[id(equal[0])] | table.bit[id(equal[1])]


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


def plan_world():
    contract = ContractRecord(contract_id="c1", parties=frozenset(AGENTS), initiator="A",
                              clauses=(), signatures=frozenset(AGENTS), stage=Stage.ACTIVE)
    return make_world(agents=[Agent(a) for a in AGENTS],
                      balances={a: Quantity(100) for a in AGENTS}, contracts=[contract])


def scheduled(world, plans, choices, seed):
    """The RoundRobin and SeededRandom traces that do not deadlock."""
    out = []
    for strategy in (RoundRobin(), SeededRandom(seed)):
        try:
            out.append(run(world, plans, strategy, choices=choices))
        except DeadlockDetected:
            pass
    return out


class TestScheduledTracesAreEnumerated:
    @given(plan_sets(), st.booleans(), st.integers(0, 2**16))
    def test_round_robin_and_seeded_random_are_members(self, plans, choice, seed):
        world, choices = plan_world(), {"x": choice}
        keys = {p.key() for p in enumerate_interleavings(world, plans, bound=8,
                                                          choices=choices)}
        for progression in scheduled(world, plans, choices, seed):
            assert progression.key() in keys

    @given(plan_sets(), st.booleans())
    def test_exhaustive_run_is_the_least_enumerated_trace(self, plans, choice):
        world, choices = plan_world(), {"x": choice}
        least = enumerate_interleavings(world, plans, bound=8, choices=choices)[0]
        assert run(world, plans, Exhaustive(), choices=choices).key() == least.key()


def all_traces(plans, choice, seed):
    world, choices = plan_world(), {"x": choice}
    return world, (scheduled(world, plans, choices, seed)
                   + list(enumerate_interleavings(world, plans, bound=8, choices=choices)))


class TestTraces:
    """Every scheduled and enumerated trace replays, conserves money, and
    projects to flows on which ``equivalent`` is an equivalence relation."""

    @given(plan_sets(), st.booleans(), st.integers(0, 2**16))
    def test_replay_is_byte_exact_and_each_event_conserves_money(self, plans, choice, seed):
        initial, traces = all_traces(plans, choice, seed)
        money = initial.total_money()
        for progression in traces:
            events = progression.events
            for n in range(1, len(events) + 1):
                assert replay(initial, events[:n]).total_money() == money
            # replay restores the ground and contract levels; a clock advance
            # that no event follows leaves no trace in the history
            clock = events[-1].date if events else initial.clock
            assert world_to_json(replay(initial, events)) \
                == world_to_json(replace(progression.world, clock=clock))
            # the rows' writers write what json writes of value_to_dict's output
            assert world_to_json(progression.world) \
                == json.dumps(value_to_dict(world_object(progression.world)), indent=2)

    @given(plan_sets(), st.booleans(), st.integers(0, 2**16), st.sampled_from(AGENTS))
    def test_equivalent_is_an_equivalence_relation(self, plans, choice, seed, agent):
        _, traces = all_traces(plans, choice, seed)
        projections = [monetary_projection(p) for p in traces]
        # distinct projections of one plan set are seldom equivalent, so each
        # brings variants that are: the same nets in halved flows or with a
        # same-day round trip, and nets that differ only away from ``agent``
        x, y = (a for a in AGENTS if a != agent)
        flows = list(dict.fromkeys(variant for p in projections for variant in (
            p,
            canonical(Flow(f.payer, f.payee, f.amount / 2, f.date) for f in p for _ in "ab"),
            canonical((*p, Flow(x, y, Quantity(1), 0), Flow(y, x, Quantity(1), 0))),
            canonical((*p, Flow(x, y, Quantity(1), 0))))))
        for perspective in (ALL_AGENTS, (agent,)):
            classes = {a: frozenset(b for b in flows if equivalent(a, b, perspective))
                       for a in flows}
            for a, b in product(flows, repeat=2):
                assert a in classes[a]
                assert (b in classes[a]) == (a in classes[b])
                if b in classes[a]:  # transitive: whatever b reaches, a reaches
                    assert classes[b] <= classes[a]


def assert_nets_are_the_ledger(opening, progression):
    """Each agent's closing balance minus its opening one is the sum of its
    ``net_positions`` cells and the sum of its legality facts' nets."""
    world = progression.world
    nets = net_positions(monetary_projection(progression))
    facts = legality._Facts(world.history, progression.events, world)
    for agent in world.agents:
        moved = world.balance(agent) - opening.balance(agent)
        assert sum(nets.get(agent, {}).values(), ZERO) == moved, agent
        assert Quantity(sum(facts.sums.get(agent, {}).values()), facts.scale) == moved, agent


class TestOneCashRule:
    """``world.CASH_LEGS`` moves the balances in ``apply_event``, and the
    flows and the legality facts net the same cash from it."""

    @given(plan_sets(), st.booleans(), st.integers(0, 2**16))
    def test_random_traces(self, plans, choice, seed):
        initial, traces = all_traces(plans, choice, seed)
        for progression in traces:
            assert_nets_are_the_ledger(initial, progression)

    @pytest.mark.parametrize("name", scenario_names())
    def test_builtins(self, name):
        instance = instantiate(name, {})
        progression = run(instance.world, instance.plans, RoundRobin(),
                          horizon=instance.horizon, choices=instance.choice_points)
        assert not instance.world.history
        assert_nets_are_the_ledger(instance.world, progression)

    def test_every_cash_leg_by_hand(self):
        """A receipt, a payment, a spot sale and a credit sale with a down
        payment, at prices over three denominators."""
        opening = make_world(agents=[Agent("X"), Agent("Y")],
                             balances={"X": Quantity(10), "Y": Quantity(10)},
                             goods=[Good("g", "asset", "Y", None)])
        world = opening
        for action, day in (
                (Action(ActionKind.RECEIVE_PAYMENT, "X", counterparty="Y",
                        amount=Quantity(3, 2)), 0),
                (Action(ActionKind.PAY, "X", counterparty="Y", amount=Quantity(1, 3)), 1),
                (Action(ActionKind.SPOT_SALE, "Y", counterparty="X", amount=Quantity(2),
                        good_id="g"), 1),
                (Action(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=Quantity(4),
                        down_payment=Quantity(1, 4), due_date=5, good_id="g",
                        contract_id="settle"), 2)):
            world = apply_event(world, action, day)
        assert world.balance("X") == Quantity(10) + Quantity(3, 2) - Quantity(1, 3) \
            - Quantity(2) + Quantity(1, 4)
        assert_nets_are_the_ledger(opening, Progression(events=world.history, world=world))
