"""Engine: scheduling, fairness, determinism, exhaustive interleavings."""

import math

import pytest

from rpsf.engine import (
    Branch,
    BoundExceeded,
    DeadlockDetected,
    Do,
    EngineError,
    Exhaustive,
    HorizonExceeded,
    Plan,
    RoundRobin,
    SeededRandom,
    Stop,
    WaitFor,
    enumerate_interleavings,
    run,
)
from rpsf.money import Quantity
from rpsf.world import (
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    BalanceAtLeast,
    ByDate,
    ChoiceIs,
    apply_event,
    make_world,
    world_to_json,
)


def q(n, d=1):
    return Quantity(n, d)


def chat(agent: str, count: int) -> Plan:
    """A plan of `count` independent log-only steps, all distinct."""
    return Plan(agent, tuple(
        Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor=agent,
                  message=f"{agent}-{k}"))
        for k in range(count)
    ))


def wait_for(**pattern):
    if "kind" in pattern:
        pattern["kind"] = ActionKind(pattern["kind"])
    return WaitFor(AfterEvent(ActionTemplate(**pattern)))


@pytest.fixture
def trio():
    return make_world(agents=[Agent("A"), Agent("B"), Agent("C")],
                      balances={"A": q(100), "B": q(100), "C": q(100)})


class TestRun:
    def test_empty_plan_set(self, trio):
        progression = run(trio, [], RoundRobin())
        assert progression.events == ()
        assert progression.world is trio

    def test_deadlock_reports_blocking_triggers(self, trio):
        plans = [
            Plan("A", (wait_for(kind="acknowledge-receipt", actor="B"),
                       Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A")))),
            Plan("B", (wait_for(kind="acknowledge-receipt", actor="A"),
                       Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="B")))),
        ]
        with pytest.raises(DeadlockDetected) as exc:
            run(trio, plans, RoundRobin())
        assert set(exc.value.blocked) == {"A", "B"}
        assert "waiting on" in str(exc.value)

    @pytest.mark.parametrize("plans,horizon,message", [
        ([chat("A", 1), chat("A", 2)], 20, "two plans for agent 'A'"),
        ([chat("D", 1)], 20, "plan for unknown agent 'D'"),
        ([chat("A", 1)], 5, "horizon 5 precedes world clock 10"),
        ([Plan("A", chat("B", 1).steps)], 20,
         "plan for 'A': steps[0] is an action by 'B'; a plan acts for its own agent only"),
        ([Plan("A", chat("A", 1).steps + (
            Branch(BalanceAtLeast("A", q(1)), chat("A", 1).steps, chat("C", 2).steps),))], 20,
         "plan for 'A': steps[1].else_steps[0] is an action by 'C'; "
         "a plan acts for its own agent only"),
        ([Plan("A", (Branch(BalanceAtLeast("A", q(1)), chat("A", 1).steps + (
            Branch(BalanceAtLeast("A", q(2)), chat("C", 2).steps, ()),), ()),))], 20,
         "plan for 'A': steps[0].then_steps[1].then_steps[0] is an action by 'C'; "
         "a plan acts for its own agent only"),
    ], ids=["two-plans", "unknown-agent", "horizon-before-clock", "acts-for-another",
            "acts-for-another-in-a-branch", "acts-for-another-in-a-nested-branch"])
    def test_rejections(self, trio, plans, horizon, message):
        world = apply_event(trio, Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="C"), 10)
        with pytest.raises(EngineError) as exc:
            run(world, plans, RoundRobin(), horizon=horizon)
        assert str(exc.value) == message

    def test_horizon_exceeded(self, trio):
        plans = [Plan("A", (WaitFor(ByDate(100)),
                            Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A"))))]
        with pytest.raises(HorizonExceeded):
            run(trio, plans, RoundRobin(), horizon=50)

    @pytest.mark.parametrize("strategy", [RoundRobin(), SeededRandom(3), Exhaustive()],
                             ids=["round-robin", "random", "exhaustive"])
    def test_every_strategy_names_the_first_wait_past_the_horizon(self, trio, strategy):
        plans = [Plan("A", (WaitFor(ByDate(60)), WaitFor(ByDate(80)),
                            Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A")))),
                 chat("B", 2)]
        with pytest.raises(HorizonExceeded, match="at day 60 exceeds horizon 50$"):
            run(trio, plans, strategy, horizon=50)
        assert run(trio, plans, strategy, horizon=80).world.clock == 80

    def test_clock_advances_to_wait_date(self, trio):
        plans = [Plan("A", (WaitFor(ByDate(30)),
                            Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A"))))]
        progression = run(trio, plans, RoundRobin(), horizon=365)
        assert progression.events[0].date == 30
        assert progression.world.clock == 30

    def test_clock_advances_to_the_earliest_wait_date_first(self, trio):
        plans = [Plan(agent, (WaitFor(ByDate(day)),
                              Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor=agent))))
                 for agent, day in (("A", 5), ("B", 2))]
        traces = [run(trio, plans, strategy) for strategy in (RoundRobin(), SeededRandom(1))]
        traces += enumerate_interleavings(trio, plans, bound=4)
        assert len(traces) == 3
        for progression in traces:
            assert [(e.date, e.action.actor) for e in progression.events] == [(2, "B"), (5, "A")]

    def test_per_plan_order_preserved(self, trio):
        plans = [chat("A", 4), chat("B", 3), chat("C", 2)]
        progression = run(trio, plans, RoundRobin())
        for agent in ("A", "B", "C"):
            messages = [e.action.message for e in progression.events
                        if e.action.actor == agent]
            assert messages == sorted(messages, key=lambda m: int(m.split("-")[1]))

    def test_determinism_round_robin(self, trio):
        plans = [chat("A", 3), chat("B", 3)]
        first = run(trio, plans, RoundRobin())
        second = run(trio, plans, RoundRobin())
        assert first.key() == second.key()
        assert world_to_json(first.world) == world_to_json(second.world)

    def test_determinism_seeded_random(self, trio):
        plans = [chat("A", 3), chat("B", 3), chat("C", 3)]
        first = run(trio, plans, SeededRandom(7))
        second = run(trio, plans, SeededRandom(7))
        assert first.key() == second.key()

    def test_seeds_differ(self, trio):
        plans = [chat("A", 4), chat("B", 4), chat("C", 4)]
        keys = {run(trio, plans, SeededRandom(seed)).key() for seed in range(8)}
        assert len(keys) > 1

    def test_exhaustive_strategy_returns_canonical_least(self, trio):
        plans = [chat("A", 2), chat("B", 2)]
        progression = run(trio, plans, Exhaustive())
        all_traces = enumerate_interleavings(trio, plans, bound=10)
        assert progression.key() == all_traces[0].key()

    def test_round_robin_fairness(self, trio):
        """Each runnable plan steps exactly once per scheduler cycle."""
        plans = [chat("A", 5), chat("B", 5), chat("C", 5)]
        progression = run(trio, plans, RoundRobin())
        per_cycle: dict[int, list[str]] = {}
        for event, cycle in zip(progression.events, progression.schedule):
            per_cycle.setdefault(cycle, []).append(event.action.actor)
        for cycle, actors in per_cycle.items():
            assert len(actors) == len(set(actors))
        # no runnable plan is starved: all three act in every full cycle
        full_cycles = [actors for actors in per_cycle.values() if len(actors) == 3]
        assert len(full_cycles) == 5

    def test_branch_takes_ground_state_at_the_step(self, trio):
        plans = [
            Plan("A", (Do(Action(kind=ActionKind.PAY, actor="A", counterparty="B",
                                 amount=q(60))),)),
            Plan("B", (wait_for(kind="pay", actor="A"),
                       Branch(BalanceAtLeast("B", q(150)),
                              (Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="B",
                                         message="rich")),),
                              (Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="B",
                                         message="poor")),)))),
        ]
        progression = run(trio, plans, RoundRobin())
        assert progression.events[-1].action.message == "rich"

    def test_branch_resolves_when_it_reaches_the_head(self, trio):
        # A's branch reaches the head right after A pays (A holds 99), before
        # C's payment restores A to 100; another plan's turn must not delay it
        def ack(message):
            return Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A", message=message))

        plans = [
            Plan("A", (Do(Action(kind=ActionKind.PAY, actor="A", counterparty="B",
                                 amount=q(1), message="a")),
                       Branch(BalanceAtLeast("A", q(100)), (ack("rich"),),
                              (ack("poor"),)))),
            Plan("C", (Do(Action(kind=ActionKind.PAY, actor="C", counterparty="A",
                                 amount=q(1), message="c")),)),
        ]
        progression = run(trio, plans, RoundRobin())
        assert [e.action.message for e in progression.events] == ["a", "c", "poor"]
        keys = {p.key() for p in enumerate_interleavings(trio, plans, bound=8)}
        assert progression.key() in keys

    def test_stop_truncates(self, trio):
        plans = [Plan("A", (Stop(), Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT,
                                              actor="A"))))]
        progression = run(trio, plans, RoundRobin())
        assert progression.events == ()


def count_merges(lengths) -> int:
    """Brute-force oracle: count interleavings by recursive merging."""
    lengths = tuple(lengths)
    if all(n == 0 for n in lengths):
        return 1
    total = 0
    for i, n in enumerate(lengths):
        if n > 0:
            total += count_merges(lengths[:i] + (n - 1,) + lengths[i + 1:])
    return total


class TestEnumerate:
    @pytest.mark.parametrize("lengths", [(2, 2), (3, 2), (1, 1, 1), (2, 2, 2),
                                         (3, 3, 2), (4, 4)])
    def test_multinomial_counts(self, lengths):
        world = make_world(agents=[Agent(f"P{i}") for i in range(len(lengths))])
        plans = [chat(f"P{i}", n) for i, n in enumerate(lengths)]
        traces = enumerate_interleavings(world, plans, bound=sum(lengths))
        total = sum(lengths)
        formula = math.factorial(total)
        for n in lengths:
            formula //= math.factorial(n)
        assert len(traces) == formula
        assert count_merges(lengths) == formula

    def test_single_plan_single_trace(self):
        world = make_world(agents=[Agent("A")])
        traces = enumerate_interleavings(world, [chat("A", 4)], bound=10)
        assert len(traces) == 1

    def test_bound_rejected(self):
        world = make_world(agents=[Agent("A"), Agent("B")])
        with pytest.raises(BoundExceeded):
            enumerate_interleavings(world, [chat("A", 5), chat("B", 5)], bound=9)

    def test_canonical_order_and_dedup(self):
        world = make_world(agents=[Agent("A"), Agent("B")])
        plans = [chat("A", 2), chat("B", 2)]
        first = enumerate_interleavings(world, plans, bound=8)
        second = enumerate_interleavings(world, plans, bound=8)
        assert [p.key() for p in first] == [p.key() for p in second]
        assert len({p.key() for p in first}) == len(first)

    def test_round_robin_trace_is_among_enumerated(self):
        world = make_world(agents=[Agent("A"), Agent("B")])
        plans = [chat("A", 2), chat("B", 2)]
        rr = run(world, plans, RoundRobin())
        keys = {p.key() for p in enumerate_interleavings(world, plans, bound=8)}
        assert rr.key() in keys

    def test_waits_restrict_the_space(self):
        world = make_world(agents=[Agent("A"), Agent("B")])
        plans = [
            chat("A", 2),
            Plan("B", (wait_for(kind="acknowledge-receipt", actor="A", message="A-1"),
                       Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="B",
                                 message="B-0")))),
        ]
        traces = enumerate_interleavings(world, plans, bound=8)
        # B's step must follow both of A's: the only order is A-0 A-1 B-0
        assert len(traces) == 1
        assert [e.action.message for e in traces[0].events] == ["A-0", "A-1", "B-0"]

    def test_choice_points_are_branched_over(self):
        world = make_world(agents=[Agent("A")])
        plans = [Plan("A", (Branch(ChoiceIs("flag"),
                                   (Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT,
                                              actor="A", message="yes")),),
                                   (Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT,
                                              actor="A", message="no")),)),))]
        traces = enumerate_interleavings(world, plans, bound=4,
                                         choice_points={"flag": True})
        messages = sorted(t.events[0].action.message for t in traces)
        assert messages == ["no", "yes"]

    def test_deadlocked_maximal_traces_are_included(self):
        world = make_world(agents=[Agent("A"), Agent("B")])
        plans = [
            Plan("A", (Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="A",
                                 message="go")),
                       wait_for(kind="acknowledge-receipt", actor="B", message="never"))),
            Plan("B", (wait_for(kind="acknowledge-receipt", actor="A", message="go"),
                       Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="B",
                                 message="done")))),
        ]
        traces = enumerate_interleavings(world, plans, bound=8)
        # B finishes, A stays blocked forever: still one maximal trace
        assert len(traces) == 1
        assert [e.action.message for e in traces[0].events] == ["go", "done"]


class TestAppliedOnce:
    """Enumeration applies and settles each step of the plans' lattice once,
    however many interleavings pass through it; run applies each of its
    events once."""

    @staticmethod
    def counted(monkeypatch):
        from rpsf import engine

        calls = []
        original = engine.apply_event

        def counting(world, action, date):
            calls.append(action)
            return original(world, action, date)

        monkeypatch.setattr(engine, "apply_event", counting)
        return calls

    @staticmethod
    def stepped(monkeypatch):
        """The numbers of successor steps (a step of one plan, or a clock
        advance, and a settling of every plan), of enumeration nodes and of
        ``Progression.key`` calls. An ``_advance`` that finds no later day
        takes no step."""
        from rpsf import engine

        made = {"steps": 0, "nodes": 0, "keys": 0}
        original, advance, key = engine._step, engine._advance, engine.Progression.key

        def counting(*args):
            made["steps"] += 1
            return original(*args)

        def advancing(*args):
            line = advance(*args)
            made["steps"] += line is not None
            return line

        def keying(*args):
            made["keys"] += 1
            return key(*args)

        class Node(engine._Node):
            __slots__ = ()

            def __init__(self, *args):
                made["nodes"] += 1
                super().__init__(*args)

        monkeypatch.setattr(engine, "_step", counting)
        monkeypatch.setattr(engine, "_advance", advancing)
        monkeypatch.setattr(engine, "_Node", Node)
        monkeypatch.setattr(engine.Progression, "key", keying)
        return made

    @pytest.mark.parametrize("n, traces, applied", [(2, 90, 54), (4, 34650, 300)])
    def test_chat_plans(self, monkeypatch, n, traces, applied):
        # one node per state of the (n+1)^3 lattice, one application and one
        # step per edge: 3 * n * (n+1)^2, and no trace keyed
        world = make_world(agents=[Agent("A"), Agent("B"), Agent("C")])
        calls, made = self.counted(monkeypatch), self.stepped(monkeypatch)
        assert len(enumerate_interleavings(world, [chat(a, n) for a in "ABC"], bound=3 * n)) \
            == traces
        assert len(calls) == applied
        assert made == {"steps": applied, "nodes": (n + 1) ** 3, "keys": 0}

    def test_a_relay_of_one_good(self, monkeypatch):
        """Three plans of three steps; A's second step sells g to B, and B's
        second, which waits for that sale, sells it on to C; C sells h."""
        from rpsf.world import Good

        def pay(agent, payee, k):
            return Do(Action(kind=ActionKind.PAY, actor=agent, counterparty=payee,
                             amount=q(k + 1), message=f"{agent}{k}"))

        def sell(agent, buyer, good, k):
            return Do(Action(kind=ActionKind.SPOT_SALE, actor=agent, counterparty=buyer,
                             amount=q(10), good_id=good, message=f"{agent}{k}"))

        world = make_world(agents=[Agent("A"), Agent("B"), Agent("C")],
                           balances={"A": q(100), "B": q(100), "C": q(100)},
                           goods=[Good("g", "asset", "A", q(50)), Good("h", "asset", "C", q(50))])
        plans = [Plan("A", (pay("A", "C", 0), sell("A", "B", "g", 1), pay("A", "B", 2))),
                 Plan("B", (pay("B", "A", 0), wait_for(kind="spot-sale", actor="A", message="A1"),
                            sell("B", "C", "g", 1), pay("B", "C", 2))),
                 Plan("C", (pay("C", "A", 0), sell("C", "A", "h", 1), pay("C", "B", 2)))]
        calls, made = self.counted(monkeypatch), self.stepped(monkeypatch)
        assert len(enumerate_interleavings(world, plans, bound=10)) == 840
        assert len(calls) == 100
        assert made == {"steps": 100, "nodes": 48, "keys": 0}

    def test_a_choice_between_a_dated_arm_and_an_undated_one(self, trio, monkeypatch):
        """A's second step is one payment, made at once under not-x and after
        a wait for day 2 under x: each assignment's lattice has its own
        nodes, the dated arm's clock advance is a step, and the two
        assignments' five traces are each keyed once to merge them."""
        def pay(actor, payee):
            return Do(Action(kind=ActionKind.PAY, actor=actor, counterparty=payee, amount=q(1)))

        shared = pay("A", "B")
        plans = [Plan("A", (pay("A", "C"),
                            Branch(ChoiceIs("x"), (WaitFor(ByDate(2)), shared), (shared,)))),
                 Plan("B", (pay("B", "C"),))]
        made = self.stepped(monkeypatch)
        traces = enumerate_interleavings(trio, plans, bound=10, choice_points={"x": True})
        assert [tuple(e.date for e in t.events) for t in traces] == [
            (0, 0, 0), (0, 0, 0), (0, 0, 2), (0, 0, 0), (0, 0, 2)]
        assert made == {"steps": 13, "nodes": 12, "keys": 5}

    @pytest.mark.parametrize("strategy", [RoundRobin(), SeededRandom(7)])
    def test_run_applies_each_event_once(self, trio, monkeypatch, strategy):
        plans = [chat("A", 3), chat("B", 2), Plan("C", (WaitFor(ByDate(12)),) + chat("C", 2).steps)]
        calls, made = self.counted(monkeypatch), self.stepped(monkeypatch)
        progression = run(trio, plans, strategy)
        assert calls == [event.action for event in progression.events]
        assert len(calls) == 7
        # the seven events and one clock advance to day 12
        assert made["steps"] == 8 and progression.world.clock == 12


class TestOneWalk:
    """Each call walks its plans once: one ``_count_steps`` call per plan and
    two per branch, the walk that also collects the waits' patterns."""

    @pytest.mark.parametrize("call", [
        lambda loan: run(loan.world, loan.plans, RoundRobin(), horizon=loan.horizon),
        lambda loan: run(loan.world, loan.plans, Exhaustive(), horizon=loan.horizon),
        lambda loan: enumerate_interleavings(loan.world, loan.plans, bound=26,
                                             choice_points=loan.choice_points),
    ], ids=["round-robin", "exhaustive", "enumerate"])
    def test_brokered_loan_is_walked_once(self, monkeypatch, call):
        from rpsf import engine
        from rpsf.scenarios import instantiate

        loan = instantiate("brokered_loan")
        walks = []
        original = engine._count_steps

        def counting(agent, steps, *rest):
            walks.append(agent)
            return original(agent, steps, *rest)

        monkeypatch.setattr(engine, "_count_steps", counting)
        call(loan)
        # three plans, each holding one branch
        assert sorted(walks) == ["X", "X", "X", "Y", "Y", "Y", "Z", "Z", "Z"]


class TestWaitCost:
    """Wait checks read an index of the history, not the history itself."""

    @staticmethod
    def ping_pong(rounds):
        """Two plans in which every payment waits for the other side's last one."""
        from rpsf.world import ContractRecord, Reason, Stage

        a_steps, b_steps = [], []
        for k in range(rounds):
            a_steps.append(Do(Action(kind=ActionKind.PAY, actor="A", counterparty="B",
                                     amount=q(3), reason=Reason(contract_ids=("acct",)),
                                     message=f"a{k}")))
            a_steps.append(wait_for(kind="pay", actor="B", message=f"b{k}"))
            b_steps.append(wait_for(kind="pay", actor="A", message=f"a{k}"))
            b_steps.append(Do(Action(kind=ActionKind.PAY, actor="B", counterparty="A",
                                     amount=q(2), reason=Reason(contract_ids=("acct",)),
                                     message=f"b{k}")))
        account = ContractRecord(contract_id="acct", parties=frozenset({"A", "B"}),
                                 initiator="B", clauses=(),
                                 signatures=frozenset({"A", "B"}), stage=Stage.ACTIVE)
        world = make_world(agents=[Agent("A"), Agent("B")],
                           balances={"A": q(3 * rounds), "B": q(0)}, contracts=[account])
        return world, [Plan("A", tuple(a_steps)), Plan("B", tuple(b_steps))]

    @pytest.mark.parametrize("rounds", [100, 400])
    def test_pattern_matches_per_event_stay_constant(self, rounds, monkeypatch):
        calls = 0
        original = ActionTemplate.matches

        def counted(self, action):
            nonlocal calls
            calls += 1
            return original(self, action)

        world, plans = self.ping_pong(rounds)
        monkeypatch.setattr(ActionTemplate, "matches", counted)
        progression = run(world, plans, RoundRobin())
        assert len(progression.events) == 2 * rounds
        assert calls <= 2 * len(progression.events)

    @staticmethod
    def serialized(monkeypatch):
        """A list that counts the engine's calls of ``action_to_dict``."""
        from rpsf import engine

        calls = []
        original = engine.action_to_dict

        def counted(action):
            calls.append(action)
            return original(action)

        monkeypatch.setattr(engine, "action_to_dict", counted)
        return calls

    @staticmethod
    def relayed_chat():
        """A (3,3,3) plan set in which B's second step waits for A's second."""
        a, b, c = chat("A", 3), chat("B", 3), chat("C", 3)
        b = Plan("B", (b.steps[0], wait_for(kind="acknowledge-receipt", actor="A",
                                            message="A-1"), *b.steps[1:]))
        return [a, b, c]

    def test_each_action_is_serialized_once_per_enumeration(self, monkeypatch):
        world = make_world(agents=[Agent("A"), Agent("B"), Agent("C")])
        calls = self.serialized(monkeypatch)
        traces = enumerate_interleavings(world, self.relayed_chat(), bound=10)
        assert len(traces) == 840
        assert calls == []  # one choice assignment: its traces come in key order, unkeyed
        monkeypatch.undo()
        memo = {}
        assert all(trace.key() == trace.key(memo) for trace in traces)
        assert len(memo) == 9

    def test_merging_choice_assignments_serializes_each_action_once(self, monkeypatch):
        from rpsf.world import ChoiceIs

        # the same plans, C's ending in a step that only one assignment takes
        world = make_world(agents=[Agent("A"), Agent("B"), Agent("C")])
        a, b, c = self.relayed_chat()
        extra = Do(Action(kind=ActionKind.ACKNOWLEDGE_RECEIPT, actor="C", message="C-x"))
        c = Plan("C", (*c.steps, Branch(ChoiceIs("x"), (extra,))))
        calls = self.serialized(monkeypatch)
        traces = enumerate_interleavings(world, [a, b, c], bound=12, choice_points={"x": True})
        assert len(traces) == 840 + 2100  # without C's extra step and with it
        # one per distinct action, not one per event of every trace
        assert len(calls) == len(set(map(id, calls))) == 10
