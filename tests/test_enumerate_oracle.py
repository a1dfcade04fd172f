"""``enumerate_interleavings`` against a brute-force enumerator that shares
none of its node table: every interleaving walked recursively, ``apply_event``
called at every node. The two must agree byte for byte on every trace, or
raise the same error."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rpsf.engine import (Branch, Do, Plan, Progression, Stop, WaitFor,  # noqa: E402
                         enumerate_interleavings)
from rpsf.money import Quantity, replace  # noqa: E402
from rpsf.world import (Action, ActionKind, ActionTemplate, AfterEvent, Agent,  # noqa: E402
                        BalanceAtLeast, ByDate, ChoiceIs, ConditionMet, ContractInStage,
                        ContractRecord,
                        Good, GoodSpec, OwnsGood, SigningMode, Stage, WorldError, apply_event,
                        eval_condition, make_world, trigger_fired, world_to_json)

AGENTS = ("A", "B", "C")
PAY, SPOT, CREDIT = ActionKind.PAY, ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT
PROMISE, SIGN, PREPARE = ActionKind.PROMISE_PAY, ActionKind.SIGN_CONTRACT, ActionKind.PREPARE_GOOD


# the reference ------------------------------------------------------------------

def settle(steps, world, choices):
    """A plan's remaining steps, head first, once its head is a Do or a wait
    that has not fired."""
    while steps:
        head, rest = steps[0], steps[1:]
        if isinstance(head, Stop):
            return ()
        if isinstance(head, Branch):
            taken = head.then_steps if eval_condition(head.condition, world, choices) \
                else head.else_steps
            steps = tuple(taken) + rest
        elif isinstance(head, WaitFor):
            if not trigger_fired(head.trigger, world.history, world.clock, world, choices):
                return steps
            steps = rest
        else:
            return steps
    return ()


def reference(world, plans, choice_points):
    """Every maximal trace for every choice assignment, walked depth first
    with the lowest-named agent first; the first trace of each key is kept."""
    plans = sorted(plans, key=lambda p: p.agent)
    names = sorted(choice_points)
    seen = {}
    start = len(world.history)

    def walk(world, remaining, choices):
        remaining = [settle(steps, world, choices) for steps in remaining]
        enabled = [i for i, steps in enumerate(remaining) if steps and isinstance(steps[0], Do)]
        if not enabled:
            days = [steps[0].trigger.day for steps in remaining
                    if steps and isinstance(steps[0].trigger, ByDate)
                    and steps[0].trigger.day > world.clock]
            if days:
                walk(replace(world, clock=min(days)), remaining, choices)
            else:
                trace = Progression(events=world.history[start:], world=world)
                seen.setdefault(trace.key(), trace)
            return
        # every child is applied before any is walked, the highest-named
        # first, so that a failing step raises where the engine's would
        children = [(i, apply_event(world, remaining[i][0].action, world.clock))
                    for i in reversed(enabled)]
        for i, child in reversed(children):
            walk(child, remaining[:i] + [remaining[i][1:]] + remaining[i + 1:], choices)

    for mask in range(2 ** len(names)):
        choices = {name: bool(mask >> i & 1) for i, name in enumerate(names)}
        walk(world, [tuple(p.steps) for p in plans], choices)
    return tuple(seen[k] for k in sorted(seen))


def outcome(enumerate_, world, plans, choice_points):
    """Each trace's key, world JSON and map orders, or the error raised."""
    try:
        traces = enumerate_(world, plans, choice_points)
    except WorldError as error:
        return type(error).__name__, str(error)
    return [(t.key(), world_to_json(t.world), list(t.world.goods), list(t.world.contracts))
            for t in traces]


def enumerated(world, plans, choice_points):
    return enumerate_interleavings(world, plans, bound=64, choice_points=choice_points)


# the plans ------------------------------------------------------------------------

def opening_world():
    """A owns g, C owns h; contract pc is prepared for B and C to sign."""
    signable = ContractRecord(contract_id="pc", parties=frozenset({"B", "C"}), initiator="A",
                              clauses=(), stage=Stage.PREPARED)
    return make_world(agents=[Agent(a) for a in AGENTS],
                      balances={a: Quantity(100) for a in AGENTS},
                      goods=[Good("g", "asset", "A", Quantity(10)),
                             Good("h", "asset", "C", Quantity(10))],
                      contracts=[signable])


def do(kind, actor, **fields):
    return Do(Action(kind=kind, actor=actor, **fields))


def after(**pattern):
    return WaitFor(AfterEvent(ActionTemplate(**pattern)))


def promise(actor, counterparty, signing):
    """A promise with no contract_id: apply_event names it promise-{seq}."""
    return do(PROMISE, actor, counterparty=counterparty, amount=Quantity(2), signing=signing)


@st.composite
def features(draw):
    """One feature, by name: (agent, steps) pairs, each appended to that
    agent's plan."""
    name = draw(st.sampled_from(("relay", "credit", "promises", "sign-pc",
                                 "prepare", "twice", "branch", "choice", "date")))
    other = st.sampled_from(AGENTS)

    def not_(agent):
        return st.sampled_from([a for a in AGENTS if a != agent])

    if name == "relay":  # one good sold on by several plans, each after the sale before
        buyer = draw(st.sampled_from("AC"))
        wait = draw(st.sampled_from((True, True, True, False)))
        return name, [
            ("A", (do(SPOT, "A", counterparty="B", amount=Quantity(3), good_id="g"),)),
            ("B", (after(kind=SPOT, good_id="g", counterparty="B"),) * wait
             + (do(SPOT, "B", counterparty=buyer, amount=Quantity(4), good_id="g"),))]
    if name == "credit":  # the settlement is named credit-{seq}
        down = draw(st.sampled_from((None, Quantity(0), Quantity(1))))
        return name, [("B", (do(CREDIT, "B", counterparty="C", amount=Quantity(5), good_id="h",
                                due_date=draw(st.integers(0, 3)), down_payment=down),))]
    if name == "promises":  # two plans each add a promise-{seq}
        signing = st.sampled_from((SigningMode.INITIATOR_ONLY,) * 2 + (SigningMode.BOTH_PARTIES,))
        return name, [("A", (promise("A", "B", draw(signing)),)),
                      ("C", (promise("C", "B", draw(signing)),))]
    if name == "sign-pc":  # two plans sign one contract, in either order
        return name, [("B", (do(SIGN, "B", contract_id="pc"),)),
                      ("C", (do(SIGN, "C", contract_id="pc"),))]
    if name == "prepare":  # one or two plans each add a good, in either order
        made = []
        for agent in draw(st.lists(other, min_size=1, max_size=2, unique=True)):
            steps = (do(PREPARE, agent, good_id=f"n{agent}",
                        good_spec=GoodSpec(kind="asset", market_value=Quantity(1))),)
            if draw(st.booleans()):
                steps += (do(SPOT, agent, counterparty=draw(not_(agent)), amount=Quantity(1),
                             good_id=f"n{agent}"),)
            made.append((agent, steps))
        return name, made
    if name == "twice":  # one Action object, applied twice by its plan
        agent = draw(other)
        step = do(PAY, agent, counterparty=draw(not_(agent)), amount=Quantity(1))
        return name, [(agent, (step, step))]
    if name in ("branch", "choice"):  # one action in both arms, one arm waiting for a date
        agent = draw(other)
        step = do(PAY, agent, counterparty="A" if agent != "A" else "B", amount=Quantity(1),
                  message="shared")
        condition = ChoiceIs("x") if name == "choice" else draw(st.sampled_from((
            BalanceAtLeast(agent, Quantity(100)), OwnsGood("B", "g"),
            ContractInStage("pc", Stage.PARTIALLY_SIGNED))))
        waiting = (WaitFor(ByDate(draw(st.integers(1, 3)))), step)
        arms = (waiting, (step,)) if draw(st.booleans()) else ((step,), waiting)
        return name, [(agent, (Branch(condition, *arms),))]
    return name, [(draw(other), (WaitFor(ByDate(draw(st.integers(0, 3)))),))]


def count_do(steps):
    """The Do steps a plan takes at most, through the longer arm of each branch."""
    total = 0
    for step in steps:
        if isinstance(step, Do):
            total += 1
        elif isinstance(step, Branch):
            total += max(count_do(step.then_steps), count_do(step.else_steps))
    return total


@st.composite
def plan_sets(draw):
    """Up to seven Do steps over three plans: perhaps a signature of a
    seq-named promise first, then perhaps a payment in each plan, then the
    features above."""
    steps = {agent: () for agent in AGENTS}
    if draw(st.booleans()):
        # A's and C's promises are the first two events, in either order, so
        # promise-1 is A's in some interleavings and C's in others
        signed = f"promise-{draw(st.integers(1, 2))}"
        both = (after(kind=PROMISE, actor="A"), after(kind=PROMISE, actor="C"))
        steps = {"A": (promise("A", "B", SigningMode.INITIATOR_ONLY), both[1]),
                 "B": both + (do(SIGN, "B", contract_id=signed),),
                 "C": (promise("C", "B", SigningMode.INITIATOR_ONLY), both[0])}
    for agent in AGENTS:
        steps[agent] += (do(PAY, agent, counterparty="B" if agent == "A" else "A",
                            amount=Quantity(1), message="opening"),) * draw(st.booleans())
    for _, feature in draw(st.lists(features(), min_size=2, max_size=6,
                                    unique_by=lambda named: named[0])):
        grown = dict(steps)
        for agent, more in feature:
            grown[agent] += more
        if sum(count_do(s) for s in grown.values()) <= 7:
            steps = grown
    return [Plan(agent, s) for agent, s in steps.items() if s]


def agree(plans, choice_points=None):
    world, points = opening_world(), choice_points or {}
    expected = outcome(reference, world, plans, points)
    assert outcome(enumerated, world, plans, points) == expected
    return expected


# each example fails under one wrong node key. A promise-{seq} whose number
# depends on the order (without the sequence tag),
relabelled = [Plan("A", (promise("A", "B", SigningMode.INITIATOR_ONLY),)),
              Plan("B", (promise("B", "A", SigningMode.INITIATOR_ONLY),
                         after(kind=PROMISE, actor="A"), do(SIGN, "B", contract_id="promise-1")))]
# one action applied once or twice by its plan, as A's branch on its balance
# is resolved before or after B pays A (keyed on a set of actions),
_twice = do(PAY, "A", counterparty="B", amount=Quantity(1))
repeated = [Plan("A", (do(PAY, "A", counterparty="C", amount=Quantity(1)),
                       Branch(BalanceAtLeast("A", Quantity(100)), (_twice, _twice), (_twice,)))),
            Plan("B", (do(PAY, "B", counterparty="A", amount=Quantity(1)),))]
# a choice between a dated arm and an undated one, made after a step that
# both assignments take (one table for every assignment),
_shared = do(PAY, "A", counterparty="B", amount=Quantity(1))
dated = [Plan("A", (do(PAY, "A", counterparty="C", amount=Quantity(1)),
                    Branch(ChoiceIs("x"), (WaitFor(ByDate(2)), _shared), (_shared,)))),
         Plan("B", (do(PAY, "B", counterparty="C", amount=Quantity(1)),))]
# a branch on A's balance, resolved before or after B pays A, so that one
# progress is reached with either arm left (without the stacks),
_then, _else = (do(PAY, "A", counterparty=payee, amount=Quantity(1), message=arm)
                for payee, arm in (("B", "then"), ("C", "else")))
branched = [Plan("A", (do(PAY, "A", counterparty="C", amount=Quantity(1)),
                       Branch(BalanceAtLeast("A", Quantity(100)), (_then,), (_else,)))),
            Plan("B", (do(PAY, "B", counterparty="A", amount=Quantity(1)),))]
# two goods prepared in either order (without the goods' key order),
prepared = [Plan(agent, (do(PREPARE, agent, good_id=f"n{agent}",
                            good_spec=GoodSpec(kind="asset", market_value=Quantity(1))),))
            for agent in "AC"]
# one action reached before and after a clock advance, as A's branch on its
# balance is resolved after or before B pays A (without the clock),
_paid = do(PAY, "A", counterparty="B", amount=Quantity(1), message="timed")
timed = [Plan("A", (do(PAY, "A", counterparty="C", amount=Quantity(1)),
                    Branch(BalanceAtLeast("A", Quantity(100)), (_paid,),
                           (WaitFor(ByDate(2)), _paid)))),
         Plan("B", (do(PAY, "B", counterparty="A", amount=Quantity(1)),))]
# and a wait on A's balance that passes at once if B pays A before C sells A
# a good, and otherwise when B pays again at day 2: A's payment is dated 0
# or 2 on two paths to one state (without the stacks). No key needs an
# earlier event's date, since each trace takes its events from its own path.
_raise = do(PAY, "B", counterparty="A", amount=Quantity(1))
late = [Plan("A", (WaitFor(ConditionMet(BalanceAtLeast("A", Quantity(101)))),
                   do(PAY, "A", counterparty="B", amount=Quantity(1), message="late"))),
        Plan("B", (_raise, WaitFor(ByDate(2)), _raise)),
        Plan("C", (do(SPOT, "C", counterparty="A", amount=Quantity(1), good_id="h"),))]

# Each example below fails under one wrong merge of the choice assignments'
# traces. A choice of whom A pays, B under x and C otherwise, so that the
# two assignments' traces alternate in key order (the runs concatenated),
crossed = [Plan("A", (Branch(ChoiceIs("x"), (do(PAY, "A", counterparty="B", amount=Quantity(1)),),
                             (do(PAY, "A", counterparty="C", amount=Quantity(1)),)),)),
           Plan("B", (do(PAY, "B", counterparty="A", amount=Quantity(1)),))]
# a choice whose arms differ only by a wait for a date after A's last step,
# so that both assignments give every key, at different final clocks (the
# later assignment's trace kept),
waited = [Plan("A", (do(PAY, "A", counterparty="B", amount=Quantity(1)),
                     Branch(ChoiceIs("x"), (WaitFor(ByDate(2)),)))),
          Plan("B", (do(PAY, "B", counterparty="A", amount=Quantity(1)),))]
# and a choice point that no plan reads, so that both assignments give every
# trace (duplicates kept): ``prepared`` with x.


@settings(max_examples=150)
@given(plan_sets(), st.booleans())
@example(relabelled, False)
@example(repeated, False)
@example(dated, True)
@example(branched, False)
@example(prepared, False)
@example(timed, False)
@example(late, False)
@example(crossed, True)
@example(waited, True)
@example(prepared, True)
def test_every_trace_is_the_reference_trace_byte_for_byte(plans, choose):
    agree(plans, {"x": True} if choose else None)


def test_the_examples_reach_what_they_stand_for():
    assert agree(relabelled) == ("StageViolation", "B already signed promise-1")
    assert {len(trace[0]) for trace in agree(repeated)} == {3, 4}
    dates = {tuple(day for day, _ in trace[0]) for trace in agree(dated, {"x": True})}
    assert {(0, 0, 2), (0, 0, 0)} <= dates
    agree(branched)
    assert {(t.events[0].action.actor, e.action.message)
            for t in enumerated(opening_world(), branched, {})
            for e in t.events if e.action.message} == {("A", "else"), ("B", "then")}
    assert {tuple(goods) for *_, goods, _ in agree(prepared)} == {
        ("g", "h", "nA", "nC"), ("g", "h", "nC", "nA")}
    assert {tuple(day for day, _ in trace[0]) for trace in agree(timed)} == {(0, 0, 2), (0, 0, 0)}
    agree(late)
    traces = enumerated(opening_world(), late, {})
    assert {e.date for t in traces for e in t.events if e.action.message == "late"} == {0, 2}
    assert len({(t.world.clock, tuple(t.world.accounts.items())) for t in traces}) == 1
    agree(crossed, {"x": True})
    assert [e.action.counterparty for t in enumerated(opening_world(), crossed, {"x": True})
            for e in t.events if e.action.actor == "A"] == ["B", "C", "B", "C"]
    agree(waited, {"x": True})
    traces = enumerated(opening_world(), waited, {"x": True})
    waiting = enumerate_interleavings(opening_world(), waited, bound=64, choices={"x": True})
    assert [t.key() for t in traces] == [t.key() for t in waiting]
    assert {t.world.clock for t in traces} == {0} and {t.world.clock for t in waiting} == {2}
    assert agree(prepared, {"x": True}) == agree(prepared)
