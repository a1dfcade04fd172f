"""Judging properties over random plan sets: a trace judged with the facts
shared between positions gets the judgement it gets from facts of its own."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.engine import Do, Plan, Progression, WaitFor, enumerate_interleavings  # noqa: E402
from rpsf import legality  # noqa: E402
from rpsf.legality import BUILTIN_POSITIONS, judge  # noqa: E402
from rpsf.money import Quantity  # noqa: E402
from rpsf.scenarios import ScenarioInstance  # noqa: E402
from rpsf.world import (  # noqa: E402
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    ByDate,
    ContractRecord,
    EthicalTag,
    Good,
    Reason,
    RepaymentTerms,
    Stage,
    make_world,
)

AGENTS = ("A", "B", "C")
LOAN = Reason(contract_ids=("loan",))
amounts = st.integers(1, 6).map(lambda n: Quantity(n, 2))


def pay(payer, payee, amount, message, reason=None):
    return Do(Action(ActionKind.PAY, payer, counterparty=payee, amount=amount,
                     reason=reason, message=message))


def after(message):
    return WaitFor(AfterEvent(ActionTemplate(message=message)))


@st.composite
def cases(draw):
    """A loan from A to B under the rated contract "loan", repaid in one or
    two installments that may fall on later days; maybe a payment from C
    that may cite the loan; maybe good g sold C -> A and back, under one
    contract or none, valued or not; maybe a tagged message."""
    steps = {agent: [] for agent in AGENTS}
    steps["A"].append(pay("A", "B", draw(amounts), "lend", LOAN))
    steps["B"].append(after("lend"))
    for k in range(draw(st.integers(1, 2))):
        steps["B"] += [WaitFor(ByDate(draw(st.integers(0, 2)))),
                       pay("B", "A", draw(amounts), f"repay{k}", LOAN)]
    if draw(st.booleans()):
        steps["C"].append(pay("C", draw(st.sampled_from("AB")), draw(amounts), "extra",
                              draw(st.sampled_from((None, LOAN)))))
    one_contract = Reason(contract_ids=("rt",)) if draw(st.booleans()) else None
    if draw(st.booleans()):
        steps["C"].append(Do(Action(ActionKind.SPOT_SALE, "C", counterparty="A",
                                    amount=draw(amounts), good_id="g", reason=one_contract,
                                    message="g out")))
        steps["A"] += [after("g out"),
                       Do(Action(ActionKind.SPOT_SALE, "A", counterparty="C",
                                 amount=draw(amounts), good_id="g", reason=one_contract,
                                 message="g back"))]
    if draw(st.booleans()):
        steps["C"].append(Do(Action(ActionKind.INFORM, "C", counterparty="B", message="told",
                                    tags=frozenset({EthicalTag.COERCION}))))
    rate = draw(st.sampled_from((Quantity(0), Quantity(1, 10))))
    contracts = [ContractRecord(
        contract_id=cid, parties=frozenset(AGENTS), initiator="A", clauses=(),
        signatures=frozenset(AGENTS), stage=Stage.ACTIVE,
        terms=RepaymentTerms(principal=Quantity(1), rate=rate) if cid == "loan" else None)
        for cid in ("loan", "rt")]
    world = make_world(agents=[Agent(a) for a in AGENTS],
                       balances={a: Quantity(100) for a in AGENTS},
                       goods=[Good("g", "asset", "C", draw(st.sampled_from((None, Quantity(2)))))],
                       contracts=contracts)
    plans = tuple(Plan(agent, tuple(s)) for agent, s in steps.items() if s)
    return ScenarioInstance(name="random", params={}, world=world, plans=plans,
                            principals=AGENTS, horizon=2)


@given(cases(), st.randoms(use_true_random=False))
def test_shared_facts_judge_as_fresh_facts(instance, rng):
    """Every trace under every built-in position, in an order that runs a
    trace under some positions, moves to other traces, and comes back."""
    traces = enumerate_interleavings(instance.world, instance.plans, bound=20)
    assert traces
    positions = list(BUILTIN_POSITIONS.values())
    pending = {i: rng.sample(positions, len(positions)) for i in range(len(traces))}
    order = []
    while pending:
        i = rng.choice(sorted(pending))
        run = rng.randint(1, len(pending[i]))
        order += [(traces[i], position) for position in pending[i][:run]]
        pending[i] = pending[i][run:]
        if not pending[i]:
            del pending[i]
    shared = [judge(position, instance, p).to_dict() for p, position in order]
    assert shared == [fresh_judgement(position, instance, p) for p, position in order]


def fresh_judgement(position, instance, progression):
    """The judgement of a copy of the progression, from facts of its own:
    the cache is emptied too, so that a cache keyed wrongly cannot answer
    for the copy."""
    legality._last_facts = None
    copy = Progression(progression.events, progression.world, progression.schedule)
    return judge(position, instance, copy).to_dict()
