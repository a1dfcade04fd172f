"""Judging properties over random plan sets: a trace judged with the facts
shared between positions gets the judgement it gets from facts of its own,
and the facts' findings are those of the reference bodies kept below."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.engine import Do, Plan, Progression, WaitFor, enumerate_interleavings  # noqa: E402
from rpsf import legality  # noqa: E402
from rpsf.legality import BUILTIN_POSITIONS, judge, position_from_dict  # noqa: E402
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
    Event,
    Good,
    Reason,
    RepaymentTerms,
    Stage,
    make_world,
    value_to_dict,
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


# Custom positions that a memo or a cached default keyed too coarsely would
# confuse with the built-ins or with each other: built-in detectors under
# other rule names and verdicts, a built-in rule name on another detector,
# and one position name with three defaults.
CUSTOM_POSITIONS = [position_from_dict(entry) for entry in (
    {"name": "RENAMED", "rules": [
        {"name": "usury", "detector": "riba", "verdict": "undecided"},
        {"name": "marked", "detector": "ethical-tags", "verdict": "undecided"},
        {"name": "priced-blind", "detector": "unvalued-goods"},
        {"name": "buy-back", "detector": "ina-single-contract", "verdict": "undecided"}]},
    {"name": "CROSSED", "rules": [
        {"name": "riba", "detector": "ethical-tags"},
        {"name": "ethical-tags", "detector": "riba", "verdict": "undecided"},
        {"detector": "ina"}]},
    {"name": "SAME", "rules": []},
    {"name": "SAME", "rules": [{"detector": "loan-profile"}], "default": "undecided"},
    {"name": "SAME", "rules": [{"name": "riba", "detector": "riba"}], "default": "haram"},
)]


@given(cases(), st.randoms(use_true_random=False))
def test_shared_facts_judge_as_fresh_facts(instance, rng):
    """Every trace under every built-in and custom position, in an order that
    runs a trace under some positions, moves to other traces, and comes back."""
    traces = enumerate_interleavings(instance.world, instance.plans, bound=20)
    assert traces
    positions = list(BUILTIN_POSITIONS.values()) + CUSTOM_POSITIONS
    pending = {i: rng.sample(positions, len(positions)) for i in range(len(traces))}
    order = []
    while pending:
        i = rng.choice(sorted(pending))
        run = rng.randint(1, len(pending[i]))
        order += [(traces[i], position) for position in pending[i][:run]]
        pending[i] = pending[i][run:]
        if not pending[i]:
            del pending[i]
    shared = [value_to_dict(judge(position, instance, p)) for p, position in order]
    assert shared == [fresh_judgement(position, instance, p) for p, position in order]


def fresh_judgement(position, instance, progression):
    """The judgement of a copy of the progression, from facts of its own:
    the caches are emptied too, so that a cache keyed wrongly cannot answer
    for the copy."""
    legality._last_facts = None
    legality._cleared.clear()
    copy = Progression(progression.events, progression.world, progression.schedule)
    return value_to_dict(judge(position, instance, copy))


# ---------------------------------------------------------------------------
# the findings against reference bodies
# ---------------------------------------------------------------------------

def reference_ina(facts):
    """Round trips, as first written: every consecutive pair of sales of a
    good that goes straight back, with set algebra on the cited contracts,
    as (single contract, events, contracts, note)."""
    findings = []
    for good_id, chain in facts.sales.items():
        for (first, seller, buyer, refs), (second, *back, refs2) in zip(chain, chain[1:]):
            if back == [buyer, seller]:
                single = bool(set(refs) & set(refs2))
                findings.append((
                    single, (first.seq, second.seq), tuple(sorted(set(refs) | set(refs2))),
                    f"{good_id} sold {seller} -> {buyer} and back under "
                    f"{'a single contract' if single else 'separate contracts'}"))
    return findings


def reference_loan_profiles(facts):
    """Loan-shaped agents, as first written: every agent's nonzero cells
    sorted, then exactly two of them, out first and more back."""
    profiles, scale = [], facts.scale
    for agent in sorted(facts.sums):
        dated = sorted(cell for cell in facts.sums[agent].items() if cell[1])
        if len(dated) != 2:
            continue
        (d0, v0), (d1, v1) = dated
        if v0 < 0 < v1 and v1 + v0 > 0:
            refs = tuple(e.seq for e in facts.cash
                         if agent in (e.action.actor, e.action.counterparty))
            profiles.append((agent, Quantity(-v0, scale), Quantity(v1, scale), d1 - d0, refs))
    return profiles


SALE_AGENTS = ("A", "B", "C")
citations = st.one_of(st.none(), st.lists(st.sampled_from(("k1", "k2")), max_size=3).map(
    lambda ids: Reason(contract_ids=tuple(ids))))


@st.composite
def sale_histories(draw):
    """Chains of three or more spot and credit sales of one or two goods,
    each between two of three agents, so that some go straight back; each
    sale cites no contract, or some of k1 and k2, repeats included."""
    events = []
    for good in draw(st.sampled_from((("g",), ("g", "h")))):
        for _ in range(draw(st.integers(3, 6))):
            seller, buyer = draw(st.permutations(SALE_AGENTS))[:2]
            price = draw(amounts)
            if draw(st.booleans()):
                action = Action(ActionKind.SPOT_SALE, seller, counterparty=buyer, amount=price,
                                good_id=good, reason=draw(citations))
            else:
                action = Action(ActionKind.BUY_ON_CREDIT, buyer, counterparty=seller,
                                amount=price, down_payment=draw(st.sampled_from((None, price))),
                                due_date=5, good_id=good, reason=draw(citations))
            events.append(action)
    order = draw(st.permutations(range(len(events))))
    return tuple(Event(seq, 0, events[i]) for seq, i in enumerate(order, 1))


@given(sale_histories())
def test_round_trips_are_the_reference_ones(history):
    facts = legality._Facts(history, history, None)  # no round trip reads the world
    assert max(len(chain) for chain in facts.sales.values()) >= 3
    assert facts.ina == reference_ina(facts)


@st.composite
def net_cells(draw):
    """Per agent, zero to three nonzero days, or two that may be loan-shaped
    (out, then back with a gain or not), and maybe a cancelled day, over a
    drawn scale; and the cash events that name the agents."""
    sums = {}
    for agent in draw(st.permutations(SALE_AGENTS)):
        if draw(st.booleans()):
            cells = {day: draw(st.integers(-9, 9).filter(bool))
                     for day in draw(st.sets(st.integers(0, 9), max_size=3))}
        else:
            out, back = sorted(draw(st.sets(st.integers(0, 9), min_size=2, max_size=2)))
            lent = draw(st.integers(1, 9))
            cells = {out: -lent, back: lent + draw(st.integers(-2, 3).filter(bool))}
        if draw(st.booleans()):
            cells[draw(st.integers(10, 12))] = 0
        if cells or draw(st.booleans()):
            sums[agent] = dict(draw(st.permutations(list(cells.items()))))
    cash = tuple(Event(seq, 0, Action(ActionKind.PAY, payer, counterparty=payee,
                                      amount=Quantity(1)))
                 for seq, (payer, payee) in enumerate(
                     draw(st.lists(st.permutations(SALE_AGENTS).map(lambda p: p[:2]),
                                   max_size=4)), 1))
    return draw(st.integers(1, 12)), sums, list(cash)


@given(net_cells())
def test_loan_profiles_are_the_reference_ones(cells):
    facts = legality._Facts((), (), None)
    facts.scale, facts.sums, facts.cash = cells
    assert facts.loan_profiles() == reference_loan_profiles(facts)
