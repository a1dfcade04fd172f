"""Pluggable legal positions judging contracts and progressions.

A position is a named, ordered list of rules evaluated first-match-wins
over a scenario instance and one of its progressions; with no match the
default verdict (permitted) applies. Judging is a pure function: same
inputs, same judgement, and every non-permitted verdict carries evidence
referencing event sequence numbers and contract ids.

One detector, ``loan-profile``, reads only the monetary flow projection:
does some agent's cash profile look like an interest-bearing loan,
whatever the paperwork says. The others read contract structure and the
concrete events (declared proportional increments, same-item round trips,
ethical annotations).

The built-in positions: CONVENTIONAL (no prohibitions), STRICT_DESCRIPTIVE,
STRICT_FUNCTIONAL, MAJORITY (descriptive + any same-item round trip is
forbidden), MALAYSIA (descriptive + only single-contract round trips are
forbidden). Custom positions can be assembled from the named detectors via
scenario files.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

from .engine import Progression
from .money import Quantity, ZERO, record, replace, total_div
from .scenarios import ScenarioInstance
from .world import (CASH_LEGS, ActionKind, ContractRecord, Event, HistoryLog, WorldState,
                    codec_row, net_cells, value_from_dict, value_to_dict)


class Verdict(str, Enum):
    HALAL = "halal"
    HARAM = "haram"
    UNDECIDED = "undecided"


class NonpositivePrincipal(Exception):
    pass


class ZeroDuration(Exception):
    pass


@record
class Evidence:
    rule: str
    events: tuple[int, ...] = ()
    contracts: tuple[str, ...] = ()
    note: str = ""

    to_dict = value_to_dict


@record
class Judgement:
    position: str
    verdict: Verdict
    reasons: tuple[Evidence, ...] = ()

    to_dict = value_to_dict


codec_row(Evidence)
codec_row(Judgement)


@record
class RibaFinding:
    """A contract-linked transfer pair with a declared proportional increment."""

    principal: Quantity
    repayment: Quantity
    link: str
    duration: int
    events: tuple[int, int]

    @property
    def increment(self) -> Quantity:
        return self.repayment - self.principal


@record
class InaFinding:
    """A good sold A -> B and straight back B -> A with no third party."""

    good_id: str
    seller: str
    buyer: str
    single_contract: bool
    events: tuple[int, int]
    contracts: tuple[str, ...]


# ---------------------------------------------------------------------------
# facts and detectors
# ---------------------------------------------------------------------------

_SALES = (ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT)


class _once:
    """An attribute computed on its first read and then stored on the
    instance, where later reads find it without calling this descriptor.

    ``functools.cached_property`` does the same, but on Python 3.11 it takes
    a lock on every first read, and judging makes thousands of them.
    """

    def __init__(self, compute: Callable):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _Facts:
    """What the detectors read of one history, gathered in one walk of it.

    The walk reads who pays whom from ``world.CASH_LEGS``. It collects the
    sales by good, the money transfers by cited contract, the tagged events
    and, for ``events`` (a progression's own events, the tail of the
    history), the events that carry an amount and their cash, netted by
    ``world.net_cells`` into ``sums`` over ``scale``. Each finding is derived
    from these once, when a rule first asks for it, and each rule's evidence
    once per (detector, rule name), in ``evidence``.
    """

    def __init__(self, history: HistoryLog, events: Sequence[Event] = (),
                 world: Optional[WorldState] = None):
        self.world = world
        self.evidence: dict[tuple[str, str], tuple[Evidence, ...]] = {}
        self.sales: dict[str, list] = {}  # good -> [(event, seller, buyer, refs)]
        self.transfers: dict[str, list] = {}  # contract id -> [(event, payer, payee, amount)]
        self.tagged: list[Event] = []
        self.cash: list[Event] = []
        rows = []  # (payer, payee, paid, day) of the tail's cash-moving events
        tail, legs = len(history) - len(events), CASH_LEGS.get
        for i, event in enumerate(history):
            action = event.action
            if action.tags:
                self.tagged.append(event)
            kind = action.kind
            leg = legs(kind)
            if leg is None:
                continue
            payer, payee, paid = leg(action)
            refs = action.reason.contract_ids if action.reason else ()
            if kind in _SALES:  # the buyer pays the seller
                self.sales.setdefault(action.good_id, []).append((event, payee, payer, refs))
            elif paid is not None and paid.num:
                for cid in refs:
                    self.transfers.setdefault(cid, []).append((event, payer, payee, paid))
            if i >= tail:
                if action.amount is not None:
                    self.cash.append(event)
                if paid is not None and paid.num > 0:
                    rows.append((payer, payee, paid, event.date))
        self.scale, self.sums = net_cells(rows)
        if history[tail:] != events:  # a progression built by hand
            own = _Facts(events, events)
            self.sums, self.scale, self.cash = own.sums, own.scale, own.cash

    @_once
    def riba(self) -> list[RibaFinding]:
        return _riba(self.world.contracts.values(), self.transfers)

    @_once
    def ina(self) -> list[InaFinding]:
        findings = []
        for good_id, chain in self.sales.items():
            for (first, seller, buyer, refs), (second, back_seller, back_buyer, back_refs) \
                    in zip(chain, chain[1:]):
                if back_seller == buyer and back_buyer == seller:
                    findings.append(InaFinding(
                        good_id=good_id, seller=seller, buyer=buyer,
                        single_contract=(bool(refs and back_refs)
                                         and not set(refs).isdisjoint(back_refs)),
                        events=(first.seq, second.seq),
                        contracts=tuple(sorted({*refs, *back_refs})) if refs or back_refs else (),
                    ))
        return findings

    @_once
    def unvalued_goods(self) -> list[str]:
        """Goods that changed hands without a stated market value."""
        goods = self.world.goods
        return sorted(g for g in self.sales if g in goods and goods[g].market_value is None)

    @_once
    def loan_profiles(self) -> list[tuple[str, Quantity, Quantity, int, tuple[int, ...]]]:
        """Agents whose net cash flow is 'money out first, more money back later'.

        Returns (agent, out_sum P, back_sum R, duration, event refs) for every
        agent with exactly two nonzero net-flow dates: negative then positive
        with a strictly positive gain. This is the functional shadow of an
        interest-bearing loan, whatever the contracts say.
        """
        profiles, scale = [], self.scale
        for agent, cells in sorted(self.sums.items()):
            if len(cells) < 2:
                continue
            dated = [cell for cell in cells.items() if cell[1]]
            if len(dated) != 2:
                continue
            (d0, v0), (d1, v1) = sorted(dated)
            if v0 < 0 < v1 and v1 + v0 > 0:
                refs = tuple(e.seq for e in self.cash
                             if agent in (e.action.actor, e.action.counterparty))
                profiles.append((agent, Quantity(-v0, scale), Quantity(v1, scale), d1 - d0, refs))
        return profiles


def _riba(contracts, transfers: Mapping[str, list]) -> list[RibaFinding]:
    findings: list[RibaFinding] = []
    for record in contracts:
        if record.terms is None or record.terms.rate <= ZERO:
            continue
        ledger: dict[tuple[str, str], deque] = {}  # (lender, borrower) -> [[unpaid, event]]
        for event, payer, payee, amount in transfers.get(record.contract_id, ()):
            owed = ledger.get((payee, payer))
            if not owed:
                ledger.setdefault((payer, payee), deque()).append([amount, event])
                continue
            opened, left, closed = owed[0][1], amount, ZERO
            while owed and left > ZERO:
                part = min(owed[0][0], left)
                owed[0][0] -= part
                left, closed = left - part, closed + part
                if owed[0][0] == ZERO:
                    owed.popleft()
            if left > ZERO:
                findings.append(RibaFinding(
                    principal=closed, repayment=amount, link=record.contract_id,
                    duration=event.date - opened.date, events=(opened.seq, event.seq)))
    return findings


def detect_riba(contracts: Mapping[str, ContractRecord], history: HistoryLog) -> list[RibaFinding]:
    """Interest findings, matched by a ledger per contract whose declared
    terms carry a positive rate.

    Only transfers that cite the contract enter its ledger. A transfer
    opens principal from payer to payee, unless principal is open the
    other way: then it closes the oldest open principal first, and it is
    a finding when it returns more than it closes. So a loan repaid with
    interest in installments gives one finding, at the installment that
    passes the principal, and each repayment gives at most one. Terms
    with a zero rate (fixed transaction costs only) yield nothing; sale
    markups carry no declared rate and are invisible to this detector.
    """
    return _riba(contracts.values(), _Facts(history).transfers)


def detect_ina(history: HistoryLog) -> list[InaFinding]:
    """Same-item sale-repurchase findings.

    A finding for every good sold A -> B and then, with no intermediate
    owner, B -> A; the single-contract flag is set when both sales cite the
    same governing contract.
    """
    return _Facts(history).ina


def effective_interest_rate(principal: Quantity, repayment: Quantity, t: int) -> Quantity:
    """Annualized rate ((R - P) / P) * (365 / t), exact.

    Total division keeps the arithmetic closed, but a nonpositive principal
    or a zero duration is a caller error and raises.
    """
    if principal <= ZERO:
        raise NonpositivePrincipal(f"principal must be positive, got {principal}")
    if t <= 0:
        raise ZeroDuration(f"duration must be positive, got {t}")
    return total_div(repayment - principal, principal) * total_div(Quantity(365), Quantity(t))


# The facts of the last progression judged, swapped in whole as one
# (progression, facts) pair: judging one trace under several positions
# walks its history once, and a concurrent caller reads either the old
# pair or the new one, never a progression with another's facts.
_last_facts: Optional[tuple[Progression, _Facts]] = None


def _facts_of(progression: Progression) -> _Facts:
    global _last_facts
    last = _last_facts
    if last is None or last[0] is not progression:
        world = progression.world
        last = _last_facts = (progression, _Facts(world.history, progression.events, world))
    return last[1]


# ---------------------------------------------------------------------------
# rules and positions
# ---------------------------------------------------------------------------

@record
class Rule:
    """One named detector with the verdict it forces when it fires."""

    name: str
    detector: str
    verdict: Verdict = Verdict.HARAM


def _ina_evidence(rule: str, finding: InaFinding) -> Evidence:
    return Evidence(
        rule=rule,
        events=finding.events,
        contracts=finding.contracts,
        note=f"{finding.good_id} sold {finding.seller} -> {finding.buyer} and back"
             + (" under a single contract" if finding.single_contract else
                " under separate contracts"),
    )


# Each detector maps (rule name, facts of the progression) to the rule's
# evidence; a rule fires when its detector returns any.
DETECTORS: dict[str, Callable[[str, _Facts], tuple[Evidence, ...]]] = {
    "riba": lambda rule, facts: tuple(
        Evidence(rule=rule, events=f.events, contracts=(f.link,),
                 note=f"increment {f.increment} on principal {f.principal} "
                      f"over {f.duration} days")
        for f in facts.riba),
    "ethical-tags": lambda rule, facts: tuple(
        Evidence(rule=rule, events=(e.seq,),
                 note=", ".join(sorted(tag.value for tag in e.action.tags)))
        for e in facts.tagged),
    "ina": lambda rule, facts: tuple(_ina_evidence(rule, f) for f in facts.ina),
    "ina-single-contract": lambda rule, facts: tuple(
        _ina_evidence(rule, f) for f in facts.ina if f.single_contract),
    "loan-profile": lambda rule, facts: tuple(
        Evidence(rule=rule, events=refs, note=f"{agent}: {p} out, {r} back after {days} days")
        for agent, p, r, days, refs in facts.loan_profiles),
    "unvalued-goods": lambda rule, facts: (
        (Evidence(rule=rule, note=f"unvalued goods traded: {', '.join(facts.unvalued_goods)}"),)
        if facts.unvalued_goods else ()),
}


@record
class LegalPosition:
    name: str
    rules: tuple[Rule, ...]
    default: Verdict = Verdict.HALAL


# The judgement with no reasons per position name, built again for another
# default; a caller returns the one it checked, so a race cannot mix them up.
_cleared: dict[str, Judgement] = {}


def judge(position: LegalPosition, instance: ScenarioInstance, progression: Progression) -> Judgement:
    """Evaluate the position's rules in order; first match wins.

    Never raises on well-formed inputs: an empty rule set or no firing rule
    yields the position's default verdict with no reasons.
    """
    facts = _facts_of(progression)
    memo = facts.evidence
    for rule in position.rules:
        key = rule.detector, rule.name
        evidence = memo.get(key)
        if evidence is None:
            evidence = memo[key] = DETECTORS[rule.detector](rule.name, facts)
        if evidence:
            return Judgement(position=position.name, verdict=rule.verdict, reasons=evidence)
    cleared = _cleared.get(position.name)
    if cleared is None or cleared.verdict is not position.default:
        cleared = _cleared[position.name] = Judgement(position.name, position.default)
    return cleared


# built-in positions ---------------------------------------------------------

CONVENTIONAL = LegalPosition(name="CONVENTIONAL", rules=())

STRICT_DESCRIPTIVE = LegalPosition(
    name="STRICT_DESCRIPTIVE",
    rules=(
        Rule("riba", "riba"),
        Rule("ethical-tags", "ethical-tags"),
    ),
)

STRICT_FUNCTIONAL = LegalPosition(
    name="STRICT_FUNCTIONAL",
    rules=(Rule("interest-bearing-flow", "loan-profile"),),
)

MAJORITY = LegalPosition(
    name="MAJORITY",
    rules=(
        Rule("riba", "riba"),
        Rule("ethical-tags", "ethical-tags"),
        Rule("good-valuation-missing", "unvalued-goods", Verdict.UNDECIDED),
        Rule("same-item-round-trip", "ina"),
    ),
)

MALAYSIA = LegalPosition(
    name="MALAYSIA",
    rules=(
        Rule("riba", "riba"),
        Rule("ethical-tags", "ethical-tags"),
        Rule("good-valuation-missing", "unvalued-goods", Verdict.UNDECIDED),
        Rule("single-contract-round-trip", "ina-single-contract"),
    ),
)

BUILTIN_POSITIONS: dict[str, LegalPosition] = {
    p.name: p for p in (CONVENTIONAL, STRICT_DESCRIPTIVE, STRICT_FUNCTIONAL, MAJORITY, MALAYSIA)
}


codec_row(Rule, defaults={"name": None})
codec_row(LegalPosition, defaults={"rules": ()})


def position_from_dict(data: Mapping, path: str = "") -> LegalPosition:
    """Assemble a custom position from a scenario-file rule list; a rule
    without a name is named after its detector, and a detector not in
    ``DETECTORS`` is an error that names its JSON path."""
    position = value_from_dict(LegalPosition, data, path)
    for i, rule in enumerate(position.rules):
        if rule.detector not in DETECTORS:
            where = f"{path}.rules[{i}].detector" if path else f"rules[{i}].detector"
            raise ValueError(f"{where}: unknown detector {rule.detector!r}; "
                             f"known: {sorted(DETECTORS)}")
    return replace(position, rules=tuple(
        rule if rule.name is not None else replace(rule, name=rule.detector)
        for rule in position.rules))


def get_position(name: str, extra: Mapping[str, LegalPosition] | None = None) -> LegalPosition:
    if extra and name in extra:
        return extra[name]
    position = BUILTIN_POSITIONS.get(name)
    if position is None:
        known = sorted(set(BUILTIN_POSITIONS) | set(extra or ()))
        raise ValueError(f"unknown legal position {name!r}; known: {known}")
    return position
