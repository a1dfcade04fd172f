"""Pluggable legal positions judging contracts and progressions.

A position is a named, ordered list of rules evaluated first-match-wins
over a scenario instance and one of its progressions; with no match the
default verdict (permitted) applies. Judging is a pure function: same
inputs, same judgement, and every non-permitted verdict carries evidence
referencing event sequence numbers and contract ids.

Two analysis modes ship side by side:

  descriptive -- rules read contract structure and the concrete events
                 (declared proportional increments, same-item round trips,
                 ethical annotations);
  functional  -- rules read only the monetary flow projection (does some
                 agent's cash profile look like an interest-bearing loan,
                 regardless of how the paperwork describes it).

The built-in positions: CONVENTIONAL (no prohibitions), STRICT_DESCRIPTIVE,
STRICT_FUNCTIONAL, MAJORITY (descriptive + any same-item round trip is
forbidden), MALAYSIA (descriptive + only single-contract round trips are
forbidden). Custom positions can be assembled from the named detectors via
scenario files.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .engine import Progression
from .money import Quantity, ZERO, total_div
from .scenarios import ScenarioInstance
from .world import (ActionKind, ContractRecord, Event, HistoryLog, WorldState, codec_row,
                    value_from_dict)


class Verdict(str, Enum):
    HALAL = "halal"
    HARAM = "haram"
    UNDECIDED = "undecided"


class Mode(str, Enum):
    DESCRIPTIVE = "descriptive"
    FUNCTIONAL = "functional"


class NonpositivePrincipal(Exception):
    pass


class ZeroDuration(Exception):
    pass


@dataclass(frozen=True)
class Evidence:
    rule: str
    events: tuple[int, ...] = ()
    contracts: tuple[str, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "events": list(self.events),
            "contracts": list(self.contracts),
            "note": self.note,
        }


@dataclass(frozen=True)
class Judgement:
    position: str
    verdict: Verdict
    reasons: tuple[Evidence, ...] = ()

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "verdict": self.verdict.value,
            "reasons": [r.to_dict() for r in self.reasons],
        }


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

_PAY, _RECEIVE = ActionKind.PAY, ActionKind.RECEIVE_PAYMENT
_SPOT, _CREDIT = ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT


class _Facts:
    """What the detectors read of one history, gathered in one walk of it.

    The walk collects the sales by good, the money transfers by cited
    contract, the tagged events and, for ``events`` (a progression's own
    events, the tail of the history), the events that carry an amount and
    the net cash per (agent, day) of the flows ``cash_flows`` gives, as
    integers over one common denominator ``scale``. Each finding is
    derived from these once, when a rule first asks for it.
    """

    def __init__(self, history: HistoryLog, events: Sequence[Event] = (),
                 world: Optional[WorldState] = None):
        self.world = world
        self.sales: dict[str, list] = {}  # good -> [(event, seller, buyer, refs)]
        self.transfers: dict[str, list] = {}  # contract id -> [(event, payer, payee, amount)]
        self.tagged: list[Event] = []
        self.cash: list[Event] = []
        sums: dict[str, dict[int, int]] = {}  # agent -> day -> net cash times scale
        scale, tail = 1, len(history) - len(events)
        for i, event in enumerate(history):
            action = event.action
            if action.tags:
                self.tagged.append(event)
            kind = action.kind
            if kind is _PAY or kind is _CREDIT:
                payer, payee = action.actor, action.counterparty
            elif kind is _RECEIVE or kind is _SPOT:
                payer, payee = action.counterparty, action.actor
            else:
                continue
            refs = tuple(action.reason.contract_ids) if action.reason else ()
            amount = action.amount
            if kind is _SPOT or kind is _CREDIT:
                self.sales.setdefault(action.good_id, []).append((event, payee, payer, refs))
            elif amount is not None and amount.num:
                for cid in refs:
                    self.transfers.setdefault(cid, []).append((event, payer, payee, amount))
            if i >= tail:
                if amount is not None:
                    self.cash.append(event)
                paid = action.down_payment if kind is _CREDIT else amount
                if paid is None or paid.num <= 0:
                    continue
                if scale % paid.den:  # bring every sum to the new common denominator
                    grow = lcm(scale, paid.den) // scale
                    for per_day in sums.values():
                        for day in per_day:
                            per_day[day] *= grow
                    scale *= grow
                scaled, date = paid.num * (scale // paid.den), event.date
                per_day = sums.setdefault(payer, {})
                per_day[date] = per_day.get(date, 0) - scaled
                per_day = sums.setdefault(payee, {})
                per_day[date] = per_day.get(date, 0) + scaled
        if history[tail:] != events:  # a progression built by hand
            own = _Facts(events, events)
            sums, scale, self.cash = own.sums, own.scale, own.cash
        self.sums, self.scale = sums, scale

    @cached_property
    def riba(self) -> list[RibaFinding]:
        return _riba(self.world.contracts.values(), self.transfers)

    @cached_property
    def ina(self) -> list[InaFinding]:
        findings = []
        for good_id, chain in self.sales.items():
            for (first, seller, buyer, refs), (second, *back, refs2) in zip(chain, chain[1:]):
                if back == [buyer, seller]:
                    findings.append(InaFinding(
                        good_id=good_id, seller=seller, buyer=buyer,
                        single_contract=bool(set(refs) & set(refs2)),
                        events=(first.seq, second.seq),
                        contracts=tuple(sorted(set(refs) | set(refs2))),
                    ))
        return findings

    @cached_property
    def unvalued_goods(self) -> list[str]:
        """Goods that changed hands without a stated market value."""
        goods = self.world.goods
        return sorted(g for g in self.sales if g in goods and goods[g].market_value is None)

    @cached_property
    def loan_profiles(self) -> list[tuple[str, Quantity, Quantity, int, tuple[int, ...]]]:
        profiles, scale = [], self.scale
        for agent in sorted(self.sums):
            dated = sorted(cell for cell in self.sums[agent].items() if cell[1])
            if len(dated) != 2:
                continue
            (d0, v0), (d1, v1) = dated
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


def detect_riba(contracts: Mapping[str, ContractRecord] | Sequence[ContractRecord],
                history: HistoryLog) -> list[RibaFinding]:
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
    if isinstance(contracts, Mapping):
        contracts = contracts.values()
    records = [r for r in contracts if r.terms is not None and r.terms.rate > ZERO]
    return _riba(records, _Facts(history).transfers) if records else []


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


def loan_profiles(progression: Progression) -> list[tuple[str, Quantity, Quantity, int, tuple[int, ...]]]:
    """Agents whose net cash flow is 'money out first, more money back later'.

    Returns (agent, out_sum P, back_sum R, duration, event refs) for every
    agent with exactly two nonzero net-flow dates: negative then positive
    with a strictly positive gain. This is the functional shadow of an
    interest-bearing loan, whatever the contracts say.
    """
    return list(_facts_of(progression).loan_profiles)


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

@dataclass(frozen=True)
class Rule:
    """One named detector with the verdict it forces when it fires."""

    name: str
    detector: str
    verdict: Verdict = Verdict.HARAM

    def evaluate(self, facts: _Facts) -> Optional[tuple[Verdict, tuple[Evidence, ...]]]:
        evidence = DETECTORS[self.detector](self.name, facts)
        return (self.verdict, evidence) if evidence else None


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


@dataclass(frozen=True)
class LegalPosition:
    name: str
    mode: Mode
    rules: tuple[Rule, ...]
    default: Verdict = Verdict.HALAL


def judge(position: LegalPosition, instance: ScenarioInstance, progression: Progression) -> Judgement:
    """Evaluate the position's rules in order; first match wins.

    Never raises on well-formed inputs: an empty rule set or no firing rule
    yields the position's default verdict with no reasons.
    """
    for rule in position.rules:
        outcome = rule.evaluate(_facts_of(progression))
        if outcome is not None:
            verdict, evidence = outcome
            return Judgement(position=position.name, verdict=verdict, reasons=evidence)
    return Judgement(position=position.name, verdict=position.default)


# built-in positions ---------------------------------------------------------

CONVENTIONAL = LegalPosition(name="CONVENTIONAL", mode=Mode.DESCRIPTIVE, rules=())

STRICT_DESCRIPTIVE = LegalPosition(
    name="STRICT_DESCRIPTIVE", mode=Mode.DESCRIPTIVE,
    rules=(
        Rule("riba", "riba"),
        Rule("ethical-tags", "ethical-tags"),
    ),
)

STRICT_FUNCTIONAL = LegalPosition(
    name="STRICT_FUNCTIONAL", mode=Mode.FUNCTIONAL,
    rules=(Rule("interest-bearing-flow", "loan-profile"),),
)

MAJORITY = LegalPosition(
    name="MAJORITY", mode=Mode.DESCRIPTIVE,
    rules=(
        Rule("riba", "riba"),
        Rule("ethical-tags", "ethical-tags"),
        Rule("good-valuation-missing", "unvalued-goods", Verdict.UNDECIDED),
        Rule("same-item-round-trip", "ina"),
    ),
)

MALAYSIA = LegalPosition(
    name="MALAYSIA", mode=Mode.DESCRIPTIVE,
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


codec_row(Rule, "name detector verdict", defaults={"name": None})
codec_row(LegalPosition, "name mode rules default",
          defaults={"mode": Mode.DESCRIPTIVE, "rules": ()})


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
        raise KeyError(f"unknown legal position {name!r}; known: {known}")
    return position
