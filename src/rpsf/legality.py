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
from .world import (CASH_LEGS, ActionKind, Event, HistoryLog, WorldState, codec_row, net_cells,
                    value_from_dict)


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


@record
class Judgement:
    position: str
    verdict: Verdict
    reasons: tuple[Evidence, ...] = ()


codec_row(Evidence)
codec_row(Judgement)


# ---------------------------------------------------------------------------
# facts and detectors
# ---------------------------------------------------------------------------

_SALES = (ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT)


class _Facts:
    """What the detectors read of one history, gathered in one walk of it.

    The walk reads who pays whom from ``world.CASH_LEGS``. It collects the
    sales by good, the money transfers by cited contract, the tagged events
    and, for ``events`` (a progression's own events, the tail of the
    history), the events that carry an amount and their cash, netted by
    ``world.net_cells`` into ``sums`` over ``scale``, and the round trips in
    ``ina``. Each other finding is derived by the one detector that reads
    it, and ``judge`` keeps each rule's evidence once per (detector, rule
    name), in ``evidence``.
    """

    __slots__ = ("world", "evidence", "sales", "transfers", "tagged", "cash", "scale", "sums",
                 "ina")

    def __init__(self, history: HistoryLog, events: Sequence[Event], world: WorldState):
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
            own = _Facts(events, events, world)
            self.sums, self.scale, self.cash = own.sums, own.scale, own.cash
        self.ina = _ina(self.sales)

    def unvalued_goods(self) -> list[str]:
        """Goods that changed hands without a stated market value."""
        goods = self.world.goods
        return sorted(g for g in self.sales if g in goods and goods[g].market_value is None)

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


def _ina(sales: Mapping[str, list]) -> list[tuple[bool, tuple[int, int], tuple[str, ...], str]]:
    """Same-item round trips, as (single contract, events, contracts, note).

    One for every good sold A -> B and then, with no intermediate owner,
    B -> A; the single-contract flag is set when both sales cite the same
    governing contract.
    """
    found = []
    for good_id, chain in sales.items():
        for (first, seller, buyer, refs), (second, back_seller, back_buyer, back_refs) \
                in zip(chain, chain[1:]):
            if back_seller == buyer and back_buyer == seller:
                single = bool(refs and back_refs) and not set(refs).isdisjoint(back_refs)
                found.append((single, (first.seq, second.seq),
                              tuple(sorted({*refs, *back_refs})) if refs or back_refs else (),
                              f"{good_id} sold {seller} -> {buyer} and back under "
                              + ("a single contract" if single else "separate contracts")))
    return found


def _riba(rule: str, contracts, transfers: Mapping[str, list]) -> tuple[Evidence, ...]:
    """Interest evidence, matched by a ledger per contract whose declared
    terms carry a positive rate.

    Only transfers that cite the contract enter its ledger. A transfer
    opens principal from payer to payee, unless principal is open the
    other way: then it closes the oldest open principal first, and it is
    evidence when it returns more than it closes. So a loan repaid with
    interest in installments gives one finding, at the installment that
    passes the principal, and each repayment gives at most one. Terms
    with a zero rate (fixed transaction costs only) yield nothing; sale
    markups carry no declared rate and are invisible to this detector.
    """
    found = []
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
                found.append(Evidence(
                    rule=rule, events=(opened.seq, event.seq), contracts=(record.contract_id,),
                    note=f"increment {amount - closed} on principal {closed} "
                         f"over {event.date - opened.date} days"))
    return tuple(found)


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


# Each detector maps (rule name, facts of the progression) to the rule's
# evidence; a rule fires when its detector returns any.
DETECTORS: dict[str, Callable[[str, _Facts], tuple[Evidence, ...]]] = {
    "riba": lambda rule, facts: _riba(rule, facts.world.contracts.values(), facts.transfers),
    "ethical-tags": lambda rule, facts: tuple(
        Evidence(rule=rule, events=(e.seq,),
                 note=", ".join(sorted(tag.value for tag in e.action.tags)))
        for e in facts.tagged),
    "ina": lambda rule, facts: tuple(Evidence(rule, *found) for _, *found in facts.ina),
    "ina-single-contract": lambda rule, facts: tuple(
        Evidence(rule, *found) for single, *found in facts.ina if single),
    "loan-profile": lambda rule, facts: tuple(
        Evidence(rule=rule, events=refs, note=f"{agent}: {p} out, {r} back after {days} days")
        for agent, p, r, days, refs in facts.loan_profiles()),
    "unvalued-goods": lambda rule, facts: (
        (Evidence(rule=rule, note=f"unvalued goods traded: {', '.join(goods)}"),)
        if (goods := facts.unvalued_goods()) else ()),
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

# STRICT_DESCRIPTIVE's rules, which MAJORITY and MALAYSIA extend, and the
# rule those two share for goods traded without a stated value.
_DESCRIPTIVE = (Rule("riba", "riba"), Rule("ethical-tags", "ethical-tags"))
_VALUATION = Rule("good-valuation-missing", "unvalued-goods", Verdict.UNDECIDED)

STRICT_DESCRIPTIVE = LegalPosition(name="STRICT_DESCRIPTIVE", rules=_DESCRIPTIVE)

STRICT_FUNCTIONAL = LegalPosition(
    name="STRICT_FUNCTIONAL",
    rules=(Rule("interest-bearing-flow", "loan-profile"),),
)

MAJORITY = LegalPosition(
    name="MAJORITY",
    rules=(*_DESCRIPTIVE, _VALUATION, Rule("same-item-round-trip", "ina")),
)

MALAYSIA = LegalPosition(
    name="MALAYSIA",
    rules=(*_DESCRIPTIVE, _VALUATION, Rule("single-contract-round-trip", "ina-single-contract")),
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
