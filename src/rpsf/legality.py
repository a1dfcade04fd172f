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

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

from .engine import Progression
from .money import Quantity, ZERO, total_div
from .scenarios import ScenarioInstance
from .world import ActionKind, ContractRecord, HistoryLog, WorldState, codec_row, value_from_dict


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
# detectors
# ---------------------------------------------------------------------------

def _money_transfers(history: HistoryLog):
    """Yield (event, payer, payee, amount, cited contract ids)."""
    for event in history:
        action = event.action
        if action.amount is None or action.amount == ZERO:
            continue
        refs = tuple(action.reason.contract_ids) if action.reason else ()
        if action.kind == ActionKind.PAY:
            yield event, action.actor, action.counterparty, action.amount, refs
        elif action.kind == ActionKind.RECEIVE_PAYMENT:
            yield event, action.counterparty, action.actor, action.amount, refs


def detect_riba(contracts: Mapping[str, ContractRecord] | Sequence[ContractRecord],
                history: HistoryLog) -> list[RibaFinding]:
    """Interest findings: money out, more money back, one contract, q > 0.

    A finding needs both transfers in the history, between the same pair of
    agents in opposite directions, linked by a contract whose declared
    terms make the increment proportional to the principal. A repayment at
    or below the outgoing sum, or terms with a zero rate (fixed transaction
    costs only), yields nothing. Sale markups carry no declared rate and
    are therefore invisible to this detector.
    """
    if isinstance(contracts, Mapping):
        contracts = contracts.values()
    records = [r for r in contracts if r.terms is not None and r.terms.rate > ZERO]
    if not records:
        return []
    transfer_index: dict[str, list] = {}
    for entry in _money_transfers(history):
        for cid in entry[4]:
            transfer_index.setdefault(cid, []).append(entry)

    findings: list[RibaFinding] = []
    for record in records:
        linked = transfer_index.get(record.contract_id, [])
        for out_ev, payer, payee, out_amt, _ in linked:
            for back_ev, payer2, payee2, back_amt, _ in linked:
                if back_ev.seq <= out_ev.seq:
                    continue
                if payer2 != payee or payee2 != payer:
                    continue
                if back_amt - out_amt <= ZERO:
                    continue
                findings.append(RibaFinding(
                    principal=out_amt,
                    repayment=back_amt,
                    link=record.contract_id,
                    duration=back_ev.date - out_ev.date,
                    events=(out_ev.seq, back_ev.seq),
                ))
    return findings


def _sales(history: HistoryLog):
    """Yield (event, seller, buyer, good_id, governing contract ids)."""
    for event in history:
        action = event.action
        if action.kind == ActionKind.SPOT_SALE:
            refs = tuple(action.reason.contract_ids) if action.reason else ()
            yield event, action.actor, action.counterparty, action.good_id, refs
        elif action.kind == ActionKind.BUY_ON_CREDIT:
            refs = tuple(action.reason.contract_ids) if action.reason else ()
            yield event, action.counterparty, action.actor, action.good_id, refs


def detect_ina(history: HistoryLog) -> list[InaFinding]:
    """Same-item sale-repurchase findings.

    A finding for every good sold A -> B and then, with no intermediate
    owner, B -> A; the single-contract flag is set when both sales cite the
    same governing contract.
    """
    by_good: dict[str, list] = {}
    for entry in _sales(history):
        by_good.setdefault(entry[3], []).append(entry)
    findings: list[InaFinding] = []
    for good_id, chain in by_good.items():
        for first, second in zip(chain, chain[1:]):
            if first[1] == second[2] and first[2] == second[1]:
                shared = set(first[4]) & set(second[4])
                findings.append(InaFinding(
                    good_id=good_id,
                    seller=first[1],
                    buyer=first[2],
                    single_contract=bool(shared),
                    events=(first[0].seq, second[0].seq),
                    contracts=tuple(sorted(set(first[4]) | set(second[4]))),
                ))
    return findings


def detect_ethical_tags(history: HistoryLog) -> list[Evidence]:
    findings = []
    for event in history:
        if event.action.tags:
            findings.append(Evidence(
                rule="ethical-tags",
                events=(event.seq,),
                note=", ".join(sorted(tag.value for tag in event.action.tags)),
            ))
    return findings


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
    from .synthesis import cash_flows, net_positions

    nets = net_positions(cash_flows(progression.events))
    profiles = []
    for agent in sorted(nets):
        dated = sorted(nets[agent].items())
        if len(dated) != 2:
            continue
        (d0, v0), (d1, v1) = dated
        if v0 < ZERO < v1 and v1 + v0 > ZERO:
            refs = tuple(
                e.seq for e in progression.events
                if e.action.amount is not None
                and agent in (e.action.actor, e.action.counterparty)
                and e.action.kind in (ActionKind.PAY, ActionKind.RECEIVE_PAYMENT,
                                      ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT)
            )
            profiles.append((agent, -v0, v1, d1 - d0, refs))
    return profiles


def unvalued_goods(world: WorldState, history: HistoryLog) -> list[str]:
    """Goods that changed hands without a stated market value."""
    traded = {entry[3] for entry in _sales(history)}
    return sorted(
        g for g in traded
        if g in world.goods and world.goods[g].market_value is None
    )


# ---------------------------------------------------------------------------
# rules and positions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Context:
    instance: ScenarioInstance
    progression: Progression

    @property
    def history(self) -> HistoryLog:
        return self.progression.world.history

    @property
    def world(self) -> WorldState:
        return self.progression.world


@dataclass(frozen=True)
class Rule:
    """One named detector with the verdict it forces when it fires."""

    name: str
    detector: str
    verdict: Verdict = Verdict.HARAM

    def evaluate(self, ctx: _Context) -> Optional[tuple[Verdict, tuple[Evidence, ...]]]:
        evidence = DETECTORS[self.detector](self.name, ctx)
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


def _unvalued_evidence(rule: str, ctx: _Context) -> tuple[Evidence, ...]:
    goods = unvalued_goods(ctx.world, ctx.history)
    if not goods:
        return ()
    return (Evidence(rule=rule, note=f"unvalued goods traded: {', '.join(goods)}"),)


# Each detector maps (rule name, context) to the rule's evidence; a rule
# fires when its detector returns any.
DETECTORS: dict[str, Callable[[str, _Context], tuple[Evidence, ...]]] = {
    "riba": lambda rule, ctx: tuple(
        Evidence(rule=rule, events=f.events, contracts=(f.link,),
                 note=f"increment {f.increment} on principal {f.principal} "
                      f"over {f.duration} days")
        for f in detect_riba(ctx.world.contracts, ctx.history)),
    "ethical-tags": lambda rule, ctx: tuple(
        Evidence(rule=rule, events=f.events, note=f.note)
        for f in detect_ethical_tags(ctx.history)),
    "ina": lambda rule, ctx: tuple(_ina_evidence(rule, f) for f in detect_ina(ctx.history)),
    "ina-single-contract": lambda rule, ctx: tuple(
        _ina_evidence(rule, f) for f in detect_ina(ctx.history) if f.single_contract),
    "loan-profile": lambda rule, ctx: tuple(
        Evidence(rule=rule, events=refs, note=f"{agent}: {p} out, {r} back after {days} days")
        for agent, p, r, days, refs in loan_profiles(ctx.progression)),
    "unvalued-goods": _unvalued_evidence,
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
    ctx = _Context(instance=instance, progression=progression)
    for rule in position.rules:
        outcome = rule.evaluate(ctx)
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
