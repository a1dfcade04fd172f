"""Monetary flow abstraction, trace equivalence, and bounded synthesis search.

The monetary projection strips a progression down to its cash movements:
a multiset of (payer, payee, amount, date) entries. Two progressions are
equivalent from a perspective when the signed net cash per (agent, day) is
identical over the perspective's agents - exactly, no tolerance; fee
differences between intermediaries are handled by narrowing the
perspective, never by fuzz.

The synthesis search asks whether a target flow profile can be rebuilt
from a catalogue of permissible primitives. Depth-first enumeration over
grounded primitive instances; the search state is only what a trade
changes - who owns each good, the net cash per (agent, day) as integers
over the common denominator of the target's amounts, the settlements still
due, and the counts of mismatched perspective cells and of goods away from
home, which a trade updates for the two cells and the one good it touches.
A state's candidate moves are built once per call and shared by every
state with the same owners, used agents, prepared count and depth. A witness is a sequence whose projection is
equivalent to the target and whose goods all return to their initial
owners. Each witness is re-executed through the engine on first read of
its progression. Exhaustion within the bound makes found=False a
bound-relative non-existence certificate.

Grounding (disclosed in SynthesisResult.grounding): trade prices come from
the target's amount set; every primitive executes at the inception date,
and only credit-sale settlements fall later, on the target's own future
dates - which is why spot sales alone cannot defer payment; at most one
good is prepared (a pre-owned good is provided instead when preparation is
not in the catalogue); non-perspective agents enter in canonical order
(role symmetry); coordination actions (inform, contract preparation and
signing) produce no flows, so sequences differing only by them are folded
into their trade skeletons.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .engine import BoundExceeded, Do, Plan, Progression, RoundRobin, run
from .money import Quantity, ZERO
from .scenarios import Part, ScenarioInstance, compose, instance_to_dict, payment, wait
from .world import (
    Action,
    ActionKind,
    Agent,
    Event,
    Good,
    GoodSpec,
    Reason,
    Role,
    ValidationError,
    WorldState,
    action_to_dict,
    apply_event,  # noqa: F401  unused; perfbench/test_perfbench.py wraps this binding
    make_world,
)

ALL_AGENTS = "all"

DESK_SCALE_LIMIT = 8

# goods a search may prepare; grounding discloses it
MAX_PREPARED_GOODS = 1


@dataclass(frozen=True, slots=True)
class Flow:
    payer: str
    payee: str
    amount: Quantity
    date: int

    def to_dict(self) -> dict:
        return {"payer": self.payer, "payee": self.payee,
                "amount": str(self.amount), "date": self.date}


FlowTrace = tuple[Flow, ...]


def canonical(flows: Iterable[Flow]) -> FlowTrace:
    return tuple(sorted(flows, key=lambda f: (f.date, f.payer, f.payee, f.amount)))


def cash_flows(events: Iterable[Event]) -> Iterator[Flow]:
    """The cash-moving events as flows, in event order.

    Payments, receipts, spot-sale settlements and credit-sale down payments
    appear at their event dates; deferred credit legs appear through the
    explicit settlement payments that discharge them, at their due dates.
    Zero-sum entries are omitted (amounts in a trace are positive).
    """
    for event in events:
        action = event.action
        kind = action.kind
        if kind == ActionKind.PAY:
            amount, payer, payee = action.amount, action.actor, action.counterparty
        elif kind == ActionKind.RECEIVE_PAYMENT or kind == ActionKind.SPOT_SALE:
            amount, payer, payee = action.amount, action.counterparty, action.actor
        elif kind == ActionKind.BUY_ON_CREDIT:
            amount, payer, payee = action.down_payment, action.actor, action.counterparty
        else:
            continue
        if amount is not None and amount.num > 0:
            yield Flow(payer, payee, amount, event.date)


def monetary_projection(progression: Progression) -> FlowTrace:
    """Cash-moving events (see ``cash_flows``) as a canonical flow trace;
    everything else drops."""
    return canonical(cash_flows(progression.events))


def net_positions(trace: Iterable[Flow]) -> dict[str, dict[int, Quantity]]:
    """Signed net cash per agent per day; zero entries are dropped.

    Agents and days appear in the order the flows first name them. The sums
    are integers over the least common denominator of the amounts, and one
    Quantity is built per nonzero (agent, day). Summing any day's entries
    over all agents gives zero: payments conserve money by construction.
    """
    flows = tuple(trace)
    scale = 1
    for flow in flows:
        scale = lcm(scale, flow.amount.den)
    sums: dict[str, dict[int, int]] = {}
    for flow in flows:
        amount, date = flow.amount, flow.date
        scaled = amount.num * (scale // amount.den)
        per_day = sums.setdefault(flow.payer, {})
        per_day[date] = per_day.get(date, 0) - scaled
        per_day = sums.setdefault(flow.payee, {})
        per_day[date] = per_day.get(date, 0) + scaled
    nets: dict[str, dict[int, Quantity]] = {}
    for agent, per_day in sums.items():
        kept = {date: Quantity(total, scale) for date, total in per_day.items() if total}
        if kept:
            nets[agent] = kept
    return nets


def check_perspective(perspective, agents: Iterable[str]) -> None:
    """Reject an empty perspective and names that are not among ``agents``;
    "all" passes.

    An empty perspective, or a name outside the agents, has no flows, so it
    would make any two traces equivalent from its point of view.
    """
    if perspective == ALL_AGENTS:
        return
    names = _perspective_agents(perspective)
    known = set(agents)
    for name in names:
        if name not in known:
            raise ValueError(f"unknown perspective agent {name!r}; "
                             f"known agents: {sorted(known)}")


def _perspective_agents(perspective: Iterable[str]) -> tuple[str, ...]:
    """The perspective's names in the order given, read once."""
    names = tuple(perspective)
    if not names:
        raise ValueError("empty perspective: name at least one agent, or 'all'")
    return names


def equivalent(a: FlowTrace, b: FlowTrace, perspective=ALL_AGENTS) -> bool:
    """Exact per-(agent, day) net equality over the perspective.

    ``perspective`` is either the string "all" (every agent appearing in
    either trace, plus a per-date conservation check on both sides) or a
    nonempty iterable of agent names to restrict to; an empty one is a
    ValueError.

    It sees flows, not agents: a name that appears in neither trace has no
    nets on either side, so it compares equal. The CLI checks the names
    against both products' agents (``check_perspective``) before calling.
    """
    nets_a, nets_b = net_positions(a), net_positions(b)
    if perspective == ALL_AGENTS:
        agents = set(nets_a) | set(nets_b)
        for trace_nets in (nets_a, nets_b):
            by_date: dict[int, Quantity] = {}
            for per_day in trace_nets.values():
                for d, v in per_day.items():
                    by_date[d] = by_date.get(d, ZERO) + v
            if any(v != ZERO for v in by_date.values()):
                return False
    else:
        agents = _perspective_agents(perspective)
    return all(nets_a.get(agent, {}) == nets_b.get(agent, {}) for agent in agents)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

TRADE_PRIMITIVES = ("spot-sale", "credit-sale", "prepare-good")
COORDINATION_PRIMITIVES = ("prepare-contract", "sign-contract", "inform")
PRIMITIVES = TRADE_PRIMITIVES + COORDINATION_PRIMITIVES

_PRIMITIVE_ALIASES = {
    "spotsale": "spot-sale", "spot_sale": "spot-sale", "spot": "spot-sale",
    "creditsale": "credit-sale", "credit_sale": "credit-sale", "credit": "credit-sale",
    "preparegood": "prepare-good", "prepare_good": "prepare-good",
    "preparecontract": "prepare-contract", "prepare_contract": "prepare-contract",
    "contracts": "prepare-contract", "signcontract": "sign-contract",
    "sign_contract": "sign-contract", "inform": "inform",
}


def normalize_catalogue(names: Iterable[str]) -> frozenset[str]:
    out = set()
    for name in names:
        key = name.strip().lower()
        key = _PRIMITIVE_ALIASES.get(key.replace("-", "_"), _PRIMITIVE_ALIASES.get(key, key))
        if key == "prepare-contract" and name.strip().lower() == "contracts":
            out.update({"prepare-contract", "sign-contract"})
            continue
        if key not in PRIMITIVES:
            raise ValueError(f"unknown primitive {name!r}; known: {PRIMITIVES}")
        out.add(key)
    return frozenset(out)


@dataclass(frozen=True)
class Witness:
    """A found sequence; its progression is replayed on first read, then kept."""

    actions: tuple[Action, ...]
    origin: tuple[WorldState, _SearchState] = field(repr=False, compare=False)

    @cached_property
    def progression(self) -> Progression:
        return _replay_witness(*self.origin)

    def to_dict(self) -> dict:
        return {"actions": [action_to_dict(a) for a in self.actions]}


@dataclass(frozen=True)
class SynthesisResult:
    found: bool
    witnesses: tuple[Witness, ...]
    explored: int
    bound: int
    grounding: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "witness_count": len(self.witnesses),
            "witnesses": [w.to_dict() for w in self.witnesses],
            "explored": self.explored,
            "bound": self.bound,
            "grounding": dict(self.grounding),
        }


@dataclass(frozen=True, slots=True)
class _Frame:
    """What every state of one search shares: the common denominator of the
    target's amounts, the target's perspective cells as integers over it,
    and the perspective."""

    scale: int
    target: dict[tuple[str, int], int]
    perspective: frozenset[str]


@dataclass(slots=True)
class _SearchState:
    frame: _Frame
    owners: dict[str, str]  # good id -> owner
    home: dict[str, str]  # good id -> the owner it must end with
    nets: dict[tuple[str, int], int]  # (agent, day) -> net cash x frame.scale; no zeros
    mismatch: int  # perspective cells where nets and frame.target differ
    displaced: int  # goods whose owner is not their home
    pending: tuple[tuple[str, str, Quantity, int, str], ...]  # payer, payee, amount, due, settle id
    used: frozenset[str]
    prepared: int
    actions: tuple[Action, ...]


def synthesize(
    target: FlowTrace,
    catalogue: Iterable[str],
    agents: Sequence[str] = ("X", "Y", "Z"),
    bound: int = 6,
    perspective=None,
) -> SynthesisResult:
    """Bounded search for primitive sequences flow-equivalent to the target.

    ``perspective`` defaults to the first agent. Witness validity = flow
    equivalence over the perspective plus every good ending where it
    started (the asset must make a round trip). Exhaustive over the
    grounded trade skeleton space up to ``bound``, so found=False certifies
    non-existence relative to the bound and the disclosed grounding. An
    empty perspective, or a name that is not among ``agents``, is a
    ValueError.

    The search state is the goods' owners plus the integer nets, the
    pending settlements and the carried mismatch and displaced counts; no
    trial trade touches a ``WorldState``. A witness's ``progression`` is
    replayed through ``run`` on its first read.
    """
    if bound > DESK_SCALE_LIMIT:
        raise BoundExceeded(f"bound {bound} exceeds desk-scale limit {DESK_SCALE_LIMIT}")
    if bound < 0:
        raise BoundExceeded("bound must be nonnegative")
    if len(agents) < 2:
        raise ValueError("need at least two agents")
    kinds = normalize_catalogue(catalogue)
    if perspective is None:
        persp = frozenset([agents[0]])
    elif perspective == ALL_AGENTS:
        persp = frozenset(agents)
    else:
        names = _perspective_agents(perspective)
        check_perspective(names, agents)
        persp = frozenset(names)

    amounts = tuple(sorted({f.amount for f in target}))
    future_dates = tuple(sorted({f.date for f in target if f.date > 0}))
    # every trade price is a target amount, so the search's nets are integers
    # over the lcm of the amounts' denominators
    scale = 1
    for amount in amounts:
        scale = lcm(scale, amount.den)
    target_cells = {(agent, day): value.num * (scale // value.den)
                    for agent, per_day in net_positions(target).items() if agent in persp
                    for day, value in per_day.items()}
    frame = _Frame(scale=scale, target=target_cells, perspective=persp)

    roles = [Role.PERSON, Role.BANK] + [Role.COMPANY] * (len(agents) - 2)
    endowment = Quantity(0)
    for amount in amounts:
        endowment = endowment + amount
    endowment = endowment * max(bound, 1)
    # the traded good is worth the largest amount, in blocks that divide it
    good_value = amounts[-1] if amounts else Quantity(1)
    block = Quantity(1, good_value.den)
    goods = []
    trade_possible = bool(kinds & {"spot-sale", "credit-sale"})
    if "prepare-good" not in kinds and trade_possible:
        goods.append(Good(good_id="g0", kind="asset", owner=agents[1],
                          market_value=good_value, block_size=block))
    world0 = make_world(
        agents=[Agent(name, roles[i]) for i, name in enumerate(agents)],
        balances={name: endowment for name in agents},
        goods=goods,
    )
    # no trial trade reaches apply_event, which would reject a negative price
    if amounts and amounts[0] < ZERO:
        raise ValidationError("sums must be nonnegative")
    home = {g.good_id: g.owner for g in goods}
    used0 = frozenset(persp | {g.owner for g in goods})
    # a trade moves cash for two agents at one date, so it can fix at most
    # one mismatched cell per perspective agent (max two overall)
    per_action = 1 if len(persp) == 1 else 2

    explored = 0
    witnesses: list[Witness] = []
    # the candidate moves of a state, by everything ``candidates`` reads:
    # owners (goods enter in id order), used agents, prepared count and
    # depth (which names a credit sale's settlement contract)
    moves: dict[tuple, tuple[Action, ...]] = {}
    settlements: dict[tuple, Action] = {}

    def next_fresh(used: frozenset[str]) -> Optional[str]:
        for name in agents:
            if name not in used:
                return name
        return None

    def allowed_participants(used: frozenset[str], names: Iterable[str]) -> bool:
        fresh = next_fresh(used)
        for name in names:
            if name not in used and name != fresh:
                return False
        return True

    def candidates(state: _SearchState):
        owners = state.owners
        if "prepare-good" in kinds and state.prepared < MAX_PREPARED_GOODS:
            for owner in agents:
                if not allowed_participants(state.used, [owner]):
                    continue
                gid = f"g{len(owners)}"
                yield Action(kind=ActionKind.PREPARE_GOOD, actor=owner, good_id=gid,
                             good_spec=GoodSpec(kind="asset", market_value=good_value,
                                                block_size=block))
        for gid in sorted(owners):
            owner = owners[gid]
            for buyer in agents:
                if buyer == owner or not allowed_participants(state.used, [owner, buyer]):
                    continue
                if "spot-sale" in kinds:
                    for price in amounts:
                        yield Action(kind=ActionKind.SPOT_SALE, actor=owner,
                                     counterparty=buyer, amount=price, good_id=gid)
                if "credit-sale" in kinds:
                    for price in amounts:
                        for due in future_dates:
                            yield Action(kind=ActionKind.BUY_ON_CREDIT, actor=buyer,
                                         counterparty=owner, amount=price,
                                         down_payment=ZERO, due_date=due, good_id=gid,
                                         contract_id=f"settle-{len(state.actions)}")

    def dfs(state: _SearchState) -> None:
        nonlocal explored
        explored += 1
        mismatch, displaced = state.mismatch, state.displaced
        if not mismatch and not displaced:
            witnesses.append(Witness(actions=_full_sequence(state, settlements),
                                     origin=(world0, state)))
        depth = len(state.actions)
        remaining = bound - depth
        if remaining == 0 or max(-(-mismatch // per_action), displaced) > remaining:
            return
        key = (tuple(state.owners.items()), state.used, state.prepared, depth)
        children = moves.get(key)
        if children is None:
            children = moves[key] = tuple(candidates(state))
        for action in children:
            dfs(_successor(state, action))

    dfs(_SearchState(frame=frame, owners=dict(home), home=home, nets={},
                     mismatch=len(target_cells), displaced=0, pending=(), used=used0,
                     prepared=0, actions=()))

    grounding = {
        "amounts": [str(a) for a in amounts],
        "settlement_dates": list(future_dates),
        "inception_date": 0,
        "max_prepared_goods": MAX_PREPARED_GOODS,
        "agent_symmetry": "non-perspective agents enter in a fixed canonical order",
        "coordination_actions": sorted(kinds & set(COORDINATION_PRIMITIVES)),
        "coordination_note": "flow-inert actions are folded into trade skeletons",
    }
    return SynthesisResult(
        found=bool(witnesses),
        witnesses=tuple(witnesses),
        explored=explored,
        bound=bound,
        grounding=grounding,
    )


def _successor(state: _SearchState, action: Action) -> _SearchState:
    """The search state after one trial step; no ``WorldState`` is touched.

    A trade changes one good's owner and two cells of the nets, so only
    those update the carried ``displaced`` and ``mismatch`` counts.
    """
    owners = dict(state.owners)
    actions = state.actions + (action,)
    gid, kind, used = action.good_id, action.kind, state.used
    if kind is ActionKind.PREPARE_GOOD:
        owners[gid] = action.actor
        home = dict(state.home)
        home[gid] = action.actor
        return _SearchState(state.frame, owners, home, state.nets, state.mismatch,
                            state.displaced, state.pending, used | {action.actor},
                            state.prepared + 1, actions)
    if kind is ActionKind.SPOT_SALE:  # the actor sells for cash now
        seller, buyer, date = action.actor, action.counterparty, 0
        pending = state.pending
    else:  # the actor buys on credit: cash moves at the due date via settlement
        buyer, seller, date = action.actor, action.counterparty, action.due_date
        pending = state.pending + ((buyer, seller, action.amount, date, action.contract_id),)
    owners[gid] = buyer
    home_owner = state.home[gid]
    displaced = state.displaced + (buyer != home_owner) - (seller != home_owner)
    if buyer not in used or seller not in used:
        used = used | {buyer, seller}
    frame = state.frame
    price = action.amount
    scaled = price.num * (frame.scale // price.den)
    nets = dict(state.nets)
    mismatch = state.mismatch
    for agent, delta in ((buyer, -scaled), (seller, scaled)):
        cell = (agent, date)
        old = nets.get(cell, 0)
        new = old + delta
        if new:
            nets[cell] = new
        elif old:
            del nets[cell]
        if agent in frame.perspective:
            want = frame.target.get(cell, 0)
            mismatch += (new != want) - (old != want)
    return _SearchState(frame, owners, state.home, nets, mismatch, displaced, pending,
                        used, state.prepared, actions)


def _full_sequence(state: _SearchState,
                   settlements: dict[tuple, Action]) -> tuple[Action, ...]:
    """The state's trades, then one payment per pending settlement in due
    order; ``settlements`` keeps the payment built for each pending entry."""
    sequence = state.actions
    for entry in sorted(state.pending, key=lambda p: (p[3], p[4])):
        payment = settlements.get(entry)
        if payment is None:
            payer, payee, amount, _, settle_id = entry
            payment = settlements[entry] = Action(
                kind=ActionKind.PAY, actor=payer, counterparty=payee, amount=amount,
                reason=Reason(contract_ids=(settle_id,)))
        sequence += (payment,)
    return sequence


def _replay_witness(world0: WorldState, state: _SearchState) -> Progression:
    """Re-execute a witness through the engine for the official progression."""
    plans = witness_plans(state.actions, state.pending)
    horizon = max([due for _, _, _, due, _ in state.pending], default=0)
    return run(world0, plans, RoundRobin(), horizon=horizon)


def witness_plans(actions: Sequence[Action],
                  pending: Sequence[tuple[str, str, Quantity, int, str]]) -> tuple[Plan, ...]:
    """Turn a witness action sequence into per-agent plans.

    Cross-agent order is preserved by waiting on the previous action's
    event; each step carries a unique step tag in its message field so
    repeated identical trades cannot release a wait early. Settlement
    payments wait for their due dates.
    """
    parts: list[Part] = []
    prev: Optional[Action] = None
    for index, action in enumerate(actions):
        tagged = dc_replace(action, message=f"step-{index + 1}")
        if prev is not None and prev.actor != tagged.actor:
            parts.append(wait(tagged.actor, kind=prev.kind, actor=prev.actor,
                              message=prev.message))
        parts.append([(tagged.actor, Do(tagged))])
        prev = tagged
    for payer, payee, amount, due, settle_id in sorted(
            pending, key=lambda p: (p[3], p[4])):
        parts.append(payment(payer, payee, amount, settle_id, day=due))
    return compose(sorted({agent for part in parts for agent, _ in part}), *parts)


def witness_scenario(result: SynthesisResult, index: int,
                     agents: Sequence[str] = ("X", "Y", "Z")) -> dict:
    """Render one witness as scenario-file text, re-runnable as a scenario."""
    witness = result.witnesses[index]
    trades = tuple(a for a in witness.actions if a.kind != ActionKind.PAY)
    pending = tuple(
        (a.actor, a.counterparty, a.amount - (a.down_payment or ZERO), a.due_date,
         a.contract_id)
        for a in trades if a.kind == ActionKind.BUY_ON_CREDIT
    )
    plans = witness_plans(trades, pending)
    world = witness.progression.world
    initial_goods = []
    seen_prepared = {a.good_id for a in trades if a.kind == ActionKind.PREPARE_GOOD}
    for gid in sorted(world.goods):
        if gid not in seen_prepared:
            good = world.goods[gid]
            initial_goods.append(good)
    endowments = {}
    for agent in sorted(world.agents):
        endowments[agent] = _required_endowment(agent, witness.progression)
    first_owner = {g.good_id: g.owner for g in initial_goods}
    initial = make_world(
        agents=[world.agents[a] for a in sorted(world.agents)],
        balances=endowments,
        goods=[Good(g.good_id, g.kind, first_owner[g.good_id], g.market_value,
                    g.block_size, g.is_money) for g in initial_goods],
    )
    instance = ScenarioInstance(
        name=f"witness-{index}", params={}, world=initial, plans=plans,
        principals=tuple(agents[:1]),
        horizon=max([p[3] for p in pending], default=0),
    )
    return instance_to_dict(instance)


def _required_endowment(agent: str, progression: Progression) -> Quantity:
    """Smallest opening balance that keeps the agent solvent along the trace.

    Within a day, outflows are counted before inflows: the replay order
    inside one date is not pinned down, so the bound must survive the
    worst one.
    """
    balance = ZERO
    worst = ZERO
    flows = sorted(monetary_projection(progression),
                   key=lambda f: (f.date, 0 if f.payer == agent else 1))
    for flow in flows:
        if flow.payer == agent:
            balance = balance - flow.amount
        elif flow.payee == agent:
            balance = balance + flow.amount
        if balance < worst:
            worst = balance
    return -worst
