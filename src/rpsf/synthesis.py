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
changes - who owns each good, the net cash per (agent, day) and the
settlements still due - and a witness is a sequence whose projection is
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
from typing import Iterable, Mapping, Optional, Sequence

from .engine import BoundExceeded, Do, Plan, Progression, RoundRobin, WaitFor, run
from .money import Quantity, ZERO
from .world import (
    Action,
    ActionKind,
    ActionTemplate,
    Agent,
    AfterEvent,
    ByDate,
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


def monetary_projection(progression: Progression) -> FlowTrace:
    """Cash-moving events as a canonical flow trace; everything else drops.

    Payments, receipts, spot-sale settlements and credit-sale down payments
    appear at their event dates; deferred credit legs appear through the
    explicit settlement payments that discharge them, at their due dates.
    Zero-sum entries are omitted (amounts in a trace are positive).
    """
    flows: list[Flow] = []
    for event in progression.events:
        action = event.action
        amount = action.amount
        if action.kind == ActionKind.PAY and amount and amount > ZERO:
            flows.append(Flow(action.actor, action.counterparty, amount, event.date))
        elif action.kind == ActionKind.RECEIVE_PAYMENT and amount and amount > ZERO:
            flows.append(Flow(action.counterparty, action.actor, amount, event.date))
        elif action.kind == ActionKind.SPOT_SALE and amount and amount > ZERO:
            flows.append(Flow(action.counterparty, action.actor, amount, event.date))
        elif action.kind == ActionKind.BUY_ON_CREDIT:
            down = action.down_payment
            if down and down > ZERO:
                flows.append(Flow(action.actor, action.counterparty, down, event.date))
    return canonical(flows)


def net_positions(trace: FlowTrace) -> dict[str, dict[int, Quantity]]:
    """Signed net cash per agent per day; zero entries are dropped.

    Summing any day's entries over all agents gives zero: payments conserve
    money by construction.
    """
    nets: dict[str, dict[int, Quantity]] = {}
    for flow in trace:
        for agent, sign in ((flow.payer, -1), (flow.payee, 1)):
            per_day = nets.setdefault(agent, {})
            per_day[flow.date] = per_day.get(flow.date, ZERO) + flow.amount * sign
    for agent in list(nets):
        nets[agent] = {d: v for d, v in nets[agent].items() if v != ZERO}
        if not nets[agent]:
            del nets[agent]
    return nets


def equivalent(a: FlowTrace, b: FlowTrace, perspective=ALL_AGENTS) -> bool:
    """Exact per-(agent, day) net equality over the perspective.

    ``perspective`` is either the string "all" (every agent appearing in
    either trace, plus a per-date conservation check on both sides) or an
    iterable of agent names to restrict to.
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
        agents = set(perspective)
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


@dataclass
class _SearchState:
    owners: dict[str, str]  # good id -> owner
    nets: dict[str, dict[int, Quantity]]
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
    non-existence relative to the bound and the disclosed grounding.

    The search state is the goods' owners plus the nets (and the pending
    settlements); no trial trade touches a ``WorldState``. A witness's
    ``progression`` is replayed through ``run`` on its first read.
    """
    if bound > DESK_SCALE_LIMIT:
        raise BoundExceeded(f"bound {bound} exceeds desk-scale limit {DESK_SCALE_LIMIT}")
    if bound < 0:
        raise BoundExceeded("bound must be nonnegative")
    if len(agents) < 2:
        raise ValueError("need at least two agents")
    kinds = normalize_catalogue(catalogue)
    persp: frozenset[str] = frozenset([agents[0]] if perspective is None else (
        set(agents) if perspective == ALL_AGENTS else set(perspective)))

    amounts = tuple(sorted({f.amount for f in target}))
    future_dates = tuple(sorted({f.date for f in target if f.date > 0}))
    target_nets = {a: dict(d) for a, d in net_positions(target).items()}

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

    explored = 0
    witnesses: list[Witness] = []

    def cells_mismatch(nets) -> int:
        count = 0
        for agent in (persp if persp else set(target_nets) | set(nets)):
            mine = nets.get(agent, {})
            theirs = target_nets.get(agent, {})
            for d in set(mine) | set(theirs):
                if mine.get(d, ZERO) != theirs.get(d, ZERO):
                    count += 1
        return count

    def displaced(owners: dict[str, str]) -> int:
        return sum(1 for gid, owner in home.items() if owners[gid] != owner)

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

    def record_witness(state: _SearchState) -> None:
        witnesses.append(Witness(actions=_full_sequence(state), origin=(world0, state)))

    def dfs(state: _SearchState) -> None:
        nonlocal explored
        explored += 1
        mismatch = cells_mismatch(state.nets)
        moved = displaced(state.owners)
        if mismatch == 0 and moved == 0:
            record_witness(state)
        remaining = bound - len(state.actions)
        if remaining == 0:
            return
        # a trade moves cash for two agents at one date, so it can fix at
        # most one mismatched cell per perspective agent (max two overall)
        per_action = 1 if len(persp) == 1 else 2
        if max(-(-mismatch // per_action), moved) > remaining:
            return
        for action in candidates(state):
            child = _successor(state, action)
            if action.kind == ActionKind.PREPARE_GOOD:
                home[action.good_id] = action.actor
                dfs(child)
                del home[action.good_id]
            else:
                dfs(child)

    dfs(_SearchState(owners=dict(home), nets={}, pending=(), used=used0,
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
    """The search state after one trial step; no ``WorldState`` is touched."""
    owners = dict(state.owners)
    actions = state.actions + (action,)
    if action.kind == ActionKind.PREPARE_GOOD:
        owners[action.good_id] = action.actor
        return _SearchState(owners=owners, nets=state.nets, pending=state.pending,
                            used=state.used | {action.actor},
                            prepared=state.prepared + 1, actions=actions)
    nets, pending = state.nets, state.pending
    if action.kind == ActionKind.SPOT_SALE:  # the actor sells for cash now
        owners[action.good_id] = action.counterparty
        nets = _pay(nets, action.counterparty, action.actor, 0, action.amount)
    else:  # the actor buys on credit: cash moves at the due date via settlement
        owners[action.good_id] = action.actor
        nets = _pay(nets, action.actor, action.counterparty, action.due_date, action.amount)
        pending = pending + ((action.actor, action.counterparty, action.amount,
                              action.due_date, action.contract_id),)
    return _SearchState(owners=owners, nets=nets, pending=pending,
                        used=state.used | {action.actor, action.counterparty},
                        prepared=state.prepared, actions=actions)


def _pay(nets: dict[str, dict[int, Quantity]], payer: str, payee: str, date: int,
         amount: Quantity) -> dict[str, dict[int, Quantity]]:
    """The nets after one payment between two agents; zero entries drop."""
    out = dict(nets)
    for agent, value in ((payer, out.get(payer, {}).get(date, ZERO) - amount),
                         (payee, out.get(payee, {}).get(date, ZERO) + amount)):
        per_day = dict(out.get(agent, {}))
        if value:
            per_day[date] = value
        else:
            per_day.pop(date, None)
        if per_day:
            out[agent] = per_day
        else:
            out.pop(agent, None)
    return out


def _full_sequence(state: _SearchState) -> tuple[Action, ...]:
    settlements = tuple(
        Action(kind=ActionKind.PAY, actor=payer, counterparty=payee, amount=amount,
               reason=Reason(contract_ids=(settle_id,)))
        for payer, payee, amount, due, settle_id in sorted(
            state.pending, key=lambda p: (p[3], p[4]))
    )
    return state.actions + settlements


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
    steps: dict[str, list] = {}
    prev: Optional[Action] = None
    for index, action in enumerate(actions):
        tagged = dc_replace(action, message=f"step-{index + 1}")
        agent_steps = steps.setdefault(tagged.actor, [])
        if prev is not None and prev.actor != tagged.actor:
            agent_steps.append(WaitFor(AfterEvent(ActionTemplate(
                kind=prev.kind, actor=prev.actor, message=prev.message,
            ))))
        agent_steps.append(Do(tagged))
        prev = tagged
    for payer, payee, amount, due, settle_id in sorted(
            pending, key=lambda p: (p[3], p[4])):
        agent_steps = steps.setdefault(payer, [])
        agent_steps.append(WaitFor(ByDate(due)))
        agent_steps.append(Do(Action(
            kind=ActionKind.PAY, actor=payer, counterparty=payee, amount=amount,
            reason=Reason(contract_ids=(settle_id,)),
        )))
    return tuple(Plan(agent, tuple(plan_steps)) for agent, plan_steps in sorted(steps.items()))


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
    from .scenarios import ScenarioInstance, instance_to_dict

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
