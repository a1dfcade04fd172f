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
state with the same owners, used agents and depth. A witness is a
sequence whose projection is equivalent to the target and whose goods
all return to their initial owners. Each witness is re-executed through
the engine on first read of its progression. Exhaustion within the bound
makes found=False a bound-relative non-existence certificate.

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

from functools import cached_property
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .engine import BoundExceeded, Do, Plan, Progression, RoundRobin, run
from .money import Quantity, ZERO, field, record, replace
from .scenarios import Part, ScenarioInstance, compose, instance_to_dict, payment, wait
from .world import (
    CASH_LEGS,
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
    codec_row,
    make_world,
    net_cells,
    value_to_dict,
)

ALL_AGENTS = "all"

DESK_SCALE_LIMIT = 8

# goods a search may prepare; grounding discloses it
MAX_PREPARED_GOODS = 1


@record(frozen=True, slots=True)
class Flow:
    payer: str
    payee: str
    amount: Quantity
    date: int

    to_dict = value_to_dict


codec_row(Flow)


FlowTrace = tuple[Flow, ...]

_flow_row = attrgetter("payer", "payee", "amount", "date")


def canonical(flows: Iterable[Flow]) -> FlowTrace:
    return tuple(sorted(flows, key=lambda f: (f.date, f.payer, f.payee, f.amount)))


def cash_flows(events: Iterable[Event]) -> Iterator[Flow]:
    """The cash-moving events as flows, in event order.

    Payments, receipts, spot-sale settlements and credit-sale down payments
    appear at their event dates; deferred credit legs appear through the
    explicit settlement payments that discharge them, at their due dates.
    Zero-sum entries are omitted (amounts in a trace are positive). Who
    pays whom, and how much, is ``world.CASH_LEGS``.
    """
    for event in events:
        action = event.action
        leg = CASH_LEGS.get(action.kind)
        if leg is not None:
            payer, payee, paid = leg(action)
            if paid is not None and paid.num > 0:
                yield Flow(payer, payee, paid, event.date)


def monetary_projection(progression: Progression) -> FlowTrace:
    """Cash-moving events (see ``cash_flows``) as a canonical flow trace;
    everything else drops."""
    return canonical(cash_flows(progression.events))


def net_positions(trace: Iterable[Flow]) -> dict[str, dict[int, Quantity]]:
    """Signed net cash per agent per day; zero entries are dropped.

    Agents and days appear in the order the flows first name them. The sums
    are ``world.net_cells``' integers, and one Quantity is built per nonzero
    (agent, day). Summing any day's entries over all agents gives zero:
    each flow adds -x and +x on one day.
    """
    scale, sums = net_cells(list(map(_flow_row, trace)))
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
    either trace) or a nonempty iterable of agent names to restrict to; an
    empty one is a ValueError.

    It sees flows, not agents: a name that appears in neither trace has no
    nets on either side, so it compares equal. The CLI checks the names
    against both products' agents (``check_perspective``) before calling.
    """
    nets_a, nets_b = net_positions(a), net_positions(b)
    agents = (set(nets_a) | set(nets_b) if perspective == ALL_AGENTS
              else _perspective_agents(perspective))
    return all(nets_a.get(agent, {}) == nets_b.get(agent, {}) for agent in agents)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

TRADE_PRIMITIVES = ("spot-sale", "credit-sale", "prepare-good")
COORDINATION_PRIMITIVES = ("prepare-contract", "sign-contract", "inform")
PRIMITIVES = TRADE_PRIMITIVES + COORDINATION_PRIMITIVES

_PRIMITIVE_ALIASES = {
    "spot": "spot-sale", "spotsale": "spot-sale", "credit": "credit-sale",
    "creditsale": "credit-sale", "preparegood": "prepare-good",
    "preparecontract": "prepare-contract", "signcontract": "sign-contract",
}


def normalize_catalogue(names: Iterable[str]) -> frozenset[str]:
    """The primitives named; case, outer blanks and ``_`` for ``-`` do not matter."""
    out = set()
    for name in names:
        key = name.strip().lower().replace("_", "-")
        if key == "contracts":
            out.update({"prepare-contract", "sign-contract"})
            continue
        key = _PRIMITIVE_ALIASES.get(key, key)
        if key not in PRIMITIVES:
            raise ValueError(f"unknown primitive {name!r}; known: {PRIMITIVES}")
        out.add(key)
    return frozenset(out)


@record(frozen=True)
class Witness:
    """A found sequence: its trades and the settlements they leave due, as
    (payer, payee, amount, due, settlement contract id). ``actions`` and
    ``progression`` are built on first read, then kept."""

    trades: tuple[Action, ...]
    pending: tuple[tuple[str, str, Quantity, int, str], ...]
    world: WorldState = field(repr=False, compare=False)  # the search's opening world

    @cached_property
    def actions(self) -> tuple[Action, ...]:
        """The trades, then one payment per settlement in due order."""
        return self.trades + tuple(
            Action(kind=ActionKind.PAY, actor=payer, counterparty=payee, amount=amount,
                   reason=Reason(contract_ids=(settle_id,)))
            for payer, payee, amount, _, settle_id in _due_order(self.pending))

    @cached_property
    def progression(self) -> Progression:
        return _replay_witness(self.world, self.trades, self.pending)

    def to_dict(self) -> dict:
        return {"actions": [action_to_dict(a) for a in self.actions]}


@record(frozen=True)
class SynthesisResult:
    witnesses: tuple[Witness, ...]
    explored: int
    bound: int
    grounding: Mapping[str, object] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return bool(self.witnesses)


@record(frozen=True, slots=True)
class _Frame:
    """What every state of one search shares: the common denominator of the
    target's amounts, the target's perspective cells as integers over it,
    and the perspective."""

    scale: int
    target: dict[tuple[str, int], int]
    perspective: frozenset[str]


@record(slots=True)
class _SearchState:
    frame: _Frame
    owners: dict[str, str]  # good id -> owner
    home: dict[str, str]  # good id -> the owner it must end with
    nets: dict[tuple[str, int], int]  # (agent, day) -> net cash x frame.scale; no zeros
    mismatch: int  # perspective cells where nets and frame.target differ
    displaced: int  # goods whose owner is not their home
    pending: tuple[tuple[str, str, Quantity, int, str], ...]  # payer, payee, amount, due, settle id
    used: frozenset[str]
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
    empty agent name, an empty perspective, or a perspective name that is
    not among ``agents``, is a ValueError.

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
    for i, name in enumerate(agents):
        if not name:
            raise ValueError(f"agent {i + 1} of {list(agents)} has an empty name")
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
    # over the target's scale
    scale, sums = net_cells(list(map(_flow_row, target)))
    target_cells = {(agent, day): value for agent, per_day in sums.items() if agent in persp
                    for day, value in per_day.items() if value}
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
    # owners (goods enter in id order; with preparation in the catalogue no
    # good is pre-owned, so their count is the prepared count), used agents
    # and depth (which names a credit sale's settlement contract)
    moves: dict[tuple, tuple[Action, ...]] = {}

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
        if "prepare-good" in kinds and len(owners) < MAX_PREPARED_GOODS:
            for owner in agents:
                if not allowed_participants(state.used, [owner]):
                    continue
                gid = f"g{len(owners)}"
                yield Action(kind=ActionKind.PREPARE_GOOD, actor=owner, good_id=gid,
                             good_spec=GoodSpec(kind="asset", market_value=good_value,
                                                block_size=block)), None, None
        for gid in sorted(owners):
            owner = owners[gid]
            for buyer in agents:
                if buyer == owner or not allowed_participants(state.used, [owner, buyer]):
                    continue
                if "spot-sale" in kinds:
                    for price in amounts:
                        yield Action(kind=ActionKind.SPOT_SALE, actor=owner,
                                     counterparty=buyer, amount=price, good_id=gid), buyer, owner
                if "credit-sale" in kinds:
                    for price in amounts:
                        for due in future_dates:
                            yield Action(kind=ActionKind.BUY_ON_CREDIT, actor=buyer,
                                         counterparty=owner, amount=price,
                                         down_payment=ZERO, due_date=due, good_id=gid,
                                         contract_id=f"settle-{len(state.actions)}"), buyer, owner

    def dfs(state: _SearchState) -> None:
        nonlocal explored
        explored += 1
        mismatch, displaced = state.mismatch, state.displaced
        if not mismatch and not displaced:
            witnesses.append(Witness(state.actions, state.pending, world0))
        depth = len(state.actions)
        remaining = bound - depth
        if remaining == 0 or max(-(-mismatch // per_action), displaced) > remaining:
            return
        key = (tuple(state.owners.items()), state.used, depth)
        children = moves.get(key)
        if children is None:
            children = moves[key] = tuple(candidates(state))
        for action, buyer, seller in children:
            dfs(_successor(state, action, buyer, seller))

    dfs(_SearchState(frame=frame, owners=dict(home), home=home, nets={},
                     mismatch=len(target_cells), displaced=0, pending=(), used=used0,
                     actions=()))

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
        witnesses=tuple(witnesses),
        explored=explored,
        bound=bound,
        grounding=grounding,
    )


def _successor(state: _SearchState, action: Action, buyer: Optional[str],
               seller: Optional[str]) -> _SearchState:
    """The search state after one trial step; no ``WorldState`` is touched.

    In a trade ``buyer`` pays ``seller``, as the candidate that built it says;
    it changes one good's owner and two cells of the nets, so only those
    update the carried ``displaced`` and ``mismatch`` counts.
    """
    owners = dict(state.owners)
    actions = state.actions + (action,)
    gid, kind, used = action.good_id, action.kind, state.used
    if kind is ActionKind.PREPARE_GOOD:
        owners[gid] = action.actor
        home = dict(state.home)
        home[gid] = action.actor
        return _SearchState(state.frame, owners, home, state.nets, state.mismatch,
                            state.displaced, state.pending, used | {action.actor}, actions)
    if kind is ActionKind.SPOT_SALE:  # for cash now
        date, pending = 0, state.pending
    else:  # on credit: cash moves at the due date via settlement
        date = action.due_date
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
                        used, actions)


def _due_order(pending: Iterable[tuple]) -> list[tuple]:
    """Pending settlements by due date, then settlement contract id."""
    return sorted(pending, key=itemgetter(3, 4))


def _replay_witness(world0: WorldState, actions: tuple[Action, ...],
                    pending: tuple) -> Progression:
    """Re-execute a witness through the engine for the official progression."""
    horizon = max([due for _, _, _, due, _ in pending], default=0)
    return run(world0, witness_plans(actions, pending), RoundRobin(), horizon=horizon)


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
        tagged = replace(action, message=f"step-{index + 1}")
        if prev is not None and prev.actor != tagged.actor:
            parts.append(wait(tagged.actor, kind=prev.kind, actor=prev.actor,
                              message=prev.message))
        parts.append([(tagged.actor, Do(tagged))])
        prev = tagged
    for payer, payee, amount, due, settle_id in _due_order(pending):
        parts.append(payment(payer, payee, amount, settle_id, day=due))
    return compose(sorted({agent for part in parts for agent, _ in part}), *parts)


def witness_scenario(result: SynthesisResult, index: int) -> dict:
    """Render one witness as scenario-file text, re-runnable as a scenario:
    the search's opening world, led by its first agent, with the least
    balances that keep the replay solvent."""
    witness = result.witnesses[index]
    world0 = witness.world
    accounts = {name: _required_endowment(name, witness.progression) for name in world0.agents}
    return instance_to_dict(ScenarioInstance(
        name=f"witness-{index}", params={}, world=replace(world0, accounts=accounts),
        plans=witness_plans(witness.trades, witness.pending),
        principals=(next(iter(world0.agents)),),
        horizon=max([due for _, _, _, due, _ in witness.pending], default=0)))


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
