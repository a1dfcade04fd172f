"""Monetary flow abstraction, trace equivalence, and bounded synthesis search.

The monetary projection strips a progression down to its cash movements:
a multiset of (payer, payee, amount, date) entries. Two progressions are
equivalent from a perspective when the signed net cash per (agent, day) is
identical over the perspective's agents - exactly, no tolerance; fee
differences between intermediaries are handled by narrowing the
perspective, never by fuzz.

The synthesis search asks whether a target flow profile can be rebuilt
from a catalogue of permissible primitives, by depth-first enumeration
over grounded primitive instances. The search state is a tuple of only
what a trade changes: the one good's owner and home, the perspective's net
cash per (agent, day) as integers over the common denominator of the
target's amounts, the used agents, the depth, and the count of mismatched
perspective cells, which a trade updates for the two cells it touches.
The state is its own subproblem's key: it alone decides which of its
descendants are witnesses and how many nodes lie below it, and the count
follows from the nets, so it splits no subproblem. The settlements still
due and the nets of agents outside the perspective change only a
witness's text, so they stay out of the state. Each subproblem is
expanded once, into its subtree's node and witness counts and the moves
under which a witness lies; ``explored`` still counts every node of the
tree. No witness is built in the search: ``SynthesisResult.witnesses`` is a
sequence over the solved tree whose length is the root's witness count, and
a witness is built when it is read, by walking down the tree by the
subtrees' counts. A state's candidate moves are built once per call and
shared by every state with the same owner, used agents and depth. Each
carries its effect: the new owner and used agents, and the signed price in
each perspective cell its payment reaches, so a step only adds deltas to
the nets. A move carries its trade as the keywords of its ``Action``, which
is built the first time a witness through the move is read; moves that
make the same trade share it. A witness is a sequence whose projection is
equivalent to the target and whose good returns to its initial owner. A
witness is re-executed through the engine only when its result is asked to
replay it. Exhaustion within the bound makes found=False a bound-relative
non-existence certificate.

Grounding (disclosed in SynthesisResult.grounding): trade prices are the
absolute values of the perspective's nonzero nets in the target, so
targets equivalent from the perspective get one answer; every primitive
executes at the inception date, and only credit-sale settlements fall
later, on those nets' days after it - which is why spot sales alone
cannot defer payment; one good is traded, prepared at most once (pre-owned
instead when preparation is not in the catalogue); a move names the used
agents and at most the first unused one, in ``agents`` order (role
symmetry); coordination actions (inform, contract preparation and
signing) produce no flows, so sequences differing only by them are folded
into their trade skeletons. A witness's plans and horizon are built in one
place, ``witness_plans``.
"""

from __future__ import annotations

from collections import abc
from itertools import groupby
from operator import attrgetter, index, itemgetter
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
    apply_event,  # noqa: F401  unused; perfbench/test_perfbench.py wraps this binding
    codec_row,
    make_world,
    net_cells,
)

ALL_AGENTS = "all"

DESK_SCALE_LIMIT = 8


@record
class Flow:
    payer: str
    payee: str
    amount: Quantity
    date: int


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
    """The perspective's names in the order given, read once; a nonempty
    string other than "all" names one agent."""
    names = (perspective,) if isinstance(perspective, str) and perspective else tuple(perspective)
    if not names:
        raise ValueError("empty perspective: name at least one agent, or 'all'")
    return names


def equivalent(a: FlowTrace, b: FlowTrace, perspective=ALL_AGENTS) -> bool:
    """Exact per-(agent, day) net equality over the perspective.

    ``perspective`` is either the string "all" (every agent appearing in
    either trace), one agent's name, or a nonempty iterable of agent names
    to restrict to; an empty one is a ValueError.

    It sees flows, not agents: a name that appears in neither trace has no
    nets on either side, so it compares equal. The CLI checks the names
    against both products' agents (``check_perspective``) before calling.

    a's flows and b's reversed are netted together, once: a cell is a's net
    less b's, so the traces are equivalent when every cell in view is 0.
    """
    rows = list(map(_flow_row, a))
    rows += [(payee, payer, amount, day) for payer, payee, amount, day in map(_flow_row, b)]
    sums = net_cells(rows)[1]
    agents = sums if perspective == ALL_AGENTS else _perspective_agents(perspective)
    return not any(any(sums.get(agent, {}).values()) for agent in agents)


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


@record
class Witness:
    """A found sequence of trades."""

    trades: tuple[Action, ...]

    @property
    def pending(self) -> tuple[tuple[str, str, Quantity, int, str], ...]:
        """The settlements the credit sales leave due, as (payer, payee,
        amount, due, settlement contract id)."""
        return tuple((a.actor, a.counterparty, a.amount, a.due_date, a.contract_id)
                     for a in self.trades if a.kind is ActionKind.BUY_ON_CREDIT)

    @property
    def actions(self) -> tuple[Action, ...]:
        """The trades, then one payment per settlement in due order."""
        return self.trades + tuple(
            Action(kind=ActionKind.PAY, actor=payer, counterparty=payee, amount=amount,
                   reason=Reason(contract_ids=(settle_id,)))
            for payer, payee, amount, _, settle_id in _due_order(self.pending))


class _Trade(dict):
    """A candidate move's trade: the keywords of its ``Action``, which
    ``_step`` builds the first time a witness through the move is read."""

    step: Optional[tuple[Action]] = None


def _step(trade: _Trade) -> tuple[Action]:
    """The trade's ``Action`` as the one-tuple a witness's path extends by,
    built on the first read and kept on the move. Two threads reading at
    once may each build one; the two are equal, and either may be kept."""
    step = trade.step
    if step is None:
        step = trade.step = (Action(**trade),)
    return step


class Witnesses(abc.Sequence):
    """The witnesses of a solved search tree, in depth-first order, each
    built when it is read.

    Its length is the root's witness count. Item ``i`` walks down the tree
    by the subtrees' counts and builds one ``Witness``; a slice reads its
    items one by one, into a tuple. Concurrent readers may build a move's
    ``Action`` twice (``_step``), but never a different one. It equals any
    ``Witnesses`` or tuple of equal witnesses, so a ``SynthesisResult``
    still compares its witnesses by value; its repr gives the count, not
    every witness.
    """

    __slots__ = ("_root",)

    def __init__(self, root: _Subtree) -> None:
        self._root = root

    def __len__(self) -> int:
        return self._root[1]

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(map(self.__getitem__, range(len(self))[key]))
        position = index(key)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError(f"witness index {key} out of range for {len(self)} witnesses")
        return Witness(next(_witness_paths(self._root, position)))

    def __iter__(self) -> Iterator[Witness]:
        return map(Witness, _witness_paths(self._root))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Witnesses, tuple)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} witnesses>"


@record
class SynthesisResult:
    """What a search found; ``world`` is its opening world, every witness's start.

    ``witnesses`` reads the solved tree (see ``Witnesses``): its length and
    ``found`` come from the counts the search kept, and a witness is built
    only when it is read.
    """

    witnesses: Witnesses
    explored: int
    bound: int
    world: WorldState
    grounding: Mapping[str, object] = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return len(self.witnesses) > 0

    def replay(self, index: int) -> Progression:
        """Witness ``index`` re-executed through the engine from the opening world."""
        return _replay_witness(self.world, *witness_plans(self.witnesses[index]))


# What every state of one search shares is its frame, (scale, cells,
# target): the common denominator of the target's amounts, the place in the
# nets of each perspective cell (agent, day) a trade can reach, and the
# target's nets x scale in those places. A state, which is also the key of
# its subproblem, is (owner, home, nets, used, depth, mismatch): the good's
# owner and the owner it must end with (both None until it is prepared), the
# net cash x scale per frame place, the agents used, the depth, and the
# places where nets and target differ. A move carries its effect, built once
# with its trade, so a step (``_successor``) only adds its deltas.
#
# A solved subproblem: the nodes of its subtree, the witnesses in it, whether
# its root is one, and the (trade, child subtree) moves under which a witness
# lies
_Subtree = tuple[int, int, bool, tuple]


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

    Each subproblem is searched once (the module docstring says what keys
    it), yet ``explored`` counts every node of the tree and the witnesses
    come out in depth-first order; no trial trade touches a
    ``WorldState``. The search builds no witness and no trade ``Action``:
    ``result.witnesses`` counts them from the solved tree and builds each
    one when it is read, and ``result.replay(i)`` runs witness ``i``
    through ``run``.
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

    # no trial trade reaches apply_event, which would reject a negative price;
    # checked on the raw flows, which abs() would hide, before make_world
    if any(f.amount < ZERO for f in target):
        raise ValidationError("sums must be nonnegative")
    # grounded on the perspective's nonzero nets, so equivalent targets get one
    # answer: prices are their absolute values, settlement dates their days
    # after 0, and the search's nets are integers over the target's scale
    scale, sums = net_cells(list(map(_flow_row, target)))
    nets = [(day, abs(total)) for agent in persp
            for day, total in sums.get(agent, {}).items() if total]
    amounts = tuple(sorted({Quantity(total, scale) for _, total in nets}))
    days = sorted({0, *(day for day, _ in nets)})
    future_dates = tuple(day for day in days if day > 0)
    cells = {(agent, day): i for i, (agent, day) in
             enumerate((agent, day) for agent in sorted(persp) for day in days)}
    target_nets = tuple(sums.get(agent, {}).get(day, 0) for agent, day in cells)
    frame = (scale, cells, target_nets)

    roles = [Role.PERSON, Role.BANK] + [Role.COMPANY] * (len(agents) - 2)
    endowment = Quantity(0)
    for amount in amounts:
        endowment = endowment + amount
    endowment = endowment * max(bound, 1)
    # the traded good is worth the largest amount, in blocks that divide it
    good_value = amounts[-1] if amounts else Quantity(1)
    block = Quantity(1, good_value.den)
    # the one good the search trades, g0, is pre-owned when it cannot be prepared
    home = (agents[1] if "prepare-good" not in kinds and kinds & {"spot-sale", "credit-sale"}
            else None)
    world0 = make_world(
        agents=[Agent(name, roles[i]) for i, name in enumerate(agents)],
        balances={name: endowment for name in agents},
        goods=[Good(good_id="g0", kind="asset", owner=home, market_value=good_value,
                    block_size=block)] if home else [],
    )
    used0 = persp | {home} if home else persp
    # a trade moves cash for two agents at one date, so it can fix at most
    # one mismatched cell per perspective agent (max two overall)
    per_action = 1 if len(persp) == 1 else 2

    # the candidate moves of a state, by everything ``candidates`` reads (the
    # good's owner, the used agents, and the depth that names a credit sale's
    # settlement contract), each with its effect: (trade, owner, home (None: a
    # trade keeps it), used agents, changes), where changes are (place, signed
    # price x scale) for the perspective cells its payment reaches
    moves: dict[tuple, tuple[tuple, ...]] = {}
    trades: dict[tuple, _Trade] = {}  # trade's arguments -> the trade
    solved: dict[tuple, _Subtree] = {}  # state -> its subtree

    def trade(kind: ActionKind, actor: str, counterparty: Optional[str] = None,
              price: Optional[int] = None, due: Optional[int] = None,
              depth: Optional[int] = None) -> _Trade:
        # one trade per distinct arguments, so the moves that make it share
        # its Action when witnesses are read; it is built from its arguments
        # alone, which makes them a complete key. ``price`` is a place in
        # ``amounts``, and ``depth`` names a credit sale's settlement contract
        key = (kind, actor, counterparty, price, due, depth)
        made = trades.get(key)
        if made is None:
            if kind is ActionKind.PREPARE_GOOD:
                made = _Trade(good_spec=GoodSpec(kind="asset", market_value=good_value,
                                                 block_size=block))
            else:
                made = _Trade(counterparty=counterparty, amount=amounts[price])
                if due is not None:
                    made.update(down_payment=ZERO, due_date=due, contract_id=f"settle-{depth}")
            made.update(kind=kind, actor=actor, good_id="g0")
            trades[key] = made
        return made

    def changes(payer: str, payee: str, price: Quantity, day: int) -> tuple:
        paid = price.num * (scale // price.den)
        pay, get = cells.get((payer, day)), cells.get((payee, day))
        if pay is None:
            return () if get is None else ((get, paid),)
        return ((pay, -paid),) if get is None else ((pay, -paid), (get, paid))

    def candidates(owner: Optional[str], used: frozenset[str], depth: int):
        # role symmetry: a move names the used agents and at most the first
        # unused one, in ``agents`` order; the good's owner is always used
        fresh = [name for name in agents if name not in used][:1]
        names = [name for name in agents if name in used or name in fresh]
        if owner is None:
            if "prepare-good" in kinds:
                for actor in names:
                    yield trade(ActionKind.PREPARE_GOOD, actor), actor, actor, used | {actor}, ()
            return
        for buyer in names:
            if buyer == owner:
                continue
            after = used | {buyer}
            if "spot-sale" in kinds:
                for i, price in enumerate(amounts):
                    yield (trade(ActionKind.SPOT_SALE, owner, buyer, i),
                           buyer, None, after, changes(buyer, owner, price, 0))
            if "credit-sale" in kinds:
                for i, price in enumerate(amounts):
                    for due in future_dates:
                        yield (trade(ActionKind.BUY_ON_CREDIT, buyer, owner, i, due, depth),
                               buyer, None, after, changes(buyer, owner, price, due))

    def solve(state: tuple) -> _Subtree:
        """The state's subtree, solved once per state (see the module
        docstring for why the state alone decides it)."""
        subtree = solved.get(state)
        if subtree is not None:
            return subtree
        owner, home, _, used, depth, mismatch = state
        displaced = owner != home
        witness = not mismatch and not displaced
        nodes, count, live = 1, int(witness), []
        remaining = bound - depth
        if remaining and max(-(-mismatch // per_action), displaced) <= remaining:
            move_key = (owner, used, depth)
            children = moves.get(move_key)
            if children is None:
                children = moves[move_key] = tuple(candidates(owner, used, depth))
            for move in children:
                child = solve(_successor(frame, state, move))
                nodes += child[0]
                if child[1]:
                    count += child[1]
                    live.append((move[0], child))
        subtree = solved[state] = (nodes, count, witness, tuple(live))
        return subtree

    root = solve((home, home, (0,) * len(cells), used0, 0, sum(map(bool, target_nets))))
    # solve refers to itself through its closure: dropping the name frees the
    # memo on return instead of at the next cyclic collection
    del solve

    grounding = {
        "amounts": [str(a) for a in amounts],
        "settlement_dates": list(future_dates),
        "inception_date": 0,
        "max_prepared_goods": 1,
        "agent_symmetry": "non-perspective agents enter in a fixed canonical order",
        "coordination_actions": sorted(kinds & set(COORDINATION_PRIMITIVES)),
        "coordination_note": "flow-inert actions are folded into trade skeletons",
    }
    return SynthesisResult(
        witnesses=Witnesses(root),
        explored=root[0],
        bound=bound,
        world=world0,
        grounding=grounding,
    )


def _witness_paths(root: _Subtree, start: int = 0) -> Iterator[tuple[Action, ...]]:
    """The trades of the witnesses in a solved tree from index ``start`` on,
    in depth-first order.

    The walk goes down to witness ``start`` by the subtrees' counts, then on
    depth first. The stack holds, per level, the path so far and an
    iterator over the moves not yet taken there. A path's tuple is built
    once, when the walk takes its last move, by extending its parent's.
    """
    trades, (_, count, witness, live) = (), root
    if start >= count:
        return
    stack = []
    while start or not witness:
        if witness:
            start -= 1
        moves = iter(live)
        for trade, child in moves:
            if start < child[1]:
                break
            start -= child[1]
        stack.append((trades, moves))
        trades += _step(trade)
        _, _, witness, live = child
    yield trades
    stack.append((trades, iter(live)))
    while stack:
        trades, moves = stack[-1]
        for trade, (_, _, witness, live) in moves:
            path = trades + (trade.step or _step(trade))
            if witness:
                yield path
            if live:
                stack.append((path, iter(live)))
                break
        else:
            stack.pop()


def _successor(frame: tuple, state: tuple, move: tuple) -> tuple:
    """The search state after one trial step, by the effect its move carries
    (see ``moves`` in ``synthesize``); no ``WorldState`` is touched."""
    _, home, nets, _, depth, mismatch = state
    _, owner, moved_home, used, changes = move
    if changes:
        target = frame[2]
        places = list(nets)
        for place, delta in changes:
            old = places[place]
            places[place] = new = old + delta
            mismatch += (new != target[place]) - (old != target[place])
        nets = tuple(places)
    return owner, moved_home or home, nets, used, depth + 1, mismatch


def _due_order(pending: Iterable[tuple]) -> list[tuple]:
    """Pending settlements by due date, then settlement contract id."""
    return sorted(pending, key=itemgetter(3, 4))


def _replay_witness(world0: WorldState, plans: tuple[Plan, ...], horizon: int) -> Progression:
    """Re-execute a witness's plans through the engine for the official progression."""
    return run(world0, plans, RoundRobin(), horizon=horizon)


def witness_plans(witness: Witness) -> tuple[tuple[Plan, ...], int]:
    """A witness's per-agent plans, and their horizon: its last settlement's
    due date, or 0.

    Cross-agent order is preserved by waiting on the previous action's
    event; each step carries a unique step tag in its message field so
    repeated identical trades cannot release a wait early. Settlement
    payments wait for their due dates.
    """
    parts: list[Part] = []
    prev: Optional[Action] = None
    for index, action in enumerate(witness.trades):
        tagged = replace(action, message=f"step-{index + 1}")
        if prev is not None and prev.actor != tagged.actor:
            parts.append(wait(tagged.actor, kind=prev.kind, actor=prev.actor,
                              message=prev.message))
        parts.append([(tagged.actor, Do(tagged))])
        prev = tagged
    pending = _due_order(witness.pending)
    for payer, payee, amount, due, settle_id in pending:
        parts.append(payment(payer, payee, amount, settle_id, day=due))
    plans = compose(sorted({agent for part in parts for agent, _ in part}), *parts)
    return plans, pending[-1][3] if pending else 0  # the last in due order is due latest


def witness_scenario(result: SynthesisResult, index: int, *,
                     witness: Optional[Witness] = None) -> dict:
    """Render one witness as scenario-file text, re-runnable as a scenario:
    the search's opening world, led by its first agent, with the least
    balances that keep the replay solvent.

    ``witness`` is ``result.witnesses[index]``, passed when the caller has
    already read it so it is not built again.
    """
    world0 = result.world
    plans, horizon = witness_plans(witness or result.witnesses[index])
    trace = monetary_projection(_replay_witness(world0, plans, horizon))
    return instance_to_dict(ScenarioInstance(
        name=f"witness-{index}", params={},
        world=replace(world0, accounts=_least_balances(world0.agents, trace)),
        plans=plans, principals=(next(iter(world0.agents)),), horizon=horizon))


def _least_balances(agents: Iterable[str], trace: FlowTrace) -> dict[str, Quantity]:
    """Each agent's smallest opening balance that keeps it solvent along a
    canonical trace, in one walk of it.

    Within a day, outflows are counted before inflows: the replay order
    inside one date is not pinned down, so the bound must survive the
    worst one.
    """
    balance = dict.fromkeys(agents, ZERO)
    worst = dict(balance)
    for _, day in groupby(trace, key=attrgetter("date")):
        day = list(day)
        for flow in day:
            balance[flow.payer] -= flow.amount
        worst = {name: min(low, balance[name]) for name, low in worst.items()}
        for flow in day:
            if flow.payee != flow.payer:
                balance[flow.payee] += flow.amount
    return {name: -low for name, low in worst.items()}
