"""Deterministic execution of per-agent plans under interleaving strategies.

Each agent follows a sequential plan (do / wait-for / branch / stop); the
joint behaviour is their interleaving. Modeled threads are data, not
execution threads: the engine is logically sequential and every strategy is
deterministic given its inputs.

Every scheduler moves through one successor step, ``_step``: either one
plan applies and pops its head Do, or, when no plan can act, the clock
advances to the earliest by-date wait after it (``_wake``). Then every plan
settles against the new state (branches resolve, satisfied waits pass,
stops end the plan), so no plan skips a state and day-0 activity always
completes before later-dated activity starts. When no plan can act and no
wait has a later date, the plans are blocked: ``run`` reports a deadlock
naming each blocked plan's trigger, and enumeration keeps the trace.

Strategies differ only in which plans get a chance to step:

  RoundRobin    -- each cycle, every plan in name order; every runnable
                   plan takes exactly one step per cycle, so no agent is
                   starved.
  SeededRandom  -- each cycle, one uniformly random runnable plan, from a
                   fixed seed.
  Exhaustive    -- every runnable plan, each in its own branch (see
                   enumerate_interleavings); run() under this strategy
                   returns the canonically least progression of that set.

Cost: a step pops the head of its plan's cursor, and a wait on an
AfterEvent pattern is one lookup in an index of the history that the call
builds as it goes (each pattern's fields are resolved once per call, and
each event is projected once per field set that some pattern constrains;
enumeration branches carry copies). Neither grows with the history; what
does is ``apply_event`` copying the history tuple to append to it.
Enumeration walks the lattice of distinct states, not the tree of
interleavings (``_Lattice``): it steps and settles each edge of the
lattice once, then reads every trace off as a path. A (3,3,3) plan set
with one wait takes 100 steps for its 840 traces, not 2,655. The paths
come in canonical order, so no trace is keyed, deduplicated or sorted
unless several choice assignments must be merged; what is left per trace
is its tuple of events and its world.
"""

from __future__ import annotations

import random
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .money import record, replace
from .world import (
    Action,
    ActionTemplate,
    AfterEvent,
    ByDate,
    Condition,
    Event,
    HistoryLog,
    Trigger,
    WorldState,
    action_to_dict,
    apply_event,
    codec_row,
    codec_union,
    eval_condition,
    seq_named_contract,
    trigger_fired,
    value_to_dict,
)


class EngineError(Exception):
    pass


class DeadlockDetected(EngineError):
    """All unfinished plans are blocked; names each agent's unmet trigger."""

    def __init__(self, blocked: Mapping[str, Trigger]):
        self.blocked = dict(blocked)
        detail = "; ".join(
            f"{agent} waiting on {value_to_dict(trigger)}"
            for agent, trigger in sorted(self.blocked.items())
        )
        super().__init__(f"deadlock: {detail}")


class HorizonExceeded(EngineError):
    pass


class BoundExceeded(EngineError):
    pass


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

@record(frozen=True, slots=True)
class Do:
    action: Action


@record(frozen=True, slots=True)
class WaitFor:
    trigger: Trigger


@record(frozen=True, slots=True)
class Branch:
    condition: Condition
    then_steps: tuple["PlanStep", ...]
    else_steps: tuple["PlanStep", ...] = ()


@record(frozen=True, slots=True)
class Stop:
    pass


PlanStep = Do | WaitFor | Branch | Stop


@record(frozen=True, slots=True)
class Plan:
    agent: str
    steps: tuple[PlanStep, ...]


@record(frozen=True, slots=True)
class Progression:
    """An executed trace: the events in order plus the final world.

    ``schedule`` records, per event, the scheduler cycle in which it was
    taken under round-robin or seeded-random (empty for an enumerated
    trace); diagnostics for the fairness invariant.
    """

    events: tuple[Event, ...]
    world: WorldState
    schedule: tuple[int, ...] = ()

    def key(self, memo: dict[int, tuple[Action, tuple]] | None = None) -> tuple:
        """The trace's identity: each event's date and frozen action.

        Enumeration calls it only to merge several choice assignments'
        traces, one assignment's being in key order already
        (``_Lattice.paths``); tests call it to compare traces.

        ``memo`` maps ``id(action)`` to ``(action, frozen form)``. A caller
        that keys many traces over the same plans passes one dict to all of
        them, so each action object is serialized once. An id costs less to
        look up than an action's hash; the entry holds the action, so the
        id names no other object while the memo lives.
        """
        if memo is None:
            memo = {}
        out = []
        for e in self.events:
            action = e.action
            entry = memo.get(id(action))
            if entry is None:
                entry = memo[id(action)] = (action, _freeze(action_to_dict(action)))
            out.append((e.date, entry[1]))
        return tuple(out)


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


# strategies ------------------------------------------------------------------

@record(frozen=True, slots=True)
class RoundRobin:
    pass


@record(frozen=True, slots=True)
class SeededRandom:
    seed: int


@record(frozen=True, slots=True)
class Exhaustive:
    pass


ScheduleStrategy = RoundRobin | SeededRandom | Exhaustive


# ---------------------------------------------------------------------------
# plan cursors
# ---------------------------------------------------------------------------

class _EventIndex:
    """The history seen through the AfterEvent patterns the plans wait on.

    For each set of fields that some queried pattern constrains, holds the
    projection of every history event onto those fields. A ``contract_id``
    projects to the action's own id and to every id its reason references,
    as ``ActionTemplate.matches`` reads it. A wait check is one set lookup,
    and each event is projected once per field set. The index catches up
    with the history it is shown, so one index follows one line of history:
    branches of an enumeration carry copies.
    """

    __slots__ = ("indexed", "seen", "patterns")

    def __init__(self, patterns: dict[int, tuple] | None = None):
        self.indexed = 0
        self.seen: dict[tuple[str, ...], set[tuple]] = {}
        # id(pattern) -> (pattern, the fields it constrains, their values):
        # each pattern is resolved once per call, for this index and its copies
        self.patterns = {} if patterns is None else patterns

    def copy(self) -> "_EventIndex":
        other = _EventIndex(self.patterns)
        other.indexed = self.indexed
        other.seen = {fields: set(keys) for fields, keys in self.seen.items()}
        return other

    def fired(self, pattern: ActionTemplate, history: HistoryLog) -> bool:
        if len(history) > self.indexed:
            for event in history[self.indexed:]:
                for fields, keys in self.seen.items():
                    keys.update(_projections(fields, event.action))
            self.indexed = len(history)
        resolved = self.patterns.get(id(pattern))
        if resolved is None:
            fields, wanted = [], []
            for name in _PATTERN_FIELDS:
                value = getattr(pattern, name)
                if value is not None:
                    fields.append(name)
                    wanted.append(value)
            resolved = self.patterns[id(pattern)] = (pattern, tuple(fields), tuple(wanted))
        _, fields, wanted = resolved
        keys = self.seen.get(fields)
        if keys is None:
            keys = self.seen[fields] = set()
            for event in history:
                keys.update(_projections(fields, event.action))
        return wanted in keys


_PATTERN_FIELDS = ("kind", "actor", "counterparty", "amount", "good_id", "contract_id", "message")


def _projections(fields: tuple[str, ...], action: Action) -> list[tuple]:
    """Every tuple of ``fields`` values under which a pattern matches ``action``."""
    values = tuple(getattr(action, f) for f in fields)
    if "contract_id" not in fields:
        return [values]
    at = fields.index("contract_id")
    refs = action.reason.contract_ids if action.reason else ()
    return [values[:at] + (cid,) + values[at + 1:] for cid in (action.contract_id, *refs)]


class _Cursor:
    """Mutable view over one plan's remaining steps, kept as a stack whose
    last element is the head.

    Branches are resolved the moment they reach the head (against the then-
    current ground state); stops truncate the plan. Under enumeration,
    ``applied`` names the actions the plan has applied (see ``_Lattice``).
    """

    __slots__ = ("agent", "stack", "applied")

    def __init__(self, agent: str, steps: Sequence[PlanStep] = ()):
        self.agent = agent
        self.stack = list(reversed(steps))
        self.applied = 0

    def clone(self) -> "_Cursor":
        other = _Cursor(self.agent)
        other.stack = self.stack.copy()
        other.applied = self.applied
        return other

    def settle(self, world: WorldState, choices: Mapping[str, bool], index: _EventIndex) -> None:
        """Resolve branches/satisfied waits/stops until a Do or a block."""
        stack = self.stack
        while stack:
            head = stack[-1]
            if isinstance(head, Stop):
                stack.clear()
            elif isinstance(head, Branch):
                stack.pop()
                taken = head.then_steps if eval_condition(head.condition, world, choices) else head.else_steps
                stack.extend(reversed(taken))
            elif isinstance(head, WaitFor):
                trigger = head.trigger
                if isinstance(trigger, AfterEvent):
                    fired = index.fired(trigger.pattern, world.history)
                else:
                    fired = trigger_fired(trigger, world.history, world.clock, world, choices)
                if not fired:
                    return
                stack.pop()
            else:
                return

    def head(self) -> Optional[PlanStep]:
        return self.stack[-1] if self.stack else None


def _settle_all(cursors: Sequence[_Cursor], world: WorldState,
                choices: Mapping[str, bool], index: _EventIndex) -> None:
    for cursor in cursors:
        cursor.settle(world, choices, index)


def _step(world: WorldState, cursors: Sequence[_Cursor], cursor: Optional[_Cursor],
          choices: Mapping[str, bool], index: _EventIndex) -> WorldState:
    """The one successor step every scheduler takes.

    ``cursor`` applies and pops its head ``Do``; with no cursor, the clock
    advances to ``_wake``. Then every plan settles against the new state,
    so that none skips a state and every scheduled trace is an enumerated
    one.
    """
    if cursor is None:
        world = replace(world, clock=_wake(world, cursors))
    else:
        world = apply_event(world, cursor.stack.pop().action, world.clock)
    _settle_all(cursors, world, choices, index)
    return world


class _Node:
    """One distinct state of an enumeration: the world, settled cursors and
    event index of the first path that reached it, and, once expanded, its
    ``children``: (the event, or None for a clock advance; the child node),
    the highest-named plan's first. A node without children ends a trace."""

    __slots__ = ("world", "cursors", "index", "children")

    def __init__(self, world: WorldState, cursors: list[_Cursor], index: _EventIndex):
        self.world = world
        self.cursors = cursors
        self.index = index
        self.children: Optional[tuple[tuple[Optional[Event], "_Node"], ...]] = None


class _Lattice:
    """The states one enumeration reaches under one choice assignment, so
    that it steps and settles each once, however many interleavings pass
    through it.

    A cursor's ``applied`` is an int, interned in ``sequences``, that names
    the actions its plan has applied so far: each by identity, and a credit
    sale or promise that names its contract by sequence number
    (``seq_named_contract``) with that number. ``nodes`` maps a state's key
    to its node: the cursors' ints, the clock, each cursor's remaining
    stack by identity, and the key order of goods and contracts.

    Every path to one key reaches a state that ``apply_event``,
    ``_settle_all`` and ``_wake`` cannot tell apart from the node's, so the
    node's children serve every path. They read the clock, the choices,
    agents, overdraft flag, the three maps, the history's length and which
    actions the history holds (the wait index projects action fields,
    never dates). Balances are sums; a good's owner is its last buyer,
    since each seller must own what it sells; contracts come from action
    fields and signatures are set unions, except for the seq-named ids,
    which the ints carry; the history's length is the number of steps. The
    rest is in the key: a new good or contract is added last, so the key
    order depends on the order of the steps; a branch resolved against
    different states leaves equal ints but different stacks; and the clock
    advances only where no plan can act, so a branch may leave one stack
    after an arm that waited for a date and after one that did not. An
    edge's event is the same from every path: its sequence number is the
    number of steps, its date the node's clock. An earlier event's date is
    not, as one step may come before a clock advance on one path and after
    it on another, so each trace takes its events from its own path.

    A node is expanded the first time the walk reaches it, all its children
    at once, highest-named first, as the walk of the interleaving tree
    would; so a failing step raises where that walk would first reach it.
    """

    __slots__ = ("choices", "horizon", "nodes", "sequences")

    def __init__(self, choices: Mapping[str, bool], horizon: Optional[int]):
        self.choices = choices
        self.horizon = horizon
        self.nodes: dict[tuple, _Node] = {}
        self.sequences: dict[tuple, int] = {}

    def node(self, world: WorldState, cursors: list[_Cursor], index: _EventIndex) -> _Node:
        """The node of this state, made from it if it is new."""
        key = (tuple([c.applied for c in cursors]), world.clock,
               tuple([tuple(map(id, c.stack)) for c in cursors]),
               tuple(world.goods), tuple(world.contracts))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = _Node(world, cursors, index)
        return node

    def extend(self, applied: int, event: Event) -> int:
        """The int of a plan that has applied ``applied``'s actions, then ``event``'s."""
        action = event.action
        step = id(action) if seq_named_contract(action, event.seq) is None \
            else (id(action), event.seq)
        return self.sequences.setdefault((applied, step), len(self.sequences) + 1)

    def paths(self, world: WorldState, cursors: list[_Cursor],
              index: _EventIndex) -> Iterable[tuple[_Node, tuple[Event, ...]]]:
        """Every maximal path from this settled state, depth first, the
        lowest-named agent first: its last node and its events.

        The paths come in strictly ascending ``Progression.key`` order, with
        no key twice. Two paths first part at an edge out of one node, and
        both events there are dated with the node's clock. Their actors
        differ: each child of a node is a step of a different plan, and
        every plan acts for its own agent only (``_check_actors``), while a
        clock advance is always a node's only child. A frozen action starts
        with ``("actor", name)``, as ``actor`` is the least key of
        ``Action``'s codec row and has no default, so the lower-named actor's
        path has the lesser key; and the walk takes it first, since
        ``expand`` lists children highest-named first and the stack pops the
        last pushed.
        """
        # each entry: a node, the length of ``events`` at its parent, and
        # the event of the edge into it
        events: list[Event] = []
        stack: list[tuple[_Node, int, Optional[Event]]] = [
            (self.node(world, cursors, index), 0, None)]
        while stack:
            node, depth, event = stack.pop()
            del events[depth:]
            if event is not None:
                events.append(event)
            if node.children is None:
                self.expand(node)
            if node.children:
                depth = len(events)
                stack.extend([(child, depth, edge) for edge, child in node.children])
            else:
                yield node, tuple(events)

    def expand(self, node: _Node) -> None:
        """Step every runnable plan, highest-named first, or advance the
        clock when none can act. The lowest-named plan's child takes over
        the node's cursors and index, which the node needs no more."""
        world, cursors, index = node.world, node.cursors, node.index
        node.cursors = node.index = None
        enabled = [i for i, c in enumerate(cursors) if isinstance(c.head(), Do)]
        if not enabled:
            wake = _wake(world, cursors)
            if wake is None:
                node.children = ()
                return
            _check_horizon(wake, self.horizon)
            child = _step(world, cursors, None, self.choices, index)
            node.children = ((None, self.node(child, cursors, index)),)
            return
        children = []
        for i in reversed(enabled):
            last = i == enabled[0]
            moved = cursors if last else [c.clone() for c in cursors]
            moved_index = index if last else index.copy()
            child = _step(world, moved, moved[i], self.choices, moved_index)
            event = child.history[-1]
            moved[i].applied = self.extend(moved[i].applied, event)
            children.append((event, self.node(child, moved, moved_index)))
        node.children = tuple(children)


def _wake(world: WorldState, cursors: Sequence[_Cursor]) -> Optional[int]:
    """The earliest by-date wait after the clock, or None."""
    heads = [c.head() for c in cursors]
    return min((h.trigger.day for h in heads if isinstance(h, WaitFor)
                and isinstance(h.trigger, ByDate) and h.trigger.day > world.clock), default=None)


def _validate_plans(world: WorldState, plans: Iterable[Plan]) -> list[Plan]:
    ordered = sorted(plans, key=lambda p: p.agent)
    seen = set()
    for plan in ordered:
        if plan.agent in seen:
            raise EngineError(f"two plans for agent {plan.agent!r}")
        seen.add(plan.agent)
        if plan.agent not in world.agents:
            raise EngineError(f"plan for unknown agent {plan.agent!r}")
        _check_actors(plan.agent, plan.steps)
    return ordered


def _check_actors(agent: str, steps: Sequence[PlanStep], branches: tuple = ()) -> None:
    """Reject a ``Do``, at any depth of branches, that acts for another agent.
    ``branches`` holds the (index, arm) of each branch around ``steps``; the
    error's path is spelt from it only when there is an error."""
    for i, step in enumerate(steps):
        if isinstance(step, Do) and step.action.actor != agent:
            path = "".join(f"[{j}].{arm}" for j, arm in branches)
            raise EngineError(f"plan for {agent!r}: steps{path}[{i}] is an action by "
                              f"{step.action.actor!r}; a plan acts for its own agent only")
        if isinstance(step, Branch):
            _check_actors(agent, step.then_steps, (*branches, (i, "then_steps")))
            _check_actors(agent, step.else_steps, (*branches, (i, "else_steps")))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(
    world: WorldState,
    plans: Iterable[Plan],
    strategy: ScheduleStrategy = RoundRobin(),
    horizon: int = 3650,
    choices: Mapping[str, bool] | None = None,
) -> Progression:
    """Execute plans to completion, the horizon, or deadlock.

    Identical inputs give identical progressions, event for event. A blocked
    plan is skipped, never aborted; deadlock is declared only when no plan
    can step and no by-date wait can release one within the horizon. A
    wait past the horizon raises HorizonExceeded under every strategy; under
    Exhaustive, a wait past it in any interleaving does.
    """
    if horizon < world.clock:
        raise EngineError(f"horizon {horizon} precedes world clock {world.clock}")
    choices = dict(choices or {})
    ordered = _validate_plans(world, plans)
    if isinstance(strategy, Exhaustive):
        return enumerate_interleavings(world, ordered, bound=_total_steps(ordered), choices=choices,
                                       horizon=horizon)[0]

    cursors = [_Cursor(p.agent, p.steps) for p in ordered]
    index = _EventIndex()
    rng = random.Random(strategy.seed) if isinstance(strategy, SeededRandom) else None
    start = len(world.history)
    schedule: list[int] = []
    cycle = 0
    _settle_all(cursors, world, choices, index)

    while True:
        cycle += 1
        # the strategy picks who gets a chance this cycle: round-robin every
        # plan in name order, seeded-random one runnable plan
        chances = cursors
        if rng is not None:
            runnable = [c for c in cursors if isinstance(c.head(), Do)]
            chances = [rng.choice(runnable)] if runnable else []
        stepped = False
        for cursor in chances:
            if isinstance(cursor.head(), Do):
                world = _step(world, cursors, cursor, choices, index)
                schedule.append(cycle)
                stepped = True
        if stepped:
            continue

        # nothing moved: finish, release a by-date wait, or report deadlock
        if not any(c.stack for c in cursors):
            break
        wake = _wake(world, cursors)
        if wake is None:
            raise DeadlockDetected({c.agent: c.head().trigger for c in cursors if c.stack})
        _check_horizon(wake, horizon)
        world = _step(world, cursors, None, choices, index)

    return Progression(events=world.history[start:], world=world, schedule=tuple(schedule))


def _check_horizon(wake: int, horizon: Optional[int]) -> None:
    if horizon is not None and wake > horizon:
        raise HorizonExceeded(f"next scheduled activity at day {wake} exceeds horizon {horizon}")


def _total_steps(plans: Sequence[Plan]) -> int:
    def count(steps: Sequence[PlanStep]) -> int:
        total = 0
        for step in steps:
            total += 1
            if isinstance(step, Branch):
                total += max(count(step.then_steps), count(step.else_steps))
        return total

    return sum(count(p.steps) for p in plans)


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

def enumerate_interleavings(
    world: WorldState,
    plans: Iterable[Plan],
    bound: int,
    choices: Mapping[str, bool] | None = None,
    choice_points: Mapping[str, bool] | None = None,
    horizon: Optional[int] = None,
) -> tuple[Progression, ...]:
    """All maximal progressions over every interleaving of the plans.

    Per-plan order and wait triggers are respected; the clock advances only
    when no plan is enabled. Declared boolean choice points are branched
    over both values. Traces that end with every plan finished and traces
    that end blocked (maximal but stuck) are both included. The result is
    in canonical (``Progression.key``) order with no key twice, by
    construction: each choice assignment's traces come in that order
    (``_Lattice.paths``), and several assignments' are merged, keeping of
    equal keys the first assignment's trace.

    Rejects inputs whose total step count exceeds ``bound``. With a
    ``horizon``, an interleaving that must advance the clock past it raises
    HorizonExceeded, as ``run`` does.
    """
    ordered = _validate_plans(world, plans)
    total = _total_steps(ordered)
    if total > bound:
        raise BoundExceeded(f"plans hold {total} steps, bound is {bound}")

    fixed = dict(choices or {})
    points = dict(choice_points or {})
    assignments: list[dict[str, bool]] = []
    names = sorted(points)
    for mask in range(2 ** len(names)):
        assignment = dict(fixed)
        for i, name in enumerate(names):
            assignment[name] = bool(mask >> i & 1)
        assignments.append(assignment)

    # each wait pattern's fields, for this call only, shared by every
    # choice assignment
    patterns: dict[int, tuple] = {}
    runs: list[list[Progression]] = []
    for assignment in assignments:
        cursors = [_Cursor(p.agent, p.steps) for p in ordered]
        index = _EventIndex(patterns)
        _settle_all(cursors, world, assignment, index)
        traces = []
        for end, events in _Lattice(assignment, horizon).paths(world, cursors, index):
            state = end.world
            traces.append(Progression(events=events, world=WorldState(
                state.agents, state.accounts, state.goods, state.contracts,
                world.history + events, state.clock, state.overdraft_allowed)))
        runs.append(traces)
    if len(runs) == 1:
        return tuple(runs[0])

    # imported here: only a merge needs it, and importing it adds about
    # 0.5 ms (1%) to every command's import of ``rpsf.cli``
    import heapq

    # each run is in key order with no key twice; of equal keys, the merge
    # keeps the first run's trace, the lowest assignment's
    keys: dict[int, tuple[Action, tuple]] = {}
    merged = heapq.merge(*([(t.key(keys), t) for t in traces] for traces in runs),
                         key=itemgetter(0))
    return tuple(next(same)[1] for _, same in groupby(merged, key=itemgetter(0)))


# ---------------------------------------------------------------------------
# plan serialization (scenario files, witness output)
# ---------------------------------------------------------------------------

codec_row(Do)
codec_row(WaitFor)
codec_row(Branch, "condition then=then_steps else=else_steps", defaults={"then_steps": ()})
codec_row(Stop)
codec_union(PlanStep, do=Do, wait_for=WaitFor, branch=Branch, stop=Stop)
codec_row(Plan, defaults={"steps": ()})


def progression_to_dict(progression: Progression) -> dict:
    return {"events": [value_to_dict(e) for e in progression.events]}
