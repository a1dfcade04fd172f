"""Deterministic execution of per-agent plans under interleaving strategies.

Each agent follows a sequential plan (do / wait-for / branch / stop); the
joint behaviour is their interleaving. Modeled threads are data, not
execution threads: the engine is logically sequential and every strategy is
deterministic given its inputs.

Every scheduler moves through one successor step: either one plan
applies and pops its head Do (``_step``), or, when no plan can act, the
clock advances to the earliest by-date wait after it (``_advance``). Then
every plan settles against the new state (branches resolve, satisfied
waits pass, stops end the plan), so no plan skips a state and day-0
activity always completes before later-dated activity starts. When no plan can act and no
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

Cost: a step pops the head of its plan's stack, which shares the rest, and
a wait on an AfterEvent pattern tests one bit. Each call gives every
pattern its plans wait on a bit, and a line of history carries the waits it
has fired as one int, updated once per event (``_Waits``). None of this
grows with the history, nor does ``apply_event``: it copies only the map
its event changes and appends to a history that shares its buffer
(``world.History``). Enumeration walks the lattice of distinct states, not
the tree of interleavings (``_Lattice``): it steps and settles each edge of
the lattice once, making each child from its parent's values and copying
nothing, then reads every trace off as a path. A (3,3,3) plan set with one
wait takes 100 steps for its 840 traces, not 2,655. The paths come in
canonical order, so no trace is keyed, deduplicated or sorted unless
several choice assignments must be merged; what is left per trace is its
tuple of events and its world.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from .money import fields, fields_getter, record
from .world import (
    Action,
    ActionTemplate,
    AfterEvent,
    ByDate,
    Condition,
    Event,
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

@record
class Do:
    action: Action


@record
class WaitFor:
    trigger: Trigger


@record
class Branch:
    condition: Condition
    then_steps: tuple["PlanStep", ...]
    else_steps: tuple["PlanStep", ...] = ()


@record
class Stop:
    pass


PlanStep = Do | WaitFor | Branch | Stop


@record
class Plan:
    agent: str
    steps: tuple[PlanStep, ...]


@record
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

@record
class RoundRobin:
    pass


@record
class SeededRandom:
    seed: int


@record
class Exhaustive:
    pass


ScheduleStrategy = RoundRobin | SeededRandom | Exhaustive


# ---------------------------------------------------------------------------
# plan stacks and fired waits
# ---------------------------------------------------------------------------

# A plan's remaining steps: None once it is done, else its head step and the
# stack under it. Popping the head shares the rest; nothing is copied.
_Stack = Optional[tuple[PlanStep, "_Stack"]]


def _push(steps: Sequence[PlanStep], rest: _Stack) -> _Stack:
    """``steps`` on top of ``rest``, the first of them at the head."""
    for step in reversed(steps):
        rest = (step, rest)
    return rest


def _head(stack: _Stack) -> Optional[PlanStep]:
    return None if stack is None else stack[0]


def _ids(stack: _Stack) -> tuple[int, ...]:
    """The identities of a stack's steps, head first."""
    ids = []
    while stack is not None:
        ids.append(id(stack[0]))
        stack = stack[1]
    return tuple(ids)


class _Waits:
    """The AfterEvent patterns of one call's waits, branch arms included, as
    ``_count_steps`` collects them: ``bit`` gives each pattern object a bit
    of an int, and the waits one line of history has fired are one int, which
    ``fold`` updates once per event. ``table`` holds, per set of fields that
    some pattern constrains, a getter of those fields, the place of
    ``contract_id`` among them (or None), and the bits of the patterns that
    want each tuple of values. A ``contract_id`` matches the action's own
    and each id its reason cites, as ``ActionTemplate.matches`` reads it.
    """

    __slots__ = ("bit", "table")

    def __init__(self, patterns: Iterable[ActionTemplate]):
        bits: dict[int, int] = {}
        table: dict[tuple[str, ...], tuple] = {}
        for pattern in patterns:
            if id(pattern) in bits:
                continue
            every = _pattern_values(pattern)
            constrained = tuple([n for n, v in zip(_PATTERN_FIELDS, every) if v is not None])
            entry = table.get(constrained)
            if entry is None:
                at = constrained.index("contract_id") if "contract_id" in constrained else None
                entry = table[constrained] = (fields_getter(constrained), at, {})
            bit = bits[id(pattern)] = 1 << len(bits)
            wanted, key = entry[2], tuple([v for v in every if v is not None])
            if wanted.setdefault(key, bit) != bit:  # an equal pattern came first
                wanted[key] |= bit
        self.bit, self.table = bits, table

    def fold(self, fired: int, events: Iterable[Event]) -> int:
        """``fired`` and the bits of every pattern that one of ``events`` matches."""
        for event in events:
            action = event.action
            for values_of, at, wanted in self.table.values():
                values = values_of(action)
                fired |= wanted.get(values, 0)
                if at is not None and action.reason:
                    for cited in action.reason.contract_ids:
                        fired |= wanted.get(values[:at] + (cited,) + values[at + 1:], 0)
        return fired


_PATTERN_FIELDS = tuple(f.name for f in fields(ActionTemplate))
_pattern_values = fields_getter(_PATTERN_FIELDS)


def _settle(stack: _Stack, world: WorldState, fired: int, choices: Mapping[str, bool],
            waits: _Waits) -> _Stack:
    """The stack once its head is a Do or a wait that has not fired.

    A branch resolves the moment it reaches the head, against the state
    then; a satisfied wait passes; a stop ends the plan.
    """
    while stack is not None:
        head, rest = stack
        if isinstance(head, Branch):
            taken = head.then_steps if eval_condition(head.condition, world, choices) \
                else head.else_steps
            stack = _push(taken, rest)
        elif isinstance(head, Stop):
            return None
        elif isinstance(head, WaitFor):
            trigger = head.trigger
            if isinstance(trigger, AfterEvent):
                if not fired & waits.bit[id(trigger.pattern)]:
                    return stack
            elif not trigger_fired(trigger, world.history, world.clock, world, choices):
                return stack
            stack = rest
        else:
            return stack
    return None


def _step(world: WorldState, fired: int, stacks: tuple[_Stack, ...], i: int,
          choices: Mapping[str, bool],
          waits: _Waits) -> tuple[WorldState, int, tuple[_Stack, ...]]:
    """The successor step in which plan ``i`` acts, from one line's
    ``(world, fired, stacks)`` to the next.

    Plan ``i`` applies and pops its head ``Do``. Then every plan settles
    against the new state, so that none skips a state and every scheduled
    trace is an enumerated one.
    """
    world = apply_event(world, stacks[i][0].action, world.clock)
    fired = waits.fold(fired, (world.history[-1],))
    stacks = (*stacks[:i], stacks[i][1], *stacks[i + 1:])
    return world, fired, tuple([_settle(s, world, fired, choices, waits) for s in stacks])


def _advance(world: WorldState, fired: int, stacks: tuple[_Stack, ...],
             choices: Mapping[str, bool], waits: _Waits,
             horizon: Optional[int]) -> Optional[tuple[WorldState, int, tuple[_Stack, ...]]]:
    """The successor step when no plan can act: the next line, with the
    clock at the earliest by-date wait after it and every plan settled, or
    None when no plan waits for a later day. A day past ``horizon`` raises
    HorizonExceeded."""
    day = min((h.trigger.day for h in map(_head, stacks) if isinstance(h, WaitFor)
               and isinstance(h.trigger, ByDate) and h.trigger.day > world.clock), default=None)
    if day is None:
        return None
    if horizon is not None and day > horizon:
        raise HorizonExceeded(f"next scheduled activity at day {day} exceeds horizon {horizon}")
    world = WorldState(world.agents, world.accounts, world.goods, world.contracts,
                       world.history, day, world.overdraft_allowed)
    return world, fired, tuple([_settle(s, world, fired, choices, waits) for s in stacks])


class _Node:
    """One distinct state of an enumeration: the world, fired waits, settled
    stacks and ``applied`` ints (see ``_Lattice``) of the first path that
    reached it, and, once expanded, its ``children``: (the event, or None
    for a clock advance; the child node), the highest-named plan's first. A
    node without children ends a trace."""

    __slots__ = ("world", "fired", "stacks", "applied", "children")

    def __init__(self, world: WorldState, fired: int, stacks: tuple[_Stack, ...],
                 applied: tuple[int, ...]):
        self.world = world
        self.fired = fired
        self.stacks = stacks
        self.applied = applied
        self.children: Optional[tuple[tuple[Optional[Event], "_Node"], ...]] = None


class _Lattice:
    """The states one enumeration reaches under one choice assignment, so
    that it steps and settles each once, however many interleavings pass
    through it.

    A plan's ``applied`` is an int, interned in ``sequences``, that names
    the actions the plan has applied so far: each by identity, and a credit
    sale or promise that names its contract by sequence number
    (``seq_named_contract``) with that number. ``nodes`` maps a state's key
    to its node: the plans' ints, the clock, each plan's remaining stack by
    the identity of its steps, and the key order of goods and contracts.

    Every path to one key reaches a state that ``apply_event``, ``_settle``
    and ``_advance`` cannot tell apart from the node's, so the node's children
    serve every path. They read the clock, the choices, agents, overdraft
    flag, the three maps, the history's length and which actions the history
    holds; the fired waits are a function of those actions, as patterns read
    action fields, never dates, so they stay out of the key. Balances are
    sums; a good's owner is its last buyer, since each seller must own what
    it sells; contracts come from action fields and signatures are set
    unions, except for the seq-named ids, which the ints carry; the
    history's length is the number of steps. The rest is in the key: a new
    good or contract is added last, so the key order depends on the order of
    the steps; a branch resolved against different states leaves equal ints
    but different stacks; and the clock advances only where no plan can act,
    so a branch may leave one stack after an arm that waited for a date and
    after one that did not. An edge's event is the same from every path: its
    sequence number is the number of steps, its date the node's clock. An
    earlier event's date is not, as one step may come before a clock advance
    on one path and after it on another, so each trace takes its events from
    its own path.

    A node is expanded the first time the walk reaches it, all its children
    at once, highest-named first, as the walk of the interleaving tree
    would; so a failing step raises where that walk would first reach it.
    """

    __slots__ = ("choices", "waits", "horizon", "nodes", "sequences")

    def __init__(self, choices: Mapping[str, bool], waits: _Waits, horizon: Optional[int]):
        self.choices = choices
        self.waits = waits
        self.horizon = horizon
        self.nodes: dict[tuple, _Node] = {}
        self.sequences: dict[tuple, int] = {}

    def node(self, world: WorldState, fired: int, stacks: tuple[_Stack, ...],
             applied: tuple[int, ...]) -> _Node:
        """The node of this state, made from it if it is new."""
        key = (applied, world.clock, tuple([_ids(s) for s in stacks]),
               tuple(world.goods), tuple(world.contracts))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = _Node(world, fired, stacks, applied)
        return node

    def extend(self, applied: int, event: Event) -> int:
        """The int of a plan that has applied ``applied``'s actions, then ``event``'s."""
        action = event.action
        step = id(action) if seq_named_contract(action, event.seq) is None \
            else (id(action), event.seq)
        return self.sequences.setdefault((applied, step), len(self.sequences) + 1)

    def paths(self, world: WorldState, fired: int,
              stacks: tuple[_Stack, ...]) -> Iterable[tuple[_Node, tuple[Event, ...]]]:
        """Every maximal path from this settled state, depth first, the
        lowest-named agent first: its last node and its events.

        The paths come in strictly ascending ``Progression.key`` order, with
        no key twice. Two paths first part at an edge out of one node, and
        both events there are dated with the node's clock. Their actors
        differ: each child of a node is a step of a different plan, and
        every plan acts for its own agent only (``_count_steps``), while a
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
            (self.node(world, fired, stacks, (0,) * len(stacks)), 0, None)]
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
        clock when none can act. Each child is made from the node's values,
        which stay as they are."""
        world, fired, stacks, applied = node.world, node.fired, node.stacks, node.applied
        enabled = [i for i, s in enumerate(stacks) if isinstance(_head(s), Do)]
        if not enabled:
            line = _advance(world, fired, stacks, self.choices, self.waits, self.horizon)
            node.children = () if line is None else ((None, self.node(*line, applied)),)
            return
        children = []
        for i in reversed(enabled):
            child = _step(world, fired, stacks, i, self.choices, self.waits)
            event = child[0].history[-1]
            ints = (*applied[:i], self.extend(applied[i], event), *applied[i + 1:])
            children.append((event, self.node(*child, ints)))
        node.children = tuple(children)


def _validate_plans(world: WorldState, plans: Iterable[Plan]) -> tuple[list[Plan], int, _Waits]:
    """The plans in agent order, the steps they hold and their waits, in one walk."""
    ordered = sorted(plans, key=lambda p: p.agent)
    seen = set()
    total = 0
    patterns: list[ActionTemplate] = []
    for plan in ordered:
        if plan.agent in seen:
            raise EngineError(f"two plans for agent {plan.agent!r}")
        seen.add(plan.agent)
        if plan.agent not in world.agents:
            raise EngineError(f"plan for unknown agent {plan.agent!r}")
        total += _count_steps(plan.agent, plan.steps, patterns)
    return ordered, total, _Waits(patterns)


def _count_steps(agent: str, steps: Sequence[PlanStep], patterns: list[ActionTemplate],
                 branches: tuple = ()) -> int:
    """The steps a plan takes at most, through the longer arm of each
    branch; each AfterEvent wait's pattern, in both arms, goes to
    ``patterns``, and a ``Do`` at any depth that acts for another agent is
    rejected. ``branches`` holds the (index, arm) of each branch around
    ``steps``, to spell the error's path."""
    total = 0
    for i, step in enumerate(steps):
        total += 1
        if isinstance(step, Do) and step.action.actor != agent:
            path = "".join(f"[{j}].{arm}" for j, arm in branches)
            raise EngineError(f"plan for {agent!r}: steps{path}[{i}] is an action by "
                              f"{step.action.actor!r}; a plan acts for its own agent only")
        if isinstance(step, WaitFor) and isinstance(step.trigger, AfterEvent):
            patterns.append(step.trigger.pattern)
        if isinstance(step, Branch):
            total += max(
                _count_steps(agent, step.then_steps, patterns, (*branches, (i, "then_steps"))),
                _count_steps(agent, step.else_steps, patterns, (*branches, (i, "else_steps"))))
    return total


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
    if isinstance(strategy, Exhaustive):  # enumeration walks the plans, under no bound
        return enumerate_interleavings(world, plans, bound=sys.maxsize, choices=choices,
                                       horizon=horizon)[0]

    ordered, _, waits = _validate_plans(world, plans)
    fired = waits.fold(0, world.history)
    stacks = tuple([_settle(_push(p.steps, None), world, fired, choices, waits) for p in ordered])
    rng = random.Random(strategy.seed) if isinstance(strategy, SeededRandom) else None
    start = len(world.history)
    schedule: list[int] = []
    cycle = 0

    while True:
        cycle += 1
        # the strategy picks who gets a chance this cycle: round-robin every
        # plan in name order, seeded-random one runnable plan
        chances = range(len(stacks))
        if rng is not None:
            runnable = [i for i, s in enumerate(stacks) if isinstance(_head(s), Do)]
            chances = [rng.choice(runnable)] if runnable else []
        stepped = False
        for i in chances:
            if isinstance(_head(stacks[i]), Do):
                world, fired, stacks = _step(world, fired, stacks, i, choices, waits)
                schedule.append(cycle)
                stepped = True
        if stepped:
            continue

        # nothing moved: finish, release a by-date wait, or report deadlock
        if not any(stacks):
            break
        line = _advance(world, fired, stacks, choices, waits, horizon)
        if line is None:
            raise DeadlockDetected({p.agent: s[0].trigger for p, s in zip(ordered, stacks) if s})
        world, fired, stacks = line

    return Progression(events=world.history[start:], world=world, schedule=tuple(schedule))


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
    ordered, total, waits = _validate_plans(world, plans)
    if total > bound:
        raise BoundExceeded(f"plans hold {total} steps, bound is {bound}")

    # every assignment of the choice points, the first sorted name flipping fastest
    fixed = dict(choices or {})
    names = sorted(choice_points or {})
    assignments = [{**fixed, **dict(zip(names, reversed(values)))}
                   for values in product((False, True), repeat=len(names))]

    # the plans' stacks and wait table, shared by every choice assignment
    fired = waits.fold(0, world.history)
    unsettled = [_push(p.steps, None) for p in ordered]
    keys: dict[int, tuple[Action, tuple]] = {}
    merged: dict[tuple, Progression] = {}
    for assignment in assignments:
        stacks = tuple([_settle(s, world, fired, assignment, waits) for s in unsettled])
        traces = []
        for end, events in _Lattice(assignment, waits, horizon).paths(world, fired, stacks):
            state = end.world
            traces.append(Progression(events=events, world=WorldState(
                state.agents, state.accounts, state.goods, state.contracts,
                world.history + events, state.clock, state.overdraft_allowed)))
        if len(assignments) == 1:
            return tuple(traces)
        # of equal keys, the merge keeps the lowest assignment's trace
        for trace in traces:
            merged.setdefault(trace.key(keys), trace)
    return tuple(merged[key] for key in sorted(merged))


# ---------------------------------------------------------------------------
# plan serialization (scenario files, witness output)
# ---------------------------------------------------------------------------

codec_row(Do)
codec_row(WaitFor)
codec_row(Branch, "condition then=then_steps else=else_steps", defaults={"then_steps": ()})
codec_row(Stop)
codec_union(PlanStep, do=Do, wait_for=WaitFor, branch=Branch, stop=Stop)
codec_row(Plan, defaults={"steps": ()})
