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
enumeration branches carry copies). Neither grows with the history.
Enumeration applies each distinct step once (``_StepMemo``): interleavings
that reach the same per-plan prefixes at the same clock share the step's
event and changes, so a (3,3,3) plan set with one wait applies 100 events
for its 840 traces, not 2,655. What still grows per event is copying the
history tuple to append to it, in ``apply_event`` and in a memo hit alike.
"""

from __future__ import annotations

import random
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
    ``applied`` names the actions the plan has applied (see ``_StepMemo``).
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
          choices: Mapping[str, bool], index: _EventIndex,
          memo: Optional["_StepMemo"] = None) -> WorldState:
    """The one successor step every scheduler takes.

    ``cursor`` applies and pops its head ``Do``; with no cursor, the clock
    advances to ``_wake``. Then every plan settles against the new state,
    so that none skips a state and every scheduled trace is an enumerated
    one. With a ``memo`` (enumeration only), a step that the call has
    applied before, from the same per-plan actions and clock, is not
    applied again.
    """
    if cursor is None:
        world = replace(world, clock=_wake(world, cursors))
    elif memo is None:
        world = apply_event(world, cursor.stack.pop().action, world.clock)
    else:
        action = cursor.stack.pop().action
        key = (tuple([c.applied for c in cursors]), world.clock, id(action))
        done = memo.steps.get(key)
        if done is None:
            child = apply_event(world, action, world.clock)
            done = memo.keep(key, world, child, cursor.applied)
            world = child
        else:
            world = done.after(world)
        cursor.applied = done.applied
    _settle_all(cursors, world, choices, index)
    return world


class _StepMemo:
    """The steps one enumeration has applied, so that it applies each once.

    A cursor's ``applied`` is an int, interned in ``sequences``, that names
    the actions its plan has applied so far: each by identity, and a credit
    sale or promise that names its contract by sequence number
    (``seq_named_contract``) with that number. ``steps`` maps the tuple of
    the cursors' ints, the clock and the action's id to what ``apply_event``
    did there, so the key's hash costs the same at any depth.

    Every order of the same per-plan steps reaches a key with a world that
    ``apply_event`` cannot tell apart. It reads only the clock, agents,
    overdraft flag, accounts, goods, contracts and the history's length:
    balances are sums; a good's owner is its last buyer, since each seller
    must own what it sells; contracts come from action fields and
    signatures are set unions, except for the seq-named ids, which the key
    carries; the history's length is the number of steps. The clock is in
    the key because it advances only where no plan can act, which one
    order may pass through and another not. A hit rebuilds the child from
    its parent's maps and the entries the step set, so the maps keep the
    key order ``apply_event`` would give. Only successes are kept, so a
    failing step raises wherever it is first reached.
    """

    __slots__ = ("steps", "sequences")

    def __init__(self):
        self.steps: dict[tuple, _Done] = {}
        self.sequences: dict[tuple, int] = {}

    def keep(self, key: tuple, parent: WorldState, child: WorldState, applied: int) -> "_Done":
        event = child.history[-1]
        action = event.action
        step = id(action) if seq_named_contract(action, event.seq) is None \
            else (id(action), event.seq)
        extended = self.sequences.setdefault((applied, step), len(self.sequences) + 1)
        done = self.steps[key] = _Done(
            event, _changed(parent.accounts, child.accounts), _changed(parent.goods, child.goods),
            _changed(parent.contracts, child.contracts), extended)
        return done


@record(frozen=True, slots=True)
class _Done:
    """One applied step: its event, the entries it set in each of the
    world's maps, and its plan's ``applied`` after it."""

    event: Event
    accounts: dict
    goods: dict
    contracts: dict
    applied: int

    def after(self, world: WorldState) -> WorldState:
        """The world ``apply_event`` gives from ``world``: the maps keep
        ``world``'s order and add new keys last, as its copies do."""
        return WorldState(world.agents, _with(world.accounts, self.accounts),
                          _with(world.goods, self.goods), _with(world.contracts, self.contracts),
                          world.history + (self.event,), world.clock, world.overdraft_allowed)


def _changed(before: Mapping, after: Mapping) -> dict:
    return {k: v for k, v in after.items() if before.get(k) is not v}


def _with(base: Mapping, changed: dict) -> Mapping:
    return {**base, **changed} if changed else base


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
    that end blocked (maximal but stuck) are both included. Duplicates are
    removed and the result is in canonical (event-key) order.

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

    seen: dict[tuple, Progression] = {}
    # for this call only: each action's frozen key, each step's outcome and
    # each wait pattern's fields, shared by every choice assignment
    keys: dict[int, tuple[Action, tuple]] = {}
    memo = _StepMemo()
    patterns: dict[int, tuple] = {}
    start = len(world.history)
    for assignment in assignments:
        cursors = [_Cursor(p.agent, p.steps) for p in ordered]
        index = _EventIndex(patterns)
        _settle_all(cursors, world, assignment, index)
        stack: list[tuple[WorldState, list[_Cursor], _EventIndex]] = [(world, cursors, index)]
        while stack:
            state, cursors, index = stack.pop()
            enabled = [i for i, c in enumerate(cursors) if isinstance(c.head(), Do)]
            if not enabled:
                wake = _wake(state, cursors)
                if wake is None:
                    progression = Progression(events=state.history[start:], world=state)
                    seen.setdefault(progression.key(keys), progression)
                else:
                    _check_horizon(wake, horizon)
                    stack.append((_step(state, cursors, None, assignment, index), cursors, index))
                continue
            # reversed so the lowest-named agent is explored first; that
            # last child takes over this node's cursors and index
            for i in reversed(enabled):
                last = i == enabled[0]
                child = cursors if last else [c.clone() for c in cursors]
                child_index = index if last else index.copy()
                stack.append((_step(state, child, child[i], assignment, child_index, memo),
                              child, child_index))

    return tuple(seen[k] for k in sorted(seen))


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
