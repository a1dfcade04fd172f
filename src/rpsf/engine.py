"""Deterministic execution of per-agent plans under interleaving strategies.

Each agent follows a sequential plan (do / wait-for / branch / stop); the
joint behaviour is their interleaving. Modeled threads are data, not
execution threads: the engine is logically sequential and every strategy is
deterministic given its inputs.

Time: events are stamped with the engine clock. Plans schedule future
activity with by-date wait steps; the clock advances to the earliest such
date only when no plan can act, so day-0 activity always completes before
later-dated activity starts.

Strategies:

  RoundRobin    -- agents cycle in name order; every runnable plan takes
                   exactly one step per cycle, so no agent is starved.
  SeededRandom  -- uniformly random runnable plan each turn, from a fixed
                   seed.
  Exhaustive    -- all maximal interleavings (see enumerate_interleavings);
                   run() under this strategy returns the canonically least
                   progression of that set.

Richer scheduling disciplines would slot in as further ScheduleStrategy
variants; the three above cover deterministic replay, randomized probing,
and complete desk-scale exploration.

Cost: a step pops the head of its plan's cursor, and a wait on an
AfterEvent pattern is one lookup in an index of the history that the call
builds as it goes (each event is projected once per field set that some
pattern constrains; enumeration branches carry copies). Neither grows with
the history. What still grows per event is ``apply_event`` copying the
history tuple to append to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

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
    action_from_dict,
    action_to_dict,
    condition_from_dict,
    condition_to_dict,
    eval_condition,
    event_to_dict,
    apply_event,
    trigger_fired,
    trigger_from_dict,
    trigger_to_dict,
)


class EngineError(Exception):
    pass


class DeadlockDetected(EngineError):
    """All unfinished plans are blocked; names each agent's unmet trigger."""

    def __init__(self, blocked: Mapping[str, Trigger]):
        self.blocked = dict(blocked)
        detail = "; ".join(
            f"{agent} waiting on {trigger_to_dict(trigger)}"
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

@dataclass(frozen=True, slots=True)
class Do:
    action: Action


@dataclass(frozen=True, slots=True)
class WaitFor:
    trigger: Trigger


@dataclass(frozen=True, slots=True)
class Branch:
    condition: Condition
    then_steps: tuple["PlanStep", ...]
    else_steps: tuple["PlanStep", ...] = ()


@dataclass(frozen=True, slots=True)
class Stop:
    pass


PlanStep = Do | WaitFor | Branch | Stop


@dataclass(frozen=True, slots=True)
class Plan:
    agent: str
    steps: tuple[PlanStep, ...]


@dataclass(frozen=True, slots=True)
class Progression:
    """An executed trace: the events in order plus the final world.

    ``schedule`` records, per event, the scheduler cycle in which it was
    taken (round-robin only); diagnostics for the fairness invariant.
    """

    events: tuple[Event, ...]
    world: WorldState
    schedule: tuple[int, ...] = ()

    def key(self) -> tuple:
        return tuple(
            (e.date, _freeze(action_to_dict(e.action))) for e in self.events
        )


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


# strategies ------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class RoundRobin:
    pass


@dataclass(frozen=True, slots=True)
class SeededRandom:
    seed: int


@dataclass(frozen=True, slots=True)
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

    __slots__ = ("indexed", "seen")

    def __init__(self):
        self.indexed = 0
        self.seen: dict[tuple[str, ...], set[tuple]] = {}

    def copy(self) -> "_EventIndex":
        other = _EventIndex()
        other.indexed = self.indexed
        other.seen = {fields: set(keys) for fields, keys in self.seen.items()}
        return other

    def fired(self, pattern: ActionTemplate, history: HistoryLog) -> bool:
        if len(history) > self.indexed:
            for event in history[self.indexed:]:
                for fields, keys in self.seen.items():
                    keys.update(_projections(fields, event.action))
            self.indexed = len(history)
        fields, wanted = [], []
        for name in _PATTERN_FIELDS:
            value = getattr(pattern, name)
            if value is not None:
                fields.append(name)
                wanted.append(value)
        fields = tuple(fields)
        keys = self.seen.get(fields)
        if keys is None:
            keys = self.seen[fields] = set()
            for event in history:
                keys.update(_projections(fields, event.action))
        return tuple(wanted) in keys


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
    current ground state); stops truncate the plan.
    """

    __slots__ = ("agent", "stack")

    def __init__(self, agent: str, steps: Sequence[PlanStep] = ()):
        self.agent = agent
        self.stack = list(reversed(steps))

    def clone(self) -> "_Cursor":
        other = _Cursor(self.agent)
        other.stack = self.stack.copy()
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

    def finished(self) -> bool:
        return not self.stack


def _settle_all(cursors: Sequence[_Cursor], world: WorldState,
                choices: Mapping[str, bool], index: _EventIndex) -> None:
    """Settle every plan against a new state, so that none skips a state.

    ``run`` calls this after each event and clock advance, as
    ``enumerate_interleavings`` does at each node, so every scheduled trace
    is one of the enumerated ones.
    """
    for cursor in cursors:
        cursor.settle(world, choices, index)


def _validate_plans(world: WorldState, plans: Iterable[Plan]) -> list[Plan]:
    ordered = sorted(plans, key=lambda p: p.agent)
    seen = set()
    for plan in ordered:
        if plan.agent in seen:
            raise EngineError(f"two plans for agent {plan.agent!r}")
        seen.add(plan.agent)
        if plan.agent not in world.agents:
            raise EngineError(f"plan for unknown agent {plan.agent!r}")
    return ordered


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
    can step and no by-date wait can release one within the horizon.
    """
    if horizon < world.clock:
        raise EngineError(f"horizon {horizon} precedes world clock {world.clock}")
    choices = dict(choices or {})
    ordered = _validate_plans(world, plans)
    if isinstance(strategy, Exhaustive):
        traces = enumerate_interleavings(world, ordered, bound=_total_steps(ordered), choices=choices)
        if not traces:
            return Progression(events=(), world=world)
        return traces[0]

    cursors = [_Cursor(p.agent, p.steps) for p in ordered]
    index = _EventIndex()
    rng = random.Random(strategy.seed) if isinstance(strategy, SeededRandom) else None
    start = len(world.history)
    schedule: list[int] = []
    cycle = 0
    _settle_all(cursors, world, choices, index)

    while True:
        cycle += 1
        stepped = False
        if rng is None:
            # round-robin: give each plan (name order) one chance per cycle
            for cursor in cursors:
                head = cursor.head()
                if isinstance(head, Do):
                    world = apply_event(world, head.action, world.clock)
                    cursor.stack.pop()
                    _settle_all(cursors, world, choices, index)
                    schedule.append(cycle)
                    stepped = True
        else:
            runnable = [cursor for cursor in cursors if isinstance(cursor.head(), Do)]
            if runnable:
                chosen = rng.choice(runnable)
                head = chosen.head()
                world = apply_event(world, head.action, world.clock)
                chosen.stack.pop()
                _settle_all(cursors, world, choices, index)
                schedule.append(cycle)
                stepped = True

        if stepped:
            continue

        # nothing moved: finish, release a by-date wait, or report deadlock
        if all(c.finished() for c in cursors):
            break
        wake_dates = []
        blocked: dict[str, Trigger] = {}
        for cursor in cursors:
            head = cursor.head()
            if isinstance(head, WaitFor):
                blocked[cursor.agent] = head.trigger
                if isinstance(head.trigger, ByDate) and head.trigger.day > world.clock:
                    wake_dates.append(head.trigger.day)
        if wake_dates:
            wake = min(wake_dates)
            if wake > horizon:
                raise HorizonExceeded(
                    f"next scheduled activity at day {wake} exceeds horizon {horizon}"
                )
            world = WorldState(
                agents=world.agents,
                accounts=world.accounts,
                goods=world.goods,
                contracts=world.contracts,
                history=world.history,
                clock=wake,
                overdraft_allowed=world.overdraft_allowed,
            )
            _settle_all(cursors, world, choices, index)
            continue
        raise DeadlockDetected(blocked)

    return Progression(
        events=world.history[start:],
        world=world,
        schedule=tuple(schedule),
    )


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
) -> tuple[Progression, ...]:
    """All maximal progressions over every interleaving of the plans.

    Per-plan order and wait triggers are respected; the clock advances only
    when no plan is enabled. Declared boolean choice points are branched
    over both values. Traces that end with every plan finished and traces
    that end blocked (maximal but stuck) are both included. Duplicates are
    removed and the result is in canonical (event-key) order.

    Rejects inputs whose total step count exceeds ``bound``.
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
    start = len(world.history)
    for assignment in assignments:
        stack: list[tuple[WorldState, list[_Cursor], _EventIndex]] = [
            (world, [_Cursor(p.agent, p.steps) for p in ordered], _EventIndex())
        ]
        while stack:
            state, cursors, index = stack.pop()
            _settle_all(cursors, state, assignment, index)
            enabled = [i for i, c in enumerate(cursors) if isinstance(c.head(), Do)]
            if not enabled:
                wake_dates = [
                    c.head().trigger.day
                    for c in cursors
                    if isinstance(c.head(), WaitFor) and isinstance(c.head().trigger, ByDate)
                    and c.head().trigger.day > state.clock
                ]
                if wake_dates:
                    advanced = WorldState(
                        agents=state.agents,
                        accounts=state.accounts,
                        goods=state.goods,
                        contracts=state.contracts,
                        history=state.history,
                        clock=min(wake_dates),
                        overdraft_allowed=state.overdraft_allowed,
                    )
                    stack.append((advanced, cursors, index))
                    continue
                progression = Progression(events=state.history[start:], world=state)
                seen.setdefault(progression.key(), progression)
                continue
            # reversed so the lowest-named agent is explored first; that
            # last child takes over this node's cursors and index
            for i in reversed(enabled):
                last = i == enabled[0]
                next_cursors = cursors if last else [c.clone() for c in cursors]
                head = next_cursors[i].head()
                assert isinstance(head, Do)
                next_state = apply_event(state, head.action, state.clock)
                next_cursors[i].stack.pop()
                stack.append((next_state, next_cursors, index if last else index.copy()))

    return tuple(seen[k] for k in sorted(seen))


# ---------------------------------------------------------------------------
# plan serialization (scenario files, witness output)
# ---------------------------------------------------------------------------

def step_to_dict(step: PlanStep) -> dict:
    if isinstance(step, Do):
        return {"do": action_to_dict(step.action)}
    if isinstance(step, WaitFor):
        return {"wait_for": trigger_to_dict(step.trigger)}
    if isinstance(step, Branch):
        return {
            "branch": {
                "condition": condition_to_dict(step.condition),
                "then": [step_to_dict(s) for s in step.then_steps],
                "else": [step_to_dict(s) for s in step.else_steps],
            }
        }
    if isinstance(step, Stop):
        return {"stop": True}
    raise TypeError(f"unknown plan step {step!r}")


def step_from_dict(data: Mapping) -> PlanStep:
    if "do" in data:
        return Do(action_from_dict(data["do"]))
    if "wait_for" in data:
        return WaitFor(trigger_from_dict(data["wait_for"]))
    if "branch" in data:
        d = data["branch"]
        return Branch(
            condition=condition_from_dict(d["condition"]),
            then_steps=tuple(step_from_dict(s) for s in d.get("then", [])),
            else_steps=tuple(step_from_dict(s) for s in d.get("else", [])),
        )
    if data.get("stop"):
        return Stop()
    raise ValueError(f"cannot parse plan step {data!r}")


def plan_to_dict(plan: Plan) -> dict:
    return {"agent": plan.agent, "steps": [step_to_dict(s) for s in plan.steps]}


def plan_from_dict(data: Mapping) -> Plan:
    return Plan(agent=data["agent"], steps=tuple(step_from_dict(s) for s in data.get("steps", [])))


def progression_to_dict(progression: Progression, include_world: bool = False) -> dict:
    from .world import world_to_dict

    out: dict = {"events": [event_to_dict(e) for e in progression.events]}
    if include_world:
        out["final_world"] = world_to_dict(progression.world, include_history=False)
    return out
