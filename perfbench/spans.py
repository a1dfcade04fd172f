"""Span tracer for the per-layer run, installed from outside the program.

The traced run wraps the public entry points of each rpsf module in spans.
A span's self time is its duration minus the durations of the spans that
ran inside it, so nested layers are never counted twice. Spans are folded
into per-name totals as they close (calls, inclusive seconds, self
seconds); keeping every span would cost memory proportional to the
hundreds of thousands of ``apply_event`` calls one operation makes.

Modules import each other's names directly (``from .world import
apply_event``), so patching one attribute would let calls through the
other bindings escape their spans. ``install`` therefore replaces every
binding of a wrapped function in every loaded ``rpsf`` module, and
``uninstall`` puts the originals back. The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from typing import Callable, Optional

# Progression.key serialises each action itself; that cost belongs to the
# key, so the engine's own binding of action_to_dict stays unwrapped.
_UNWRAPPED_BINDINGS = {("rpsf.engine", "action_to_dict")}

_CODEC_NAME = re.compile(r"_(to|from)_(dict|json)$")


class Tracer:
    """Nested spans folded into per-name [calls, total_s, self_s] on close."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, inner = self.stack.pop()
        duration = self.clock() - start
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - inner
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, data: dict) -> None:
        """Add the totals another process wrote with ``to_dict``."""
        for name, (calls, total, own) in data["spans"].items():
            record = self.spans.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, n in data["counts"].items():
            self.count(name, n)


def _span(tracer: Tracer, name: str, fn: Callable,
          tally: Optional[Callable[[Tracer, object], None]] = None) -> Callable:
    enter, leave = tracer.enter, tracer.exit

    if tally is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            tally(tracer, result)
            return result
    return functools.wraps(fn)(wrapper)


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    counts = tracer.counts
    counts.setdefault(name, 0)

    def wrapper(self):
        counts[name] += 1
        return fn(self)
    return functools.wraps(fn)(wrapper)


def _targets():
    """(owner, attribute, span name, tally) for every wrapped entry point."""
    from rpsf import cli, engine, legality, money, scenarios, synthesis, world

    def events(tracer, progression):
        tracer.count("engine.events", len(progression.events))

    def traces(tracer, progressions):
        tracer.count("engine.traces", len(progressions))

    def search(tracer, result):
        tracer.count("synthesis.explored", result.explored)
        tracer.count("synthesis.witnesses", len(result.witnesses))

    targets = [
        (cli, "main", "cli.main", None),
        (scenarios, "instantiate", "scenarios.instantiate", None),
        (scenarios, "load_scenario_file", "world.codec", None),
        (synthesis, "witness_scenario", "world.codec", None),
        (world, "apply_event", "world.apply", None),
        (world, "replay", "world.replay", None),
        (engine, "run", "engine.run", events),
        (engine, "enumerate_interleavings", "engine.enumerate", traces),
        (engine.Progression, "key", "engine.key", None),
        (legality, "judge", "legality.judge", None),
        (synthesis, "monetary_projection", "synthesis.flow", None),
        (synthesis, "net_positions", "synthesis.flow", None),
        (synthesis, "equivalent", "synthesis.flow", None),
        (synthesis, "synthesize", "synthesis.synthesize", search),
        (synthesis, "_replay_witness", "synthesis.replay", None),
    ]
    for module in (world, engine, scenarios, legality, synthesis):
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if callable(value) and not isinstance(value, type) and _CODEC_NAME.search(attr):
                targets.append((module, attr, "world.codec", None))
            elif isinstance(value, type) and "to_dict" in vars(value):
                targets.append((value, "to_dict", "world.codec", None))
    return targets, money.Quantity


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding of every target; returns what ``uninstall`` needs."""
    targets, quantity = _targets()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rpsf" or name.startswith("rpsf."))]
    patches: list[tuple[object, str, object]] = []
    seen: set[int] = set()
    for owner, attr, name, tally in targets:
        original = vars(owner)[attr]
        if id(original) in seen:
            continue
        seen.add(id(original))
        wrapper = _span(tracer, name, original, tally)
        if isinstance(owner, type):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original and (module.__name__, binding) not in _UNWRAPPED_BINDINGS:
                    patches.append((module, binding, original))
                    setattr(module, binding, wrapper)
    original = vars(quantity)["__post_init__"]
    patches.append((quantity, "__post_init__", original))
    quantity.__post_init__ = _counted(tracer, "money.quantity_new", original)
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
