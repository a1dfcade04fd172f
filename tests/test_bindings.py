"""No module global of the package is rebound by rendering, running or
enumerating: a cache swaps its contents in place.

perfbench's span tracer wraps the package's module globals and puts the
saved values back afterwards, and its ``test_untraced_operations_patch_nothing``
fails on an operation that rebinds one. This is the same check in tier-1.
"""

import sys

import rpsf
import rpsf.cli  # noqa: F401  (load every module of the package)
import rpsf.legality  # noqa: F401
import rpsf.scenarios  # noqa: F401
import rpsf.synthesis  # noqa: F401
from rpsf import world as world_module
from rpsf.engine import Do, Plan, RoundRobin, enumerate_interleavings, run
from rpsf.money import Quantity
from rpsf.world import Action, ActionKind, Agent, make_world, render_json, world_to_json


def _bindings() -> dict:
    return {(name, key): value for name, module in list(sys.modules.items())
            if name == "rpsf" or name.startswith("rpsf.") for key, value in vars(module).items()}


def rebound(operation) -> list[str]:
    """The ``module.name`` globals of the package that ``operation()``
    binds, unbinds or binds to another object."""
    before = _bindings()
    operation()
    after = _bindings()
    return sorted(f"{module}.{key}" for module, key in before.keys() | after.keys()
                  if before.get((module, key), before) is not after.get((module, key), after))


def _render_run_and_enumerate() -> None:
    pays = [Action(kind=ActionKind.PAY, actor=a, counterparty=b, amount=Quantity(k + 1))
            for k, (a, b) in enumerate((("A", "B"), ("B", "A"), ("A", "B")))]
    world = make_world(agents=[Agent("A"), Agent("B")],
                       balances={"A": Quantity(100), "B": Quantity(100)})
    plans = (Plan("A", (Do(pays[0]), Do(pays[2]))), Plan("B", (Do(pays[1]),)))
    progression = run(world, plans, RoundRobin())
    traces = enumerate_interleavings(world, plans, bound=10)
    for _ in range(3):
        world_to_json(progression.world)
        render_json({"progressions": [{"events": t.events} for t in traces], "pays": pays})


def test_rendering_running_and_enumerating_rebind_no_global():
    assert rebound(_render_run_and_enumerate) == []


def test_the_gate_sees_a_rebound_a_new_and_a_deleted_global(monkeypatch):
    def rebind() -> None:
        monkeypatch.setattr(world_module, "_kept", list(world_module._kept))
        monkeypatch.setattr(rpsf, "_added", 1, raising=False)
        monkeypatch.delattr(rpsf, "__version__")

    assert rebound(rebind) == ["rpsf.__version__", "rpsf._added", "rpsf.world._kept"]
