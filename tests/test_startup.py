"""What a command loads at start: its modules, and no code-generation tools.

Each check runs a fresh interpreter, since this process has every module
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

# Every name ``rpsf/__init__`` imported eagerly before its names resolved
# on first use, by module.
PACKAGE_NAMES = {
    "money": "Quantity ZERO ONE inverse parse_quantity total_div",
    "world": "Action ActionKind ActionTemplate AfterEvent Agent Always ByDate Clause "
             "ConditionMet ContractRecord EthicalTag Event Good GoodSpec InsufficientFunds "
             "NotOwner Reason RepaymentTerms Role SigningMode Stage StageViolation "
             "UnknownReference ValidationError WorldError WorldState apply_event honour_status "
             "make_world promise_to_contract replay world_to_json",
    "engine": "BoundExceeded Branch DeadlockDetected Do EngineError Exhaustive HorizonExceeded "
              "Plan Progression RoundRobin SeededRandom Stop WaitFor enumerate_interleavings run",
    "scenarios": "ParameterViolation ScenarioInstance ScenarioSpec UnknownScenario instantiate "
                 "load_scenario_file scenario_names",
    "legality": "BUILTIN_POSITIONS CONVENTIONAL Judgement LegalPosition MAJORITY MALAYSIA "
                "NonpositivePrincipal Rule STRICT_DESCRIPTIVE STRICT_FUNCTIONAL Verdict "
                "ZeroDuration effective_interest_rate judge",
    "synthesis": "ALL_AGENTS Flow FlowTrace SynthesisResult Witness equivalent "
                 "monetary_projection net_positions synthesize witness_scenario",
}

# runs one CLI command as ``python -m rpsf.cli`` does, then writes the
# value of REPORT on stderr
_AFTER_COMMAND = """
import runpy, sys
sys.argv = ["rpsf", *sys.argv[1:]]
try:
    runpy.run_module("rpsf.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stdout.flush()
print(REPORT, file=sys.stderr)
"""


def _python(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stderr.strip().splitlines()[-1]


def _loaded_after(*argv: str) -> set[str]:
    return set(_python(_AFTER_COMMAND.replace("REPORT", '" ".join(sorted(sys.modules))'),
                       *argv).split())


@pytest.mark.parametrize("argv", [
    ("list-scenarios",),
    ("list-scenarios", "--format", "json"),
], ids=" ".join)
def test_a_command_that_renders_no_world_compiles_no_writer(argv):
    # writers compile on first use, so these commands pay nothing for them
    report = 'len(sys.modules["rpsf.world"]._WRITERS)'
    assert _python(_AFTER_COMMAND.replace("REPORT", report), *argv) == "0"


def _record_classes(value: object) -> set[str]:
    """The names of the classes of the records in ``value``, nested ones included."""
    from rpsf.money import fields
    from rpsf.world import _ROWS

    if value.__class__ in _ROWS:
        return {value.__class__.__name__}.union(
            *(_record_classes(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list, frozenset)):
        return set().union(*map(_record_classes, value))
    return set()


@pytest.mark.parametrize("name", ["loan_with_interest", "brokered_loan"])
def test_run_compiles_the_writers_of_the_records_it_prints(name):
    # a nested row's writer compiles with its first record, so `run` compiles
    # a writer for each class of record in its output and for no other
    from rpsf.engine import run
    from rpsf.scenarios import instantiate
    from rpsf.world import world_object

    report = 'sorted(c.__name__ for c in sys.modules["rpsf.world"]._WRITERS)'
    compiled = _python(_AFTER_COMMAND.replace("REPORT", report), "run", name, "--format", "json")
    instance = instantiate(name)
    progression = run(instance.world, instance.plans, horizon=instance.horizon,
                      choices=dict(instance.choice_points))
    printed = _record_classes([progression.events,
                               world_object(progression.world, include_history=False)])
    assert compiled == repr(sorted(printed))


@pytest.mark.parametrize("argv, absent", [
    (("list-scenarios",), {"rpsf.legality", "rpsf.synthesis"}),
    (("enumerate", "tawarruq_classic"), {"rpsf.legality", "rpsf.synthesis"}),
    (("run", "loan_with_interest"), {"rpsf.legality", "rpsf.synthesis"}),
    (("run", "loan_with_interest", "--format", "json"), {"rpsf.legality"}),
])
def test_a_command_loads_only_the_modules_it_uses(argv, absent):
    loaded = _loaded_after(*argv)
    assert "rpsf.scenarios" in loaded  # the command ran (as __main__, not as rpsf.cli)
    assert loaded.isdisjoint(absent)


def test_judge_loads_legality():
    assert "rpsf.legality" in _loaded_after("judge", "ina_two_party")


@pytest.mark.parametrize("positions, loads", [([], False),
                                              ([{"name": "P", "rules": []}], True)])
def test_a_scenario_file_loads_legality_only_for_its_positions(tmp_path, positions, loads):
    # the loader decodes a file's positions, so only a file that holds one
    # makes a command that judges nothing read legality
    path = tmp_path / "extras.json"
    path.write_text(json.dumps({"scenarios": [], "positions": positions}))
    loaded = _loaded_after("run", "loan_with_interest", "--scenario-file", str(path))
    assert ("rpsf.legality" in loaded) is loads


def test_every_package_name_still_imports():
    names = [name for group in PACKAGE_NAMES.values() for name in group.split()]
    code = ("import rpsf, sys\n"
            f"from rpsf import {', '.join(names)}\n"
            "from rpsf import *\n"
            f"assert set(rpsf.__all__) == set({names!r})\n"
            "assert set(rpsf.__all__) <= set(dir(rpsf))\n"
            "print(rpsf.__version__, file=sys.stderr)")
    assert _python(code) == "0.1.0"


def test_dir_lists_every_package_name():
    import rpsf

    assert set(rpsf.__all__) <= set(dir(rpsf))


def test_names_resolve_in_their_modules():
    import rpsf

    for module, group in PACKAGE_NAMES.items():
        home = sys.modules[f"rpsf.{module}"]
        for name in group.split():
            assert getattr(rpsf, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        rpsf.nothing


# what importing dataclasses loads to generate methods from source; no
# command needs any of it, since money.record builds the record classes
SOURCE_TOOLS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("argv", [
    ("list-scenarios",),
    ("run", "loan_with_interest"),
    ("judge", "ina_two_party"),
    ("compare", "pi_prime", "savings_account_with_interest", "--perspective", "X"),
    ("synthesize", "--target", "savings_account_with_interest", "--bound", "3"),
    ("enumerate", "tawarruq_classic"),
], ids=lambda argv: argv[0])
def test_a_command_loads_no_source_tools(argv):
    loaded = _loaded_after(*argv)
    assert "rpsf.scenarios" in loaded
    assert loaded.isdisjoint(SOURCE_TOOLS)
