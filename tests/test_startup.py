"""What a command loads at start: its modules and its generated methods.

Each check runs a fresh interpreter, since this process has every module
loaded already.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"

# Every name ``rpsf/__init__`` imported eagerly before its names resolved
# on first use, by module.
PACKAGE_NAMES = {
    "money": "Quantity ZERO ONE add compare inverse multiply negate parse_quantity subtract "
             "total_div",
    "world": "Action ActionKind ActionTemplate AfterEvent Agent Always ByDate Clause "
             "ConditionMet ContractRecord EthicalTag Event Good GoodSpec InsufficientFunds "
             "NotOwner Reason RepaymentTerms Role SigningMode Stage StageViolation "
             "UnknownReference ValidationError WorldError WorldState apply_event honour_status "
             "make_world promise_to_contract replay world_to_dict world_to_json",
    "engine": "BoundExceeded Branch DeadlockDetected Do EngineError Exhaustive HorizonExceeded "
              "Plan Progression RoundRobin SeededRandom Stop WaitFor enumerate_interleavings run",
    "scenarios": "ParameterViolation ScenarioInstance ScenarioSpec UnknownScenario instantiate "
                 "load_scenario_file scenario_names",
    "legality": "BUILTIN_POSITIONS CONVENTIONAL Judgement LegalPosition MAJORITY MALAYSIA Mode "
                "NonpositivePrincipal RibaFinding Rule STRICT_DESCRIPTIVE STRICT_FUNCTIONAL "
                "Verdict ZeroDuration detect_ina detect_riba effective_interest_rate judge",
    "synthesis": "ALL_AGENTS Flow FlowTrace SynthesisResult Witness equivalent "
                 "monetary_projection net_positions synthesize witness_scenario",
}

# runs one CLI command as ``python -m rpsf.cli`` does, then reports on stderr
_AFTER_COMMAND = """
import runpy, sys
{before}
sys.argv = ["rpsf", *sys.argv[1:]]
try:
    runpy.run_module("rpsf.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stdout.flush()
print({report}, file=sys.stderr)
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
    report = "' '.join(sorted(m for m in sys.modules if m.startswith('rpsf')))"
    return set(_python(_AFTER_COMMAND.format(before="", report=report), *argv).split())


@pytest.mark.parametrize("argv, absent", [
    (("list-scenarios",), {"rpsf.legality", "rpsf.synthesis"}),
    (("enumerate", "tawarruq_classic"), {"rpsf.legality", "rpsf.synthesis"}),
    (("run", "loan_with_interest"), {"rpsf.legality"}),
])
def test_a_command_loads_only_the_modules_it_uses(argv, absent):
    loaded = _loaded_after(*argv)
    assert "rpsf.scenarios" in loaded  # the command ran (as __main__, not as rpsf.cli)
    assert loaded.isdisjoint(absent)


def test_judge_loads_legality():
    assert "rpsf.legality" in _loaded_after("judge", "ina_two_party")


def test_every_package_name_still_imports():
    names = [name for group in PACKAGE_NAMES.values() for name in group.split()]
    code = ("import rpsf, sys\n"
            f"from rpsf import {', '.join(names)}\n"
            "from rpsf import *\n"
            f"assert set(rpsf.__all__) == set({names!r})\n"
            "assert set(rpsf.__all__) <= set(dir(rpsf))\n"
            "print(rpsf.__version__, file=sys.stderr)")
    assert _python(code) == "0.1.0"


def test_names_resolve_in_their_modules():
    import rpsf

    for module, group in PACKAGE_NAMES.items():
        home = sys.modules[f"rpsf.{module}"]
        for name in group.split():
            assert getattr(rpsf, name) is getattr(home, name)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        rpsf.nothing


@pytest.mark.skipif(not hasattr(dataclasses, "_create_fn"),
                    reason="this Python builds dataclass methods without _create_fn")
def test_list_scenarios_generates_at_most_105_methods():
    # dataclasses compiles each generated method from source through
    # _create_fn; with the shared record methods, only __init__ and the
    # frozen guards of the 35 classes in money, world, engine and scenarios
    before = ("import dataclasses\n"
              "calls = []\n"
              "original = dataclasses._create_fn\n"
              "def counting(*args, **kwargs):\n"
              "    calls.append(args[0])\n"
              "    return original(*args, **kwargs)\n"
              "dataclasses._create_fn = counting\n")
    assert int(_python(_AFTER_COMMAND.format(before=before, report="len(calls)"),
                       "list-scenarios")) <= 105
