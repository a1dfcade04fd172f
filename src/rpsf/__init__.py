"""Reduced product set finance: a deterministic multi-agent simulator and
legality analyzer for composed financial products.

Layers: exact rational money (``money``), the layered world state and
action vocabulary (``world``), plan execution and interleaving enumeration
(``engine``), the built-in product catalogue (``scenarios``), pluggable
legal positions (``legality``), flow-trace equivalence and bounded
synthesis search (``synthesis``), and a command-line driver (``cli``).

The names below are imported from their module on first use (PEP 562), so
``import rpsf`` or one command of the CLI loads only the modules it reads.
"""

from importlib import import_module

_EXPORTS = {
    "money": ("Quantity", "ZERO", "ONE", "inverse", "parse_quantity", "total_div"),
    "world": ("Action", "ActionKind", "ActionTemplate", "AfterEvent", "Agent", "Always",
              "ByDate", "Clause", "ConditionMet", "ContractRecord", "EthicalTag", "Event",
              "Good", "GoodSpec", "InsufficientFunds", "NotOwner", "Reason", "RepaymentTerms",
              "Role", "SigningMode", "Stage", "StageViolation", "UnknownReference",
              "ValidationError", "WorldError", "WorldState", "apply_event", "honour_status",
              "make_world", "promise_to_contract", "replay", "world_to_json"),
    "engine": ("BoundExceeded", "Branch", "DeadlockDetected", "Do", "EngineError",
               "Exhaustive", "HorizonExceeded", "Plan", "Progression", "RoundRobin",
               "SeededRandom", "Stop", "WaitFor", "enumerate_interleavings", "run"),
    "scenarios": ("ParameterViolation", "ScenarioInstance", "ScenarioSpec", "UnknownScenario",
                  "instantiate", "load_scenario_file", "scenario_names"),
    "legality": ("BUILTIN_POSITIONS", "CONVENTIONAL", "Judgement", "LegalPosition", "MAJORITY",
                 "MALAYSIA", "NonpositivePrincipal", "Rule", "STRICT_DESCRIPTIVE",
                 "STRICT_FUNCTIONAL", "Verdict", "ZeroDuration", "effective_interest_rate",
                 "judge"),
    "synthesis": ("ALL_AGENTS", "Flow", "FlowTrace", "SynthesisResult", "Witness", "equivalent",
                  "monetary_projection", "net_positions", "synthesize", "witness_scenario"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # The value is looked up in its module on every use and never stored
    # here, so a name rebound in its module (as a tracer does) reads through.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
