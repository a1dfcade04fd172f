"""Command-line driver: scenarios, runs, judgements, comparison, synthesis.

Exit codes are scriptable: 0 success (judge: permitted; compare:
equivalent), 2 usage or parameter error, 3 forbidden, 4 undecided,
5 not equivalent. Identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Optional, Sequence

from .engine import (
    EngineError,
    Exhaustive,
    Progression,
    RoundRobin,
    SeededRandom,
    enumerate_interleavings,
    run,
)
from .scenarios import (
    ParameterViolation,
    ScenarioInstance,
    ScenarioSpec,
    UnknownScenario,
    get_spec,
    instantiate,
    load_scenario_file,
    scenario_names,
)
from .world import WorldError, render_json, value_to_dict, world_object

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HARAM = 3
EXIT_UNDECIDED = 4
EXIT_NOT_EQUIVALENT = 5

# A command imports ``legality`` or ``synthesis`` only when it uses them, so
# the parser's help names these without reading either module;
# tests/test_cli.py holds them equal to BUILTIN_POSITIONS, PRIMITIVES and
# ALL_AGENTS.
POSITION_NAMES = ("CONVENTIONAL", "MAJORITY", "MALAYSIA", "STRICT_DESCRIPTIVE",
                  "STRICT_FUNCTIONAL")
PRIMITIVES = ("spot-sale", "credit-sale", "prepare-good", "prepare-contract", "sign-contract",
              "inform")
ALL_AGENTS = "all"


def _parse_overrides(pairs: Sequence[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParameterViolation(f"expected key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key in out:
            raise ParameterViolation(f"parameter {key!r} is given twice")
        out[key] = value
    return out


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _load_extras(path: Optional[str]):
    return load_scenario_file(path) if path else ({}, {})


def _perspective(text: str):
    """``all`` or the tuple of comma-separated agent names."""
    if text == ALL_AGENTS:
        return ALL_AGENTS
    return tuple(name.strip() for name in text.split(","))


def _strategy(args) -> RoundRobin | SeededRandom | Exhaustive:
    name = args.strategy
    if name == "round-robin":
        return RoundRobin()
    if name == "exhaustive":
        return Exhaustive()
    seed = args.seed
    if seed is None:
        text = os.environ.get("RPSF_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"RPSF_SEED must be a whole number, got {text!r}") from None
    return SeededRandom(seed)


def _instantiate(args, extras) -> ScenarioInstance:
    overrides = _parse_overrides(getattr(args, "params", []) or [])
    return instantiate(args.scenario, overrides, extra=extras)


def _run_instance(instance: ScenarioInstance, strategy, horizon: Optional[int]) -> Progression:
    choices = dict(instance.choice_points)
    return run(
        instance.world,
        instance.plans,
        strategy,
        horizon=instance.horizon if horizon is None else horizon,
        choices=choices,
    )


def _event_line(event) -> str:
    action = event.action
    bits = [f"[{event.seq:>3}] day {event.date:>4} {action.kind.value:<24} {action.actor}"]
    if action.counterparty:
        bits.append(f"-> {action.counterparty}")
    if action.amount is not None:
        bits.append(f"amount {action.amount}")
    if action.good_id:
        bits.append(f"good {action.good_id}")
    if action.contract_id:
        bits.append(f"contract {action.contract_id}")
    if event.delta:
        bits.append(f"| {event.delta}")
    return " ".join(bits)


def _emit(args, payload: Callable[[], dict], text_lines: Sequence[str]) -> None:
    """Print the text lines, or under ``--format json`` the JSON of what
    ``payload`` returns; text output builds no payload."""
    lines = [render_json(payload())] if args.format == "json" else text_lines
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``rpsf ... | head``). Point stdout at devnull so
        # that the interpreter's last flush of the buffer raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list_scenarios(args) -> int:
    extras, _ = _load_extras(args.scenario_file)
    specs: list[ScenarioSpec] = [get_spec(name) for name in scenario_names()]
    specs.extend(extras.values())
    lines = []
    for spec in specs:
        lines.append(f"{spec.name}  [{spec.family}]")
        lines.append(f"    {spec.summary}")
        if spec.params:
            rendered = ", ".join(f"{p.name}={p.default}" for p in spec.params)
            lines.append(f"    parameters: {rendered}")
    _emit(args, lambda: {"scenarios": [
        {"name": spec.name, "family": spec.family, "summary": spec.summary,
         "parameters": [{"name": p.name, "default": str(p.default), "doc": p.doc}
                        for p in spec.params]}
        for spec in specs]}, lines)
    return EXIT_OK


def _cmd_run(args) -> int:
    extras, _ = _load_extras(args.scenario_file)
    instance = _instantiate(args, extras)
    progression = _run_instance(instance, _strategy(args), args.horizon)

    def payload() -> dict:
        from .synthesis import monetary_projection, net_positions

        nets = net_positions(monetary_projection(progression))
        return {
            "scenario": instance.name,
            "events": progression.events,
            "final_world": world_object(progression.world, include_history=False),
            "net_positions": {
                agent: {str(day): str(value) for day, value in sorted(nets[agent].items())}
                for agent in sorted(nets)
            },
        }
    lines = []
    if args.verbose:
        lines.extend(_event_line(e) for e in progression.events)
        lines.append("")
    lines.append(f"{instance.name}: {len(progression.events)} events, "
                 f"final day {progression.world.clock}")
    for name in sorted(progression.world.accounts):
        opening = instance.world.accounts[name]
        closing = progression.world.accounts[name]
        lines.append(f"  {name}: balance {closing} (opened {opening}, net {closing - opening})")
    for gid in sorted(progression.world.goods):
        good = progression.world.goods[gid]
        lines.append(f"  {gid}: owned by {good.owner}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_judge(args) -> int:
    from .legality import Verdict, get_position, judge

    extras, positions = _load_extras(args.scenario_file)
    instance = _instantiate(args, extras)
    position = get_position(args.position, positions)
    progression = _run_instance(instance, _strategy(args), args.horizon)
    judgement = judge(position, instance, progression)
    lines = [f"{position.name} on {instance.name}: {judgement.verdict.value}"]
    for reason in judgement.reasons:
        where = ""
        if reason.events:
            where = f" events {list(reason.events)}"
        if reason.contracts:
            where += f" contracts {list(reason.contracts)}"
        lines.append(f"  rule {reason.rule}:{where} {reason.note}".rstrip())
    _emit(args, lambda: {"scenario": instance.name, **value_to_dict(judgement)}, lines)
    if judgement.verdict == Verdict.HARAM:
        return EXIT_HARAM
    if judgement.verdict == Verdict.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .synthesis import check_perspective, equivalent, monetary_projection

    extras, _ = _load_extras(args.scenario_file)
    inst_a = instantiate(args.scenario_a, _parse_overrides(args.set_a or []), extra=extras)
    inst_b = instantiate(args.scenario_b, _parse_overrides(args.set_b or []), extra=extras)
    perspective = _perspective(args.perspective)
    check_perspective(perspective, set(inst_a.world.agents) | set(inst_b.world.agents))
    strategy = RoundRobin()
    prog_a = _run_instance(inst_a, strategy, None)
    prog_b = _run_instance(inst_b, strategy, None)
    trace_a = monetary_projection(prog_a)
    trace_b = monetary_projection(prog_b)
    result = equivalent(trace_a, trace_b, perspective)
    verdict = "equivalent" if result else "not equivalent"
    lines = [f"{inst_a.name} vs {inst_b.name} from {args.perspective}: {verdict}"]
    _emit(args, lambda: {"scenario_a": inst_a.name, "scenario_b": inst_b.name,
                         "perspective": args.perspective, "equivalent": result,
                         "flows_a": trace_a, "flows_b": trace_b}, lines)
    return EXIT_OK if result else EXIT_NOT_EQUIVALENT


def _cmd_synthesize(args) -> int:
    from .synthesis import check_perspective, monetary_projection, synthesize, witness_scenario

    extras, _ = _load_extras(args.scenario_file)
    instance = instantiate(args.target, _parse_overrides(args.params or []), extra=extras)
    # a target without an agent X is searched from its first principal, among its own agents
    if "X" in instance.world.agents:
        perspective, agents = ("X",), ("X", "Y", "Z")
    else:
        perspective, agents = instance.principals[:1], tuple(instance.world.agents)
    if args.perspective is not None:
        perspective = _perspective(args.perspective)
    if args.agents is not None:
        agents = tuple(name.strip() for name in args.agents.split(","))
    # a perspective with no cells in the target would match the empty witness
    check_perspective(perspective, instance.world.agents)
    if perspective == ALL_AGENTS and not instance.world.agents.keys() & agents:
        raise ValueError(f"perspective 'all' holds no agent of {instance.name} among --agents "
                         f"{list(agents)}; known agents: {sorted(instance.world.agents)}")
    progression = _run_instance(instance, RoundRobin(), None)
    target = monetary_projection(progression)
    result = synthesize(
        target,
        catalogue=[name.strip() for name in args.catalogue.split(",")],
        agents=agents,
        bound=args.bound,
        perspective=perspective,
    )
    shown = result.witnesses[:args.max_witnesses]
    lines = [
        f"target {instance.name}: found={result.found} "
        f"witnesses={len(result.witnesses)} explored={result.explored} bound={result.bound}"
    ]
    for i, witness in enumerate(shown):
        steps = ", ".join(
            f"{a.kind.value}({a.actor}->{a.counterparty or ''}"
            + (f", {a.amount}" if a.amount is not None else "")
            + (f", {a.good_id}" if a.good_id else "") + ")"
            for a in witness.actions
        )
        lines.append(f"  witness {i}: {steps}")
    _emit(args, lambda: {
        "found": result.found,
        "witness_count": len(result.witnesses),
        "witnesses": [{"actions": w.actions} for w in shown],
        "explored": result.explored,
        "bound": result.bound,
        "grounding": dict(result.grounding),
        "target": instance.name,
        "witness_scenarios": [witness_scenario(result, i, witness=witness)
                              for i, witness in enumerate(shown)],
    }, lines)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    extras, _ = _load_extras(args.scenario_file)
    instance = _instantiate(args, extras)
    progressions = enumerate_interleavings(
        instance.world, instance.plans, bound=args.bound,
        choice_points=instance.choice_points, horizon=instance.horizon,
    )
    lines = [f"{instance.name}: {len(progressions)} maximal interleavings (bound {args.bound})"]
    if args.verbose:
        for i, progression in enumerate(progressions):
            kinds = " ".join(f"{e.action.actor}:{e.action.kind.value}"
                             for e in progression.events)
            lines.append(f"  [{i}] {kinds}")
    _emit(args, lambda: {
        "scenario": instance.name,
        "bound": args.bound,
        "count": len(progressions),
        "progressions": [{"events": p.events} for p in progressions] if args.verbose else [],
    }, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpsf",
        description="Deterministic simulator and legality analyzer for composed "
                    "financial products.",
        epilog="exit codes: 0 ok/halal/equivalent, 2 usage or parameter error, "
               "3 haram, 4 undecided, 5 not equivalent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_arg=True):
        if scenario_arg:
            p.add_argument("scenario", help="scenario name")
            p.add_argument("params", nargs="*", metavar="key=value",
                           help="parameter overrides; quantities accept n, n/d, decimals")
        p.add_argument("--scenario-file", help="JSON file with extra scenarios/positions")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("list-scenarios", help="catalogue of built-in scenarios")
    common(p, scenario_arg=False)
    p.set_defaults(func=_cmd_list_scenarios)

    p = sub.add_parser("run", help="execute a scenario and report the progression")
    common(p)
    p.add_argument("--strategy", choices=("round-robin", "random", "exhaustive"),
                   default="round-robin")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for --strategy random (default: env RPSF_SEED or 0)")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("-v", "--verbose", action="store_true", help="print the event log")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("judge", help="judge a scenario run under a legal position")
    common(p)
    p.add_argument("--position", default="CONVENTIONAL",
                   help=f"one of {list(POSITION_NAMES)} or a file-defined position")
    p.add_argument("--strategy", choices=("round-robin", "random", "exhaustive"),
                   default="round-robin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_judge)

    p = sub.add_parser("compare", help="flow-trace equivalence of two scenarios")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")
    p.add_argument("--set-a", action="append", metavar="key=value",
                   help="parameter override for the first scenario")
    p.add_argument("--set-b", action="append", metavar="key=value",
                   help="parameter override for the second scenario")
    p.add_argument("--perspective", default=ALL_AGENTS,
                   help="'all' or comma-separated agent names")
    common(p, scenario_arg=False)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synthesize", help="bounded search for a synthesis of a target")
    p.add_argument("--target", required=True, help="scenario whose flows are the target")
    p.add_argument("params", nargs="*", metavar="key=value")
    p.add_argument("--catalogue", default=",".join(PRIMITIVES),
                   help=f"comma-separated primitives from {PRIMITIVES}")
    p.add_argument("--agents", help="comma-separated agent names (default: X,Y,Z when the "
                                    "target has an agent X, else the target's own agents)")
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--perspective", help="'all' or comma-separated agent names (default: X "
                                         "when the target has an agent X, else the target's "
                                         "first principal)")
    p.add_argument("--max-witnesses", type=_count, default=3,
                   help="witnesses to render (as scenario text in json output)")
    common(p, scenario_arg=False)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("enumerate", help="exhaustively enumerate interleavings")
    common(p)
    p.add_argument("--bound", type=int, default=40,
                   help="reject plan sets with more steps than this")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="include every progression in the output")
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterViolation, UnknownScenario, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WorldError, EngineError) as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
