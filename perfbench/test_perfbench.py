"""Tests of the benchmark itself: oracles, span arithmetic, patching.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from desk import CliDesk, Sample  # noqa: E402


# -- oracles -----------------------------------------------------------------

@pytest.mark.parametrize("lengths", [(4, 3, 3), (2, 2), (3, 2, 1), (8,), (4, 4, 4)])
def test_merge_count_without_waits_is_the_multinomial(lengths):
    expected = math.factorial(sum(lengths))
    for n in lengths:
        expected //= math.factorial(n)
    assert oracles.merge_count(lengths) == expected
    assert oracles.merge_count((4, 3, 3)) == 4200


def _brute_force(lengths, after):
    labels = [(a, i) for a, n in enumerate(lengths) for i in range(n)]
    count = 0
    for order in set(itertools.permutations(labels)):
        position = {step: k for k, step in enumerate(order)}
        in_plan_order = all(position[(a, i)] < position[(a, i + 1)]
                            for a, n in enumerate(lengths) for i in range(n - 1))
        waits_hold = all(position[need] < position[step]
                         for step, needs in after.items() for need in needs)
        count += in_plan_order and waits_hold
    return count


@pytest.mark.parametrize("lengths, after", [
    ((2, 2), {(1, 1): ((0, 1),)}),
    ((3, 2, 1), {(1, 1): ((0, 1),)}),
    ((2, 2, 2), {(1, 0): ((0, 1),), (2, 1): ((1, 1),)}),
])
def test_merge_count_with_waits_matches_brute_force(lengths, after):
    assert oracles.merge_count(lengths, after) == _brute_force(lengths, after)


def test_savings_and_loan_closed_forms():
    assert oracles.savings_nets(1000, 2, "1/20", 365) == {
        "X": {0: Fraction(-1000), 365: Fraction(1048)},
        "Y": {0: Fraction(1000), 365: Fraction(-1048)},
    }
    assert oracles.savings_nets("2000", "0", "0.04", 10)["X"][10] == Fraction(2080)
    assert oracles.loan_nets(100, 10, 0, 0, 365) == {
        "X": {0: Fraction(-100), 365: Fraction(110)},
        "Y": {0: Fraction(100), 365: Fraction(-110)},
    }


def test_json_nets_and_conservation_checks():
    nets = oracles.json_nets({"X": {"0": "-1000", "365": "1048"},
                              "Y": {"0": "1000", "365": "-2097/2"}})
    assert nets["Y"][365] == Fraction(-2097, 2)
    assert oracles.unbalanced_days(nets) == [365]
    opening = {"A": Fraction(5), "B": Fraction(0)}
    assert oracles.transfers_conserve(opening, [("A", "B", Fraction(5), 0)],
                                      {"A": Fraction(0), "B": Fraction(5)}) == []
    problems = oracles.transfers_conserve(opening, [("A", "B", Fraction(6), 0)],
                                          {"A": Fraction(-1), "B": Fraction(6)})
    assert problems == ["A overdrawn on day 0"]
    assert oracles.transfers_conserve(opening, [], {"A": Fraction(4), "B": Fraction(1)}) == [
        "closing balances differ for ['A', 'B']"]


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter("a")        # 0
    tracer.enter("b")        # 1
    tracer.exit()            # 4: b lasted 3
    tracer.enter("c")        # 5
    tracer.enter("b")        # 5.5
    tracer.exit()            # 6: b lasted 0.5, inside c
    tracer.exit()            # c closes at 10: lasted 5, 0.5 of it in b
    assert tracer.spans == {"b": [2, 3.5, 3.5], "c": [1, 5.0, 4.5]}
    assert tracer.stack == [["a", 0.0, 8.0]]


def test_merge_adds_totals_from_another_process():
    tracer = spans.Tracer()
    tracer.spans["x"] = [1, 2.0, 1.0]
    tracer.merge({"spans": {"x": [2, 1.0, 1.0], "y": [1, 0.5, 0.5]}, "counts": {"n": 3}})
    assert tracer.spans == {"x": [3, 3.0, 2.0], "y": [1, 0.5, 0.5]}
    assert tracer.counts == {"n": 3}


def _bindings():
    import rpsf.cli  # noqa: F401  (load every module the benchmark patches)
    from rpsf.engine import Progression
    from rpsf.money import Quantity

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "rpsf" or name.startswith("rpsf."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    for cls in (Progression, Quantity):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import rpsf
    from rpsf import engine, synthesis, world

    before = _bindings()
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        wrapped = world.apply_event
        assert wrapped is not before[("rpsf.world", "apply_event")]
        assert engine.apply_event is wrapped and synthesis.apply_event is wrapped
        assert rpsf.apply_event is wrapped
        assert engine.action_to_dict is before[("rpsf.engine", "action_to_dict")]
        from rpsf.scenarios import instantiate
        instance = instantiate("tawarruq_classic")
        progression = engine.run(instance.world, instance.plans)
        assert len(progression.events) == 10
    finally:
        spans.uninstall(patches)
    assert _bindings() == before
    assert tracer.calls("engine.run") == 1 and tracer.counts["engine.events"] == 10
    assert tracer.calls("world.apply") == 10
    assert tracer.calls("scenarios.instantiate") == 1
    assert tracer.counts["money.quantity_new"] > 0
    assert tracer.self_time("engine.run") < tracer.total("engine.run")


def test_untraced_operations_patch_nothing():
    from inproc import EngineDeep

    before = _bindings()
    workload = EngineDeep()
    workload.ROUNDS = 20
    workload.setup(seed=1)
    sample = workload.step()
    assert sample.status == "ok"
    assert _bindings() == before


# -- workloads and statistics ----------------------------------------------------

def test_cli_desk_cycle_has_a_fixed_composition(tmp_path):
    desk = CliDesk(str(tmp_path), str(tmp_path), {})
    desk.rng = random.Random(7)
    for _ in range(3):
        cycle = desk._cycle()
        labels = [c.label for c in cycle]
        assert len(cycle) == 20
        assert labels.index("synthesize") < labels.index("run witness --scenario-file")
        [repeat] = [c for c in cycle if c.label.startswith("repeat ")]
        [original] = [c for c in cycle if c.label == repeat.label[len("repeat "):]]
        assert "--format" in original.argv and repeat.argv == original.argv
        assert cycle.index(original) < cycle.index(repeat)
        original.code, original.out = repeat.code, repeat.out = 0, b"{}"
        assert repeat.check(repeat) is None
        repeat.out = b"{ }"
        assert repeat.check(repeat)
        [defect] = [c for c in cycle if c.label == "synthesize q=1/3"]
        defect.code, defect.err = 2, b"error: ... is not a multiple of block size 1\n"
        assert defect.check(defect) and defect.known_defect(defect)
        assert not any(c.known_defect(c) for c in cycle if c is not defect)
        assert sorted(l for l in labels if l.startswith("judge ")) == sorted(
            f"judge {p}" for p in ("CONVENTIONAL", "STRICT_DESCRIPTIVE", "STRICT_FUNCTIONAL",
                                   "MAJORITY", "MALAYSIA"))


def test_tail_is_the_sample_with_ten_beyond_it():
    samples = [Sample(seconds=k / 1000, measured=k / 1000, status="ok") for k in range(1, 51)]
    value, percentile = run.tail(samples)
    assert value == pytest.approx(40.0) and percentile == 80.0


def test_timed_scales_to_reference_speed(monkeypatch):
    readings = iter([0.002, 0.001])
    monkeypatch.setattr(speed, "reading", lambda: next(readings))
    result, seconds, factor = speed.timed(lambda: "done")
    assert result == "done" and seconds >= 0
    assert factor == pytest.approx(speed.REFERENCE_S / 0.0015)
