"""Command-line driver: exit codes, deterministic JSON, scenario files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rpsf import cli
from rpsf.cli import main
from rpsf.engine import Do, Plan, WaitFor
from rpsf.money import Quantity
from rpsf.scenarios import ScenarioInstance, instance_to_dict
from rpsf.world import Action, ActionKind, Agent, ByDate, Good, make_world


def q(n, d=1):
    return Quantity(n, d)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListScenarios:
    def test_text_listing(self, capsys):
        code, out, _ = invoke(capsys, "list-scenarios")
        assert code == 0
        assert "tawarruq_classic" in out
        assert "savings_account_with_interest" in out

    def test_json_listing_parses(self, capsys):
        code, out, _ = invoke(capsys, "list-scenarios", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = {s["name"] for s in payload["scenarios"]}
        assert "murabaha" in names


class TestRun:
    def test_run_summary_mentions_balances(self, capsys):
        code, out, _ = invoke(capsys, "run", "tawarruq_classic")
        assert code == 0
        assert "X: balance 110" in out
        assert "S: owned by Z" in out

    def test_verbose_prints_event_log(self, capsys):
        code, out, _ = invoke(capsys, "run", "tawarruq_classic", "-v")
        assert code == 0
        assert "[  1]" in out and "spot-sale" in out

    def test_json_output_is_byte_identical_across_invocations(self, capsys):
        _, first, _ = invoke(capsys, "run", "tawarruq_classic", "--format", "json")
        _, second, _ = invoke(capsys, "run", "tawarruq_classic", "--format", "json")
        assert first == second

    def test_json_round_trips(self, capsys):
        _, out, _ = invoke(capsys, "run", "savings_account_with_interest",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["net_positions"]["X"] == {"0": "-1000", "365": "1048"}
        assert json.loads(json.dumps(payload)) == payload

    def test_parameter_overrides(self, capsys):
        code, out, _ = invoke(capsys, "run", "tawarruq_classic", "p=200", "i=20",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["net_positions"]["X"] == {"0": "-200", "365": "220"}

    def test_bad_parameter_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "run", "tawarruq_classic", "p=not-a-number")
        assert code == 2
        assert "error" in err

    def test_parameter_without_a_value_is_named(self, capsys):
        assert invoke(capsys, "run", "loan_with_interest", "p") == (
            2, "", "error: expected key=value, got 'p'\n")

    @pytest.mark.parametrize("value", ["abc", "1/3", "true"])
    def test_period_that_is_not_whole_days_is_named(self, capsys, value):
        code, _, err = invoke(capsys, "run", "loan_with_interest", f"t={value}")
        assert code == 2
        assert err == f"error: parameter t must be a whole number of days, got {value!r}\n"

    @pytest.mark.parametrize("argv", [("ina_two_party", "p=1/3"),
                                      ("tawarruq_classic", "p=1/3"),
                                      ("murabaha", "price=1/3")])
    def test_good_at_a_fractional_price_runs(self, capsys, argv):
        code, _, err = invoke(capsys, "run", *argv)
        assert (code, err) == (0, "")

    def test_unknown_scenario_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "run", "perpetual_motion")
        assert code == 2
        assert "unknown scenario" in err

    def test_seeded_random_strategy_deterministic(self, capsys, monkeypatch):
        monkeypatch.setenv("RPSF_SEED", "11")
        _, first, _ = invoke(capsys, "run", "tawarruq_classic",
                             "--strategy", "random", "--format", "json")
        _, second, _ = invoke(capsys, "run", "tawarruq_classic",
                              "--strategy", "random", "--format", "json")
        assert first == second

    def test_seed_that_is_not_a_number_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("RPSF_SEED", "abc")
        code, out, err = invoke(capsys, "run", "loan_with_interest", "--strategy", "random")
        assert (code, out) == (2, "")
        assert err == "error: RPSF_SEED must be a whole number, got 'abc'\n"

    @pytest.mark.parametrize("strategy", ["round-robin", "random", "exhaustive"])
    def test_every_strategy_stops_at_the_horizon(self, capsys, strategy):
        code, out, err = invoke(capsys, "run", "loan_with_interest", "--horizon", "0",
                                "--strategy", strategy)
        assert (code, out) == (2, "")
        assert err == ("error: HorizonExceeded: next scheduled activity at day 365 "
                       "exceeds horizon 0\n")

    @pytest.mark.parametrize(("name", "builtin"), [("pi", "tawarruq_pi"),
                                                   ("loan_with_interest", "loan_with_interest")])
    @pytest.mark.parametrize("command", ["run", "list-scenarios"])
    def test_file_scenario_may_not_shadow_a_builtin(self, capsys, tmp_path, name, builtin,
                                                    command):
        path = tmp_path / "shadow.json"
        path.write_text(json.dumps({"scenarios": [
            {"name": "mine", "agents": [{"name": "A"}], "horizon": 0},
            {"name": name, "agents": [{"name": "A"}], "horizon": 0}]}))
        argv = [command, name] if command == "run" else [command]
        code, out, err = invoke(capsys, *argv, "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: scenarios[1].name: {name!r} names the built-in scenario "
                       f"{builtin!r}; a file scenario needs a name of its own\n")

    def test_two_file_scenarios_may_not_share_a_name(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"scenarios": [
            {"name": "s", "agents": [{"name": "X"}], "balances": {"X": "1"}},
            {"name": "s", "agents": [{"name": "X"}], "balances": {"X": "2"}}]}))
        assert invoke(capsys, "run", "s", "--scenario-file", str(path)) == (
            2, "", "error: scenarios[1].name: 's' names an earlier file scenario; a file "
                   "scenario needs a name of its own\n")

    @pytest.mark.parametrize("argv", [
        ("run", "loan_with_interest", "p=100", "p=200"),
        ("compare", "loan_with_interest", "loan_with_interest", "--set-a", "p=100",
         "--set-a", " p = 200"),
        ("compare", "loan_with_interest", "loan_with_interest", "--set-b", "p=100",
         "--set-b", "p=100"),
        ("synthesize", "--target", "savings_account_with_interest", "p=1001", "p=1002"),
    ])
    def test_a_parameter_given_twice_is_named(self, capsys, argv):
        assert invoke(capsys, *argv) == (2, "", "error: parameter 'p' is given twice\n")

    @pytest.mark.parametrize("inform,message", [
        ({"amount": "10"}, "inform does not take amount"),
        ({}, "pay does not take signing"),
    ])
    def test_a_field_its_kind_does_not_take_is_named(self, capsys, tmp_path, inform, message):
        # an inform, then a pay carrying four fields a payment does not take
        path = tmp_path / "untaken.json"
        path.write_text(json.dumps({"scenarios": [{
            "name": "s", "agents": [{"name": "X"}, {"name": "Y"}], "balances": {"X": "100"},
            "plans": [{"agent": "X", "steps": [
                {"do": {"kind": "inform", "actor": "X", "counterparty": "Y", **inform}},
                {"do": {"kind": "pay", "actor": "X", "counterparty": "Y", "amount": "10",
                        "signing": "initiator-only", "trigger": {"always": True},
                        "on_credit": True, "terms": {"principal": "10", "rate": "1/10"}}}]}]}]}))
        assert invoke(capsys, "run", "s", "--scenario-file", str(path)) == (
            2, "", f"error: ValidationError: {message}\n")


class TestJudge:
    def test_halal_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "judge", "savings_account_with_interest",
                              "--position", "CONVENTIONAL")
        assert code == 0
        assert "halal" in out

    def test_haram_exit_three(self, capsys):
        code, out, _ = invoke(capsys, "judge", "savings_account_with_interest",
                              "--position", "STRICT_DESCRIPTIVE")
        assert code == 3
        assert "haram" in out
        assert "riba" in out

    def test_undecided_exit_four(self, capsys, tmp_path):
        world = make_world(
            agents=[Agent("X"), Agent("Y")],
            balances={"X": q(100), "Y": q(120)},
            goods=[Good(good_id="mystery", kind="asset", owner="Y", market_value=None)],
        )
        plans = (
            Plan("Y", (
                Do(Action(kind=ActionKind.SPOT_SALE, actor="Y", counterparty="X",
                          amount=q(100), good_id="mystery")),
                Do(Action(kind=ActionKind.BUY_ON_CREDIT, actor="Y", counterparty="X",
                          amount=q(110), down_payment=q(110), due_date=10,
                          good_id="mystery", contract_id="settle")),
            )),
        )
        instance = ScenarioInstance(name="unvalued", params={}, world=world,
                                    plans=plans, principals=("X", "Y"), horizon=10)
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [instance_to_dict(instance)]}))
        code, out, _ = invoke(capsys, "judge", "unvalued", "--position", "MAJORITY",
                              "--scenario-file", str(path))
        assert code == 4
        assert "undecided" in out

    def test_unknown_position_usage_error(self, capsys):
        code, _, err = invoke(capsys, "judge", "tawarruq_classic",
                              "--position", "NO_SUCH_SCHOOL")
        assert code == 2
        assert err == ("error: unknown legal position 'NO_SUCH_SCHOOL'; known: ['CONVENTIONAL', "
                       "'MAJORITY', 'MALAYSIA', 'STRICT_DESCRIPTIVE', 'STRICT_FUNCTIONAL']\n")

    def test_custom_position_from_file(self, capsys, tmp_path):
        path = tmp_path / "positions.json"
        path.write_text(json.dumps({"positions": [{
            "name": "ROUND_TRIP_WARY",
            "rules": [{"detector": "ina", "verdict": "haram"}],
        }]}))
        code, _, _ = invoke(capsys, "judge", "ina_two_party",
                            "--position", "ROUND_TRIP_WARY",
                            "--scenario-file", str(path))
        assert code == 3

    @pytest.mark.parametrize("positions, taken", [
        ([{"name": "MAJORITY", "rules": []}], "a built-in position"),
        ([{"name": "P", "rules": [{"detector": "ina"}]}, {"name": "P", "rules": []}],
         "an earlier file position"),
    ])
    @pytest.mark.parametrize("command", ["judge", "list-scenarios"])
    def test_a_file_position_needs_a_name_of_its_own(self, capsys, tmp_path, positions, taken,
                                                     command):
        path = tmp_path / "positions.json"
        path.write_text(json.dumps({"positions": positions}))
        i, name = len(positions) - 1, positions[-1]["name"]
        argv = ["judge", "ina_two_party", "--position", name] if command == "judge" else [command]
        assert invoke(capsys, *argv, "--scenario-file", str(path)) == (
            2, "", f"error: positions[{i}].name: {name!r} names {taken}; a file position "
                   "needs a name of its own\n")

    def test_position_with_a_mode_key_is_a_usage_error(self, capsys, tmp_path):
        # a position has no analysis mode, so the key is unknown and the error says where
        path = tmp_path / "positions.json"
        path.write_text(json.dumps({"positions": [{
            "name": "ROUND_TRIP_WARY",
            "mode": "descriptive",
            "rules": [{"detector": "ina", "verdict": "haram"}],
        }]}))
        code, out, err = invoke(capsys, "judge", "ina_two_party",
                                "--position", "ROUND_TRIP_WARY",
                                "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert "positions[0]: unknown key 'mode'" in err
        assert "Traceback" not in err


class TestCompare:
    def test_equivalent_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "compare", "pi_prime",
                              "savings_account_with_interest", "--perspective", "X")
        assert code == 0
        assert "equivalent" in out

    def test_not_equivalent_exit_five(self, capsys):
        code, out, _ = invoke(capsys, "compare", "pi_prime",
                              "savings_account_with_interest", "--perspective", "all")
        assert code == 5
        assert "not equivalent" in out

    def test_json_contains_both_flow_sets(self, capsys):
        code, out, _ = invoke(capsys, "compare", "tawarruq_classic",
                              "loan_with_interest", "--set-b", "c=0", "--set-b", "c2=0",
                              "--perspective", "X,Y", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert len(payload["flows_a"]) == 3
        assert len(payload["flows_b"]) == 2

    @pytest.mark.parametrize("perspective,code", [("X", 0), ("X,Y", 5), ("Y", 5), ("all", 5)])
    def test_known_perspectives_unchanged(self, capsys, perspective, code):
        assert invoke(capsys, "compare", "pi_prime", "savings_account_with_interest",
                      "--perspective", perspective)[0] == code

    @pytest.mark.parametrize("perspective", ["W", "X,W"])
    def test_unknown_perspective_agent_exits_two(self, capsys, perspective):
        code, out, err = invoke(capsys, "compare", "pi_prime",
                                "savings_account_with_interest", "--perspective", perspective)
        assert code == 2
        assert out == ""
        assert err == "error: unknown perspective agent 'W'; known agents: ['X', 'Y', 'Z']\n"


class TestSynthesize:
    @pytest.mark.parametrize("perspective", ["W", "X,W"])
    def test_unknown_perspective_agent_exits_two(self, capsys, perspective):
        code, out, err = invoke(capsys, "synthesize", "--target",
                                "savings_account_with_interest", "--perspective", perspective,
                                "--bound", "2")
        assert code == 2
        assert out == ""
        assert err == "error: unknown perspective agent 'W'; known agents: ['X', 'Y', 'Z']\n"

    @pytest.mark.parametrize("target, principal, agents, first_line", [
        ("murabaha", "A", "A,B,BANK", "found=False witnesses=0 explored=18159"),
        ("contractus_trinus", "A", "A,B", "found=True witnesses=26 explored=1035")],
        ids=["murabaha", "contractus_trinus"])
    def test_a_target_without_agent_x_searches_from_its_first_principal(
            self, capsys, target, principal, agents, first_line):
        # without an agent X the defaults are the first principal and the target's agents
        for flags, explicit in ((["--bound", "6"], ["--perspective", principal]),
                                (["--bound", "2", "--perspective", "all"], [])):
            for fmt in ("text", "json"):
                default = invoke(capsys, "synthesize", "--target", target, "--format", fmt,
                                 *flags)
                assert default[0] == 0
                assert default == invoke(capsys, "synthesize", "--target", target, "--format",
                                         fmt, "--agents", agents, *flags, *explicit)
        code, out, _ = invoke(capsys, "synthesize", "--target", target, "--bound", "6")
        assert out.startswith(f"target {target}: {first_line} bound=6\n")
        # naming X, or X, Y and Z, is still refused: X has no flows in these targets
        known = sorted(agents.split(","))
        code, out, err = invoke(capsys, "synthesize", "--target", target, "--bound", "2",
                                "--perspective", "X")
        assert (code, out) == (2, "")
        assert err == f"error: unknown perspective agent 'X'; known agents: {known}\n"
        code, out, err = invoke(capsys, "synthesize", "--target", target, "--bound", "2",
                                "--perspective", "all", "--agents", "X,Y,Z")
        assert (code, out) == (2, "")
        assert err == (f"error: perspective 'all' holds no agent of {target} among --agents "
                       f"['X', 'Y', 'Z']; known agents: {known}\n")

    def test_a_target_with_agent_x_keeps_the_x_y_z_defaults(self, capsys):
        default = invoke(capsys, "synthesize", "--target", "ina_two_party", "--bound", "4")
        assert default[0] == 0
        assert default == invoke(capsys, "synthesize", "--target", "ina_two_party", "--bound",
                                 "4", "--perspective", "X", "--agents", "X,Y,Z")

    @pytest.mark.parametrize("agents, entry", [("X,,Y", "agent 2 of ['X', '', 'Y']"),
                                               ("X, ,Y", "agent 2 of ['X', '', 'Y']"),
                                               ("X,Y,", "agent 3 of ['X', 'Y', '']")])
    def test_empty_agent_name_exits_two(self, capsys, agents, entry):
        code, out, err = invoke(capsys, "synthesize", "--target", "savings_account_with_interest",
                                "--bound", "3", "--agents", agents)
        assert (code, out) == (2, "")
        assert err == f"error: {entry} has an empty name\n"

    def test_all_perspective_with_one_agent_of_the_target_runs(self, capsys):
        # loan_with_interest's agents are X and Y; Z enters as a free intermediary
        code, out, _ = invoke(capsys, "synthesize", "--target", "loan_with_interest",
                              "--bound", "3", "--perspective", "all")
        assert code == 0
        assert out.startswith("target loan_with_interest: found=True witnesses=2 explored=44 ")
        code, out, _ = invoke(capsys, "synthesize", "--target", "murabaha", "--bound", "2",
                              "--perspective", "all", "--agents", "A,X,Y")
        assert code == 0
        assert out.startswith("target murabaha: found=False ")

    @pytest.mark.parametrize("perspective,summary", [
        ("X", "found=True witnesses=14 explored=247"),
        ("X,Y", "found=True witnesses=8 explored=380"),
        ("all", "found=True witnesses=8 explored=220"),
    ])
    def test_known_perspectives_unchanged(self, capsys, perspective, summary):
        code, out, _ = invoke(capsys, "synthesize", "--target",
                              "savings_account_with_interest", "--perspective", perspective,
                              "--bound", "4")
        assert code == 0
        assert out.startswith(f"target savings_account_with_interest: {summary} bound=4\n")

    def test_finds_witness_and_reports_grounding(self, capsys):
        code, out, _ = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest",
            "--catalogue", "spot-sale,credit-sale,prepare-good",
            "--bound", "4", "--perspective", "X", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness_count"] > 0
        assert payload["grounding"]["settlement_dates"] == [365]
        assert payload["witness_scenarios"]  # re-runnable scenario text

    def test_each_shown_witness_is_built_once(self, capsys, monkeypatch):
        # the text, the actions and the scenario of a witness read one build
        from rpsf import synthesis
        built = []
        original = synthesis.Witness

        def counted(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(synthesis, "Witness", counted)
        code, out, _ = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest",
            "--bound", "6", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["witness_count"] == 926
        assert len(built) == len(payload["witness_scenarios"]) == 3

    def test_fractional_target_finds_credit_sales_that_rerun(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest", "p=1001",
            "q=1/3", "--bound", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        for witness in payload["witnesses"]:
            assert any(a["kind"] == "buy-on-credit" for a in witness["actions"])
        path = tmp_path / "witness.json"
        path.write_text(json.dumps({"scenarios": [payload["witness_scenarios"][0]]}))
        code, _, err = invoke(capsys, "run", "witness-0", "--scenario-file", str(path))
        assert (code, err) == (0, "")

    def test_spot_only_finds_nothing(self, capsys):
        code, out, _ = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest",
            "--catalogue", "spot-sale", "--bound", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["found"] is False

    @pytest.mark.parametrize("value, diagnostic", [("-1", "must be nonnegative, got -1"),
                                                   ("two", "expected a whole number")])
    def test_bad_max_witnesses_is_usage_error(self, capsys, value, diagnostic):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--target", "savings_account_with_interest", "--bound", "4",
                  "--max-witnesses", value, "--format", "json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --max-witnesses: {diagnostic}" in captured.err

    def test_zero_max_witnesses_renders_none(self, capsys):
        code, out, _ = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest",
            "--bound", "4", "--max-witnesses", "0", "--format", "json")
        payload = json.loads(out)
        assert code == 0 and payload["witness_count"] == 14
        assert payload["witnesses"] == payload["witness_scenarios"] == []

    def test_unknown_primitive_usage_error(self, capsys):
        code, _, err = invoke(
            capsys, "synthesize", "--target", "savings_account_with_interest",
            "--catalogue", "time-machine")
        assert code == 2


class TestEnumerate:
    def test_counts_interleavings(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "tawarruq_pi_triple_prime",
                              "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 8

    def test_bound_rejected(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "tawarruq_pi_triple_prime",
                              "--bound", "3")
        assert code == 2
        assert "BoundExceeded" in err

    @pytest.mark.parametrize("argv", [("run",), ("run", "--strategy", "exhaustive"),
                                      ("judge",), ("enumerate",)])
    def test_a_file_scenario_stops_at_its_own_horizon(self, capsys, tmp_path, argv):
        """A wait past the scenario's horizon is an error under every command
        that runs its plans, enumerate included."""
        world = make_world(agents=[Agent("X"), Agent("Y")], balances={"X": q(10)})
        pay = Action(kind=ActionKind.PAY, actor="X", counterparty="Y", amount=q(5))
        plans = (Plan("X", (WaitFor(ByDate(20)), Do(pay))),)
        instance = ScenarioInstance(name="late", params={}, world=world, plans=plans,
                                    principals=("X",), horizon=10)
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"scenarios": [instance_to_dict(instance)]}))
        code, out, err = invoke(capsys, argv[0], "late", *argv[1:], "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: HorizonExceeded: next scheduled activity at day 20 "
                       "exceeds horizon 10\n")


# one invocation of each command, with its exit code
EVERY_COMMAND = [
    (("list-scenarios", "--format", "json"), 0),
    (("run", "tawarruq_classic", "-v"), 0),
    (("judge", "savings_account_with_interest", "--position", "STRICT_DESCRIPTIVE"), 3),
    (("compare", "pi_prime", "savings_account_with_interest", "--perspective", "all"), 5),
    (("enumerate", "tawarruq_pi_triple_prime", "-v", "--format", "json"), 0),
    (("synthesize", "--target", "savings_account_with_interest", "--bound", "4",
      "--format", "json"), 0),
]
COMMAND_IDS = [argv[0] for argv, _ in EVERY_COMMAND]


@pytest.mark.parametrize("argv, code", EVERY_COMMAND, ids=COMMAND_IDS)
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(capsys, argv, code):
    # the reader of the pipe has gone before the first write, as under `| head`
    assert invoke(capsys, *argv)[0] == code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parents[1] / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "rpsf.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")


@pytest.mark.parametrize("argv, code", EVERY_COMMAND, ids=COMMAND_IDS)
def test_closed_stdout_in_process_points_stdout_at_devnull(capsys, monkeypatch, argv, code):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == code
        stdout.write("x" * 100_000)  # the handler pointed the descriptor at devnull
        stdout.flush()
    assert capsys.readouterr().err == ""


_GOOD = {"name": "p", "agents": [{"name": "X"}]}


def test_readme_scenario_file_example_runs(capsys, tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario file format"):]
    path = tmp_path / "example.json"
    path.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    code, _, err = invoke(capsys, "run", "my_product", "--scenario-file", str(path))
    assert code == 0, err
    code, out, _ = invoke(capsys, "judge", "my_product", "--position", "NO_ROUND_TRIPS",
                          "--scenario-file", str(path))
    assert code == 0 and "halal" in out


def test_a_file_scenario_takes_no_parameters(capsys, tmp_path):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps({"scenarios": [_GOOD]}))
    assert invoke(capsys, "run", "p", "p=10", "--scenario-file", str(path)) == (
        2, "", "error: unknown parameter 'p' (accepts: [])\n")


class TestBadScenarioFile:
    """Malformed --scenario-file input is a usage error, never a traceback."""

    @pytest.mark.parametrize(("document", "diagnostic"), [
        ({"scenarios": [{"name": "p", "plans": [1]}]},
         "scenarios[0].plans[0]: expected an object, got 1"),
        ({"scenarios": [{}]}, "scenarios[0]: missing required key 'name'"),
        ({"scenarios": [{"name": "p", "agents": "XY"}]},
         'scenarios[0].agents: expected an array, got "XY"'),
        ({"scenarios": [{**_GOOD, "goods": [{"good_id": "S", "kind": "asset"}]}]},
         "scenarios[0].goods[0]: missing required key 'owner'"),
        ({"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [{"name": "r"}]}]},
         "positions[0].rules[0]: missing required key 'detector'"),
        ({"scenarios": [{**_GOOD, "horizon": "30"}]},
         'scenarios[0].horizon: expected an integer, got "30"'),
        ({"scenarios": [{**_GOOD, "overdraft_allowed": "false"}]},
         'scenarios[0].overdraft_allowed: expected a boolean, got "false"'),
        ({"scenarios": [{**_GOOD, "plans": [{"agent": "X", "steps": [{"do": {
            "kind": "promise-pay", "actor": "X", "amount": "3", "due_dat": 3}}]}]}]},
         "scenarios[0].plans[0].steps[0].do: unknown key 'due_dat'; known: ['actor', "),
        ({"scenarios": [{**_GOOD, "plans": [{"agent": "X", "steps": [{"stop": True, "x": 1}]}]}]},
         "scenarios[0].plans[0].steps[0]: unknown key 'x'; known: ['stop']"),
        ({"scenarios": [_GOOD], "scenrios": []},
         "unknown key 'scenrios'; known: ['positions', 'scenarios']"),
        ({"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [
            {"detector": "ina", "verdikt": "haram"}]}]},
         "positions[0].rules[0]: unknown key 'verdikt'; known: ['detector', 'name', 'verdict']"),
        ({"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [{"detector": "foo"}]}]},
         "positions[0].rules[0].detector: unknown detector 'foo'; known: ['ethical-tags', "),
    ])
    def test_diagnostic_names_the_json_path(self, capsys, tmp_path, document, diagnostic):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(document))
        code, _, err = invoke(capsys, "run", "p", "--scenario-file", str(path))
        assert code == 2
        assert diagnostic in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("list-scenarios",), ("run", "p"), ("judge", "p"), ("compare", "p", "p"),
        ("synthesize", "--target", "p"), ("enumerate", "p")])
    def test_bad_position_is_a_usage_error_for_every_command(self, capsys, tmp_path, argv):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [_GOOD], "positions": [
            {"name": "P", "rules": [{"detector": "foo"}]}]}))
        code, out, err = invoke(capsys, *argv, "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: positions[0].rules[0].detector: unknown detector 'foo'")

    def _fails_cleanly(self, capsys, path):
        code, _, err = invoke(capsys, "run", "bad", "--scenario-file", str(path))
        assert code == 2
        assert "Traceback" not in err
        return err

    def test_nesting_too_deep_for_the_parser(self, capsys, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text('{"scenarios": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert "recursion" in self._fails_cleanly(capsys, path)

    def test_plan_nested_too_deep_for_the_decoder(self, capsys, tmp_path):
        step = {"stop": True}
        for _ in range(250):
            step = {"branch": {"condition": {"choice": "c"}, "then": [step]}}
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [{**_GOOD, "plans": [
            {"agent": "X", "steps": [step]}]}]}))
        assert "scenarios[0]: nested too deeply" in self._fails_cleanly(capsys, path)

    def test_top_level_array(self, capsys, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text("[]")
        assert "JSON object" in self._fails_cleanly(capsys, path)

    def test_balance_that_is_not_a_quantity_string(self, capsys, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [{
            "name": "bad", "agents": [{"name": "X"}], "balances": {"X": 100}}]}))
        err = self._fails_cleanly(capsys, path)
        assert "'bad'" in err and "quantity string" in err and "100" in err

    def test_entries_that_are_not_objects(self, capsys, tmp_path):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [1]}))
        assert "list of JSON objects" in self._fails_cleanly(capsys, path)

    def test_missing_file(self, capsys, tmp_path):
        err = self._fails_cleanly(capsys, tmp_path / "absent.json")
        assert "absent.json" in err and "No such file" in err

    def test_a_plan_that_acts_for_another_agent_is_a_usage_error(self, capsys, tmp_path):
        world = make_world(agents=[Agent("X"), Agent("Y")], balances={"Y": q(100)})
        steal = Action(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=q(100))
        instance = ScenarioInstance(name="steal", params={}, world=world,
                                    plans=(Plan("X", (Do(steal),)),), principals=("X",),
                                    horizon=0)
        path = tmp_path / "steal.json"
        path.write_text(json.dumps({"scenarios": [instance_to_dict(instance)]}))
        code, out, err = invoke(capsys, "run", "steal", "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: EngineError: plan for 'X': steps[0] is an action by 'Y'; "
                       "a plan acts for its own agent only\n")

    def test_a_field_the_kind_never_reads_is_a_usage_error(self, capsys, tmp_path):
        # a spot sale with a due date is not a deferred sale; it used to run as a spot sale
        path = tmp_path / "deferred.json"
        path.write_text(json.dumps({"scenarios": [{
            "name": "deferred", "agents": [{"name": "X"}, {"name": "Y"}],
            "balances": {"Y": "10"}, "goods": [{"good_id": "G", "owner": "X"}],
            "plans": [{"agent": "X", "steps": [{"do": {
                "kind": "spot-sale", "actor": "X", "counterparty": "Y", "amount": "10",
                "good_id": "G", "due_date": 5}}]}]}]}))
        code, out, err = invoke(capsys, "run", "deferred", "--scenario-file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: ValidationError: spot-sale does not take due_date\n"


def test_help_names_match_the_modules_that_define_them():
    from rpsf.legality import BUILTIN_POSITIONS
    from rpsf.synthesis import ALL_AGENTS, PRIMITIVES

    assert cli.POSITION_NAMES == tuple(sorted(BUILTIN_POSITIONS))
    assert cli.PRIMITIVES == PRIMITIVES
    assert cli.ALL_AGENTS == ALL_AGENTS
