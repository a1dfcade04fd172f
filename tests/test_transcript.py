"""The CLI transcript: every command's bytes, pinned per invocation.

Each invocation of the corpus runs ``rpsf.cli.main`` in process and is
pinned by the sha256 of its exit code, stdout and stderr
(``tests/transcript_pins.json``). The corpus runs each command over every
built-in, in text and JSON, lists the scenarios, and takes the error cases
of tests/test_cli.py, deadlocks included. It also runs a generated file
per action kind and variant (``_kind_files``). A change that moves an output
moves its pin; ``python tests/test_transcript.py`` prints each changed,
added and removed invocation against the old pins, then rewrites them, so
the moved invocations can be named where the change is described.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

# run as a script, this file still tests this tree's rpsf, not an installed one
SRC = Path(__file__).parents[1] / "src"
sys.path.insert(0, str(SRC))

from rpsf.cli import POSITION_NAMES, main  # noqa: E402
from rpsf.money import fields  # noqa: E402
from rpsf.scenarios import scenario_names  # noqa: E402
from rpsf.world import _FIELDS, Action  # noqa: E402

PINS = Path(__file__).with_name("transcript_pins.json")
FORMATS = ("text", "json")

_GOOD = {"name": "p", "agents": [{"name": "X"}]}
_TWO = [{"name": "X", "role": "person"}, {"name": "Y", "role": "person"}]


def _blocked(name: str, trigger: dict) -> dict:
    """A scenario whose one plan waits on ``trigger`` before it pays."""
    return {"scenarios": [{"name": name, "agents": _TWO, "balances": {"X": "10"},
                           "plans": [{"agent": "X", "steps": [
                               {"wait_for": trigger},
                               {"do": {"kind": "pay", "actor": "X", "counterparty": "Y",
                                       "amount": "5"}}]}]}]}


# the --scenario-file documents, by the name an argument ``@name`` stands for
FILES = {
    "readme": None,  # the README's example, read at run time
    "unvalued": {"scenarios": [{
        "name": "unvalued", "agents": _TWO, "balances": {"X": "100", "Y": "120"},
        "goods": [{"good_id": "mystery", "kind": "asset", "owner": "Y", "market_value": None}],
        "plans": [{"agent": "Y", "steps": [
            {"do": {"kind": "spot-sale", "actor": "Y", "counterparty": "X", "amount": "100",
                    "good_id": "mystery"}},
            {"do": {"kind": "buy-on-credit", "actor": "Y", "counterparty": "X", "amount": "110",
                    "down_payment": "110", "due_date": 10, "good_id": "mystery",
                    "contract_id": "settle"}}]}],
        "principals": ["X", "Y"], "horizon": 10}]},
    "late": {"scenarios": [{
        "name": "late", "agents": _TWO, "balances": {"X": "10"},
        "plans": [{"agent": "X", "steps": [
            {"wait_for": {"by_date": 20}},
            {"do": {"kind": "pay", "actor": "X", "counterparty": "Y", "amount": "5"}}]}],
        "principals": ["X"], "horizon": 10}]},
    "steal": {"scenarios": [{
        "name": "steal", "agents": _TWO, "balances": {"Y": "100"},
        "plans": [{"agent": "X", "steps": [
            {"do": {"kind": "pay", "actor": "Y", "counterparty": "X", "amount": "100"}}]}],
        "principals": ["X"], "horizon": 0}]},
    "deferred": {"scenarios": [{
        "name": "deferred", "agents": [{"name": "X"}, {"name": "Y"}],
        "balances": {"Y": "10"}, "goods": [{"good_id": "G", "owner": "X"}],
        "plans": [{"agent": "X", "steps": [{"do": {
            "kind": "spot-sale", "actor": "X", "counterparty": "Y", "amount": "10",
            "good_id": "G", "due_date": 5}}]}]}]},
    # an inform that names a good no one has, then a pay that names another
    "unknown_good": {"scenarios": [{
        "name": "unknown_good", "agents": _TWO, "balances": {"X": "100"},
        "plans": [{"agent": "X", "steps": [
            {"do": {"kind": "inform", "actor": "X", "counterparty": "Y", "amount": "10",
                    "good_id": "nothing"}},
            {"do": {"kind": "pay", "actor": "X", "counterparty": "Y", "amount": "10",
                    "good_id": "G"}}]}]}]},
    "unknown_contract": {"scenarios": [{
        "name": "unknown_contract", "agents": _TWO, "balances": {"X": "100"},
        "plans": [{"agent": "X", "steps": [
            {"do": {"kind": "pay", "actor": "X", "counterparty": "Y", "amount": "10",
                    "contract_id": "nowhere"}}]}]}]},
    "waits_on_pay": _blocked("waits_on_pay", {"after_event": {
        "kind": "pay", "actor": "Y", "amount": "1/3", "contract_id": "c"}}),
    "waits_on_balance": _blocked("waits_on_balance", {"condition": {
        "balance_at_least": {"agent": "Y", "amount": "7/2"}}}),
    "waits_on_stage": _blocked("waits_on_stage", {"condition": {
        "contract_stage": {"contract_id": "c", "stage": "honoured"}}}),
    "positions": {"positions": [{"name": "ROUND_TRIP_WARY",
                                 "rules": [{"detector": "ina", "verdict": "haram"}]}]},
    "mode": {"positions": [{"name": "ROUND_TRIP_WARY", "mode": "descriptive",
                            "rules": [{"detector": "ina", "verdict": "haram"}]}]},
    "bad_detector": {"scenarios": [_GOOD], "positions": [
        {"name": "P", "rules": [{"detector": "foo"}]}]},
    "builtin_position": {"positions": [{"name": "MAJORITY", "rules": []}]},
    "twice_position": {"positions": [{"name": "P", "rules": [{"detector": "ina"}]},
                                     {"name": "P", "rules": []}]},
    "twice_scenario": {"scenarios": [{**_GOOD, "name": "s", "balances": {"X": "1"}},
                                     {**_GOOD, "name": "s", "balances": {"X": "2"}}]},
    "no_parameters": {"scenarios": [_GOOD]},
    "top_level_array": [],
    "not_objects": {"scenarios": [1]},
    "balance_number": {"scenarios": [{"name": "bad", "agents": [{"name": "X"}],
                                      "balances": {"X": 100}}]},
    "deep_parse": '{"scenarios": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "absent": None,  # never written
}
for _name in ("pi", "loan_with_interest"):
    FILES[f"shadow_{_name}"] = {"scenarios": [
        {"name": "mine", "agents": [{"name": "A"}], "horizon": 0},
        {"name": _name, "agents": [{"name": "A"}], "horizon": 0}]}
_step = {"stop": True}
for _ in range(250):
    _step = {"branch": {"condition": {"choice": "c"}, "then": [_step]}}
FILES["deep_plan"] = {"scenarios": [{**_GOOD, "plans": [{"agent": "X", "steps": [_step]}]}]}
# tests/test_cli.py's TestBadScenarioFile documents, each run as ``run p``
BAD_FILES = [
    {"scenarios": [{"name": "p", "plans": [1]}]},
    {"scenarios": [{}]},
    {"scenarios": [{"name": "p", "agents": "XY"}]},
    {"scenarios": [{**_GOOD, "goods": [{"good_id": "S", "kind": "asset"}]}]},
    {"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [{"name": "r"}]}]},
    {"scenarios": [{**_GOOD, "horizon": "30"}]},
    {"scenarios": [{**_GOOD, "overdraft_allowed": "false"}]},
    {"scenarios": [{**_GOOD, "plans": [{"agent": "X", "steps": [{"do": {
        "kind": "promise-pay", "actor": "X", "amount": "3", "due_dat": 3}}]}]}]},
    {"scenarios": [{**_GOOD, "plans": [{"agent": "X", "steps": [{"stop": True, "x": 1}]}]}]},
    {"scenarios": [_GOOD], "scenrios": []},
    {"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [
        {"detector": "ina", "verdikt": "haram"}]}]},
    {"scenarios": [_GOOD], "positions": [{"name": "P", "rules": [{"detector": "foo"}]}]},
]
FILES.update({f"bad_{i}": document for i, document in enumerate(BAD_FILES)})

# a value other than its default for each optional action field; the good is
# one that the actor owns (H: that the counterparty owns, N: that is not yet made)
_VALUES = {"counterparty": "Y", "amount": "10", "down_payment": "1", "due_date": 5,
           "good_id": "G", "contract_id": "c", "reason": {"text": "why"},
           "channel": "mail", "message": "hello", "tags": ["coercion"],
           "signing": "initiator-only", "trigger": {"always": True}, "on_credit": True,
           "parties": ["X", "Y"],
           "clauses": [{"obliged_party": "X", "obliged_action": {
               "kind": "pay", "actor": "X", "counterparty": "Y", "amount": "1"}}],
           "references": ["c"], "terms": {"principal": "10", "rate": "1/10"},
           "good_spec": {"kind": "asset", "market_value": "10"}}
_OPTIONAL = [f.name for f in fields(Action) if f.has_default]
assert set(_OPTIONAL) == set(_VALUES)
_GOOD_ID = {"buy-on-credit": "H", "prepare-good": "N", "request-prepare-good": "N"}
# steps a kind's action needs before it: a contract to sign
_BEFORE = {"sign-contract": [{"do": {"kind": "prepare-contract", "actor": "X",
                                     "counterparty": "Y", "contract_id": "c"}}]}


def _kind_file(name: str, kind: str, fields: dict) -> dict:
    """A scenario whose one plan has X act once as ``kind`` with ``fields``."""
    return {"scenarios": [{
        "name": name, "agents": _TWO, "balances": {"X": "100", "Y": "100"},
        "goods": [{"good_id": "G", "owner": "X"}, {"good_id": "H", "owner": "Y"}],
        "plans": [{"agent": "X", "steps": [
            *_BEFORE.get(kind, []), {"do": {"kind": kind, "actor": "X", **fields}}]}],
        "horizon": _VALUES["due_date"]}]}


def _kind_files() -> dict[str, dict]:
    """Per action kind: one action with the fields its kind needs, then that
    action with each needed field dropped (``kind-field``), with each other
    optional field added (``kind+field``), and with a negative amount and
    down payment (``kind+-field``)."""
    out = {}
    for action_kind, (needs, _) in _FIELDS.items():
        kind = action_kind.value
        valid = {name: _GOOD_ID.get(kind, "G") if name == "good_id" else _VALUES[name]
                 for name in needs}
        variants = {kind: valid}
        for name in needs:
            variants[f"{kind}-{name}"] = {k: v for k, v in valid.items() if k != name}
        for name in _OPTIONAL:
            if name not in needs:
                variants[f"{kind}+{name}"] = {**valid, name: _VALUES[name]}
        for name in ("amount", "down_payment"):
            variants[f"{kind}+-{name}"] = {**valid, name: "-" + _VALUES[name]}
        out.update({name: _kind_file(name, kind, fields) for name, fields in variants.items()})
    return out


KIND_FILES = _kind_files()
FILES.update(KIND_FILES)


def _corpus() -> dict[str, tuple[tuple[str, ...], dict[str, str]]]:
    """Each invocation's id -> (argv, environment variables it sets)."""
    out: dict[str, tuple[tuple[str, ...], dict[str, str]]] = {}

    def add(*argv: str, env: dict[str, str] | None = None) -> None:
        case = " ".join([*(f"{k}={v}" for k, v in (env or {}).items()), *argv])
        assert case not in out, case
        out[case] = (argv, env or {})

    for fmt in FORMATS:
        add("list-scenarios", "--format", fmt)
        for name in scenario_names():
            add("run", name, "--format", fmt)
            add("run", name, "-v", "--format", fmt)
            for position in POSITION_NAMES:
                add("judge", name, "--position", position, "--format", fmt)
            add("compare", name, "loan_with_interest", "--format", fmt)
            add("synthesize", "--target", name, "--bound", "3", "--format", fmt)
            add("enumerate", name, "--verbose", "--format", fmt)
        for name in ("readme", "unvalued"):
            add("list-scenarios", "--scenario-file", f"@{name}", "--format", fmt)
        add("run", "my_product", "--scenario-file", "@readme", "--format", fmt)
        add("judge", "my_product", "--position", "NO_ROUND_TRIPS", "--scenario-file", "@readme",
            "--format", fmt)
        add("judge", "unvalued", "--position", "MAJORITY", "--scenario-file", "@unvalued",
            "--format", fmt)
        add("enumerate", "unvalued", "-v", "--scenario-file", "@unvalued", "--format", fmt)

    # the error cases of tests/test_cli.py
    add("run", "tawarruq_classic", "p=not-a-number")
    add("run", "loan_with_interest", "p")
    for value in ("abc", "1/3", "true"):
        add("run", "loan_with_interest", f"t={value}")
    for argv in (("ina_two_party", "p=1/3"), ("tawarruq_classic", "p=1/3"),
                 ("murabaha", "price=1/3")):
        add("run", *argv)
    add("run", "perpetual_motion")
    add("run", "tawarruq_classic", "--strategy", "random", "--format", "json",
        env={"RPSF_SEED": "11"})
    add("run", "loan_with_interest", "--strategy", "random", env={"RPSF_SEED": "abc"})
    for strategy in ("round-robin", "random", "exhaustive"):
        add("run", "loan_with_interest", "--horizon", "0", "--strategy", strategy)
    for name in ("pi", "loan_with_interest"):
        add("run", name, "--scenario-file", f"@shadow_{name}")
        add("list-scenarios", "--scenario-file", f"@shadow_{name}")
    add("judge", "tawarruq_classic", "--position", "NO_SUCH_SCHOOL")
    add("judge", "ina_two_party", "--position", "ROUND_TRIP_WARY", "--scenario-file",
        "@positions")
    add("judge", "ina_two_party", "--position", "ROUND_TRIP_WARY", "--scenario-file", "@mode")
    add("judge", "ina_two_party", "--position", "MAJORITY", "--scenario-file",
        "@builtin_position")
    add("judge", "ina_two_party", "--position", "P", "--scenario-file", "@twice_position")
    add("run", "s", "--scenario-file", "@twice_scenario")
    add("run", "loan_with_interest", "p=100", "p=200")
    for side in ("--set-a", "--set-b"):
        add("compare", "loan_with_interest", "loan_with_interest", side, "p=100", side, "p=200")
    for perspective in ("X", "X,Y", "Y", "all", "W", "X,W"):
        add("compare", "pi_prime", "savings_account_with_interest", "--perspective", perspective)
    add("compare", "tawarruq_classic", "loan_with_interest", "--set-b", "c=0", "--set-b",
        "c2=0", "--perspective", "X,Y", "--format", "json")
    for perspective in ("W", "X,W"):
        add("synthesize", "--target", "savings_account_with_interest", "--perspective",
            perspective, "--bound", "2")
    for target in ("murabaha", "contractus_trinus"):
        add("synthesize", "--target", target, "--bound", "2", "--perspective", "all")
    for agents in ("X,,Y", "X, ,Y", "X,Y,"):
        add("synthesize", "--target", "savings_account_with_interest", "--bound", "3",
            "--agents", agents)
    add("synthesize", "--target", "loan_with_interest", "--bound", "3", "--perspective", "all")
    add("synthesize", "--target", "murabaha", "--bound", "2", "--perspective", "all",
        "--agents", "A,X,Y")
    for perspective in ("X", "X,Y", "all"):
        add("synthesize", "--target", "savings_account_with_interest", "--perspective",
            perspective, "--bound", "4")
    add("synthesize", "--target", "savings_account_with_interest", "--catalogue",
        "spot-sale,credit-sale,prepare-good", "--bound", "4", "--perspective", "X",
        "--format", "json")
    add("synthesize", "--target", "savings_account_with_interest", "p=1001", "q=1/3",
        "--bound", "4", "--format", "json")
    add("synthesize", "--target", "savings_account_with_interest", "--catalogue", "spot-sale",
        "--bound", "4", "--format", "json")
    for value in ("-1", "two"):
        add("synthesize", "--target", "savings_account_with_interest", "--bound", "4",
            "--max-witnesses", value, "--format", "json")
    add("synthesize", "--target", "savings_account_with_interest", "--bound", "4",
        "--max-witnesses", "0", "--format", "json")
    add("synthesize", "--target", "savings_account_with_interest", "--catalogue",
        "time-machine")
    add("enumerate", "tawarruq_pi_triple_prime", "--format", "json")
    add("enumerate", "tawarruq_pi_triple_prime", "--bound", "3")
    for argv in (("run",), ("run", "--strategy", "exhaustive"), ("judge",), ("enumerate",)):
        add(argv[0], "late", *argv[1:], "--scenario-file", "@late")
    add("run", "p", "p=10", "--scenario-file", "@no_parameters")
    for i in range(len(BAD_FILES)):
        add("run", "p", "--scenario-file", f"@bad_{i}")
    for argv in (("list-scenarios",), ("run", "p"), ("judge", "p"), ("compare", "p", "p"),
                 ("synthesize", "--target", "p"), ("enumerate", "p")):
        add(*argv, "--scenario-file", "@bad_detector")
    for name in ("deep_parse", "deep_plan", "top_level_array", "not_objects",
                 "balance_number", "absent"):
        add("run", "bad", "--scenario-file", f"@{name}")
    add("run", "steal", "--scenario-file", "@steal")
    add("run", "deferred", "--scenario-file", "@deferred")
    for name in ("unknown_good", "unknown_contract"):
        add("run", name, "--scenario-file", f"@{name}")
    for name in ("waits_on_pay", "waits_on_balance", "waits_on_stage"):
        for command in ("run", "judge"):
            add(command, name, "--scenario-file", f"@{name}")
        add("enumerate", name, "-v", "--scenario-file", f"@{name}", "--format", "json")
    for name in KIND_FILES:
        add("run", name, "--scenario-file", f"@{name}")
    return out


CORPUS = _corpus()


def _write_files(directory: Path) -> None:
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Scenario file format"):]
    example = section[section.index("```json\n") + 8:]
    for name, document in {**FILES, "readme": example[:example.index("```")]}.items():
        if name == "absent":
            continue
        text = document if isinstance(document, str) else json.dumps(document)
        (directory / f"{name}.json").write_text(text)


def transcript(argv: tuple[str, ...], env: dict[str, str], directory: Path) -> str:
    """The sha256 of one invocation's [exit code, stdout, stderr], with the
    files' directory written as ``DIR``."""
    args = [str(directory / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("RPSF_SEED", raising=False)
        for key, value in env.items():
            patch.setenv(key, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejected an argument
                code = exc.code
    text = json.dumps([code, out.getvalue(), err.getvalue()]).replace(
        json.dumps(str(directory))[1:-1], "DIR")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def directory(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("transcript")
    _write_files(path)
    return path


@pytest.fixture(scope="module")
def pins() -> dict[str, str]:
    return json.loads(PINS.read_text())


def test_the_script_imports_this_trees_rpsf(tmp_path):
    # as ``python tests/test_transcript.py`` does: no PYTHONPATH, and not from the root
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = ("import runpy, sys; runpy.run_path(sys.argv[1]); "
             "print(sys.modules['rpsf'].__file__)")
    done = subprocess.run([sys.executable, "-c", probe, __file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert Path(done.stdout.strip()).resolve().is_relative_to(SRC.resolve())


def test_the_pins_name_the_corpus(pins):
    assert sorted(pins) == sorted(CORPUS)


def test_the_readme_states_the_number_of_pins(pins):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert [int(n) for n in re.findall(r"It runs\s+(\d+)\s+invocations", readme)] == [len(pins)]


@pytest.mark.parametrize("case", CORPUS)
def test_invocation_bytes_are_pinned(case, directory, pins):
    assert transcript(*CORPUS[case], directory) == pins[case]


if __name__ == "__main__":  # name the moved pins, then rewrite them from this tree
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _write_files(Path(scratch))
        digests = {case: transcript(*CORPUS[case], Path(scratch)) for case in CORPUS}
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    for label, cases in (("changed", [c for c in digests if c in old and old[c] != digests[c]]),
                         ("added", [c for c in digests if c not in old]),
                         ("removed", [c for c in old if c not in digests])):
        for case in sorted(cases):
            print(f"{label}: {case}")
    PINS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} pins written to {PINS}", file=sys.stderr)
