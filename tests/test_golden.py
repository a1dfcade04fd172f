"""Pinned output bytes: the JSON format and the messages that show it.

Each digest is the sha256 of a command's stdout (or of a rendered value),
so any change to a key, a key order or a rendering shows up here.
"""

import hashlib

import pytest

from rpsf.cli import main
from rpsf.engine import DeadlockDetected, Plan, WaitFor, enumerate_interleavings, run
from rpsf.money import Quantity
from rpsf.scenarios import instantiate, scenario_names
from rpsf.world import (
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    BalanceAtLeast,
    ChoiceIs,
    ConditionMet,
    make_world,
)

RUN_JSON = {
    "loan_with_interest":
        "0322cb650bbb84f6b8bc9c3d1be0ce242f488cf70a359ee5c0aabcc64d5699ee",
    "savings_account_with_interest":
        "30717bbc07bee9fd5e5a58266cf8de84326411a821d260774ae390a29932f928",
    "ina_two_party":
        "ddec111010ef5c1baf51e625c167aa8f0be21b77aad3acc5242460472a8dcc44",
    "tawarruq_classic":
        "d409f9ab0f8e8872c2b97af353473250d60f18df028622901e4b3d92fabbaf8d",
    "contractus_trinus":
        "ae9df377a6fbe93c4048519b0a2cb393dc10e27a6a6577963b67ddb4597e2263",
    "murabaha":
        "f12c3ab1cbb3216f72221f1d145e86d59c1a2322883875861e2d76738ad45218",
    "tawarruq_pi":
        "45e833a9946b548fcf2eea17c29e0430d49d09edc12b5a2c90735df452b8efa8",
    "tawarruq_pi_prime":
        "6442813fbb1cfe3ab31dbbf9d68e94c67e143c8546baedca91487d69588665b2",
    "tawarruq_pi_double_prime":
        "2a7e46017cecfd80934b5a75ff9e006a05e806be3bc5156be2fac3c56ed308d8",
    "tawarruq_pi_triple_prime":
        "dbb2bfd3a16e2ecf1fcf3ee4e78d92ed2e77941d5fa6645ee5ca4f88ceb85044",
    "tawarruq_single_contract":
        "e8c9b732e1dba8925281c6a04575a9b93edfd31332fe59911ad71e0b65872d86",
    "brokered_loan":
        "49994f51e3861573cc04f79a391f2b07a40b502aa60a79dff00a4748b2056585",
    "unethical_examples":
        "f68b98ce7afc149ae6817d2f581cc110e21bb4af9e9515d23c7f321c805969c0",
}
ENUMERATE_JSON = "4967940c0c3cf9c04fbb288dfdd684b1abe1c1d7ddb26d446889053cea1dc10b"
SYNTHESIZE_JSON = "89bf9ba3600b44a6de011a370265de134f70ed78a8d1401501c5899f82811281"
JUDGE_JSON = "c578dae257f1b2d921006e457af2d53ec349ead88a28733cf7e5476aea1d5513"
KEYS = "0e13b63892aa2913c54c8c2b6597107654ae042960347517c1d3063a3b4c736e"
DEADLOCK = (
    "deadlock: X waiting on {'after_event': {'kind': 'pay', 'actor': 'Y', 'counterparty': 'X', 'contract_id': 'loan', 'amount': '11/2'}}; "
    "Y waiting on {'condition': {'balance_at_least': {'agent': 'Y', 'amount': '5'}}}; "
    "Z waiting on {'condition': {'choice': 'go', 'value': True}}"
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_thirteen_builtins_are_pinned():
    assert sorted(RUN_JSON) == sorted(scenario_names())


@pytest.mark.parametrize("name", scenario_names())
def test_run_json(capsys, name):
    code, out = _stdout(capsys, "run", name, "--format", "json")
    assert code == 0
    assert _digest(out) == RUN_JSON[name]


def test_enumerate_verbose_json(capsys):
    code, out = _stdout(capsys, "enumerate", "tawarruq_classic", "-v", "--format", "json")
    assert code == 0
    assert _digest(out) == ENUMERATE_JSON


def test_synthesize_json(capsys):
    code, out = _stdout(capsys, "synthesize", "--target", "savings_account_with_interest",
                        "--bound", "4", "--format", "json")
    assert code == 0
    assert _digest(out) == SYNTHESIZE_JSON


def test_haram_judgement_json(capsys):
    code, out = _stdout(capsys, "judge", "savings_account_with_interest",
                        "--position", "STRICT_DESCRIPTIVE", "--format", "json")
    assert code == 3
    assert _digest(out) == JUDGE_JSON


def test_progression_keys():
    instance = instantiate("tawarruq_classic")
    traces = enumerate_interleavings(instance.world, instance.plans, bound=40)
    assert _digest(repr([p.key() for p in traces])) == KEYS


def test_deadlock_message():
    world = make_world(agents=[Agent("X"), Agent("Y"), Agent("Z")],
                       balances={"Y": Quantity(1)})
    plans = (
        Plan("X", (WaitFor(AfterEvent(ActionTemplate(
            kind=ActionKind.PAY, actor="Y", counterparty="X", amount=Quantity(11, 2),
            contract_id="loan"))),)),
        Plan("Y", (WaitFor(ConditionMet(BalanceAtLeast("Y", Quantity(5)))),)),
        Plan("Z", (WaitFor(ConditionMet(ChoiceIs("go"))),)),
    )
    with pytest.raises(DeadlockDetected) as info:
        run(world, plans)
    assert str(info.value) == DEADLOCK
