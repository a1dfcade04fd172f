"""Pinned output bytes: the JSON format and the messages that show it.

Each digest is the sha256 of a command's stdout (or of a rendered value),
so any change to a key, a key order or a rendering shows up here.
"""

import hashlib
import json

import pytest

from rpsf.cli import main
from rpsf.engine import DeadlockDetected, Plan, WaitFor, enumerate_interleavings, run
from rpsf.money import Quantity
from rpsf.scenarios import get_spec, instance_to_dict, instantiate, scenario_names
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
# Built-in parameters, each set alone to each of BAD_VALUES: the digest of
# the rows (parameter, value, outcome, message), one per built-in.
BAD_VALUES = ("0", "-1", "1/3", "abc", "true")
PARAMETER_CASES = {
    "loan_with_interest":
        "e4ab89cc582ca634936af40fa5494b3ba2cc155130a50186d9c1a89d7a1053cf",
    "savings_account_with_interest":
        "8d2cd6b3a735cd66fdc381732f318b7281f5f1754a49ccbe1b1856bf54f79b63",
    "ina_two_party":
        "0698e4f316d5766f4b2d8d194e4a5910c07e29e8535699b5aa9b37aa36eebccf",
    "tawarruq_classic":
        "5dcb6231bfa16f81a2b3e531118e784c595eeb6a2451c2de754760c3409fa018",
    "contractus_trinus":
        "3ed6327ee9bf551cbf62b31e4287e5f46d19c2dd4dc8fda5d668d98e92e456e1",
    "murabaha":
        "f04c55c6916bd7b20d84ede3cba5238792892965b69a083a9ee394ab38bc670f",
    "tawarruq_pi":
        "59ff540178b387a89b6e3e449821755ea44af3d764974cca6d6b1c15ccfe2e45",
    "tawarruq_pi_prime":
        "818846e77e5d99eaaf23a053255db028ba12584a7791a8d0363ea72179572771",
    "tawarruq_pi_double_prime":
        "818846e77e5d99eaaf23a053255db028ba12584a7791a8d0363ea72179572771",
    "tawarruq_pi_triple_prime":
        "818846e77e5d99eaaf23a053255db028ba12584a7791a8d0363ea72179572771",
    "tawarruq_single_contract":
        "818846e77e5d99eaaf23a053255db028ba12584a7791a8d0363ea72179572771",
    "brokered_loan":
        "515dfe04a31c5007510f8cafa41c7885ac9aabba4c4c786d1a65bc7903a08308",
    "unethical_examples":
        "a956a3619994109ab87aa5dbf18ea8a4edaf72fb040148ffaa3e20b6e86562a3",
}
# instance_to_dict of each built-in at its defaults
INSTANCE_JSON = {
    "loan_with_interest":
        "628a318a2110911bd5b59e6883470f1c87ace559d4d100b8a5e7daf4faa4ca69",
    "savings_account_with_interest":
        "d69eead4c596cb577648053f241819cc721930f04c79fd5f7829465547373deb",
    "ina_two_party":
        "c2f349e89730cc9b564f8ae749dbde0d305b52add23f578cd4e443417c633e07",
    "tawarruq_classic":
        "8f5079fc6317f78d2b0fbb863fa26003d066748b050ff9435af36aa3b436ad0c",
    "contractus_trinus":
        "e74b2305fed089e2deba613f615d73caf90ff9f97bb2bc392abf4f2be9f14d95",
    "murabaha":
        "f380df427d212a6efea88a30947013886dd6627068e7943f4d684496c305404d",
    "tawarruq_pi":
        "2454a07f6e9b8393194a5e65a387c93112c01461c4ea327a20c251adbbc00beb",
    "tawarruq_pi_prime":
        "cfc902cc43c658f6f700b26f29d1a5c1183224b2d83f086733d942fa3d0d0cc4",
    "tawarruq_pi_double_prime":
        "fd985958a550267e476bb7695023341390c5ae306fc498bffa6a33d9d08e916c",
    "tawarruq_pi_triple_prime":
        "4fa1e5bbd6cc05f072b9b05667994103f296f6c75435d69a2816b08cc247f5e1",
    "tawarruq_single_contract":
        "71c4cfd628de8ba7428f500542900a33f4c1607494c1c9e3ce872a17971ada33",
    "brokered_loan":
        "d5b0e9e04f1a0167720e699196c8892e3ad42067483c219bd02d3a342b152bbe",
    "unethical_examples":
        "02a461c2770a23d35ba126fc566e5b082e15b1dc9ab5227e30c6bee7c6073e51",
}
# the declared verdicts that tests/test_legality.py checks
EXPECTED = {
    "loan_with_interest": {"CONVENTIONAL": "halal"},
    "savings_account_with_interest": {"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "haram",
                                     "STRICT_FUNCTIONAL": "haram"},
    "ina_two_party": {"CONVENTIONAL": "halal", "MAJORITY": "haram", "MALAYSIA": "halal"},
    "tawarruq_classic": {"CONVENTIONAL": "halal", "MAJORITY": "halal"},
    "contractus_trinus": {"CONVENTIONAL": "halal"},
    "murabaha": {"CONVENTIONAL": "halal"},
    "tawarruq_pi": {"CONVENTIONAL": "halal", "STRICT_FUNCTIONAL": "haram"},
    "tawarruq_pi_prime": {"CONVENTIONAL": "halal", "STRICT_FUNCTIONAL": "haram"},
    "tawarruq_pi_double_prime": {"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal",
                                "STRICT_FUNCTIONAL": "haram"},
    "tawarruq_pi_triple_prime": {"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal"},
    "tawarruq_single_contract": {"CONVENTIONAL": "halal"},
    "brokered_loan": {"CONVENTIONAL": "halal"},
    "unethical_examples": {"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "haram"},
}
LIST_JSON = "27ff810bbef4e6177fcd973500e89e4d4dfbad7f0e4a2cdc203b0fb67d1efe4a"
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


def _parameter_rows(name: str) -> list[list[str]]:
    rows = []
    for param in get_spec(name).params:
        for value in BAD_VALUES:
            try:
                instantiate(name, {param.name: value})
                outcome = ["ok", ""]
            except Exception as exc:  # the pin is whichever exception a bad value raises
                outcome = [type(exc).__name__, str(exc)]
            rows.append([param.name, value, *outcome])
    return rows


def test_all_parameter_cases_are_pinned():
    assert sorted(PARAMETER_CASES) == sorted(INSTANCE_JSON) == sorted(EXPECTED) \
        == sorted(scenario_names())
    count = sum(len(get_spec(name).params) for name in scenario_names()) * len(BAD_VALUES)
    assert count == 325


@pytest.mark.parametrize("name", scenario_names())
def test_single_bad_parameter_outcomes(name):
    assert _digest(json.dumps(_parameter_rows(name))) == PARAMETER_CASES[name]


@pytest.mark.parametrize("name", scenario_names())
def test_instance_json(name):
    instance = instantiate(name)
    assert _digest(json.dumps(instance_to_dict(instance))) == INSTANCE_JSON[name]
    assert dict(instance.expected) == EXPECTED[name]


def test_list_scenarios_json(capsys):
    code, out = _stdout(capsys, "list-scenarios", "--format", "json")
    assert code == 0
    assert _digest(out) == LIST_JSON


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
