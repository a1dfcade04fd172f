"""Pinned output bytes: the JSON format and the messages that show it.

Each digest is the sha256 of a command's stdout (or of a rendered value),
so any change to a key, a key order or a rendering shows up here.
"""

import hashlib
import json
import random

import pytest

from rpsf.cli import main
from rpsf.engine import (
    DeadlockDetected,
    Do,
    Plan,
    RoundRobin,
    WaitFor,
    enumerate_interleavings,
    run,
)
from rpsf.legality import BUILTIN_POSITIONS, judge
from rpsf.money import Quantity
from rpsf.scenarios import get_spec, instance_to_dict, instantiate, scenario_names
from rpsf.synthesis import ALL_AGENTS, Flow, monetary_projection, synthesize, witness_scenario
from rpsf.world import (
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    BalanceAtLeast,
    ByDate,
    ChoiceIs,
    ConditionMet,
    ContractRecord,
    Reason,
    RepaymentTerms,
    Role,
    Stage,
    make_world,
    value_to_dict,
    world_to_json,
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
        "7ddd4179c68eb74a490170df575870b2c83a2ac804eec6344e327258f4138d42",
    "tawarruq_pi_prime":
        "9259b75102d63e95bd10af7a4188c9993a3a7beb57a05cba4ef70353bbbe8f93",
    "tawarruq_pi_double_prime":
        "21ef5c89e4f674e8c21bf43aa282fef5d04204daa1cb3b2e40a37e80eb04369a",
    "tawarruq_pi_triple_prime":
        "ac263b4e5f0aef39ea9f68c39f5ab3a14469a11a81fb62c18b994fffacf39c3c",
    "tawarruq_single_contract":
        "56a2e6b56b38d18d132dc5229d15526511e3ed090a9e1b579194b2575fe5d3af",
    "brokered_loan":
        "49994f51e3861573cc04f79a391f2b07a40b502aa60a79dff00a4748b2056585",
    "unethical_examples":
        "f68b98ce7afc149ae6817d2f581cc110e21bb4af9e9515d23c7f321c805969c0",
}
# the engine's other paths, per built-in: `run --strategy random --seed 3`
# and `run --strategy exhaustive` as JSON, `enumerate -v` as JSON, and the
# repr of the round-robin `Progression.schedule` tuple
RUN_RANDOM_JSON = {
    "loan_with_interest":
        "0322cb650bbb84f6b8bc9c3d1be0ce242f488cf70a359ee5c0aabcc64d5699ee",
    "savings_account_with_interest":
        "30717bbc07bee9fd5e5a58266cf8de84326411a821d260774ae390a29932f928",
    "ina_two_party":
        "ddec111010ef5c1baf51e625c167aa8f0be21b77aad3acc5242460472a8dcc44",
    "tawarruq_classic":
        "9279c930d772a705ddc3f5d98b52da9c4c587b51ea8ea04a50eaa5255a0b76e8",
    "contractus_trinus":
        "ae9df377a6fbe93c4048519b0a2cb393dc10e27a6a6577963b67ddb4597e2263",
    "murabaha":
        "f12c3ab1cbb3216f72221f1d145e86d59c1a2322883875861e2d76738ad45218",
    "tawarruq_pi":
        "7ddd4179c68eb74a490170df575870b2c83a2ac804eec6344e327258f4138d42",
    "tawarruq_pi_prime":
        "9259b75102d63e95bd10af7a4188c9993a3a7beb57a05cba4ef70353bbbe8f93",
    "tawarruq_pi_double_prime":
        "060094901ba0c37ad07d48d09e90e751c8005e53cf22ac17db58bf54a7bb5b8c",
    "tawarruq_pi_triple_prime":
        "ac263b4e5f0aef39ea9f68c39f5ab3a14469a11a81fb62c18b994fffacf39c3c",
    "tawarruq_single_contract":
        "56072b7fef3475b8b879db22bc58ebe1a758ec8f5939c70048374e079fcf8c39",
    "brokered_loan":
        "49994f51e3861573cc04f79a391f2b07a40b502aa60a79dff00a4748b2056585",
    "unethical_examples":
        "f68b98ce7afc149ae6817d2f581cc110e21bb4af9e9515d23c7f321c805969c0",
}
RUN_EXHAUSTIVE_JSON = {
    "loan_with_interest":
        "0322cb650bbb84f6b8bc9c3d1be0ce242f488cf70a359ee5c0aabcc64d5699ee",
    "savings_account_with_interest":
        "30717bbc07bee9fd5e5a58266cf8de84326411a821d260774ae390a29932f928",
    "ina_two_party":
        "ddec111010ef5c1baf51e625c167aa8f0be21b77aad3acc5242460472a8dcc44",
    "tawarruq_classic":
        "893845b65c764c503b6c0c45371b71a0215c49dc1b8f28ae7325ebb45f1f37b6",
    "contractus_trinus":
        "ae9df377a6fbe93c4048519b0a2cb393dc10e27a6a6577963b67ddb4597e2263",
    "murabaha":
        "f12c3ab1cbb3216f72221f1d145e86d59c1a2322883875861e2d76738ad45218",
    "tawarruq_pi":
        "7ddd4179c68eb74a490170df575870b2c83a2ac804eec6344e327258f4138d42",
    "tawarruq_pi_prime":
        "9259b75102d63e95bd10af7a4188c9993a3a7beb57a05cba4ef70353bbbe8f93",
    "tawarruq_pi_double_prime":
        "ce427aaf6d8f115bddd8571d52241ffc7e182caa931500494fa1698bc463a4f1",
    "tawarruq_pi_triple_prime":
        "9fb82d870d2f8834c23c6a414b2260985bff0b8e1da705f549f71b72c6c1c8cb",
    "tawarruq_single_contract":
        "1a48cd1765517672827b4c0034b8b7803cd857d793efb14b4aa30ef2b8fa2b70",
    "brokered_loan":
        "49994f51e3861573cc04f79a391f2b07a40b502aa60a79dff00a4748b2056585",
    "unethical_examples":
        "f68b98ce7afc149ae6817d2f581cc110e21bb4af9e9515d23c7f321c805969c0",
}
ENUMERATE_ALL_JSON = {
    "loan_with_interest":
        "918fadae61e47a1919346f5d0c4b2a0e0cd6084535d1878495e738f315dcdb6a",
    "savings_account_with_interest":
        "db5b383e814459a5f08f9520fd2dc82a80796d37c6d0899dc92b5723738d67b5",
    "ina_two_party":
        "7b4ada78c1024737e78b972595f026479236eb169aa352c5f7694e70656b2b82",
    "tawarruq_classic":
        "4967940c0c3cf9c04fbb288dfdd684b1abe1c1d7ddb26d446889053cea1dc10b",
    "contractus_trinus":
        "d5440422028d711a4dbc9db8c7baa9ef8625e01e884cd8460fb21c2370c62f39",
    "murabaha":
        "c19cc8c5968d27b970a83a3b7f21750b5ceddc5889aff3c731f7d03a2fccd93b",
    "tawarruq_pi":
        "bbdaec474cb3d8a8513c6e54c3251fef974f61a292314d62ecb374d0a14ac6e3",
    "tawarruq_pi_prime":
        "71f46a9fb2f5f98e85eb9111b306176bd352f665b14a7cacbce43ae72c2f3fb7",
    "tawarruq_pi_double_prime":
        "c1271db3698b95b2d333be16465851fb8aeeffef5bfbf674731151d6eab10bef",
    "tawarruq_pi_triple_prime":
        "85608d4b4117004b6acc97397c0f84be2ba39399e5c4436ebb45eb5a1c4b6e0d",
    "tawarruq_single_contract":
        "1ca61f81c7e355b8dcca7396ea8648cfd6bd35b9a623497da58ae2a9c100469f",
    "brokered_loan":
        "da55590423e11f356f6ffea1c6ee3236e557f7065cf9bec2cd52b43f6fb9af6a",
    "unethical_examples":
        "6754e7a857d06ff0f6b59dfeb1df181b90aa87d203a76a69c8dc60a5eada5ccd",
}
SCHEDULES = {
    "loan_with_interest":
        "695d88df54e5977f961b256a56c391644a7c63dddfdc5f08804b7c4da699e51f",
    "savings_account_with_interest":
        "afeeb4830aa586a73e88166e383bb31a1ce5732ca4ff514c452e0127e250d877",
    "ina_two_party":
        "23063c2f107df982efbb80e62d8c2b880d2c92efb9aee6f41aa3d50a43aadaed",
    "tawarruq_classic":
        "fb1406e68bc9712c61b19f3439891ca710b999d871277bbffbf961a985db46c4",
    "contractus_trinus":
        "e8f4f6d5137fe6439f8494104931e3a42d83a68eb2934e989566d3cf1fbae571",
    "murabaha":
        "71a45d139863eaf3d094b9df714db9cfa483f4dc86b6dabc6734751832572772",
    "tawarruq_pi":
        "df81d35d0e331ca559347711a6df947754e8c975545f4eea8243533d87d44a72",
    "tawarruq_pi_prime":
        "df81d35d0e331ca559347711a6df947754e8c975545f4eea8243533d87d44a72",
    "tawarruq_pi_double_prime":
        "515b335b0fd30c6191031454fbe6608f962ced6009c06aae70a02ef7e2bfe7fd",
    "tawarruq_pi_triple_prime":
        "6b05698814a79c192c6487afe675b17ef6a53b9be97522452e3d98040b0de14b",
    "tawarruq_single_contract":
        "45ce94e3007bc64b57423559e8cadd7397c2adb532cdf4112c92cadec0f1af6c",
    "brokered_loan":
        "b246ffdd4d1443f14f8416c51d1feab71edf3daf78b01d102e92603a3cd97144",
    "unethical_examples":
        "6a04686709e1f2ebe646bfe127a7cff004b8886db64becf2775c317b8ed43c15",
}
ENUMERATE_JSON = "4967940c0c3cf9c04fbb288dfdd684b1abe1c1d7ddb26d446889053cea1dc10b"
SYNTHESIZE_JSON = "89bf9ba3600b44a6de011a370265de134f70ed78a8d1401501c5899f82811281"
# The savings target under the full catalogue at bound 5: (explored, witnesses,
# sha256 of the JSON list of every witness's actions) per perspective.
SYNTHESIS_BOUND_5 = {
    None: (2095, 126, "b648f6eb7680adf63a92431d2f527a6fcf62bb869f04c0c32c887adff17524fb"),
    ("X", "Y"): (3132, 68, "4213c5c9786978dabc2bd3ed5090ede7c76d70ae86a9933b1be0fe9501c41223"),
    ALL_AGENTS: (1660, 68, "4213c5c9786978dabc2bd3ed5090ede7c76d70ae86a9933b1be0fe9501c41223"),
}
# The same pins at the bounds the search reaches once each subproblem is
# searched once: (perspective, bound) -> (explored, witnesses, digest).
SYNTHESIS_DEEP = {
    (None, 7): (132335, 7046,
                "f498dbfe1387092ebad525664ffecf36efe4e8023723a6db59f6e62e95d4b3b3"),
    (("X", "Y"), 6): (24748, 328,
                      "7c73d270a3db77223aaacdb66ae2a25030083825ae4910625b03e84614a69018"),
    (ALL_AGENTS, 6): (10316, 328,
                      "7c73d270a3db77223aaacdb66ae2a25030083825ae4910625b03e84614a69018"),
}
SPOT_ONLY_BOUND_6_EXPLORED = 1877
FULL_CATALOGUE = ("spot-sale", "credit-sale", "prepare-good", "contracts", "inform")
# witness_scenario of every witness, in order: (witness count, digest of the
# list). The renamed target is savings with X as P and Y as M, searched with
# agents (P, M, B), so the principal (P) is not the first name in order.
# murabaha from A's perspective has no witness at these bounds.
WITNESS_SCENARIOS = {
    "savings": (126, "93b21195d214b4ae059b4663a62981297d7c2184e28c1931bfd175af35ee16e6"),
    "savings-preowned-good": (
        625, "6995108d8a0619d581525de3cee91ed6c204829b2780fb44304acb7343996ee4"),
    "murabaha": (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "savings-renamed": (14, "cf0aced42dc9a81953f497a8137377787ff544fbf461d94f4856372b3ae27222"),
}
JUDGE_JSON = "c578dae257f1b2d921006e457af2d53ec349ead88a28733cf7e5476aea1d5513"
# Built-in parameters, each set alone to each of BAD_VALUES: the digest of
# the rows (parameter, value, outcome, message), one per built-in.
BAD_VALUES = ("0", "-1", "1/3", "abc", "true")
PARAMETER_CASES = {
    "loan_with_interest":
        "7c93a9d9b3b77060e06bd78f4d27e2c3794c48a7beae40ad17c93db8abf34fa6",
    "savings_account_with_interest":
        "d737b0047b6839558818a91525cb8b65c7ee418c7677c4834225b2d79bcb2992",
    "ina_two_party":
        "b553a2eb097094fbc883acfba83cc15a6283d1dc764f0ffbf99ae14929478bef",
    "tawarruq_classic":
        "c861733d282a2a799860cd1a22ba0f1172193cf17f98606b42c4f66389dab536",
    "contractus_trinus":
        "483ed9f2a6f28c865af1eaf58a8ffbfe4dfbc21c42ceb03aa783b161f47501ef",
    "murabaha":
        "df6768aebef16d7728bc7d88f093adb515fe967014f2d5c36b86c908bfa02114",
    "tawarruq_pi":
        "8f762b3a145505a7c5b6d2dab2eafbe58921f147d66e248ada124e3ce327201d",
    "tawarruq_pi_prime":
        "5983daa2545320169f23ff77220f3f3149ef78d45747a42e5d4b19a7911085cc",
    "tawarruq_pi_double_prime":
        "5983daa2545320169f23ff77220f3f3149ef78d45747a42e5d4b19a7911085cc",
    "tawarruq_pi_triple_prime":
        "5983daa2545320169f23ff77220f3f3149ef78d45747a42e5d4b19a7911085cc",
    "tawarruq_single_contract":
        "5983daa2545320169f23ff77220f3f3149ef78d45747a42e5d4b19a7911085cc",
    "brokered_loan":
        "9a86fe2995f1e6bb21ec474b35a41060a07039ee6dead5a0fe82917cc7bdc586",
    "unethical_examples":
        "d974e1ca8c20daf5db17a2374c92f59075b4a7bd91a6d4ba4d2e4c670e44c473",
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
        "61691c0aceb80f72e23c1fd1ab96c926fb43a260c7d4dcdf15ddf1a0127dbd09",
    "tawarruq_pi_prime":
        "18511df71a4d1f1ce3caaf638de188903cfbea7742e752414ebf37377649d820",
    "tawarruq_pi_double_prime":
        "1a49196c87cc0168eb25427f2cf626c75a5ab334bd645d817b7e9bd4e441bac0",
    "tawarruq_pi_triple_prime":
        "ad8a3586f10c7d0b8a5200a8d09b386babbb8f5c84e6afec3340a61267ac6a65",
    "tawarruq_single_contract":
        "fadbf88b5959c3cb156d51a29eba424151d51d42062b988e79c11f9b2c795142",
    "brokered_loan":
        "d5b0e9e04f1a0167720e699196c8892e3ad42067483c219bd02d3a342b152bbe",
    "unethical_examples":
        "02a461c2770a23d35ba126fc566e5b082e15b1dc9ab5227e30c6bee7c6073e51",
}
# instance_to_dict of built-ins away from their defaults: one
# (name, "param=value ...", digest) row per variant
INSTANCE_VARIANT_JSON = (
    ("ina_two_party", "single_contract=true",
     "31d9021ddc717194c7ea67798767337469d1f1843cd05065f4eb8afc018b4da5"),
    ("ina_two_party", "p=1/3 i=2/7 t=30",
     "759112468c334bf0489039e30eedc077c5b5e8d15fd698e3208fecaa0138f750"),
    ("brokered_loan", "guarantee=goods-on-default",
     "a506e279eeafb9e81c131c5686746c54fd1b7805778648f590b050d24ed02361"),
    ("brokered_loan", "guarantee=income-share",
     "d24f7ed3a9ac465747306ede6f2dc67a44dc198e1f08d0b7ba215dfee44cf30e"),
    ("brokered_loan", "lender_willing=false",
     "696fe3e2d35da7317472d2c2adfdad799834d6b5a424ed79111d15e55e6ac25b"),
    ("brokered_loan", "guarantee=income-share lender_willing=false i=7",
     "bd4d986fecf2dba3e1c702ed1f872d42464659d207fdbf6d856cb911fe967d8c"),
    ("unethical_examples", "variant=rain_promise",
     "7c7fbf8ccaeaffea82e981431d09297d7123ffdea55b45f2a7d12398b1d94378"),
    ("unethical_examples", "variant=used_car_sale",
     "043f71bd26a681c1f24271b7d1dfebadb29e5e841be7e45a77fc07c5f526d8c9"),
    ("unethical_examples", "variant=extortion",
     "6b401346b0f824e1947dbcdc886012350316d86054b27278a5053f1127e189bd"),
    ("unethical_examples", "variant=interest_loan",
     "7fb00b7536480bd83e33c82f1a3d9358917232c8fe7ee6bf58a15087345395aa"),
    ("tawarruq_pi", "value_drift=3",
     "80e5b9f20bbd7122862784511be29099c89e5191da15e366eae5cb58f06103fa"),
    ("tawarruq_pi_prime", "p=1001 value_drift=-2",
     "794d80ed4076491318c252e749a6484a6d53c7b2ed7d4ebd2b8c4ddcd1ec2c0f"),
    ("tawarruq_pi_double_prime", "p=999 c=0",
     "066258edb855570b980550e0b77b096c876116987b7058e8a540e289b6815291"),
    ("tawarruq_pi_triple_prime", "q=0",
     "23186f5de88aa088ab2d965c2ab2057e6e7078d3fe5a7d871e1e6daadaa071ae"),
    ("tawarruq_single_contract", "block=7",
     "762e52e6ab5b06cd419a3b81ee74f3b652cf38cc28c50fb8d043afcb1ca0b8f1"),
    ("loan_with_interest", "c=3 c2=1 i=1/2",
     "f79a2615f462c764cb995e7067c3f08223e1050f0dd3b5ed9ba2ef354be335f6"),
    ("savings_account_with_interest", "c=0 q=0",
     "25aae8300be078c21448f25015030dd45470dd70edec531565b99c19ee995af9"),
    ("murabaha", "price=5/2 fee=0",
     "76a7d8de972ebd131ac4f9999b1de608c60520ddb6395a33fe1b8b16518f99ca"),
    ("contractus_trinus", "premium=0",
     "2b7e0f7f5042f4cfce40dd454af5b1b92536abef730115047849559f6919c963"),
    ("tawarruq_classic", "p=7/3",
     "b300d939a2146e9c08e61d5b0b211c586cb721e3ef46fd9e52fb52b4f23f9702"),
)
# value_to_dict(judge(position, instance, trace)) for every enumerated trace of
# each built-in at its defaults, under each of the five built-in positions
JUDGEMENTS = {
    "loan_with_interest":
        "fe3ac3620463b297bf9b8ceaf984983860f14e72a63e3bb4664675dde0c059c2",
    "savings_account_with_interest":
        "0303f55d611692481fa9e9e69bd11047e315f3b9e3feb93ba56abbddf558dcd1",
    "ina_two_party":
        "37ca7e4f8da38c9354a2316f94d9c3fff19db4881cbf1a89145d9d7907175f60",
    "tawarruq_classic":
        "c2f8c14584db096fb06451764d048eca5f5b73e067efe49a30bb3d7a4848914f",
    "contractus_trinus":
        "b03b9870c0643bedf7801fd464378462fa3aa88c775623c342aeb2008173e551",
    "murabaha":
        "f40acc1e4cb47d455882f364cfcda2f31a0c8fcde68cc47c040d9705644118b4",
    "tawarruq_pi":
        "7d69c50a0cf37cba65f144dab759ef8f5fc0b6c1e88a5410db76928e2e3fcb93",
    "tawarruq_pi_prime":
        "7d69c50a0cf37cba65f144dab759ef8f5fc0b6c1e88a5410db76928e2e3fcb93",
    "tawarruq_pi_double_prime":
        "74f5275b437b77d8ccd71f1719b1c9767defe2b04a10e176c14a7645f7b091f3",
    "tawarruq_pi_triple_prime":
        "74f5275b437b77d8ccd71f1719b1c9767defe2b04a10e176c14a7645f7b091f3",
    "tawarruq_single_contract":
        "7c7ddda722f5e48373adf0eccb3b28cf6aa776470d394974f1409d9b5a577635",
    "brokered_loan":
        "5e5ee0b059df385266b358c9b2b83198d96bd93e6ecf6af79bf590ad11f6a3d3",
    "unethical_examples":
        "70401fca6661f4a2b80b9d3e4d040d76507ad6310bf2e938983ffc1281365568",
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

# world_to_json of each built-in's final world after a RoundRobin run
WORLD_JSON = {
    "loan_with_interest":
        "982b473e2d6b662558608762711674c6c01a9d41ef0ce91a9f268a985e6c6f44",
    "savings_account_with_interest":
        "f0768f9c8c91440dd8cd1cd67f0b9369bf56a770526188a63ca93b2efd5aae14",
    "ina_two_party":
        "5944c2bb65dba5fc280f44590caf80973671122383f09c35665316a3e107e6f3",
    "tawarruq_classic":
        "5dcddda6efa5fbb8d3e5745586952f5a4162beee12c83df163e741d75735eb82",
    "contractus_trinus":
        "79f81e6aa9138b9ee8997a1403f9065109d7dbafa3d34d35f08a8c7b39ec7735",
    "murabaha":
        "5b164ce1846cfc9a408d6ef6c2d4219e13a89207a72b5305d63b73f32186f3fe",
    "tawarruq_pi":
        "e715d8c785dbe26c8b0394befa6b80075b25fa8d050647508aeb09dd72aab46e",
    "tawarruq_pi_prime":
        "d5df4b409e8ecc2a726f4abe9edf4c4c9a032f33e7ae02f11410de1a4cc08335",
    "tawarruq_pi_double_prime":
        "ea70164757e1d8d1c54dffdf5ca5ce5db905a2098833e81f88c762b451bb8531",
    "tawarruq_pi_triple_prime":
        "b44786c68b214bf259d170b23381eb185eb5729379c250e576edec3346cc265a",
    "tawarruq_single_contract":
        "a81014f0d41a5c5b928bd7d5c02904eca17ff1438506ad57890945ce7df3d30d",
    "brokered_loan":
        "3a58f4813e2b2395cd1fdd748add0680463fc48817d0e7727a83a6644b4697b8",
    "unethical_examples":
        "24456e85541c7d669c52711ca7db705d61cdab33c6950a32935c99f62fdb197d",
}
# world_to_json of _deep_account(seed=1, rounds=400): (characters, sha256)
DEEP_WORLD_JSON = (271176, "83729f8ba4f0868fcea63cb6d0c856065158ca26e10a13ac411b92f3ea0feb29")
# `rpsf --help` and each subcommand's `-h`, 80 columns wide
HELP = {
    "--help": "a853db8fb52c4d963be433a380cc2e964114b7fee0d1e74f0024846884db66db",
    "list-scenarios": "9806c6ed5f3ec1ed77f10d3b1b87e03f10f68394e4be4facfb62a9aaf146d5f8",
    "run": "19151b58543acd64b9a5fce90f11d42c227a66c1c0506693dd9c6870541562a7",
    "judge": "fa882a661fc8dfb23aaaf5c7b3ba59b0adfe059cd7a1abf2f7f06bf257aae2ef",
    "compare": "711cb75900821dbc46f6bc3ccac7e997cb0c2a5890dfaaa648d7d55a977f2134",
    "synthesize": "ad44b8d7d373bff7a57522d9fdc002c66ed18c16cd6aaeb13a262c0e5507226e",
    "enumerate": "63e610f4bfdd48f826918d54c4fbf25f35cccaca0824c64ed30ae945ad63476c",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _witnesses_digest(result) -> str:
    return _digest(json.dumps(value_to_dict([{"actions": w.actions} for w in result.witnesses])))


def _stdout(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_thirteen_builtins_are_pinned():
    assert sorted(RUN_JSON) == sorted(scenario_names())


@pytest.mark.parametrize("command", sorted(HELP))
def test_help(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    with pytest.raises(SystemExit) as exit_:
        main([command] if command == "--help" else [command, "-h"])
    assert exit_.value.code == 0
    assert _digest(capsys.readouterr().out) == HELP[command]


@pytest.mark.parametrize("name", scenario_names())
def test_run_json(capsys, name):
    code, out = _stdout(capsys, "run", name, "--format", "json")
    assert code == 0
    assert _digest(out) == RUN_JSON[name]


@pytest.mark.parametrize("name", scenario_names())
def test_engine_paths(capsys, name):
    for argv, pins in ((("run", "--strategy", "random", "--seed", "3"), RUN_RANDOM_JSON),
                       (("run", "--strategy", "exhaustive"), RUN_EXHAUSTIVE_JSON),
                       (("enumerate", "-v"), ENUMERATE_ALL_JSON)):
        code, out = _stdout(capsys, argv[0], name, *argv[1:], "--format", "json")
        assert code == 0
        assert _digest(out) == pins[name], argv
    instance = instantiate(name)
    progression = run(instance.world, instance.plans, RoundRobin(), horizon=instance.horizon,
                      choices=dict(instance.choice_points))
    assert _digest(repr(progression.schedule)) == SCHEDULES[name]


def test_enumerate_verbose_json(capsys):
    code, out = _stdout(capsys, "enumerate", "tawarruq_classic", "-v", "--format", "json")
    assert code == 0
    assert _digest(out) == ENUMERATE_JSON


def test_synthesize_json(capsys):
    code, out = _stdout(capsys, "synthesize", "--target", "savings_account_with_interest",
                        "--bound", "4", "--format", "json")
    assert code == 0
    assert _digest(out) == SYNTHESIZE_JSON


def _savings_target():
    instance = instantiate("savings_account_with_interest")
    return monetary_projection(run(instance.world, instance.plans, RoundRobin(),
                                   horizon=instance.horizon))


@pytest.mark.parametrize("perspective", list(SYNTHESIS_BOUND_5))
def test_synthesis_witnesses_at_bound_5(perspective):
    result = synthesize(_savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"), bound=5,
                        perspective=perspective)
    digest = _witnesses_digest(result)
    assert (result.explored, len(result.witnesses), digest) == SYNTHESIS_BOUND_5[perspective]


@pytest.mark.parametrize("perspective, bound", list(SYNTHESIS_DEEP))
def test_synthesis_witnesses_at_deeper_bounds(perspective, bound):
    result = synthesize(_savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"), bound=bound,
                        perspective=perspective)
    digest = _witnesses_digest(result)
    assert (result.explored, len(result.witnesses), digest) == SYNTHESIS_DEEP[
        perspective, bound]


def test_spot_only_certificate_at_bound_6():
    result = synthesize(_savings_target(), ["spot-sale"], ("X", "Y", "Z"), bound=6)
    assert (result.found, result.explored) == (False, SPOT_ONLY_BOUND_6_EXPLORED)


def _witness_search(case: str):
    trades = ["spot-sale", "credit-sale", "prepare-good"]
    if case == "savings":
        return synthesize(_savings_target(), trades, ("X", "Y", "Z"), bound=5)
    if case == "savings-preowned-good":
        return synthesize(_savings_target(), trades[:2], ("X", "Y", "Z"), bound=5)
    if case == "murabaha":
        instance = instantiate("murabaha")
        target = monetary_projection(run(instance.world, instance.plans, RoundRobin(),
                                         horizon=instance.horizon))
        return synthesize(target, trades, ("A", "B", "BANK"), bound=4, perspective=("A",))
    names = {"X": "P", "Y": "M"}
    target = tuple(Flow(names[f.payer], names[f.payee], f.amount, f.date)
                   for f in _savings_target())
    return synthesize(target, trades, ("P", "M", "B"), bound=4)


@pytest.mark.parametrize("case", list(WITNESS_SCENARIOS))
def test_witness_scenarios(case):
    result = _witness_search(case)
    rendered = [witness_scenario(result, i) for i in range(len(result.witnesses))]
    assert (len(rendered), _digest(json.dumps(rendered))) == WITNESS_SCENARIOS[case]


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
        == sorted(JUDGEMENTS) == sorted(WORLD_JSON) == sorted(scenario_names())
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


@pytest.mark.parametrize("name, variant, digest", INSTANCE_VARIANT_JSON,
                         ids=[f"{name}[{variant}]" for name, variant, _ in INSTANCE_VARIANT_JSON])
def test_instance_json_of_variants(name, variant, digest):
    params = dict(pair.split("=", 1) for pair in variant.split())
    assert _digest(json.dumps(instance_to_dict(instantiate(name, params)))) == digest


def test_list_scenarios_json(capsys):
    code, out = _stdout(capsys, "list-scenarios", "--format", "json")
    assert code == 0
    assert _digest(out) == LIST_JSON


def test_progression_keys():
    instance = instantiate("tawarruq_classic")
    traces = enumerate_interleavings(instance.world, instance.plans, bound=40)
    assert _digest(repr([p.key() for p in traces])) == KEYS


@pytest.mark.parametrize("name", scenario_names())
def test_judgements_of_every_enumerated_trace(name):
    instance = instantiate(name)
    traces = enumerate_interleavings(instance.world, instance.plans, bound=40,
                                     choice_points=instance.choice_points)
    rows = [[value_to_dict(judge(position, instance, trace))
             for position in BUILTIN_POSITIONS.values()] for trace in traces]
    assert _digest(json.dumps(rows)) == JUDGEMENTS[name]


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


def _deep_account(seed: int, rounds: int):
    """The final world of a two-agent account run under RoundRobin: 2 * rounds
    payments, A paying in and B paying out, with by-date waits that move the
    clock between rounds (the shape of the benchmark's long history)."""
    rng = random.Random(f"deep:{seed}")
    a_steps: list = []
    b_steps: list = []
    cents = {"A": 0, "B": 0}
    day = 0
    for k in range(rounds):
        if k and rng.random() < 0.5:
            day += rng.randint(1, 3)
            a_steps.append(WaitFor(ByDate(day)))
        deposit, withdrawal = rng.randint(1_000, 100_000), rng.randint(1_000, 100_000)
        cents["A"] += deposit
        cents["B"] += withdrawal
        a_steps += [Do(Action(kind=ActionKind.PAY, actor="A", counterparty="B",
                              amount=Quantity(deposit, 100),
                              reason=Reason(contract_ids=("acct",)), message=f"a{k}")),
                    WaitFor(AfterEvent(ActionTemplate(
                        kind=ActionKind.PAY, actor="B", message=f"b{k}")))]
        b_steps += [WaitFor(AfterEvent(ActionTemplate(
                        kind=ActionKind.PAY, actor="A", message=f"a{k}"))),
                    Do(Action(kind=ActionKind.PAY, actor="B", counterparty="A",
                              amount=Quantity(withdrawal, 100),
                              reason=Reason(contract_ids=("acct",)), message=f"b{k}"))]
    account = ContractRecord(
        contract_id="acct", parties=frozenset({"A", "B"}), initiator="B", clauses=(),
        signatures=frozenset({"A", "B"}), stage=Stage.ACTIVE,
        terms=RepaymentTerms(principal=Quantity(1000), rate=Quantity(1, 50), period=365))
    world = make_world(agents=[Agent("A"), Agent("B", Role.BANK)],
                       balances={a: Quantity(c, 100) for a, c in cents.items()},
                       contracts=[account])
    plans = (Plan("A", tuple(a_steps)), Plan("B", tuple(b_steps)))
    return run(world, plans, RoundRobin(), horizon=10 * len(a_steps)).world


@pytest.fixture(scope="module")
def deep_world():
    world = _deep_account(seed=1, rounds=400)
    assert len(world.history) == 800
    return world


@pytest.mark.parametrize("name", scenario_names())
def test_world_json_of_each_builtin(name):
    instance = instantiate(name)
    progression = run(instance.world, instance.plans, RoundRobin(), horizon=instance.horizon,
                      choices=dict(instance.choice_points))
    assert _digest(world_to_json(progression.world)) == WORLD_JSON[name]


def test_world_json_of_a_long_account(deep_world):
    text = world_to_json(deep_world)
    assert (len(text), _digest(text)) == DEEP_WORLD_JSON


def test_rendering_never_reaches_the_pure_python_encoder(monkeypatch, capsys, deep_world):
    # json builds its pure-Python encoder with _make_iterencode, and only for
    # output the C encoder cannot write, such as indented JSON
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        json.dumps([1], indent=2)
    assert _digest(world_to_json(deep_world)) == DEEP_WORLD_JSON[1]
    for argv, pin in ((("run", "tawarruq_classic"), RUN_JSON["tawarruq_classic"]),
                      (("enumerate", "tawarruq_classic", "-v"), ENUMERATE_JSON),
                      (("synthesize", "--target", "savings_account_with_interest",
                        "--bound", "4"), SYNTHESIZE_JSON)):
        code, out = _stdout(capsys, *argv, "--format", "json")
        assert (code, _digest(out)) == (0, pin), argv
