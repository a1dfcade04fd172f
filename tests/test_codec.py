"""The JSON codec over random values: decode(encode(x)) == x."""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf.cli import main  # noqa: E402
from rpsf.engine import Branch, Do, Plan, Stop, WaitFor, run  # noqa: E402
from rpsf.money import Quantity  # noqa: E402
from rpsf.scenarios import instance_to_dict, instantiate  # noqa: E402
from rpsf.world import (  # noqa: E402
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Always,
    BalanceAtLeast,
    ByDate,
    ChoiceIs,
    Clause,
    ConditionMet,
    ContractInStage,
    EthicalTag,
    GoodSpec,
    OwnsGood,
    Reason,
    RepaymentTerms,
    SigningMode,
    Stage,
    action_to_dict,
    value_from_dict,
    value_to_dict,
)


def _through_json(value):
    return json.loads(json.dumps(value))


names = st.sampled_from(("X", "Y", "Z"))
texts = st.text(max_size=8)
days = st.integers(min_value=0, max_value=10**6)
quantities = st.builds(Quantity, st.integers(-10**6, 10**6), st.integers(1, 1000))
templates = st.builds(
    ActionTemplate,
    kind=st.none() | st.sampled_from(ActionKind),
    actor=st.none() | names,
    counterparty=st.none() | names,
    amount=st.none() | quantities,
    good_id=st.none() | texts,
    contract_id=st.none() | texts,
    message=st.none() | texts,
)
conditions = st.one_of(
    st.builds(ChoiceIs, texts, st.booleans()),
    st.builds(BalanceAtLeast, names, quantities),
    st.builds(OwnsGood, names, texts),
    st.builds(ContractInStage, texts, st.sampled_from(Stage)),
)
triggers = st.one_of(
    st.just(Always()),
    st.builds(AfterEvent, templates),
    st.builds(ByDate, days),
    st.builds(ConditionMet, conditions),
)
clauses = st.builds(Clause, names, templates, triggers, st.none() | days)
actions = st.builds(
    Action,
    kind=st.sampled_from(ActionKind),
    actor=names,
    counterparty=st.none() | names,
    amount=st.none() | quantities,
    down_payment=st.none() | quantities,
    due_date=st.none() | days,
    good_id=st.none() | texts,
    contract_id=st.none() | texts,
    reason=st.none() | st.builds(
        Reason, texts, st.lists(texts, max_size=2).map(tuple),
        st.lists(days, max_size=2).map(tuple)),
    channel=st.none() | texts,
    message=st.none() | texts,
    tags=st.frozensets(st.sampled_from(EthicalTag)),
    signing=st.sampled_from(SigningMode),
    trigger=st.none() | triggers,
    on_credit=st.booleans(),
    parties=st.lists(names, max_size=3).map(tuple),
    clauses=st.lists(clauses, max_size=2).map(tuple),
    references=st.lists(texts, max_size=2).map(tuple),
    terms=st.none() | st.builds(RepaymentTerms, quantities, quantities, quantities, days),
    good_spec=st.none() | st.builds(GoodSpec, texts, st.none() | quantities, quantities,
                                    st.booleans()),
)
steps = st.recursive(
    st.one_of(st.builds(Do, actions), st.builds(WaitFor, triggers), st.just(Stop())),
    lambda inner: st.builds(Branch, conditions,
                            st.lists(inner, max_size=3).map(tuple),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=6,
)
plans = st.builds(Plan, names, st.lists(steps, max_size=4).map(tuple))


@given(actions)
def test_action_decode_of_encode_is_identity(action):
    encoded = action_to_dict(action)
    assert encoded == value_to_dict(action)
    assert value_from_dict(Action, _through_json(encoded)) == action


@given(plans)
def test_plan_decode_of_encode_is_identity(plan):
    assert value_from_dict(Plan, _through_json(value_to_dict(plan))) == plan


def _valid_file() -> dict:
    """Two built-ins under names of their own and a scenario that opens with
    contracts, plus a position."""
    loan = instantiate("brokered_loan")
    ina = instantiate("ina_two_party", {"single_contract": "true"})
    settled = run(ina.world, ina.plans, horizon=ina.horizon).world
    opened = {**instance_to_dict(ina), "name": "opened", "plans": [],
              "contracts": [value_to_dict(c) for c in settled.contracts.values()]}
    return {
        "scenarios": [{**instance_to_dict(loan), "name": "loan"},
                      {**instance_to_dict(ina), "name": "ina"}, opened],
        "positions": [{"name": "P", "mode": "descriptive", "default": "halal",
                       "rules": [{"name": "r", "detector": "ina", "verdict": "haram"}]}],
    }


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


VALID = _valid_file()
PATHS = list(_paths(VALID))[1:]
DROP = object()
UNKNOWN = object()  # inserts a key the format does not know beside the chosen one
REPLACEMENTS = (DROP, UNKNOWN, None, True, False, 0, -1, 1.5, "", "x", "30", "1/0", [], [1], {},
                {"a": 1})
COMMANDS = (("run", "loan"), ("run", "opened", "--format", "json"),
            ("judge", "ina", "--position", "P"), ("list-scenarios",))


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenarios.json"


@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(REPLACEMENTS)),
                min_size=1, max_size=3),
       st.sampled_from(COMMANDS))
def test_mutated_scenario_file_exits_with_a_documented_code(scenario_path, mutations, command):
    document = copy.deepcopy(VALID)
    for path, replacement in mutations:
        parent = document
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this path
        if replacement is DROP:
            del parent[path[-1]]
        elif replacement is UNKNOWN:
            if isinstance(parent, dict):
                parent["unknown_key"] = 1
        else:
            parent[path[-1]] = copy.deepcopy(replacement)
    scenario_path.write_text(json.dumps(document))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*command, "--scenario-file", str(scenario_path)])
    assert code in (0, 2, 3, 4, 5)
