"""The JSON codec over random values: decode(encode(x)) == x, and each
row's writer writes what json writes of ``value_to_dict``'s output."""

import contextlib
import copy
import io
import json
from enum import Enum
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import rpsf.legality  # noqa: E402,F401  (its rows)
import rpsf.synthesis  # noqa: E402,F401  (its rows)
from rpsf import world  # noqa: E402
from rpsf.cli import main  # noqa: E402
from rpsf.engine import Branch, Do, Plan, PlanStep, Stop, WaitFor, run  # noqa: E402
from rpsf.money import MISSING, Quantity, fields  # noqa: E402
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
    Condition,
    ConditionMet,
    ContractInStage,
    EthicalTag,
    GoodSpec,
    OwnsGood,
    Reason,
    RepaymentTerms,
    SigningMode,
    Stage,
    Trigger,
    action_to_dict,
    render_json,
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


# Values of any type the codec table writes, from the type's annotations. A
# field with a default holds it half the time, so every omitted default is
# drawn; strings need escaping or are not ASCII, and quantities are seldom
# integral.
ESCAPED = st.text(alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀 a{:'), max_size=6)


def values_of(tp) -> st.SearchStrategy:
    if tp in world._ROWS:
        return st.deferred(lambda: record_values(tp))
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        return st.one_of([st.none() if a is type(None) else values_of(a) for a in args])
    if origin is tuple:
        return st.lists(values_of(args[0]), max_size=2).map(tuple)
    if origin is frozenset:
        return st.frozensets(values_of(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(ESCAPED, values_of(args[1]), max_size=2)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return st.sampled_from(tp)
    return {str: ESCAPED, int: st.integers(-10**20, 10**20), bool: st.booleans(),
            Quantity: quantities}[tp]


def record_values(cls) -> st.SearchStrategy:
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        drawn = values_of(hints[f.name])
        if f.has_default:
            default = f.default if f.default is not MISSING else f.default_factory()
            drawn = st.just(default) | drawn
        kwargs[f.name] = drawn
    return st.builds(cls, **kwargs)


WRITTEN = {cls.__name__: cls for cls in world._ROWS} \
    | {"Trigger": Trigger, "Condition": Condition, "PlanStep": PlanStep}


@pytest.mark.parametrize("tp", WRITTEN.values(), ids=WRITTEN.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writer_writes_what_json_writes_of_the_encoding(tp, data):
    value = data.draw(values_of(tp))
    encoded = value_to_dict(value)
    for place in (lambda v: v, lambda v: {"k": v, "l": [v]}, lambda v: [[v], v],
                  lambda v: {1: (v,), None: [{"k": v}]}):
        assert render_json(place(value)) == json.dumps(place(encoded), indent=2)


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
        "positions": [{"name": "P", "default": "halal",
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
# a value for each optional action field, to set on a ``do`` step's action
DO_PATHS = [path for path in PATHS if path[-1] == "do"]
ACTION_FIELDS = {
    "counterparty": "X", "amount": "1", "down_payment": "1", "due_date": 5, "good_id": "G",
    "contract_id": "c", "reason": {"text": "why"}, "channel": "mail", "message": "hi",
    "tags": ["coercion"], "signing": "initiator-only", "trigger": {"always": True},
    "on_credit": True, "parties": ["X"],
    "clauses": [{"obliged_party": "X", "obliged_action": {"kind": "pay"}}],
    "references": ["c"], "terms": {"principal": "10", "rate": "1/10"},
    "good_spec": {"kind": "asset"}}
MUTATIONS = st.one_of(st.tuples(st.sampled_from(PATHS), st.sampled_from(REPLACEMENTS)),
                      st.tuples(st.sampled_from(DO_PATHS), st.sampled_from(list(ACTION_FIELDS))))


def test_every_optional_action_field_is_set_on_some_mutated_step():
    assert DO_PATHS
    assert list(ACTION_FIELDS) == [f.name for f in fields(Action) if f.has_default]


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "scenarios.json"


@given(st.lists(MUTATIONS, min_size=1, max_size=3), st.sampled_from(COMMANDS))
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
        if isinstance(replacement, str) and replacement in ACTION_FIELDS:  # a field's name
            if isinstance(parent["do"], dict):
                parent["do"][replacement] = copy.deepcopy(ACTION_FIELDS[replacement])
        elif replacement is DROP:
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
