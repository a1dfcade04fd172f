"""Built-in scenario catalogue: step lists, flows, parameters, file format."""

import json
import random
from fractions import Fraction

import pytest

from rpsf.engine import Do, Plan, RoundRobin, WaitFor, run
from rpsf.legality import LegalPosition, Rule, Verdict
from rpsf.money import Quantity
from rpsf.scenarios import (
    _SEEN_BY,
    ParameterViolation,
    UnknownScenario,
    act,
    compose,
    contract,
    instance_to_dict,
    instantiate,
    load_scenario_file,
    scenario_names,
    sees,
)
from rpsf.synthesis import monetary_projection, net_positions
from rpsf.world import Action, ActionKind


def q(n, d=1):
    return Quantity(n, d)


def run_default(name, **params):
    instance = instantiate(name, params)
    progression = run(instance.world, instance.plans, RoundRobin(),
                      horizon=instance.horizon, choices=instance.choice_points)
    return instance, progression


def nets_of(progression):
    return net_positions(monetary_projection(progression))


ALL_SCENARIOS = scenario_names()


class TestCatalogue:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_every_builtin_completes_under_round_robin(self, name):
        instance, progression = run_default(name)
        assert len(progression.events) > 0

    def test_unknown_scenario(self):
        with pytest.raises(UnknownScenario):
            instantiate("no_such_product")

    def test_aliases(self):
        assert instantiate("pi_prime").name == "tawarruq_pi_prime"
        assert instantiate("pi_double_prime").name == "tawarruq_pi_double_prime"

    def test_instantiation_deterministic(self):
        a = instantiate("tawarruq_classic")
        b = instantiate("tawarruq_classic")
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterViolation):
            instantiate("tawarruq_classic", {"rate": "1/10"})

    @pytest.mark.parametrize("text, flag", [("1", True), ("TRUE", True), ("Yes", True),
                                            ("0", False), ("false", False), ("NO", False),
                                            (True, True), (False, False)])
    def test_flag_spellings(self, text, flag):
        instance = instantiate("ina_two_party", {"single_contract": text})
        assert instance.params["single_contract"] is flag

    @pytest.mark.parametrize("text", ["ture", "", "2", "on"])
    def test_misspelt_flag_names_the_parameter(self, text):
        with pytest.raises(ParameterViolation, match="parameter single_contract must be true"):
            instantiate("ina_two_party", {"single_contract": text})

    # no truthiness: None must not silently mean "declined"
    @pytest.mark.parametrize("value", [None, [], 2, 1.5])
    def test_flag_of_another_type_names_the_parameter(self, value):
        with pytest.raises(ParameterViolation, match="parameter lender_willing must be true "
                                                     r"or false \(or 1/0, yes/no\), got "):
            instantiate("brokered_loan", {"lender_willing": value})

    @pytest.mark.parametrize("text", ["0", "-1", "-365"])
    def test_period_under_one_day_has_one_message(self, text):
        with pytest.raises(ParameterViolation) as exc:
            instantiate("loan_with_interest", {"t": text})
        assert str(exc.value) == f"parameter t must be at least one day, got {int(text)}"

    def test_an_int_quantity_is_a_whole_quantity(self):
        instance = instantiate("loan_with_interest", {"p": 200})
        assert instance.params["p"] == Quantity(200)
        assert type(instance.params["p"]) is Quantity

    # a library caller passes Python values, which the CLI's strings never reach
    @pytest.mark.parametrize("value", [1.5, True, None])
    def test_a_value_that_is_not_a_quantity_names_itself(self, value):
        with pytest.raises(ParameterViolation) as exc:
            instantiate("loan_with_interest", {"p": value})
        assert str(exc.value) == f"parameter p must be a quantity, got {value!r}"

    @pytest.mark.parametrize("value", [Quantity(30), True, 2.0])
    def test_a_period_that_is_not_a_day_count_names_itself(self, value):
        with pytest.raises(ParameterViolation) as exc:
            instantiate("loan_with_interest", {"t": value})
        assert str(exc.value) == f"parameter t must be a day count, got {value!r}"


class TestTawarruqClassic:
    def test_ten_events_and_flows(self):
        instance, progression = run_default("tawarruq_classic")
        assert len(progression.events) == 10
        nets = nets_of(progression)
        assert nets["X"] == {0: q(-100), 365: q(110)}
        assert nets["Y"] == {0: q(100), 365: q(-110)}
        assert "Z" not in nets  # net zero each day

    def test_asset_round_trip(self):
        instance, progression = run_default("tawarruq_classic")
        assert instance.world.goods["S"].owner == "Z"
        assert progression.world.goods["S"].owner == "Z"

    def test_flow_trace_shape(self):
        _, progression = run_default("tawarruq_classic")
        flows = [(f.payer, f.payee, str(f.amount), f.date)
                 for f in monetary_projection(progression)]
        assert flows == [("X", "Z", "100", 0), ("Z", "Y", "100", 0),
                         ("Y", "X", "110", 365)]


class TestSavingsAccount:
    def test_worked_repayment(self):
        # oracle: 1000 - 2 + (1/20)*1000 computed with Fraction
        assert Fraction(1000) - Fraction(2) + Fraction(1, 20) * 1000 == Fraction(1048)
        _, progression = run_default("savings_account_with_interest",
                                     p=q(1000), c=q(2), q=q(1, 20), t=365)
        nets = nets_of(progression)
        assert nets["X"] == {0: q(-1000), 365: q(1048)}

    def test_randomized_formula_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(100):
            p = Quantity(rng.randint(1, 10**6), rng.randint(1, 100))
            c = Quantity(rng.randint(0, 1000), rng.randint(1, 100))
            rate = Quantity(rng.randint(0, 100), rng.randint(100, 1000))
            expected = Fraction(p.num, p.den) - Fraction(c.num, c.den) \
                + Fraction(rate.num, rate.den) * Fraction(p.num, p.den)
            if expected < 0:
                continue
            instance, progression = run_default(
                "savings_account_with_interest", p=p, c=c, q=rate, t=30)
            repay = nets_of(progression)["X"][30]
            assert Fraction(repay.num, repay.den) == expected

    def test_negative_repayment_rejected(self):
        with pytest.raises(ParameterViolation):
            instantiate("savings_account_with_interest",
                        {"p": q(10), "c": q(100), "q": q(0)})


class TestLoanWithInterest:
    def test_costs_over_the_principal_rejected(self):
        with pytest.raises(ParameterViolation) as exc:
            instantiate("loan_with_interest", {"c": "200"})
        assert str(exc.value) == "costs c exceed the principal"

    def test_two_transfer_decomposition(self):
        _, progression = run_default("loan_with_interest", p=q(100), c=q(3),
                                     c2=q(2), i=q(10), t=200)
        nets = nets_of(progression)
        assert nets["X"] == {0: q(-97), 200: q(112)}
        assert nets["Y"] == {0: q(97), 200: q(-112)}

    def test_matches_tawarruq_profile_at_defaults(self):
        _, loan = run_default("loan_with_interest", c=q(0), c2=q(0))
        _, tawarruq = run_default("tawarruq_classic")
        assert nets_of(loan)["X"] == nets_of(tawarruq)["X"]
        assert nets_of(loan)["Y"] == nets_of(tawarruq)["Y"]


class TestContractusTrinus:
    def test_net_gain_ten_on_hundred(self):
        _, progression = run_default("contractus_trinus")
        nets = nets_of(progression)
        gain = sum((v for v in nets["A"].values()), q(0))
        assert gain == q(10)
        assert nets["A"] == {0: q(-105), 365: q(115)}


class TestMurabaha:
    def test_good_stays_with_buyer(self):
        instance, progression = run_default("murabaha")
        assert instance.world.goods["G"].owner == "B"
        assert progression.world.goods["G"].owner == "A"

    def test_bank_collects_markup_and_fee(self):
        _, progression = run_default("murabaha")
        nets = nets_of(progression)
        assert nets["BANK"] == {0: q(-98), 365: q(110)}


class TestMonetizationFamily:
    PI_ACTIONS = ("request", "buy-from-supplier", "credit-sale", "sell-back")

    def pi_subsequence(self, progression):
        """Indices of the four abstract monetization actions, in order."""
        found = []
        want = iter([
            lambda a: a.kind == ActionKind.REQUEST_PREPARE_GOOD and a.actor == "X",
            lambda a: a.kind == ActionKind.SPOT_SALE and a.actor == "Z"
            and a.counterparty == "X",
            lambda a: a.kind == ActionKind.BUY_ON_CREDIT and a.actor == "Y"
            and a.counterparty == "X",
            lambda a: a.kind == ActionKind.SPOT_SALE and a.actor == "Y"
            and a.counterparty == "Z",
        ])
        matcher = next(want)
        for event in progression.events:
            if matcher(event.action):
                found.append(event.seq)
                matcher = next(want, None)
                if matcher is None:
                    break
        return found

    @pytest.mark.parametrize("name", ["tawarruq_pi", "tawarruq_pi_prime",
                                      "tawarruq_pi_double_prime",
                                      "tawarruq_pi_triple_prime",
                                      "tawarruq_single_contract"])
    def test_contains_the_four_step_skeleton(self, name):
        _, progression = run_default(name)
        assert len(self.pi_subsequence(progression)) == 4

    @pytest.mark.parametrize("name", ["tawarruq_classic", "tawarruq_pi",
                                      "tawarruq_pi_prime", "tawarruq_pi_double_prime",
                                      "tawarruq_pi_triple_prime",
                                      "tawarruq_single_contract"])
    def test_good_round_trip_in_all_variants(self, name):
        instance, progression = run_default(name)
        good_id = "S" if "classic" in name else "G"
        start_owner = ("Z" if good_id == "G" else instance.world.goods[good_id].owner)
        assert progression.world.goods[good_id].owner == start_owner

    def test_pi_prime_day_zero_net_is_exactly_minus_p(self):
        # X pays p' = 1020 but is rebated p' - p at once
        _, progression = run_default("tawarruq_pi_prime")
        flows = monetary_projection(progression)
        x_day0 = [f for f in flows if f.date == 0 and "X" in (f.payer, f.payee)]
        assert {(f.payer, f.payee, str(f.amount)) for f in x_day0} == {
            ("X", "Z", "1020"), ("Y", "X", "20")}
        assert nets_of(progression)["X"][0] == q(-1000)

    def test_pi_prime_portion_is_smallest_block_multiple(self):
        instance, _ = run_default("tawarruq_pi_prime", p=q(1000), block=q(30))
        good = None
        for plan in instance.plans:
            for step in plan.steps:
                if getattr(step, "action", None) is not None \
                        and step.action.kind == ActionKind.PREPARE_GOOD:
                    good = step.action.good_spec
        assert good.market_value == q(1020)  # ceil(1000/30)*30

    def test_pi_requires_block_representable_principal(self):
        with pytest.raises(ParameterViolation):
            instantiate("tawarruq_pi", {"p": q(1005), "block": q(10)})

    def test_value_drift_defaults_to_constant_value(self):
        base = nets_of(run_default("tawarruq_pi_prime")[1])
        same = nets_of(run_default("tawarruq_pi_prime", value_drift=q(0))[1])
        assert base == same

    def test_value_drift_moves_only_the_buy_back_leg(self):
        _, progression = run_default("tawarruq_pi_prime", value_drift=q(-9))
        nets = nets_of(progression)
        assert nets["X"] == {0: q(-1000), 365: q(1048)}  # saver untouched
        assert nets["Y"][0] == q(990)
        assert nets["Z"][0] == q(10)

    def test_deferred_leg_equals_savings_formula(self):
        rng = random.Random(99)
        for _ in range(25):
            p = Quantity(rng.randint(100, 5000))
            c = Quantity(rng.randint(0, 20))
            rate = Quantity(rng.randint(1, 10), 100)
            expected = Fraction(p.num) - Fraction(c.num) + \
                Fraction(rate.num, rate.den) * Fraction(p.num)
            _, progression = run_default("tawarruq_pi_prime", p=p, c=c, q=rate,
                                         t=60, block=q(7))
            got = nets_of(progression)["X"][60]
            assert Fraction(got.num, got.den) == expected


class TestBrokeredLoan:
    def test_willing_path_completes_with_collateral_round_trip(self):
        instance, progression = run_default("brokered_loan")
        assert progression.world.goods["collateral"].owner == "X"
        nets = nets_of(progression)
        assert nets["Y"] == {0: q(-100), 365: q(100)}

    def test_unwilling_path_ends_with_no_deal(self):
        instance, progression = run_default("brokered_loan", lender_willing=False)
        messages = [e.action.message for e in progression.events
                    if e.action.kind == ActionKind.INFORM]
        assert "declined" in messages and "no deal" in messages
        flows = monetary_projection(progression)
        assert flows == ()

    def test_guarantee_variants_complete(self):
        for variant in ("goods-on-default", "income-share"):
            _, progression = run_default("brokered_loan", guarantee=variant)
            nets = nets_of(progression)
            assert nets["X"] == {0: q(100), 365: q(-100)}

    def test_collateral_must_exceed_principal(self):
        with pytest.raises(ParameterViolation):
            instantiate("brokered_loan", {"collateral_value": q(50)})

    def test_collateral_value_is_nonnegative_under_every_guarantee(self):
        # income-share takes no collateral above the principal, but a
        # negative market value is no value for any good
        with pytest.raises(ParameterViolation, match="collateral_value must be nonnegative"):
            instantiate("brokered_loan", {"guarantee": "income-share",
                                          "collateral_value": q(-5)})


class TestUnethicalExamples:
    def test_all_variant_carries_all_three_tags(self):
        _, progression = run_default("unethical_examples")
        tags = set()
        for event in progression.events:
            tags.update(t.value for t in event.action.tags)
        assert tags == {"contingent-on-chance", "undisclosed-information", "coercion"}

    def test_single_variant_isolates_its_tag(self):
        _, progression = run_default("unethical_examples", variant="used_car_sale")
        tags = set()
        for event in progression.events:
            tags.update(t.value for t in event.action.tags)
        assert tags == {"undisclosed-information"}

    def test_interest_loan_variant_has_no_tags(self):
        _, progression = run_default("unethical_examples", variant="interest_loan")
        assert all(not e.action.tags for e in progression.events)


class TestBasicProducts:
    """The plan vocabulary the built-ins are composed from."""

    @pytest.mark.parametrize("kind", [*_SEEN_BY, ActionKind.PROMISE_PAY])
    def test_sees_derives_a_pattern_that_matches_its_action(self, kind):
        action = Action(kind=kind, actor="A", counterparty="B", amount=q(3), good_id="G",
                        contract_id="C", message="m")
        [(agent, step)] = sees("W", [("A", Do(action))])
        pattern = step.trigger.pattern
        named = {name for name in ("actor", "counterparty", "amount", "good_id",
                                   "contract_id", "message") if getattr(pattern, name)}
        assert (agent, pattern.kind) == ("W", kind)
        assert named == set(_SEEN_BY.get(kind, ("actor",)))
        assert pattern.matches(action)

    @staticmethod
    def steps(plan):
        """Each step as (do or wait, kind, actor named by the action or the pattern)."""
        out = []
        for step in plan.steps:
            if isinstance(step, Do):
                out.append(("do", step.action.kind.value, step.action.actor))
            else:
                assert isinstance(step, WaitFor)
                out.append(("wait", step.trigger.pattern.kind.value, step.trigger.pattern.actor))
        return out

    @pytest.mark.parametrize(("preparer", "expected"), [
        ("X", {"X": [("do", "prepare-contract", "X"), ("do", "sign-contract", "X"),
                     ("wait", "sign-contract", "Y")],
               "Y": [("wait", "sign-contract", "X"), ("do", "sign-contract", "Y")]}),
        ("Y", {"X": [("wait", "prepare-contract", None), ("do", "sign-contract", "X")],
               "Y": [("do", "prepare-contract", "Y"), ("wait", "sign-contract", "X"),
                     ("do", "sign-contract", "Y")]}),
        ("Z", {"X": [("wait", "prepare-contract", None), ("do", "sign-contract", "X")],
               "Y": [("wait", "sign-contract", "X"), ("do", "sign-contract", "Y")],
               "Z": [("do", "prepare-contract", "Z"), ("wait", "sign-contract", "Y")]}),
    ], ids=["preparer-signs-first", "preparer-signs-last", "preparer-does-not-sign"])
    def test_contract_handshake_orders(self, preparer, expected):
        plans = compose(sorted(expected), contract("c", preparer, ("X", "Y"), ()))
        assert {plan.agent: self.steps(plan) for plan in plans} == expected
        for plan in plans:
            assert all(step.trigger.pattern.contract_id == "c"
                       for step in plan.steps if isinstance(step, WaitFor))

    def test_compose_keeps_an_agent_without_steps(self):
        plans = compose(("X", "Y"), act("X", ActionKind.INFORM, counterparty="Y"))
        assert [plan.agent for plan in plans] == ["X", "Y"]
        assert plans[1] == Plan("Y", ())
        rain = instantiate("unethical_examples", {"variant": "rain_promise"})
        assert [(plan.agent, len(plan.steps)) for plan in rain.plans] == [("X", 1), ("Y", 0)]


class TestObservedStageTransitions:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_contract_stages_respect_the_transition_relation(self, name):
        from rpsf.world import apply_event, stage_transition_allowed

        instance, progression = run_default(name)
        world = instance.world
        stages = {cid: record.stage for cid, record in world.contracts.items()}
        for event in progression.world.history:
            world = apply_event(world, event.action, event.date)
            for cid, record in world.contracts.items():
                if cid in stages and record.stage != stages[cid]:
                    assert stage_transition_allowed(stages[cid], record.stage), \
                        (name, cid, stages[cid], record.stage)
                stages[cid] = record.stage


class TestScenarioFiles:
    def test_round_trip_through_file(self, tmp_path):
        instance = instantiate("ina_two_party")
        payload = {"scenarios": [{**instance_to_dict(instance), "name": "ina_copy"}]}
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(payload))
        specs, positions = load_scenario_file(str(path))
        assert positions == {}
        loaded = instantiate("ina_copy", {}, extra=specs)
        progression = run(loaded.world, loaded.plans, RoundRobin(),
                          horizon=loaded.horizon)
        _, original = run_default("ina_two_party")
        assert nets_of(progression) == nets_of(original)

    def test_file_scenarios_take_no_parameters(self, tmp_path):
        instance = instantiate("ina_two_party")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"scenarios": [{**instance_to_dict(instance),
                                                   "name": "ina_copy"}]}))
        specs, _ = load_scenario_file(str(path))
        with pytest.raises(ParameterViolation):
            instantiate("ina_copy", {"p": "10"}, extra=specs)

    @pytest.mark.parametrize(("name", "params"), [(name, {}) for name in ALL_SCENARIOS]
                             + [("ina_two_party", {"single_contract": "true"})])
    def test_written_instance_loads_back_identical(self, name, params, tmp_path):
        instance = instantiate(name, params)
        written = json.dumps(instance_to_dict(instance))
        # loaded as a file scenario, which needs a name of its own
        path = tmp_path / "written.json"
        path.write_text(json.dumps({"scenarios": [{**json.loads(written), "name": "copy"}]}))
        specs, _ = load_scenario_file(str(path))
        loaded = instantiate("copy", extra=specs)
        assert loaded.name == "copy"
        assert loaded.world == instance.world
        assert loaded.plans == instance.plans
        assert (loaded.principals, loaded.horizon, dict(loaded.choice_points)) == \
            (instance.principals, instance.horizon, dict(instance.choice_points))
        assert json.dumps({**instance_to_dict(loaded), "name": instance.name}) == written

    def test_decoding_errors_name_the_json_path(self, tmp_path):
        entry = {"name": "p", "agents": [{"name": "X"}], "plans": [
            {"agent": "X", "steps": [{"do": {"kind": "pay", "actor": "X", "due_date": "5"}}]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenarios": [entry]}))
        with pytest.raises(ValueError, match=r"^file scenario 'p': scenarios\[0\]\.plans\[0\]"
                                             r"\.steps\[0\]\.do\.due_date: "
                                             r"expected an integer, got \"5\"$"):
            load_scenario_file(str(path))

    def test_file_positions_are_decoded_by_name(self, tmp_path):
        # a rule without a name is named after its detector
        path = tmp_path / "positions.json"
        path.write_text(json.dumps({"positions": [
            {"name": "WARY", "rules": [{"detector": "ina"}]},
            {"name": "LAX", "rules": [], "default": "undecided"}]}))
        specs, positions = load_scenario_file(str(path))
        assert specs == {}
        assert positions == {
            "WARY": LegalPosition("WARY", (Rule("ina", "ina"),)),
            "LAX": LegalPosition("LAX", (), Verdict.UNDECIDED),
        }

    @pytest.mark.parametrize("positions, taken", [
        ([{"name": "STRICT_FUNCTIONAL", "rules": []}], "a built-in position"),
        ([{"name": "P", "rules": []}, {"name": "P", "rules": [{"detector": "ina"}]}],
         "an earlier file position"),
    ])
    def test_a_file_position_needs_a_name_of_its_own(self, tmp_path, positions, taken):
        path = tmp_path / "positions.json"
        path.write_text(json.dumps({"positions": positions}))
        i, name = len(positions) - 1, positions[-1]["name"]
        with pytest.raises(ValueError) as exc:
            load_scenario_file(str(path))
        assert str(exc.value) == (f"positions[{i}].name: {name!r} names {taken}; a file "
                                  "position needs a name of its own")
