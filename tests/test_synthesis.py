"""Flow projection, equivalence relation, and the bounded synthesis search."""

import random
import sys
import threading

import pytest

from rpsf import synthesis
from rpsf.engine import BoundExceeded, Progression, RoundRobin, run
from rpsf.money import Quantity, replace
from rpsf.scenarios import instance_from_dict, instantiate
from rpsf.synthesis import (
    ALL_AGENTS,
    Flow,
    canonical,
    check_perspective,
    equivalent,
    monetary_projection,
    net_positions,
    normalize_catalogue,
    synthesize,
    witness_scenario,
)
from rpsf.world import ActionKind, ValidationError


def q(n, d=1):
    return Quantity(n, d)


def run_default(name, **params):
    instance = instantiate(name, params)
    progression = run(instance.world, instance.plans, RoundRobin(),
                      horizon=instance.horizon, choices=instance.choice_points)
    return instance, progression


def savings_target():
    _, progression = run_default("savings_account_with_interest")
    return monetary_projection(progression)


class TestProjection:
    def test_tawarruq_three_legs(self):
        _, progression = run_default("tawarruq_classic")
        trace = monetary_projection(progression)
        assert [(f.payer, f.payee, str(f.amount), f.date) for f in trace] == [
            ("X", "Z", "100", 0), ("Z", "Y", "100", 0), ("Y", "X", "110", 365)]

    def test_empty_progression(self):
        instance = instantiate("tawarruq_classic")
        empty = Progression(events=(), world=instance.world)
        assert monetary_projection(empty) == ()

    def test_pi_prime_x_entries(self):
        # hand-computed legs: pay p'=1020 for the portion, 20 rebated at
        # once, 1048 deferred to day 365
        _, progression = run_default("tawarruq_pi_prime")
        trace = monetary_projection(progression)
        x_legs = sorted((f.payer, f.payee, str(f.amount), f.date)
                        for f in trace if "X" in (f.payer, f.payee))
        assert x_legs == [("X", "Z", "1020", 0), ("Y", "X", "1048", 365),
                          ("Y", "X", "20", 0)]
        nets = net_positions(trace)
        assert nets["X"] == {0: q(-1000), 365: q(1048)}

    def test_conservation_of_net_positions(self):
        for name in ("tawarruq_classic", "murabaha", "contractus_trinus"):
            _, progression = run_default(name)
            nets = net_positions(monetary_projection(progression))
            by_date = {}
            for per_day in nets.values():
                for d, v in per_day.items():
                    by_date[d] = by_date.get(d, q(0)) + v
            assert all(v == q(0) for v in by_date.values())


class TestEquivalence:
    def test_tawarruq_equals_plain_loan_for_the_parties(self):
        _, tawarruq = run_default("tawarruq_classic")
        _, loan = run_default("loan_with_interest", p=q(100), i=q(10), c=q(0), c2=q(0))
        a, b = monetary_projection(tawarruq), monetary_projection(loan)
        assert equivalent(a, b, ("X", "Y"))
        # the intermediary breaks even exactly, so even the all-agents net
        # positions coincide; only the raw legs differ (three vs two)
        assert equivalent(a, b, ALL_AGENTS)
        assert len(a) == 3 and len(b) == 2

    def test_reflexive(self):
        trace = savings_target()
        assert equivalent(trace, trace, ALL_AGENTS)
        assert equivalent(trace, trace, ("X",))

    def test_pi_prime_against_savings(self):
        _, pi_prime = run_default("tawarruq_pi_prime")
        a = monetary_projection(pi_prime)
        b = savings_target()
        assert equivalent(a, b, ("X",))
        assert not equivalent(a, b, ALL_AGENTS)  # the c/2 margin to Z differs

    def test_equivalence_relation_properties(self):
        rng = random.Random(77)
        agents = ["X", "Y", "Z"]
        for _ in range(100):
            base = [
                Flow(*rng.sample(agents, 2), q(rng.randint(1, 50)), rng.choice([0, 10]))
                for _ in range(rng.randint(0, 6))
            ]
            a = canonical(base)
            shuffled = base[:]
            rng.shuffle(shuffled)
            b = canonical(shuffled)
            # zero-net noise: a payment and its exact refund
            payer, payee = rng.sample(agents, 2)
            amount, day = q(rng.randint(1, 30)), rng.choice([0, 10])
            c = canonical(list(b) + [Flow(payer, payee, amount, day),
                                     Flow(payee, payer, amount, day)])
            for perspective in (ALL_AGENTS, ("X",), ("X", "Y")):
                assert equivalent(a, a, perspective)
                assert equivalent(a, b, perspective)
                assert equivalent(b, c, perspective)
                assert equivalent(a, c, perspective)
                assert equivalent(c, a, perspective)

    def test_inequivalence_is_detected(self):
        a = canonical([Flow("X", "Y", q(10), 0)])
        b = canonical([Flow("X", "Y", q(10), 1)])
        assert not equivalent(a, b, ("X",))
        assert not equivalent(a, b, ALL_AGENTS)

    def test_empty_perspective_rejected(self):
        _, loan = run_default("loan_with_interest")
        _, murabaha = run_default("murabaha")
        a, b = monetary_projection(loan), monetary_projection(murabaha)
        assert not equivalent(a, b, ("X",))
        for perspective in ((), []):
            with pytest.raises(ValueError, match="empty perspective"):
                equivalent(a, b, perspective)


SPOT, CREDIT, GOOD = "spot-sale", "credit-sale", "prepare-good"
PREPARE, SIGN = "prepare-contract", "sign-contract"


class TestCatalogue:
    # the aliases, separators, cases and blanks the catalogue accepts, and
    # near misses it rejects
    @pytest.mark.parametrize("name,primitives", [
        ("spot", {SPOT}), ("spotsale", {SPOT}), ("spot_sale", {SPOT}), ("spot-sale", {SPOT}),
        ("credit", {CREDIT}), ("creditsale", {CREDIT}), ("credit_sale", {CREDIT}),
        ("credit-sale", {CREDIT}), ("preparegood", {GOOD}), ("prepare_good", {GOOD}),
        ("prepare-good", {GOOD}), ("preparecontract", {PREPARE}),
        ("prepare_contract", {PREPARE}), ("prepare-contract", {PREPARE}),
        ("signcontract", {SIGN}), ("sign_contract", {SIGN}), ("sign-contract", {SIGN}),
        ("inform", {"inform"}), ("contracts", {PREPARE, SIGN}),
        ("SPOT", {SPOT}), ("Spot-Sale", {SPOT}), ("spot-Sale", {SPOT}), ("spot_Sale", {SPOT}),
        ("CREDIT_SALE", {CREDIT}), ("  credit  ", {CREDIT}), ("\tinform\n", {"inform"}),
        ("Prepare_Good ", {GOOD}), (" CONTRACTS", {PREPARE, SIGN}),
        ("Sign_Contract", {SIGN}), ("SignContract", {SIGN}),
    ])
    def test_accepted_spellings(self, name, primitives):
        assert normalize_catalogue([name]) == primitives

    @pytest.mark.parametrize("name", [
        "prepare-good_", "spot sale", "spot--sale", "spot__sale", "spotsales", "contract",
        "contracts_", "con-tracts", "inform-", "inform_", "", " ", "bogus", "prepare", "sign",
        "spot-", "_spot", "-credit", "credit_", "sale", "prepare_good_", "preparegood-",
        "spot_sale-", "sign-contracts", "prepare-contracts",
    ])
    def test_rejected_spellings(self, name):
        with pytest.raises(ValueError) as error:
            normalize_catalogue([name])
        assert str(error.value).startswith(f"unknown primitive {name!r}; known: ")


class TestSynthesize:
    def test_empty_target_found_with_empty_sequence(self):
        result = synthesize((), ["spot-sale"], bound=2)
        assert result.found
        assert result.witnesses[0].actions == ()

    def test_savings_target_needs_a_credit_sale(self):
        target = savings_target()
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=4, perspective=("X",))
        assert result.found
        assert result.witnesses
        for witness in result.witnesses:
            assert any(a.kind == ActionKind.BUY_ON_CREDIT for a in witness.actions)

    def test_spot_sales_cannot_defer_payment(self):
        target = savings_target()
        result = synthesize(target, ["spot-sale"], agents=("X", "Y", "Z"),
                            bound=4, perspective=("X",))
        assert not result.found
        assert result.explored > 1

    def test_monetization_witness_shape_is_rediscovered(self):
        target = savings_target()
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=4, perspective=("X",))
        shapes = {tuple(a.kind for a in w.actions if a.kind != ActionKind.PAY)
                  for w in result.witnesses}
        assert (ActionKind.PREPARE_GOOD, ActionKind.SPOT_SALE,
                ActionKind.BUY_ON_CREDIT, ActionKind.SPOT_SALE) in shapes

    def test_witness_self_check(self):
        target = savings_target()
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=4, perspective=("X",))
        for index in range(len(result.witnesses)):
            assert equivalent(monetary_projection(result.replay(index)), target, ("X",))

    def test_goods_round_trip_in_every_witness(self):
        target = savings_target()
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=4, perspective=("X",))
        for index, witness in enumerate(result.witnesses):
            world = result.replay(index).world
            prepared = {a.good_id: a.actor for a in witness.actions
                        if a.kind == ActionKind.PREPARE_GOOD}
            for gid, owner in prepared.items():
                assert world.goods[gid].owner == owner

    def test_all_agents_perspective_finds_two_party_round_trip(self):
        _, loan = run_default("loan_with_interest", p=q(100), i=q(10), c=q(0), c2=q(0))
        target = monetary_projection(loan)
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=3, perspective=ALL_AGENTS)
        assert result.found
        shapes = {tuple(a.kind for a in w.actions if a.kind != ActionKind.PAY)
                  for w in result.witnesses}
        # the same-item sale-repurchase shape: spot out, credit back
        assert (ActionKind.PREPARE_GOOD, ActionKind.SPOT_SALE,
                ActionKind.BUY_ON_CREDIT) in shapes
        for index in range(len(result.witnesses)):
            assert equivalent(monetary_projection(result.replay(index)), target, ALL_AGENTS)

    @pytest.mark.parametrize("perspective", [("W",), ("X", "W"), "W", ("X", "W", "V")])
    def test_unknown_perspective_agent_rejected(self, perspective):
        with pytest.raises(ValueError, match=r"unknown perspective agent 'W'; "
                                             r"known agents: \['X', 'Y', 'Z'\]"):
            synthesize(savings_target(), ["spot-sale"], agents=("X", "Y", "Z"), bound=2,
                       perspective=perspective)

    @pytest.mark.parametrize("perspective", [(), [], ""])
    def test_empty_perspective_rejected(self, perspective):
        # searching for nobody would quietly search for everybody
        with pytest.raises(ValueError, match="empty perspective"):
            synthesize(savings_target(), ["spot-sale", "credit-sale"], bound=4,
                       perspective=perspective)
        with pytest.raises(ValueError, match="empty perspective"):
            check_perspective(perspective, ("X", "Y", "Z"))

    def test_a_name_is_the_perspective_of_its_one_agent(self):
        # a string other than "all" names one agent, not one per character
        target = canonical([Flow("BANK", "A", q(100), 0), Flow("A", "BANK", q(110), 365)])
        named, listed = (synthesize(target, ["spot-sale", "credit-sale", "prepare-good"],
                                    agents=("BANK", "A"), bound=3, perspective=perspective)
                         for perspective in ("BANK", ("BANK",)))
        assert named.found
        assert (named.explored, named.witnesses) == (listed.explored, listed.witnesses)

    def test_perspective_is_read_once(self):
        # an iterator of names is the same perspective as their tuple
        result = synthesize(savings_target(), ["spot-sale", "credit-sale", "prepare-good"],
                            agents=("X", "Y", "Z"), bound=4, perspective=iter(("X",)))
        assert (result.explored, len(result.witnesses)) == (247, 14)

    @pytest.mark.parametrize("perspective,explored,found", [
        (None, 247, 14), (("X",), 247, 14), (("X", "Y"), 380, 8), (ALL_AGENTS, 220, 8)])
    def test_known_perspectives_unchanged(self, perspective, explored, found):
        result = synthesize(savings_target(), ["spot-sale", "credit-sale", "prepare-good"],
                            agents=("X", "Y", "Z"), bound=4, perspective=perspective)
        assert (result.explored, len(result.witnesses)) == (explored, found)

    def test_bound_over_desk_scale_rejected(self):
        with pytest.raises(BoundExceeded):
            synthesize((), ["spot-sale"], bound=9)

    def test_every_witness_scenario_is_rerunnable(self):
        target = savings_target()
        result = synthesize(
            target, ["spot-sale", "credit-sale", "prepare-good"],
            agents=("X", "Y", "Z"), bound=5, perspective=("X",))
        assert result.witnesses
        for index in range(len(result.witnesses)):
            payload = witness_scenario(result, index)
            loaded = instance_from_dict(payload)
            progression = run(loaded.world, loaded.plans, RoundRobin(),
                              horizon=loaded.horizon)
            assert equivalent(monetary_projection(progression), target, ("X",))

    # the grounding is the perspective's nonzero nets: in the second target,
    # the 5 that reaches Y through W nets to nothing for W
    @pytest.mark.parametrize("target,perspective,amounts,dates", [
        (None, None, ["1000", "1048"], [365]),
        ("routed", None, ["5", "7"], [30]),
        ("routed", ("Y",), ["5", "9"], [30]),
        ("routed", ("Z", "W"), ["2"], [30, 40])])
    def test_grounding_is_disclosed(self, target, perspective, amounts, dates):
        target = savings_target() if target is None else canonical([
            Flow("X", "W", q(5), 0), Flow("W", "Y", q(5), 0), Flow("Y", "X", q(7), 30),
            Flow("Y", "Z", q(2), 30), Flow("Z", "W", q(2), 40)])
        result = synthesize(target, ["spot-sale"], ("X", "Y", "Z", "W"), bound=2,
                            perspective=perspective)
        assert result.grounding["amounts"] == amounts
        assert result.grounding["settlement_dates"] == dates
        assert "agent_symmetry" in result.grounding

    def test_negative_target_amount_is_rejected_before_the_search(self):
        target = canonical([Flow("X", "Y", q(-5), 0), Flow("Y", "X", q(10), 7)])
        for bound in (0, 3):
            with pytest.raises(ValidationError, match="sums must be nonnegative"):
                synthesize(target, ["spot-sale", "credit-sale"], bound=bound)
        # amounts that sum below zero would make a negative opening balance,
        # which make_world rejects under its own message
        for amounts, catalogue in (((-5,), "spot-sale"), ((-5, 3), "credit-sale")):
            target = canonical([Flow("X", "Y", q(a), 0) for a in amounts])
            with pytest.raises(ValidationError, match="sums must be nonnegative"):
                synthesize(target, [catalogue], bound=2)

    def test_one_agent_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            synthesize(savings_target(), ["spot-sale"], agents=("X",), bound=2)
        assert str(exc.value) == "need at least two agents"

    def test_duplicate_agents_are_rejected(self):
        with pytest.raises(ValidationError, match="duplicate agent 'X'"):
            synthesize(savings_target(), ["spot-sale"], agents=("X", "X"), bound=2)


class TestLazyReplay:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"run": 0, "replay": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(synthesis, "run", counted("run", synthesis.run))
        monkeypatch.setattr(synthesis, "_replay_witness",
                            counted("replay", synthesis._replay_witness))
        return calls

    def search(self):
        return synthesize(savings_target(), ["spot-sale", "credit-sale", "prepare-good"],
                          agents=("X", "Y", "Z"), bound=4, perspective=("X",))

    def test_synthesize_replays_nothing(self, calls):
        result = self.search()
        assert len(result.witnesses) == 14
        assert all(w.actions for w in result.witnesses)
        assert calls == {"run": 0, "replay": 0}

    def test_each_replay_runs_the_witness_once(self, calls):
        result = self.search()
        first = result.replay(3)
        assert calls == {"run": 1, "replay": 1}
        assert equivalent(monetary_projection(first), savings_target(), ("X",))
        assert result.replay(3).key() == first.key()
        assert calls == {"run": 2, "replay": 2}

    def test_witness_scenario_replays_once(self, calls):
        result = self.search()
        for index in range(len(result.witnesses)):
            witness_scenario(result, index)
            assert calls == {"run": index + 1, "replay": index + 1}


class TestLeastBalances:
    @staticmethod
    def required_endowment(agent, trace):
        """The per-agent oracle: sort the trace with the agent's outflows
        first within each day, then walk it for the lowest balance."""
        balance = worst = Quantity(0)
        for flow in sorted(trace, key=lambda f: (f.date, 0 if f.payer == agent else 1)):
            if flow.payer == agent:
                balance = balance - flow.amount
            elif flow.payee == agent:
                balance = balance + flow.amount
            if balance < worst:
                worst = balance
        return -worst

    def test_every_witness_of_a_search_matches_the_oracle(self):
        result = synthesize(savings_target(), ["spot-sale", "credit-sale", "prepare-good"],
                            agents=("X", "Y", "Z"), bound=5, perspective=("X",))
        assert result.witnesses
        for index in range(len(result.witnesses)):
            trace = monetary_projection(result.replay(index))
            assert synthesis._least_balances("XYZ", trace) == {
                agent: self.required_endowment(agent, trace) for agent in "XYZ"}

    @pytest.mark.parametrize("seed", range(200))
    def test_random_traces_match_the_oracle(self, seed):
        rng = random.Random(seed)
        agents = "ABCD"
        trace = canonical(Flow(rng.choice(agents), rng.choice(agents),
                               q(rng.randint(1, 30), rng.choice((1, 2, 3))), rng.randint(0, 4))
                          for _ in range(rng.randint(0, 12)))
        assert synthesis._least_balances(agents, trace) == {
            agent: self.required_endowment(agent, trace) for agent in agents}


class TestSearchWork:
    @pytest.mark.parametrize("catalogue,bound,explored,read", [
        (("spot-sale", "credit-sale", "prepare-good", "contracts", "inform"), 5, 2095, 50),
        (("spot-sale",), 6, 1877, 0),
    ])
    def test_each_move_is_built_once_per_call(self, monkeypatch, catalogue, bound,
                                              explored, read):
        # the search builds no Action; reading every witness builds one per
        # distinct move on a witness's path, and no settlement payment until
        # a witness's actions are read; one Action per child and per witness
        # payment was 2,338 and 1,876, and one per candidate move 118 and 68
        calls = 0
        original = synthesis.Action

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(synthesis, "Action", counted)
        result = synthesize(savings_target(), catalogue, ("X", "Y", "Z"), bound=bound)
        assert result.explored == explored
        assert calls == 0
        list(result.witnesses)
        assert calls == read
        list(result.witnesses)
        assert calls == read

    @pytest.mark.parametrize("catalogue,bound,explored,taken", [
        (("spot-sale", "credit-sale", "prepare-good", "contracts", "inform"), 5, 2095, 742),
        (("spot-sale",), 6, 1877, 192),
    ])
    def test_each_step_is_taken_once_per_subproblem(self, monkeypatch, catalogue, bound,
                                                    explored, taken):
        # one step per move of each distinct subproblem: a step taken twice,
        # or a memo that stops hitting, moves the count
        calls = 0
        original = synthesis._successor

        def counted(frame, state, move):
            nonlocal calls
            calls += 1
            return original(frame, state, move)

        monkeypatch.setattr(synthesis, "_successor", counted)
        result = synthesize(savings_target(), catalogue, ("X", "Y", "Z"), bound=bound)
        assert result.explored == explored
        assert calls == taken

    def test_a_search_builds_no_witness_until_one_is_read(self, monkeypatch):
        # at the desk-scale limit the tree holds 51,510 witnesses and the CLI
        # prints three, so the search builds none and a slice only its own
        built = {"Action": 0, "Witness": 0}
        for name in built:
            original = getattr(synthesis, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                built[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(synthesis, name, counted)
        result = synthesize(savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"),
                            bound=synthesis.DESK_SCALE_LIMIT)
        assert (result.found, len(result.witnesses), result.explored) == (True, 51510, 1035151)
        assert built == {"Action": 0, "Witness": 0}
        shown = result.witnesses[:3]
        assert len(shown) == 3 and built["Witness"] == 3
        assert 0 < built["Action"] <= sum(len(w.trades) for w in shown)

    def test_concurrent_readers_read_the_same_witnesses(self):
        # readers share the moves' Actions, each built on its first read; two
        # readers may both build one, but never a different one
        result, fresh = (synthesize(savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"), bound=5)
                         for _ in range(2))
        want = tuple(fresh.witnesses)
        got = []
        readers = [threading.Thread(target=lambda: got.append(tuple(result.witnesses)))
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert got == [want] * 4

    def test_a_result_compares_its_witnesses_by_value(self):
        # two searches build two trees, and their Actions apart, yet the
        # results are equal; the repr counts the witnesses, not lists them
        one, other = (synthesize(savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"), bound=4)
                      for _ in range(2))
        assert one.witnesses is not other.witnesses
        assert one == other and one.witnesses == tuple(other.witnesses)
        assert one != replace(other, witnesses=other.witnesses[1:])
        assert f"witnesses=<{len(one.witnesses)} witnesses>" in repr(one)


MONETIZATIONS = ("tawarruq_pi", "tawarruq_pi_prime", "tawarruq_pi_double_prime",
                 "tawarruq_pi_triple_prime", "tawarruq_single_contract")
FULL_CATALOGUE = ("spot-sale", "credit-sale", "prepare-good", "contracts", "inform")


class TestGroundingOnNets:
    @pytest.mark.parametrize("bound,witnesses,explored", [(5, 126, 2095), (6, 926, 16687)])
    @pytest.mark.parametrize("name", MONETIZATIONS + ("unethical_examples",))
    def test_a_product_that_nets_like_savings_from_x_gets_its_answer(self, name, bound,
                                                                     witnesses, explored):
        # prices and dates come from X's nets: savings' 1000 now and 1048 at
        # day 365, or unethical_examples' 63 and 110, never an intermediary's
        # leg; before, tawarruq_pi_prime found nothing in 12,987 nodes at bound 5
        _, progression = run_default(name)
        target = monetary_projection(progression)
        result = synthesize(target, FULL_CATALOGUE, ("X", "Y", "Z"), bound=bound)
        assert (len(result.witnesses), result.explored) == (witnesses, explored)
        if name in MONETIZATIONS:
            assert equivalent(target, savings_target(), ("X",))
            savings = synthesize(savings_target(), FULL_CATALOGUE, ("X", "Y", "Z"), bound=bound)
            assert result.witnesses == savings.witnesses
