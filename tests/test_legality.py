"""Legal positions: detectors, judgements, evidence, scaling invariance."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest

from rpsf import legality
from rpsf.engine import Plan, RoundRobin, WaitFor, enumerate_interleavings, run
from rpsf.legality import (
    BUILTIN_POSITIONS,
    CONVENTIONAL,
    DETECTORS,
    MAJORITY,
    MALAYSIA,
    NonpositivePrincipal,
    STRICT_DESCRIPTIVE,
    STRICT_FUNCTIONAL,
    Verdict,
    ZeroDuration,
    detect_ina,
    detect_riba,
    effective_interest_rate,
    judge,
    position_from_dict,
)
from rpsf.money import Quantity
from rpsf.scenarios import ScenarioInstance, instantiate, scenario_names
from rpsf.synthesis import cash_flows, monetary_projection, net_positions
from rpsf.world import (
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    ByDate,
    ContractRecord,
    Good,
    Reason,
    RepaymentTerms,
    Stage,
    make_world,
)
from rpsf.engine import Do


def q(n, d=1):
    return Quantity(n, d)


def run_default(name, **params):
    instance = instantiate(name, params)
    progression = run(instance.world, instance.plans, RoundRobin(),
                      horizon=instance.horizon, choices=instance.choice_points)
    return instance, progression


class TestDetectRiba:
    def test_linked_pair_yields_one_finding(self):
        _, progression = run_default("loan_with_interest", p=q(100), i=q(10),
                                     c=q(0), c2=q(0))
        world = progression.world
        findings = detect_riba(world.contracts, world.history)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.principal == q(100)
        assert finding.repayment == q(110)
        assert finding.increment == q(10)
        assert finding.duration == 365
        assert finding.link == "loan"

    def test_zero_rate_fixed_costs_only_yield_nothing(self):
        _, progression = run_default("loan_with_interest", p=q(100), i=q(0),
                                     c=q(2), c2=q(0))
        world = progression.world
        assert detect_riba(world.contracts, world.history) == []

    def test_tawarruq_has_no_descriptive_findings(self):
        # no single contract links X's payment to Y's repayment; the credit
        # leg is a sale of the asset
        _, progression = run_default("tawarruq_classic")
        world = progression.world
        assert detect_riba(world.contracts, world.history) == []

    def test_savings_account_finding_cites_both_transfers(self):
        _, progression = run_default("savings_account_with_interest")
        world = progression.world
        findings = detect_riba(world.contracts, world.history)
        assert len(findings) == 1
        seqs = findings[0].events
        kinds = [world.history[s - 1].action.kind for s in seqs]
        assert kinds == [ActionKind.PAY, ActionKind.PAY]


def three_by_three():
    """Three plans of three steps: each agent pays, sells a good and pays
    again; B sells g back to A after A sold it to B, both sales citing one
    contract, so MAJORITY and MALAYSIA forbid every trace and the other
    built-ins permit it."""
    cite = Reason(contract_ids=("rt",))
    sales = {"A": ("B", "g", cite), "B": ("A", "g", cite), "C": ("A", "h", None)}
    plans = []
    for agent, (buyer, good, reason) in sales.items():
        other = "C" if agent != "C" else "B"
        steps = [Do(Action(ActionKind.PAY, agent, counterparty=other, amount=q(7),
                           message=f"{agent}0"))]
        if agent == "B":
            steps.append(WaitFor(AfterEvent(ActionTemplate(message="A1"))))
        steps += [Do(Action(ActionKind.SPOT_SALE, agent, counterparty=buyer, amount=q(50),
                            good_id=good, reason=reason, message=f"{agent}1")),
                  Do(Action(ActionKind.PAY, agent, counterparty=other, amount=q(3),
                            message=f"{agent}2"))]
        plans.append(Plan(agent, tuple(steps)))
    contract = ContractRecord(contract_id="rt", parties=frozenset("AB"), initiator="A",
                              clauses=(), signatures=frozenset("AB"), stage=Stage.ACTIVE)
    world = make_world(agents=[Agent(a) for a in "ABC"],
                       balances={a: q(200) for a in "ABC"},
                       goods=[Good("g", "asset", "A", q(50)), Good("h", "asset", "C", q(50))],
                       contracts=[contract])
    return ScenarioInstance(name="three_by_three", params={}, world=world,
                            plans=tuple(plans), principals=("A",), horizon=0)


def rated_account(payments, rate=q(1, 10)):
    """Run A's and B's payments, all citing the rated contract "loan", in
    the order given: (payer, amount, day), each waiting for the one before."""
    world = make_world(
        agents=[Agent("A"), Agent("B")],
        balances={"A": sum((a for p, a, _ in payments if p == "A"), q(0)),
                  "B": sum((a for p, a, _ in payments if p == "B"), q(0))},
        contracts=[ContractRecord(
            contract_id="loan", parties=frozenset({"A", "B"}), initiator="A", clauses=(),
            signatures=frozenset({"A", "B"}), stage=Stage.ACTIVE,
            terms=RepaymentTerms(principal=q(100), rate=rate, period=365))],
    )
    steps = {"A": [], "B": []}
    for k, (payer, amount, day) in enumerate(payments):
        if k:
            steps[payer].append(WaitFor(AfterEvent(ActionTemplate(message=f"p{k - 1}"))))
        steps[payer] += [WaitFor(ByDate(day)), Do(Action(
            kind=ActionKind.PAY, actor=payer, counterparty="B" if payer == "A" else "A",
            amount=amount, reason=Reason(contract_ids=("loan",)), message=f"p{k}"))]
    plans = tuple(Plan(agent, tuple(s)) for agent, s in steps.items())
    horizon = max(day for _, _, day in payments)
    instance = ScenarioInstance(name="account", params={}, world=world, plans=plans,
                                principals=("A", "B"), horizon=horizon)
    return instance, run(world, plans, RoundRobin(), horizon=horizon)


class TestRibaLedger:
    def test_installments_past_the_principal_give_one_finding(self):
        _, progression = rated_account([("A", q(100), 0), ("B", q(60), 180),
                                        ("B", q(50), 365)])
        world = progression.world
        [finding] = detect_riba(world.contracts, world.history)
        assert (finding.principal, finding.repayment, finding.increment) == (q(40), q(50), q(10))
        assert (finding.events, finding.duration) == ((1, 3), 365)

    def test_installments_within_the_principal_give_none(self):
        _, progression = rated_account([("A", q(100), 0), ("B", q(60), 180),
                                        ("B", q(40), 365)])
        world = progression.world
        assert detect_riba(world.contracts, world.history) == []

    def test_two_successive_loans_give_two_findings(self):
        instance, progression = rated_account([("A", q(100), 0), ("B", q(110), 365),
                                               ("A", q(100), 365), ("B", q(110), 730)])
        world = progression.world
        findings = detect_riba(world.contracts, world.history)
        assert [(f.principal, f.repayment, f.events) for f in findings] == [
            (q(100), q(110), (1, 2)), (q(100), q(110), (3, 4))]
        assert len(judge(STRICT_DESCRIPTIVE, instance, progression).reasons) == 2

    def test_a_long_account_has_no_more_evidence_than_repayments(self):
        """Deposits and withdrawals in turn, as in the engine_deep account,
        with withdrawals a little larger on average."""
        rng = random.Random(5)
        payments = []
        for k in range(150):
            payments += [("A", q(rng.randint(10, 100)), 2 * k),
                         ("B", q(rng.randint(10, 110)), 2 * k + 1)]
        instance, progression = rated_account(payments)
        repayments = [e.seq for e in progression.events if e.action.actor == "B"]
        reasons = judge(STRICT_DESCRIPTIVE, instance, progression).reasons
        assert 0 < len(reasons) <= len(repayments)
        assert len({r.events[1] for r in reasons}) == len(reasons)
        assert {r.events[1] for r in reasons} <= set(repayments)

    def test_a_zero_rate_gives_none(self):
        _, progression = rated_account([("A", q(100), 0), ("B", q(110), 365)], rate=q(0))
        world = progression.world
        assert detect_riba(world.contracts, world.history) == []


class TestFacts:
    def test_judging_walks_each_progression_once(self, monkeypatch):
        built = []
        init = legality._Facts.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(legality._Facts, "__init__", counted)
        monkeypatch.setattr(legality, "_last_facts", None)
        instance, a = run_default("savings_account_with_interest")
        _, b = run_default("ina_two_party")
        for position in BUILTIN_POSITIONS.values():
            judge(position, instance, a)
        assert len(built) == 1
        monkeypatch.setattr(legality, "_last_facts", None)
        for progression in (a, b, a):
            judge(MAJORITY, instance, progression)
        assert len(built) == 1 + 3

    def test_each_rule_runs_once_per_trace(self, monkeypatch):
        """The 840 traces of three plans of three steps each, where B's second
        step waits for A's, judged under the five built-ins: each (detector,
        rule) runs at most once per trace, although riba and ethical-tags
        are rules of three positions and unvalued-goods of two, and each
        position's judgement with no reasons is one object."""
        runs, judging = Counter(), [None]  # (detector, rule, trace index) -> runs

        def counted(detector, evidence):
            def count(rule, facts):
                runs[detector, rule, judging[0]] += 1
                return evidence(rule, facts)
            return count

        for detector, evidence in list(DETECTORS.items()):
            monkeypatch.setitem(DETECTORS, detector, counted(detector, evidence))
        monkeypatch.setattr(legality, "_last_facts", None)
        instance = three_by_three()
        traces = enumerate_interleavings(instance.world, instance.plans, bound=40)
        assert len(traces) == 840
        cleared = {}  # position name -> its judgements with no reasons
        for judging[0], trace in enumerate(traces):
            for position in BUILTIN_POSITIONS.values():
                judgement = judge(position, instance, trace)
                if not judgement.reasons:
                    cleared.setdefault(position.name, []).append(judgement)
        assert max(runs.values()) == 1
        per_rule = Counter((detector, rule) for detector, rule, _ in runs)
        assert per_rule == {("riba", "riba"): 840, ("ethical-tags", "ethical-tags"): 840,
                            ("unvalued-goods", "good-valuation-missing"): 840,
                            ("ina", "same-item-round-trip"): 840,
                            ("ina-single-contract", "single-contract-round-trip"): 840,
                            ("loan-profile", "interest-bearing-flow"): 840}
        assert set(cleared) == {"CONVENTIONAL", "STRICT_DESCRIPTIVE", "STRICT_FUNCTIONAL"}
        for judgements in cleared.values():
            assert len(judgements) == 840
            assert all(judgement is judgements[0] for judgement in judgements)

    @pytest.mark.parametrize("name", scenario_names())
    def test_facts_net_the_flows_cash_flows_filters(self, name):
        """The facts' own filter of cash-moving events nets what
        ``net_positions(cash_flows(...))`` nets: for a progression, and for
        one built by hand whose events are not its history's tail."""
        _, progression = run_default(name)
        world = progression.world
        for events in (progression.events, progression.events[1:-1]):
            facts = legality._Facts(world.history, events, world)
            nets = {agent: {day: q(v, facts.scale) for day, v in per_day.items() if v}
                    for agent, per_day in facts.sums.items()}
            assert {a: d for a, d in nets.items() if d} == net_positions(cash_flows(events))


class TestDetectIna:
    def test_separate_contracts_flagged_but_not_single(self):
        _, progression = run_default("ina_two_party")
        findings = detect_ina(progression.world.history)
        assert len(findings) == 1
        finding = findings[0]
        assert (finding.good_id, finding.seller, finding.buyer) == ("S", "Y", "X")
        assert finding.single_contract is False

    def test_single_contract_flag(self):
        _, progression = run_default("ina_two_party", single_contract=True)
        findings = detect_ina(progression.world.history)
        assert len(findings) == 1
        assert findings[0].single_contract is True

    def test_tawarruq_round_trip_with_intermediary_is_clean(self):
        _, progression = run_default("tawarruq_classic")
        assert detect_ina(progression.world.history) == []

    def test_no_sales_no_findings(self):
        _, progression = run_default("loan_with_interest")
        assert detect_ina(progression.world.history) == []


class TestEffectiveRate:
    def test_ten_percent_per_year(self):
        assert effective_interest_rate(q(100), q(110), 365) == q(1, 10)

    def test_no_gain_no_rate(self):
        assert effective_interest_rate(q(77), q(77), 123) == q(0)

    def test_annualization(self):
        # half-year doubling of the period halves the required gain
        assert effective_interest_rate(q(100), q(105), 365 // 2) == \
            q(5, 100) * q(365) / q(182)

    def test_contractus_trinus_net_rate(self):
        _, progression = run_default("contractus_trinus")
        nets = net_positions(monetary_projection(progression))
        gain = sum((v for v in nets["A"].values()), q(0))
        principal = q(100)
        assert effective_interest_rate(principal, principal + gain, 365) == q(1, 10)

    def test_errors(self):
        with pytest.raises(NonpositivePrincipal):
            effective_interest_rate(q(0), q(10), 10)
        with pytest.raises(ZeroDuration):
            effective_interest_rate(q(10), q(11), 0)

    def test_rate_recovers_q_exactly(self):
        rng = random.Random(31)
        for _ in range(200):
            principal = Quantity(rng.randint(1, 10**6), rng.randint(1, 50))
            rate = Quantity(rng.randint(0, 400), rng.randint(1, 400))
            repayment = principal * (q(1) + rate)
            assert effective_interest_rate(principal, repayment, 365) == rate


class TestJudgements:
    def test_judgement_is_deterministic(self):
        instance, progression = run_default("savings_account_with_interest")
        first = judge(STRICT_DESCRIPTIVE, instance, progression)
        second = judge(STRICT_DESCRIPTIVE, instance, progression)
        assert first == second

    def test_haram_evidence_cites_existing_events(self):
        for name in scenario_names():
            instance, progression = run_default(name)
            for position in BUILTIN_POSITIONS.values():
                judgement = judge(position, instance, progression)
                if judgement.verdict != Verdict.HALAL:
                    assert judgement.reasons
                for reason in judgement.reasons:
                    for seq in reason.events:
                        assert 1 <= seq <= len(progression.world.history)
                    for cid in reason.contracts:
                        assert cid in progression.world.contracts

    def test_unethical_examples_flagged_descriptively(self):
        instance, progression = run_default("unethical_examples")
        judgement = judge(STRICT_DESCRIPTIVE, instance, progression)
        assert judgement.verdict == Verdict.HARAM

    def test_functional_and_descriptive_disagree_on_monetization(self):
        instance, progression = run_default("tawarruq_pi_double_prime")
        descriptive = judge(STRICT_DESCRIPTIVE, instance, progression)
        functional = judge(STRICT_FUNCTIONAL, instance, progression)
        assert descriptive.verdict == Verdict.HALAL
        assert functional.verdict == Verdict.HARAM

    def test_scaling_invariance(self):
        """Multiplying all monetary parameters by a positive rational leaves
        every built-in verdict unchanged."""
        cases = [
            ("savings_account_with_interest",
             lambda k: {"p": q(1000) * k, "c": q(2) * k}),
            ("tawarruq_classic", lambda k: {"p": q(100) * k, "i": q(10) * k}),
            ("ina_two_party", lambda k: {"p": q(100) * k, "i": q(10) * k}),
            ("loan_with_interest", lambda k: {"p": q(100) * k, "i": q(10) * k}),
        ]
        scales = [q(3), q(7, 2), q(1, 4)]
        for name, params_of in cases:
            base_instance, base_progression = run_default(name)
            for position in BUILTIN_POSITIONS.values():
                want = judge(position, base_instance, base_progression).verdict
                for k in scales:
                    instance, progression = run_default(name, **params_of(k))
                    got = judge(position, instance, progression).verdict
                    assert got == want, (name, position.name, str(k))

    def test_undecided_on_unvalued_goods(self):
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
        progression = run(world, plans, RoundRobin(), horizon=10)
        judgement = judge(MAJORITY, instance, progression)
        assert judgement.verdict == Verdict.UNDECIDED
        assert judgement.reasons[0].rule == "good-valuation-missing"

    def test_custom_position_from_rule_list(self):
        position = position_from_dict({
            "name": "NO_ROUND_TRIPS",
            "rules": [{"detector": "ina", "verdict": "haram", "name": "round-trip"}],
        })
        instance, progression = run_default("ina_two_party")
        assert judge(position, instance, progression).verdict == Verdict.HARAM
        instance, progression = run_default("savings_account_with_interest")
        assert judge(position, instance, progression).verdict == Verdict.HALAL

    def test_readme_names_every_detector(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = re.search(r"one of the\s+detectors (.*?) and the verdict", readme, re.S).group(1)
        assert re.findall(r"`([^`]+)`", listed) == list(DETECTORS)

    def test_conventional_permits_every_builtin(self):
        for name in scenario_names():
            instance, progression = run_default(name)
            assert judge(CONVENTIONAL, instance, progression).verdict == Verdict.HALAL


@pytest.mark.parametrize(("name", "params"), [(name, {}) for name in scenario_names()]
                         + [("ina_two_party", {"single_contract": "true"})])
def test_declared_verdicts_hold_on_every_interleaving(name, params):
    instance = instantiate(name, params)
    traces = enumerate_interleavings(instance.world, instance.plans, bound=60,
                                     choice_points=instance.choice_points)
    assert traces and instance.expected
    for trace in traces:
        for position, verdict in instance.expected.items():
            judgement = judge(BUILTIN_POSITIONS[position], instance, trace)
            assert judgement.verdict.value == verdict, (position, trace.key())
