"""The in-process workloads: synth_savings, interleave_judge, engine_deep.

Each generates its inputs from the seed with rpsf's public constructors,
times the program's calls only (scaled to reference speed, see
``speed``), and checks the results afterwards with ``oracles`` (Fractions
and counting, no rpsf code).
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import oracles
import speed
from desk import Sample
from rpsf import engine, legality, scenarios, synthesis, world
from rpsf.engine import Do, Plan, RoundRobin, SeededRandom, WaitFor
from rpsf.legality import BUILTIN_POSITIONS
from rpsf.money import Quantity
from rpsf.scenarios import ScenarioInstance
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
    Role,
    Stage,
    make_world,
)

POSITIONS = ("CONVENTIONAL", "STRICT_DESCRIPTIVE", "STRICT_FUNCTIONAL", "MAJORITY", "MALAYSIA")


def _q(fraction: Fraction) -> Quantity:
    return Quantity(fraction.numerator, fraction.denominator)


def _cents(rng: random.Random, low: int, high: int) -> Fraction:
    return Fraction(rng.randint(low * 100, high * 100), 100)


def _cash_moves(events):
    """(payer, payee, amount, day) for every cash-moving event of a trace."""
    for event in events:
        action = event.action
        if action.kind == ActionKind.PAY:
            yield action.actor, action.counterparty, oracles.frac(action.amount), event.date
        elif action.kind == ActionKind.SPOT_SALE:
            yield action.counterparty, action.actor, oracles.frac(action.amount), event.date


def _balances(world) -> dict[str, Fraction]:
    return {agent: oracles.frac(value) for agent, value in world.accounts.items()}


class _InProcess:
    name = ""

    def __init__(self):
        self.index = 0

    def step(self) -> Sample:
        """One operation: timed, then checked outside the timed region."""
        gc.collect()
        result, seconds, factor = speed.timed(self.op)
        try:
            problems = self.check(result)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems = [f"unreadable result: {exc!r}"]
        self.index += 1
        return Sample(seconds * factor, seconds, "failed" if problems else "ok",
                      "; ".join(problems[:3]))


class SynthSavings(_InProcess):
    """Acceptance criterion 6 on a seeded savings target.

    Full-catalogue search at bound 5, then the spot-sale-only certificate
    at bound 6. The counts below hold for every integral-repayment target
    the generator draws.
    """

    name = "synth_savings"
    FULL = {"explored": 2095, "witnesses": 126}
    SPOT_ONLY_EXPLORED = 1877
    CATALOGUE = ("spot-sale", "credit-sale", "prepare-good", "contracts", "inform")

    def setup(self, seed: int) -> None:
        self.rng = random.Random(f"synth_savings:{seed}")
        self.amounts: list[Fraction] = []
        target, _ = self._target()
        self._search(target, 3, 3)

    def _target(self):
        rng = self.rng
        p = Fraction(rng.randrange(5, 51) * 100)
        q = Fraction(rng.randint(1, 10), 100)
        c = Fraction(rng.randint(0, int(q * p) - 1))
        t = rng.randint(30, 730)
        self.amounts += [p, c, q]
        instance = scenarios.instantiate("savings_account_with_interest",
                                         {"p": _q(p), "c": _q(c), "q": _q(q), "t": t})
        progression = engine.run(instance.world, instance.plans, RoundRobin(),
                                 horizon=instance.horizon)
        return synthesis.monetary_projection(progression), oracles.savings_nets(p, c, q, t)

    def op(self):
        target, expected = self._target()
        return (target, expected, *self._search(target, 5, 6))

    def _search(self, target, full_bound: int, spot_bound: int):
        agents = ("X", "Y", "Z")
        full = synthesis.synthesize(target, self.CATALOGUE, agents, bound=full_bound,
                                    perspective=("X",))
        spot = synthesis.synthesize(target, ["spot-sale"], agents, bound=spot_bound,
                                    perspective=("X",))
        return full, spot

    def check(self, result) -> list[str]:
        target, expected, full, spot = result
        problems = []
        x_flows: dict[int, Fraction] = {}
        for flow in target:
            for agent, sign in ((flow.payer, -1), (flow.payee, 1)):
                if agent == "X":
                    x_flows[flow.date] = (x_flows.get(flow.date, Fraction(0))
                                          + sign * oracles.frac(flow.amount))
        if x_flows != expected["X"]:
            problems.append(f"target X flows {x_flows} != {expected['X']}")
        got = {"explored": full.explored, "witnesses": len(full.witnesses)}
        if not full.found or got != self.FULL:
            problems.append(f"full search found={full.found} {got} != {self.FULL}")
        if not all(any(a.kind == ActionKind.BUY_ON_CREDIT for a in w.actions)
                   for w in full.witnesses):
            problems.append("a witness without a credit sale")
        if spot.found or spot.witnesses or spot.explored != self.SPOT_ONLY_EXPLORED:
            problems.append(f"spot-only found={spot.found} explored={spot.explored}")
        return problems

    def quantities(self) -> list[Quantity]:
        return [_q(a) for a in self.amounts]


class InterleaveJudge(_InProcess):
    """Every interleaving of three plans shaped (3, 3, 3), judged five ways.

    Agent A sells good g to B at its step 1; B's step 1 sells g on and
    waits for that sale. The seed picks whether B sells g on to C (a
    relay), back to A (a same-item round trip), or back to A with both
    sales citing one contract. That fixes the MAJORITY and MALAYSIA
    answers without changing the number of interleavings. Opening
    balances cover each agent's outflows, so every interleaving executes.
    """

    name = "interleave_judge"
    LENGTHS = (3, 3, 3)
    WAITS = {(1, 1): ((0, 1),)}  # B's step 1 after A's step 1

    def setup(self, seed: int) -> None:
        rng = random.Random(f"interleave_judge:{seed}")
        self.variant = rng.choice(("relay", "round-trip", "round-trip-one-contract"))
        agents = ("A", "B", "C")
        cite = Reason(contract_ids=("rt",)) if self.variant == "round-trip-one-contract" else None
        outflow = {a: Fraction(0) for a in agents}
        self.amounts: list[Fraction] = []
        steps: dict[str, list] = {a: [] for a in agents}

        def pay(agent: str, k: int) -> None:
            payee = rng.choice([a for a in agents if a != agent])
            amount = _cents(rng, 1, 500)
            outflow[agent] += amount
            self.amounts.append(amount)
            steps[agent].append(Do(Action(kind=ActionKind.PAY, actor=agent, counterparty=payee,
                                          amount=_q(amount), message=f"{agent}{k}")))

        def sell(agent: str, k: int, buyer: str, good: str, reason=None) -> None:
            price = _cents(rng, 50, 900)
            outflow[buyer] += price
            self.amounts.append(price)
            steps[agent].append(Do(Action(kind=ActionKind.SPOT_SALE, actor=agent,
                                          counterparty=buyer, amount=_q(price), good_id=good,
                                          reason=reason, message=f"{agent}{k}")))

        for index, agent in enumerate(agents):
            for k in range(self.LENGTHS[index]):
                if (index, k) == (0, 1):
                    sell("A", k, "B", "g", cite)
                elif (index, k) == (1, 1):
                    steps["B"].append(WaitFor(AfterEvent(ActionTemplate(
                        kind=ActionKind.SPOT_SALE, actor="A", message="A1"))))
                    sell("B", k, "C" if self.variant == "relay" else "A", "g", cite)
                elif (index, k) == (2, 1):
                    sell("C", k, rng.choice(("A", "B")), "h")
                else:
                    pay(agent, k)

        opening = {a: outflow[a] + _cents(rng, 0, 100) for a in agents}
        self.opening = opening
        contracts = []
        if cite is not None:
            contracts.append(ContractRecord(contract_id="rt", parties=frozenset({"A", "B"}),
                                            initiator="A", clauses=(),
                                            signatures=frozenset({"A", "B"}), stage=Stage.ACTIVE))
        self.world = make_world(
            agents=[Agent(a) for a in agents],
            balances={a: _q(v) for a, v in opening.items()},
            goods=[Good("g", "asset", "A", Quantity(500)), Good("h", "asset", "C", Quantity(300))],
            contracts=contracts,
        )
        self.plans = tuple(Plan(a, tuple(steps[a])) for a in agents)
        self.instance = ScenarioInstance(name="interleave_judge", params={}, world=self.world,
                                         plans=self.plans, principals=("A",), horizon=0)
        self.expected_count = oracles.merge_count(self.LENGTHS, self.WAITS)
        self.expected = {p: "halal" for p in POSITIONS}
        if self.variant != "relay":
            self.expected["MAJORITY"] = "haram"
        if self.variant == "round-trip-one-contract":
            self.expected["MALAYSIA"] = "haram"
        # warm-up: the first two plans only
        for trace in engine.enumerate_interleavings(self.world, self.plans[:2], bound=40)[:50]:
            legality.judge(BUILTIN_POSITIONS["MAJORITY"], self.instance, trace)

    def op(self):
        traces = engine.enumerate_interleavings(self.world, self.plans, bound=40)
        positions = [BUILTIN_POSITIONS[p] for p in POSITIONS]
        verdicts = [tuple(legality.judge(position, self.instance, trace).verdict.value
                          for position in positions) for trace in traces]
        return traces, verdicts

    def check(self, result) -> list[str]:
        traces, verdicts = result
        problems = []
        if len(traces) != self.expected_count:
            problems.append(f"{len(traces)} traces, merge count {self.expected_count}")
        want = tuple(self.expected[p] for p in POSITIONS)
        steps = sum(self.LENGTHS)
        for trace, got in zip(traces, verdicts):
            if len(trace.events) != steps:
                problems.append(f"trace stopped after {len(trace.events)} of {steps} steps")
            problems.extend(oracles.transfers_conserve(
                self.opening, _cash_moves(trace.events), _balances(trace.world)))
            if got != want:
                problems.append(f"verdicts {got} != {want}")
            if problems:
                break
        return problems

    def quantities(self) -> list[Quantity]:
        return [_q(a) for a in self.amounts]


class EngineDeep(_InProcess):
    """A long-lived account between a saver and a bank, run twice per operation.

    Each round the saver A pays into the account, citing contract "acct",
    and the bank B pays back; each side waits for the other's payment, and
    by-date waits move the clock between rounds. One operation runs the
    account under RoundRobin and then under SeededRandom (which settles
    every plan before each event, so it costs more), and replays and
    projects each run. Both strategies in every operation keep all
    operations alike.
    """

    name = "engine_deep"
    ROUNDS = 400  # 800 events per run of the account, 1,600 per operation

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"engine_deep:{seed}")
        self.amounts: list[Fraction] = []
        self.world, self.plans, self.days, self.expected = self._account(rng, self.ROUNDS)
        small = self._account(rng, 50)
        self._run(small[0], small[1], RoundRobin())

    def _account(self, rng: random.Random, rounds: int):
        pay_in, pay_out, days = [], [], []
        a_steps: list = []
        b_steps: list = []
        day = 0
        for k in range(rounds):
            if k and rng.random() < 0.5:
                day += rng.randint(1, 3)
                a_steps.append(WaitFor(ByDate(day)))
            deposit, withdrawal = _cents(rng, 10, 1000), _cents(rng, 10, 1000)
            pay_in.append(deposit)
            pay_out.append(withdrawal)
            days.append(day)
            a_steps.append(Do(Action(kind=ActionKind.PAY, actor="A", counterparty="B",
                                     amount=_q(deposit), reason=Reason(contract_ids=("acct",)),
                                     message=f"a{k}")))
            a_steps.append(WaitFor(AfterEvent(ActionTemplate(
                kind=ActionKind.PAY, actor="B", message=f"b{k}"))))
            b_steps.append(WaitFor(AfterEvent(ActionTemplate(
                kind=ActionKind.PAY, actor="A", message=f"a{k}"))))
            b_steps.append(Do(Action(kind=ActionKind.PAY, actor="B", counterparty="A",
                                     amount=_q(withdrawal), reason=Reason(contract_ids=("acct",)),
                                     message=f"b{k}")))
        self.amounts += pay_in[:50] + pay_out[:50]
        opening = {"A": sum(pay_in), "B": sum(pay_out)}
        account = ContractRecord(
            contract_id="acct", parties=frozenset({"A", "B"}), initiator="B", clauses=(),
            signatures=frozenset({"A", "B"}), stage=Stage.ACTIVE,
            terms=RepaymentTerms(principal=Quantity(1000), rate=Quantity(1, 50), period=365))
        world = make_world(agents=[Agent("A"), Agent("B", Role.BANK)],
                           balances={a: _q(v) for a, v in opening.items()}, contracts=[account])
        plans = (Plan("A", tuple(a_steps)), Plan("B", tuple(b_steps)))
        nets: dict[str, dict[int, Fraction]] = {"A": {}, "B": {}}
        for deposit, withdrawal, when in zip(pay_in, pay_out, days):
            nets["A"][when] = nets["A"].get(when, Fraction(0)) - deposit + withdrawal
            nets["B"][when] = nets["B"].get(when, Fraction(0)) + deposit - withdrawal
        nets = {a: {d: v for d, v in per.items() if v} for a, per in nets.items()}
        expected = {"opening": opening, "nets": {a: per for a, per in nets.items() if per}}
        return world, plans, days, expected

    def _run(self, initial, plans, strategy):
        progression = engine.run(initial, plans, strategy, horizon=10 * len(plans[0].steps))
        replayed = world.replay(initial, progression.world.history)
        same = world.world_to_json(replayed) == world.world_to_json(progression.world)
        nets = synthesis.net_positions(synthesis.monetary_projection(progression))
        return progression, same, nets

    def op(self):
        return [self._run(self.world, self.plans, strategy)
                for strategy in (RoundRobin(), SeededRandom(self.seed + self.index))]

    def check(self, result) -> list[str]:
        problems = []
        for outcome in result:
            problems += self._check(*outcome)
        return problems

    def _check(self, progression, same, nets) -> list[str]:
        problems = []
        if not same:
            problems.append("replay is not byte-exact")
        if len(progression.events) != 2 * self.ROUNDS:
            problems.append(f"{len(progression.events)} events, expected {2 * self.ROUNDS}")
        deposit_days = [e.date for e in progression.events if e.action.actor == "A"]
        if deposit_days != self.days:
            problems.append("deposits ran on the wrong days")
        got = {a: {d: oracles.frac(v) for d, v in per.items()} for a, per in nets.items()}
        if got != self.expected["nets"]:
            problems.append("per-day net positions differ from the plan's amounts")
        unbalanced = oracles.unbalanced_days(got)
        if unbalanced:
            problems.append(f"money not conserved on days {unbalanced[:5]}")
        problems.extend(oracles.transfers_conserve(
            self.expected["opening"], _cash_moves(progression.events),
            _balances(progression.world)))
        return problems

    def quantities(self) -> list[Quantity]:
        return [_q(a) for a in self.amounts]


WORKLOADS = {w.name: w for w in (SynthSavings, InterleaveJudge, EngineDeep)}
