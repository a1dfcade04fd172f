"""Catalogue of built-in financial products, instantiable into worlds + plans.

Each builder reproduces its product's step list exactly: the two-transfer
loan, the savings account repaying principal - cost + rate * principal, the
two-party same-item sale-repurchase (single- or separate-contract), the
three-party monetization round trip in four refinement stages (idealized,
block-granular, contract-backed, preparation-ordered), the packaged
single-contract variant, the cost-plus resale through a bank, the medieval
triple contract, the broker-mediated loan with guarantee variants, and a
set of ethically annotated one-offs.

Scenario instantiation is deterministic and pure; instances are immutable.
Custom scenarios can be loaded from JSON files mirroring the same shapes
(see ``load_scenario_file``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .engine import Branch, Do, Plan, Stop, WaitFor, plan_from_dict, plan_to_dict
from .money import Quantity, ZERO, parse_quantity, total_div
from .world import (
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    Always,
    ByDate,
    ChoiceIs,
    Clause,
    ContractInStage,
    ContractRecord,
    EthicalTag,
    Good,
    GoodSpec,
    Reason,
    RepaymentTerms,
    Role,
    Stage,
    Trigger,
    WorldState,
    contract_from_dict,
    contract_to_dict,
    good_from_dict,
    good_to_dict,
    make_world,
)


class UnknownScenario(Exception):
    pass


class ParameterViolation(Exception):
    pass


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: object
    doc: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """A catalogue entry: name, classification, parameters and builder."""

    name: str
    family: str
    summary: str
    params: tuple[ParamSpec, ...]
    build: Callable[[Mapping[str, object]], "ScenarioInstance"]
    expected: Mapping[str, str] = field(default_factory=dict)

    def defaults(self) -> dict[str, object]:
        return {p.name: p.default for p in self.params}


@dataclass(frozen=True)
class ScenarioInstance:
    """A concrete initial world plus plans, ready for the engine."""

    name: str
    params: Mapping[str, object]
    world: WorldState
    plans: tuple[Plan, ...]
    principals: tuple[str, ...]
    horizon: int
    choice_points: Mapping[str, bool] = field(default_factory=dict)
    expected: Mapping[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# small plan-construction helpers
# ---------------------------------------------------------------------------

def act(kind: ActionKind, actor: str, **kw) -> Action:
    return Action(kind=kind, actor=actor, **kw)


def do(kind: ActionKind, actor: str, **kw) -> Do:
    return Do(act(kind, actor, **kw))


def wait(**pattern) -> WaitFor:
    if "kind" in pattern and isinstance(pattern["kind"], str):
        pattern["kind"] = ActionKind(pattern["kind"])
    return WaitFor(AfterEvent(ActionTemplate(**pattern)))


def wait_day(day: int) -> WaitFor:
    return WaitFor(ByDate(day))


def ref(*contract_ids: str, text: str = "") -> Reason:
    return Reason(text=text, contract_ids=tuple(contract_ids))


def _as_quantity(name: str, value: object) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Quantity(value)
    if isinstance(value, str):
        try:
            return parse_quantity(value)
        except ValueError as exc:
            raise ParameterViolation(f"parameter {name}: {exc}") from exc
    raise ParameterViolation(f"parameter {name} must be a quantity, got {value!r}")


def _as_duration(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParameterViolation(f"parameter {name} must be a day count")
    days = int(value)
    if days < 0:
        raise ParameterViolation(f"parameter {name} must be nonnegative")
    return days


def _resolve(spec_params: Sequence[ParamSpec], overrides: Mapping[str, object]) -> dict[str, object]:
    known = {p.name for p in spec_params}
    for name in overrides:
        if name not in known:
            raise ParameterViolation(f"unknown parameter {name!r} (accepts: {sorted(known)})")
    resolved: dict[str, object] = {}
    for p in spec_params:
        value = overrides.get(p.name, p.default)
        if isinstance(p.default, Quantity):
            resolved[p.name] = _as_quantity(p.name, value)
        elif isinstance(p.default, bool):
            if isinstance(value, str):
                value = value.lower() in ("1", "true", "yes")
            resolved[p.name] = bool(value)
        elif isinstance(p.default, int):
            resolved[p.name] = _as_duration(p.name, value)
        else:
            resolved[p.name] = str(value)
    return resolved


def _require_positive(name: str, value: Quantity) -> None:
    if value <= ZERO:
        raise ParameterViolation(f"parameter {name} must be positive, got {value}")


def _require_nonnegative(name: str, value: Quantity) -> None:
    if value < ZERO:
        raise ParameterViolation(f"parameter {name} must be nonnegative, got {value}")


def _block_multiple(value: Quantity, block: Quantity) -> bool:
    return (value / block).den == 1


def _ceil_to_block(value: Quantity, block: Quantity) -> Quantity:
    ratio = value / block
    whole = ratio.num // ratio.den
    if whole * ratio.den < ratio.num:
        whole += 1
    return Quantity(whole) * block


HALF = Quantity(1, 2)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_loan_with_interest(params: Mapping[str, object]) -> ScenarioInstance:
    """Two transfers: p - c out at day 0, p + i + c2 back at day t.

    The lender X and borrower Y sign one contract promising both transfers
    with references to it; the declared terms tie the increment to the
    principal.
    """
    p, c, c2, i = (params[k] for k in ("p", "c", "c2", "i"))
    t = params["t"]
    _require_positive("p", p)
    _require_nonnegative("c", c)
    _require_nonnegative("c2", c2)
    _require_nonnegative("i", i)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    if p - c < ZERO:
        raise ParameterViolation("costs c exceed the principal")
    out_leg = p - c
    back_leg = p + i + c2
    contract = "loan"
    terms = RepaymentTerms(principal=p, rate=total_div(i, p), fixed_cost=c, period=t)
    clauses = (
        Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X", counterparty="Y",
                                   amount=out_leg, contract_id=contract), deadline=0),
        Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                   amount=back_leg, contract_id=contract), deadline=t),
    )
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": out_leg, "Y": i + c + c2},
    )
    plans = (
        Plan("X", (
            do(ActionKind.PREPARE_CONTRACT, "X", contract_id=contract,
               parties=("X", "Y"), clauses=clauses, terms=terms),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id=contract),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id=contract),
            do(ActionKind.PAY, "X", counterparty="Y", amount=out_leg, reason=ref(contract)),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=back_leg),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y",
               amount=back_leg, reason=ref(contract)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.SIGN_CONTRACT, actor="X", contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id=contract),
            wait(kind=ActionKind.PAY, actor="X", counterparty="Y", amount=out_leg),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=back_leg, reason=ref(contract)),
        )),
    )
    return ScenarioInstance(
        name="loan_with_interest", params=params, world=world, plans=plans,
        principals=("X", "Y"), horizon=t,
        expected={"CONVENTIONAL": "halal"},
    )


def _build_savings_account(params: Mapping[str, object]) -> ScenarioInstance:
    """Deposit p at day 0; the bank repays p - c + q*p after t days.

    Broker Z produces the model contract and mediates; only X and Y move
    cash, so the flow trace is the plain two-party loan profile.
    """
    p, c, q = params["p"], params["c"], params["q"]
    t = params["t"]
    _require_positive("p", p)
    _require_nonnegative("c", c)
    _require_nonnegative("q", q)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    terms = RepaymentTerms(principal=p, rate=q, fixed_cost=c, period=t)
    repayment = terms.repayment()
    if repayment < ZERO:
        raise ParameterViolation("repayment p - c + q*p is negative")
    contract = "savings"
    clauses = (
        Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X", counterparty="Y",
                                   amount=p, contract_id=contract), deadline=0),
        Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                   amount=repayment, contract_id=contract), deadline=t),
    )
    world = make_world(
        agents=[Agent("X"), Agent("Y", Role.BANK), Agent("Z", Role.BROKER)],
        balances={"X": p, "Y": q * p},
    )
    plans = (
        Plan("X", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id=contract),
            wait(kind=ActionKind.INFORM, actor="Z", counterparty="X"),
            do(ActionKind.PAY, "X", counterparty="Y", amount=p, reason=ref(contract)),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=repayment),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y",
               amount=repayment, reason=ref(contract)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.SIGN_CONTRACT, actor="X", contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id=contract),
            wait(kind=ActionKind.PAY, actor="X", counterparty="Y", amount=p),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "Y", counterparty="X", amount=p,
               reason=ref(contract)),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=repayment, reason=ref(contract)),
        )),
        Plan("Z", (
            do(ActionKind.PREPARE_CONTRACT, "Z", contract_id=contract,
               parties=("X", "Y"), clauses=clauses, terms=terms),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id=contract),
            do(ActionKind.INFORM, "Z", counterparty="X", message="repayment schedule",
               reason=ref(contract)),
        )),
    )
    return ScenarioInstance(
        name="savings_account_with_interest", params=params, world=world, plans=plans,
        principals=("X", "Y"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "haram",
                  "STRICT_FUNCTIONAL": "haram"},
    )


def _build_ina(params: Mapping[str, object]) -> ScenarioInstance:
    """Same-item sale-repurchase: spot sale at p, credit buy-back at p + i.

    With ``single_contract`` both sales stem from one signed contract;
    otherwise each sale is covered by its own promise contract.
    """
    p, i = params["p"], params["i"]
    t = params["t"]
    single = params["single_contract"]
    _require_positive("p", p)
    _require_nonnegative("i", i)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    credit_price = p + i
    settle = "ina-settle"
    good = Good(good_id="S", kind="asset", owner="Y", market_value=p)
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": p, "Y": i},
        goods=[good],
    )
    if single:
        contract = "ina-contract"
        clauses = (
            Clause("Y", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Y",
                                       counterparty="X", amount=p, good_id="S"),
                   deadline=0),
            Clause("Y", ActionTemplate(kind=ActionKind.BUY_ON_CREDIT, actor="Y",
                                       counterparty="X", amount=credit_price, good_id="S")),
            Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                       amount=credit_price, contract_id=settle), deadline=t),
        )
        x_steps = (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id=contract),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=credit_price),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y",
               amount=credit_price, reason=ref(settle)),
        )
        y_steps = (
            do(ActionKind.PREPARE_CONTRACT, "Y", contract_id=contract,
               parties=("X", "Y"), clauses=clauses),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="X", contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id=contract),
            do(ActionKind.SPOT_SALE, "Y", counterparty="X", amount=p, good_id="S",
               reason=ref(contract)),
            do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_price,
               down_payment=ZERO, due_date=t, good_id="S", contract_id=settle,
               reason=ref(contract)),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=credit_price, reason=ref(settle)),
        )
    else:
        spot_deal, credit_deal = "spot-deal", "repurchase-deal"
        x_steps = (
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "X", counterparty="Y", amount=p,
               good_id="S", trigger=Always(), contract_id=spot_deal),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=credit_price),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y",
               amount=credit_price, reason=ref(settle)),
        )
        y_steps = (
            wait(kind=ActionKind.PROMISE_BUY_ON_CONDITION, actor="X"),
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "Y", counterparty="X",
               amount=credit_price, good_id="S", on_credit=True,
               trigger=AfterEvent(ActionTemplate(kind=ActionKind.SPOT_SALE, good_id="S")),
               contract_id=credit_deal),
            do(ActionKind.SPOT_SALE, "Y", counterparty="X", amount=p, good_id="S",
               reason=ref(spot_deal)),
            do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_price,
               down_payment=ZERO, due_date=t, good_id="S", contract_id=settle,
               reason=ref(credit_deal)),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=credit_price, reason=ref(settle)),
        )
    plans = (Plan("X", x_steps), Plan("Y", y_steps))
    return ScenarioInstance(
        name="ina_two_party", params=params, world=world, plans=plans,
        principals=("X", "Y"), horizon=t,
        expected={"CONVENTIONAL": "halal", "MAJORITY": "haram",
                  "MALAYSIA": "haram" if single else "halal"},
    )


def _build_tawarruq_classic(params: Mapping[str, object]) -> ScenarioInstance:
    """Three-party monetization: X buys the asset spot from Z, sells it to Y
    on credit at p + i due in t days, and Y sells it back to Z spot.

    The asset makes a round trip and X's cash profile is a loan: -p now,
    +(p + i) at day t. Ten events under round-robin.
    """
    p, i = params["p"], params["i"]
    t = params["t"]
    _require_positive("p", p)
    _require_nonnegative("i", i)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    credit_price = p + i
    czx, cxy, cyz, settle = "czx", "cxy", "cyz", "credit-settle"
    world = make_world(
        agents=[Agent("X"), Agent("Y"), Agent("Z", Role.COMPANY)],
        balances={"X": p, "Y": i},
        goods=[Good(good_id="S", kind="asset", owner="Z", market_value=p)],
    )
    plans = (
        Plan("X", (
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "X", counterparty="Z", amount=p,
               good_id="S", trigger=Always(), contract_id=czx),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=credit_price),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y",
               amount=credit_price, reason=ref(settle)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.SPOT_SALE, actor="Z", counterparty="X", good_id="S"),
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "Y", counterparty="X",
               amount=credit_price, good_id="S", on_credit=True, trigger=Always(),
               contract_id=cxy),
            do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_price,
               down_payment=ZERO, due_date=t, good_id="S", contract_id=settle,
               reason=ref(cxy)),
            wait(kind=ActionKind.PROMISE_BUY_ON_CONDITION, actor="Z"),
            do(ActionKind.SPOT_SALE, "Y", counterparty="Z", amount=p, good_id="S",
               reason=ref(cyz)),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "Y", counterparty="Z", amount=p,
               reason=ref(cyz)),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=credit_price, reason=ref(settle)),
        )),
        Plan("Z", (
            wait(kind=ActionKind.PROMISE_BUY_ON_CONDITION, actor="X"),
            do(ActionKind.SPOT_SALE, "Z", counterparty="X", amount=p, good_id="S",
               reason=ref(czx)),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "Z", counterparty="X", amount=p,
               reason=ref(czx)),
            wait(kind=ActionKind.BUY_ON_CREDIT, actor="Y", good_id="S"),
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "Z", counterparty="Y", amount=p,
               good_id="S", trigger=Always(), contract_id=cyz),
        )),
    )
    return ScenarioInstance(
        name="tawarruq_classic", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal", "MAJORITY": "halal"},
    )


def _build_contractus_trinus(params: Mapping[str, object]) -> ScenarioInstance:
    """Partnership + fixed profit sale + principal insurance between A and B.

    A invests 100 and pays a 5 premium; B pays 15 for the profit share and
    returns the principal at year end. A's net gain is 10 on 100: an
    effective 10 percent a year without a stated interest clause.
    """
    invest, fee, premium = params["invest"], params["profit_fee"], params["premium"]
    t = params["t"]
    _require_positive("invest", invest)
    _require_nonnegative("profit_fee", fee)
    _require_nonnegative("premium", premium)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    partnership, profit_sale, insurance = "partnership", "profit-sale", "insurance"
    clauses = (
        Clause("A", ActionTemplate(kind=ActionKind.PAY, actor="A", counterparty="B",
                                   amount=invest, contract_id=partnership), deadline=0),
    )
    world = make_world(
        agents=[Agent("A"), Agent("B")],
        balances={"A": invest + premium, "B": fee},
    )
    plans = (
        Plan("A", (
            do(ActionKind.PREPARE_CONTRACT, "A", contract_id=partnership,
               parties=("A", "B"), clauses=clauses),
            do(ActionKind.SIGN_CONTRACT, "A", contract_id=partnership),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="B", contract_id=partnership),
            wait(kind=ActionKind.PROMISE_INSURANCE_PAYOUT, actor="B"),
            do(ActionKind.PAY, "A", counterparty="B", amount=invest, reason=ref(partnership)),
            do(ActionKind.PAY, "A", counterparty="B", amount=premium, reason=ref(insurance)),
            wait(kind=ActionKind.PAY, actor="B", counterparty="A", amount=invest),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "A", counterparty="B", amount=invest,
               reason=ref(insurance)),
        )),
        Plan("B", (
            wait(kind=ActionKind.SIGN_CONTRACT, actor="A", contract_id=partnership),
            do(ActionKind.SIGN_CONTRACT, "B", contract_id=partnership),
            do(ActionKind.PROMISE_PAY, "B", counterparty="A", amount=fee, due_date=t,
               contract_id=profit_sale, reason=ref(partnership)),
            do(ActionKind.PROMISE_INSURANCE_PAYOUT, "B", counterparty="A", amount=invest,
               down_payment=premium, due_date=t, contract_id=insurance,
               reason=ref(partnership)),
            wait(kind=ActionKind.PAY, actor="A", counterparty="B", amount=premium),
            wait_day(t),
            do(ActionKind.PAY, "B", counterparty="A", amount=fee, reason=ref(profit_sale)),
            do(ActionKind.PAY, "B", counterparty="A", amount=invest, reason=ref(insurance)),
        )),
    )
    return ScenarioInstance(
        name="contractus_trinus", params=params, world=world, plans=plans,
        principals=("A", "B"), horizon=t,
        expected={"CONVENTIONAL": "halal"},
    )


def _build_murabaha(params: Mapping[str, object]) -> ScenarioInstance:
    """Cost-plus resale: the bank buys G and resells it on credit at a markup.

    A promises to buy before the bank commits, pays a mediation fee, and
    settles the marked-up price after t days. The good stays with A.
    """
    price, markup, fee = params["price"], params["markup"], params["fee"]
    t = params["t"]
    _require_positive("price", price)
    _require_nonnegative("markup", markup)
    _require_nonnegative("fee", fee)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    resale = price + markup
    promise, settle = "murabaha-promise", "murabaha-settle"
    world = make_world(
        agents=[Agent("A"), Agent("B", Role.COMPANY), Agent("BANK", Role.BANK)],
        balances={"A": fee + resale, "BANK": price},
        goods=[Good(good_id="G", kind="good", owner="B", market_value=price)],
    )
    plans = (
        Plan("A", (
            do(ActionKind.PROMISE_BUY_ON_CONDITION, "A", counterparty="BANK",
               amount=resale, good_id="G", on_credit=True,
               trigger=AfterEvent(ActionTemplate(kind=ActionKind.SPOT_SALE,
                                                 counterparty="BANK", good_id="G")),
               contract_id=promise),
            do(ActionKind.PAY, "A", counterparty="BANK", amount=fee, reason=ref(promise)),
            wait(kind=ActionKind.SPOT_SALE, actor="B", counterparty="BANK", good_id="G"),
            do(ActionKind.BUY_ON_CREDIT, "A", counterparty="BANK", amount=resale,
               down_payment=ZERO, due_date=t, good_id="G", contract_id=settle,
               reason=ref(promise)),
            wait_day(t),
            do(ActionKind.PAY, "A", counterparty="BANK", amount=resale, reason=ref(settle)),
        )),
        Plan("B", (
            wait(kind=ActionKind.PAY, actor="A", counterparty="BANK", amount=fee),
            do(ActionKind.SPOT_SALE, "B", counterparty="BANK", amount=price, good_id="G"),
        )),
        Plan("BANK", (
            wait(kind=ActionKind.PAY, actor="A", counterparty="BANK", amount=resale),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "BANK", counterparty="A", amount=resale,
               reason=ref(settle)),
        )),
    )
    return ScenarioInstance(
        name="murabaha", params=params, world=world, plans=plans,
        principals=("A", "BANK"), horizon=t,
        expected={"CONVENTIONAL": "halal"},
    )


# -- the monetization refinement family -------------------------------------

def _tawarruq_prices(params: Mapping[str, object], granular: bool):
    p, c, q = params["p"], params["c"], params["q"]
    t, block = params["t"], params["block"]
    drift = params.get("value_drift", ZERO)
    _require_positive("p", p)
    _require_nonnegative("c", c)
    _require_nonnegative("q", q)
    _require_positive("block", block)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    i = q * p
    if granular:
        portion = _ceil_to_block(p, block)
    else:
        if not _block_multiple(p, block):
            raise ParameterViolation(
                f"p={p} is not representable in good blocks of {block}"
            )
        portion = p
    credit_total = portion - c + i
    down = portion - p
    deferred = p - c + i
    # the portion's value is assumed constant across the trades; a nonzero
    # drift revalues the final buy-back leg and is outside acceptance scope
    buyback = portion - HALF * c + drift
    for name, value in (("credit price", credit_total), ("deferred leg", deferred),
                        ("buy-back price", buyback)):
        if value < ZERO:
            raise ParameterViolation(f"{name} is negative at these parameters")
    return p, c, i, t, block, portion, credit_total, down, deferred, buyback


def _monetization_agents(i: Quantity, down: Quantity, endow_x: Quantity,
                         drift: Quantity = ZERO) -> WorldState:
    cushion = abs(drift)
    return make_world(
        agents=[Agent("X"), Agent("Y", Role.BANK), Agent("Z", Role.COMPANY)],
        balances={"X": endow_x, "Y": down + i + cushion, "Z": cushion},
    )


def _build_tawarruq_pi(params: Mapping[str, object]) -> ScenarioInstance:
    """Idealized four-step monetization: the portion is worth exactly p.

    Request, preparation, spot purchase at p, credit sale at p - c + q*p due
    at day t, spot buy-back at p - c/2. X's flows equal the savings-account
    profile.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=False)
    settle = "pi-settle"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    world = _monetization_agents(i, down, endow_x=p,
                                 drift=params.get("value_drift", ZERO))
    plans = (
        Plan("X", (
            do(ActionKind.REQUEST_PREPARE_GOOD, "X", counterparty="Z", good_id="G",
               good_spec=spec),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=deferred),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y", amount=deferred,
               reason=ref(settle)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.SPOT_SALE, actor="Z", counterparty="X", good_id="G"),
            do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_total,
               down_payment=down, due_date=t, good_id="G", contract_id=settle),
            do(ActionKind.SPOT_SALE, "Y", counterparty="Z", amount=buyback, good_id="G"),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=deferred, reason=ref(settle)),
        )),
        Plan("Z", (
            wait(kind=ActionKind.REQUEST_PREPARE_GOOD, counterparty="Z"),
            do(ActionKind.PREPARE_GOOD, "Z", good_id="G", good_spec=spec),
            do(ActionKind.SPOT_SALE, "Z", counterparty="X", amount=portion, good_id="G"),
        )),
    )
    return ScenarioInstance(
        name="tawarruq_pi", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_FUNCTIONAL": "haram"},
    )


def _build_tawarruq_pi_prime(params: Mapping[str, object]) -> ScenarioInstance:
    """Block-granular monetization: the portion costs p', the smallest block
    multiple at or above p.

    The credit sale splits payment: p' - p immediately and p - c + q*p at
    day t, so X's day-0 net is exactly -p despite paying p'.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=True)
    settle = "pi-settle"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    plans = (
        Plan("X", (
            do(ActionKind.REQUEST_PREPARE_GOOD, "X", counterparty="Z", good_id="G",
               good_spec=spec),
            wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=deferred),
            do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y", amount=deferred,
               reason=ref(settle)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.SPOT_SALE, actor="Z", counterparty="X", good_id="G"),
            do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_total,
               down_payment=down, due_date=t, good_id="G", contract_id=settle),
            do(ActionKind.SPOT_SALE, "Y", counterparty="Z", amount=buyback, good_id="G"),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=deferred, reason=ref(settle)),
        )),
        Plan("Z", (
            wait(kind=ActionKind.REQUEST_PREPARE_GOOD, counterparty="Z"),
            do(ActionKind.PREPARE_GOOD, "Z", good_id="G", good_spec=spec),
            do(ActionKind.SPOT_SALE, "Z", counterparty="X", amount=portion, good_id="G"),
        )),
    )
    return ScenarioInstance(
        name="tawarruq_pi_prime", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_FUNCTIONAL": "haram"},
    )


def _monetization_contracts(portion, credit_total, buyback):
    c1 = Clause("X", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Z",
                                    counterparty="X", amount=portion, good_id="G"),
                trigger=AfterEvent(ActionTemplate(kind=ActionKind.PREPARE_GOOD,
                                                  good_id="G")))
    c2 = Clause("Y", ActionTemplate(kind=ActionKind.BUY_ON_CREDIT, actor="Y",
                                    counterparty="X", amount=credit_total, good_id="G"),
                trigger=AfterEvent(ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Z",
                                                  counterparty="X", good_id="G")))
    c3 = Clause("Z", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Y",
                                    counterparty="Z", amount=buyback, good_id="G"),
                trigger=AfterEvent(ActionTemplate(kind=ActionKind.BUY_ON_CREDIT,
                                                  actor="Y", good_id="G")))
    return c1, c2, c3


def _monetization_trades(spec: GoodSpec, portion, credit_total, down, deferred,
                         buyback, t, settle: str, c1: str, c2: str, c3: str):
    """The shared tail: request, preparation, informs and the three trades."""
    x_tail = (
        do(ActionKind.REQUEST_PREPARE_GOOD, "X", counterparty="Z", good_id="G",
           good_spec=spec, reason=ref(c1)),
        wait(kind=ActionKind.INFORM, actor="Z", counterparty="X"),
        wait(kind=ActionKind.SPOT_SALE, actor="Z", counterparty="X", good_id="G"),
        do(ActionKind.INFORM, "X", counterparty="Y", message="bought", reason=ref(c2)),
        wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=deferred),
        do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y", amount=deferred,
           reason=ref(settle)),
    )
    y_tail = (
        wait(kind=ActionKind.INFORM, actor="X", counterparty="Y"),
        do(ActionKind.BUY_ON_CREDIT, "Y", counterparty="X", amount=credit_total,
           down_payment=down, due_date=t, good_id="G", contract_id=settle,
           reason=ref(c2)),
        do(ActionKind.INFORM, "Y", counterparty="Z", message="bought", reason=ref(c3)),
        do(ActionKind.SPOT_SALE, "Y", counterparty="Z", amount=buyback, good_id="G",
           reason=ref(c3)),
        wait_day(t),
        do(ActionKind.PAY, "Y", counterparty="X", amount=deferred, reason=ref(settle)),
    )
    z_tail = (
        wait(kind=ActionKind.REQUEST_PREPARE_GOOD, counterparty="Z"),
        do(ActionKind.PREPARE_GOOD, "Z", good_id="G", good_spec=spec),
        do(ActionKind.INFORM, "Z", counterparty="X", message="prepared", reason=ref(c1)),
        do(ActionKind.SPOT_SALE, "Z", counterparty="X", amount=portion, good_id="G",
           reason=ref(c1)),
    )
    return x_tail, y_tail, z_tail


def _build_tawarruq_pi_double_prime(params: Mapping[str, object]) -> ScenarioInstance:
    """Contract-backed monetization: C1, C2, C3 signed in that order before
    any trading, each giving the next mover its assurance; informs reference
    the contracts as the trades progress.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=True)
    settle = "pi-settle"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    cl1, cl2, cl3 = _monetization_contracts(portion, credit_total, buyback)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    x_tail, y_tail, z_tail = _monetization_trades(
        spec, portion, credit_total, down, deferred, buyback, t, settle, "C1", "C2", "C3")
    plans = (
        # who signs first within each pair is left free; the contract-level
        # order C1, C2, C3 is forced by the activation waits
        Plan("X", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C1"),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id="C1"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id="C1"),
            do(ActionKind.PREPARE_CONTRACT, "X", contract_id="C2", parties=("X", "Y"),
               clauses=(cl2,), references=("C1",)),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id="C2"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id="C3"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id="C3"),
        ) + x_tail),
        Plan("Y", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C2"),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id="C2"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="X", contract_id="C2"),
            do(ActionKind.PREPARE_CONTRACT, "Y", contract_id="C3", parties=("Y", "Z"),
               clauses=(cl3,), references=("C2",)),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id="C3"),
        ) + y_tail),
        Plan("Z", (
            do(ActionKind.PREPARE_CONTRACT, "Z", contract_id="C1", parties=("X", "Z"),
               clauses=(cl1,)),
            do(ActionKind.SIGN_CONTRACT, "Z", contract_id="C1"),
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C3"),
            do(ActionKind.SIGN_CONTRACT, "Z", contract_id="C3"),
        ) + z_tail),
    )
    return ScenarioInstance(
        name="tawarruq_pi_double_prime", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal",
                  "STRICT_FUNCTIONAL": "haram"},
    )


def _build_tawarruq_pi_triple_prime(params: Mapping[str, object]) -> ScenarioInstance:
    """Preparation-ordered monetization: all three contracts are prepared
    before any is signed, and signing runs C3, then C2, then C1 - the party
    whose assurance depends on the rest commits last.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=True)
    settle = "pi-settle"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    cl1, cl2, cl3 = _monetization_contracts(portion, credit_total, buyback)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    x_tail, y_tail, z_tail = _monetization_trades(
        spec, portion, credit_total, down, deferred, buyback, t, settle, "C1", "C2", "C3")
    plans = (
        # preparation chains through the references; every signature on Cn
        # waits for C(n+1) to be fully signed, leaving the order within each
        # signing pair free
        Plan("X", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C1"),
            do(ActionKind.PREPARE_CONTRACT, "X", contract_id="C2", parties=("X", "Y"),
               clauses=(cl2,), references=("C1",)),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id="C3"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id="C3"),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id="C2"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id="C2"),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id="C1"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id="C1"),
        ) + x_tail),
        Plan("Y", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C2"),
            do(ActionKind.PREPARE_CONTRACT, "Y", contract_id="C3", parties=("Y", "Z"),
               clauses=(cl3,), references=("C2",)),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id="C3"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id="C3"),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id="C2"),
        ) + y_tail),
        Plan("Z", (
            do(ActionKind.PREPARE_CONTRACT, "Z", contract_id="C1", parties=("X", "Z"),
               clauses=(cl1,)),
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id="C3"),
            do(ActionKind.SIGN_CONTRACT, "Z", contract_id="C3"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="X", contract_id="C2"),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id="C2"),
            do(ActionKind.SIGN_CONTRACT, "Z", contract_id="C1"),
        ) + z_tail),
    )
    return ScenarioInstance(
        name="tawarruq_pi_triple_prime", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal"},
    )


def _build_tawarruq_single_contract(params: Mapping[str, object]) -> ScenarioInstance:
    """The whole monetization packaged in one contract with three signatures.

    Removes the contract-preparation choreography; the trades follow the
    same order as the contract-backed variant.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=True)
    settle = "pi-settle"
    package = "package"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    cl1, cl2, cl3 = _monetization_contracts(portion, credit_total, buyback)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    x_tail, y_tail, z_tail = _monetization_trades(
        spec, portion, credit_total, down, deferred, buyback, t, settle,
        package, package, package)
    plans = (
        # three signatures in any order once the package is prepared
        Plan("X", (
            do(ActionKind.PREPARE_CONTRACT, "X", contract_id=package,
               parties=("X", "Y", "Z"), clauses=(cl1, cl2, cl3)),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id=package),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Y", contract_id=package),
            wait(kind=ActionKind.SIGN_CONTRACT, actor="Z", contract_id=package),
        ) + x_tail),
        Plan("Y", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id=package),
            do(ActionKind.SIGN_CONTRACT, "Y", contract_id=package),
        ) + y_tail),
        Plan("Z", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id=package),
            do(ActionKind.SIGN_CONTRACT, "Z", contract_id=package),
        ) + z_tail),
    )
    return ScenarioInstance(
        name="tawarruq_single_contract", params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t,
        expected={"CONVENTIONAL": "halal"},
    )


def _build_brokered_loan(params: Mapping[str, object]) -> ScenarioInstance:
    """Broker-mediated loan: X selects and signs a model contract, Z sounds
    out lender Y, and the deal proceeds only if Y is willing (a declared
    choice point). Guarantee variants: pledge-of-goods (collateral handed
    over and returned), goods-on-default, income-share (both dormant unless
    a claim is made).
    """
    p, i = params["p"], params["i"]
    t = params["t"]
    guarantee = params["guarantee"]
    collateral_value = params["collateral_value"]
    _require_positive("p", p)
    _require_nonnegative("i", i)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    if guarantee not in ("pledge-of-goods", "goods-on-default", "income-share"):
        raise ParameterViolation(f"unknown guarantee variant {guarantee!r}")
    if guarantee != "income-share" and collateral_value <= p:
        raise ParameterViolation("collateral must be worth more than the principal")
    repayment = p + i
    contract = "brokered"
    clauses = [
        Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                   amount=p, contract_id=contract)),
        Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X", counterparty="Y",
                                   amount=repayment, contract_id=contract), deadline=t),
    ]
    claim = AfterEvent(ActionTemplate(kind=ActionKind.JUSTIFY_ENTITLEMENT, actor="Z"))
    if guarantee == "pledge-of-goods":
        clauses.append(Clause("X", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="X",
                                                  counterparty="Y", good_id="collateral")))
        clauses.append(Clause("Y", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Y",
                                                  counterparty="X", good_id="collateral"),
                              trigger=AfterEvent(ActionTemplate(kind=ActionKind.PAY,
                                                                actor="X", counterparty="Y",
                                                                amount=repayment))))
    elif guarantee == "goods-on-default":
        clauses.append(Clause("X", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="X",
                                                  counterparty="Y", good_id="collateral"),
                              trigger=claim))
    else:
        clauses.append(Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X",
                                                  counterparty="Y"), trigger=claim))
    goods = []
    if guarantee != "income-share":
        goods.append(Good(good_id="collateral", kind="valuables", owner="X",
                          market_value=collateral_value))
    world = make_world(
        agents=[Agent("X"), Agent("Y"), Agent("Z", Role.BROKER)],
        balances={"X": i, "Y": p},
        goods=goods,
    )
    terms = RepaymentTerms(principal=p, rate=total_div(i, p), fixed_cost=ZERO, period=t)
    pledge = guarantee == "pledge-of-goods"
    x_deal: tuple = ()
    if pledge:
        x_deal += (do(ActionKind.SPOT_SALE, "X", counterparty="Y", amount=ZERO,
                      good_id="collateral", reason=ref(contract)),)
    x_deal += (
        wait(kind=ActionKind.PAY, actor="Y", counterparty="X", amount=p),
        do(ActionKind.ACKNOWLEDGE_RECEIPT, "X", counterparty="Y", amount=p,
           reason=ref(contract)),
        wait_day(t),
        do(ActionKind.PAY, "X", counterparty="Y", amount=repayment, reason=ref(contract)),
    )
    y_deal: tuple = (
        do(ActionKind.SIGN_CONTRACT, "Y", contract_id=contract),
        do(ActionKind.INFORM, "Y", counterparty="Z", message="signed", reason=ref(contract)),
    )
    if pledge:
        y_deal += (wait(kind=ActionKind.SPOT_SALE, actor="X", counterparty="Y",
                        good_id="collateral"),)
    else:
        y_deal += (wait(kind=ActionKind.INFORM, actor="Z", counterparty="Y",
                        message="payment details"),)
    y_deal += (
        do(ActionKind.PAY, "Y", counterparty="X", amount=p, reason=ref(contract)),
        wait(kind=ActionKind.PAY, actor="X", counterparty="Y", amount=repayment),
        do(ActionKind.ACKNOWLEDGE_RECEIPT, "Y", counterparty="X", amount=repayment,
           reason=ref(contract)),
    )
    if pledge:
        y_deal += (do(ActionKind.SPOT_SALE, "Y", counterparty="X", amount=ZERO,
                      good_id="collateral", reason=ref(contract)),)
    plans = (
        Plan("X", (
            wait(kind=ActionKind.PREPARE_CONTRACT, contract_id=contract),
            do(ActionKind.SIGN_CONTRACT, "X", contract_id=contract),
            do(ActionKind.INFORM, "X", counterparty="Z", message="signed",
               reason=ref(contract)),
            wait(kind=ActionKind.INFORM, actor="Z", counterparty="X"),
            Branch(ContractInStage(contract, Stage.ACTIVE), x_deal, (Stop(),)),
        )),
        Plan("Y", (
            wait(kind=ActionKind.INFORM, actor="Z", counterparty="Y", message="proposal"),
            Branch(ChoiceIs("lender_willing"), y_deal,
                   (do(ActionKind.INFORM, "Y", counterparty="Z", message="declined",
                       reason=ref(contract)), Stop())),
        )),
        Plan("Z", (
            do(ActionKind.PREPARE_CONTRACT, "Z", contract_id=contract,
               parties=("X", "Y"), clauses=tuple(clauses), terms=terms),
            wait(kind=ActionKind.INFORM, actor="X", counterparty="Z"),
            do(ActionKind.INFORM, "Z", counterparty="Y", message="proposal",
               reason=ref(contract)),
            wait(kind=ActionKind.INFORM, actor="Y", counterparty="Z"),
            Branch(ContractInStage(contract, Stage.ACTIVE),
                   (do(ActionKind.INFORM, "Z", counterparty="Y", message="payment details",
                       reason=ref(contract)),
                    do(ActionKind.INFORM, "Z", counterparty="X", message="deal",
                       reason=ref(contract))),
                   (do(ActionKind.INFORM, "Z", counterparty="X", message="no deal",
                       reason=ref(contract)),)),
        )),
    )
    return ScenarioInstance(
        name="brokered_loan", params=params, world=world, plans=plans,
        principals=("X", "Y"), horizon=t,
        choice_points={"lender_willing": params["lender_willing"]},
        expected={"CONVENTIONAL": "halal"},
    )


def _build_unethical(params: Mapping[str, object]) -> ScenarioInstance:
    """The annotated one-offs: a rain-contingent promise, a used-car sale
    with hidden defects, a coerced payment, and the interest loan pair whose
    justification declares the proportional increment.
    """
    variant = params["variant"]
    p, c, i = params["loan_p"], params["loan_c"], params["loan_i"]
    t = params["t"]
    _require_positive("loan_p", p)
    _require_nonnegative("loan_c", c)
    _require_nonnegative("loan_i", i)
    if t < 1:
        raise ParameterViolation("t must be at least one day")
    variants = ("rain_promise", "used_car_sale", "extortion", "interest_loan", "all")
    if variant not in variants:
        raise ParameterViolation(f"variant must be one of {variants}")
    wanted = set(variants[:-1]) if variant == "all" else {variant}

    car_price = Quantity(30)
    extort = Quantity(5)
    loan_pair = "loan-pair"
    x_steps: list = []
    y_steps: list = []
    goods = []
    if "rain_promise" in wanted:
        x_steps.append(do(
            ActionKind.PROMISE_PAY, "X", counterparty="Y", amount=Quantity(10),
            due_date=2, contract_id="rain-promise",
            message="payable only if it rains at L on day 0",
            tags=frozenset({EthicalTag.CONTINGENT_ON_CHANCE})))
    if "used_car_sale" in wanted:
        goods.append(Good(good_id="used-car", kind="automobile", owner="X",
                          market_value=car_price))
        x_steps.append(do(
            ActionKind.SPOT_SALE, "X", counterparty="Y", amount=car_price,
            good_id="used-car", message="known defects not revealed",
            tags=frozenset({EthicalTag.UNDISCLOSED_INFORMATION})))
    if "extortion" in wanted:
        x_steps.append(do(
            ActionKind.ASSERT_EXPECTATION, "X", counterparty="Y", amount=extort,
            message="possessions damaged unless paid for an unwanted service",
            tags=frozenset({EthicalTag.COERCION})))
        y_steps.append(wait(kind=ActionKind.ASSERT_EXPECTATION, actor="X"))
        y_steps.append(do(ActionKind.PAY, "Y", counterparty="X", amount=extort))
    if "interest_loan" in wanted:
        y_steps.append(do(
            ActionKind.PROMISE_PAY, "Y", counterparty="X", amount=p + i, due_date=t,
            contract_id=loan_pair,
            message="repay p + i after receiving p - c, i proportional to p",
            terms=RepaymentTerms(principal=p, rate=total_div(i, p), fixed_cost=c,
                                 period=t)))
        x_steps.extend([
            wait(kind=ActionKind.PROMISE_PAY, actor="Y"),
            do(ActionKind.PAY, "X", counterparty="Y", amount=p - c, reason=ref(loan_pair)),
            do(ActionKind.JUSTIFY_ENTITLEMENT, "X", counterparty="Y", amount=p + i,
               reason=ref(loan_pair, text="opportunity costs of lending p over the period")),
        ])
        y_steps.extend([
            wait(kind=ActionKind.PAY, actor="X", counterparty="Y", amount=p - c),
            wait_day(t),
            do(ActionKind.PAY, "Y", counterparty="X", amount=p + i, reason=ref(loan_pair)),
        ])
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": p - c if "interest_loan" in wanted else ZERO,
                  "Y": car_price + extort + i + c},
        goods=goods,
    )
    plans = (Plan("X", tuple(x_steps)), Plan("Y", tuple(y_steps)))
    return ScenarioInstance(
        name="unethical_examples", params=params, world=world, plans=plans,
        principals=("X", "Y"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "haram"},
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _q(n: int, d: int = 1) -> Quantity:
    return Quantity(n, d)


_CATALOGUE: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="loan_with_interest", family="loan",
        summary="Two linked transfers: p - c out now, p + i + c2 back at day t.",
        params=(ParamSpec("p", _q(100), "principal"),
                ParamSpec("c", _q(0), "lender's provision cost"),
                ParamSpec("c2", _q(0), "additional costs charged back"),
                ParamSpec("i", _q(10), "increment over the principal"),
                ParamSpec("t", 365, "loan period in days")),
        build=_build_loan_with_interest,
    ),
    ScenarioSpec(
        name="savings_account_with_interest", family="loan",
        summary="Deposit p now; the bank repays p - c + q*p after t days.",
        params=(ParamSpec("p", _q(1000), "principal deposited"),
                ParamSpec("c", _q(2), "fixed transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deposit period in days")),
        build=_build_savings_account,
    ),
    ScenarioSpec(
        name="ina_two_party", family="sale-repurchase",
        summary="Spot sale at p, credit buy-back at p + i: a synthesized loan.",
        params=(ParamSpec("p", _q(100), "spot price"),
                ParamSpec("i", _q(10), "credit markup"),
                ParamSpec("t", 365, "credit period in days"),
                ParamSpec("single_contract", False, "package both sales in one contract")),
        build=_build_ina,
    ),
    ScenarioSpec(
        name="tawarruq_classic", family="tawarruq",
        summary="Three-party asset round trip synthesizing a loan of p at markup i.",
        params=(ParamSpec("p", _q(100), "asset spot price"),
                ParamSpec("i", _q(10), "credit markup"),
                ParamSpec("t", 365, "credit period in days")),
        build=_build_tawarruq_classic,
    ),
    ScenarioSpec(
        name="contractus_trinus", family="triple-contract",
        summary="Partnership + fixed profit sale + principal insurance.",
        params=(ParamSpec("invest", _q(100), "invested principal"),
                ParamSpec("profit_fee", _q(15), "fixed price of the profit share"),
                ParamSpec("premium", _q(5), "insurance premium on the principal"),
                ParamSpec("t", 365, "partnership period in days")),
        build=_build_contractus_trinus,
    ),
    ScenarioSpec(
        name="murabaha", family="cost-plus",
        summary="Bank buys G and resells it on credit at price + markup.",
        params=(ParamSpec("price", _q(100), "bank's purchase price for G"),
                ParamSpec("markup", _q(10), "cost-plus margin"),
                ParamSpec("fee", _q(2), "mediation compensation"),
                ParamSpec("t", 365, "credit period in days")),
        build=_build_murabaha,
    ),
    ScenarioSpec(
        name="tawarruq_pi", family="tawarruq",
        summary="Idealized monetization: portion worth exactly p, four trades.",
        params=(ParamSpec("p", _q(1000), "savings to place"),
                ParamSpec("c", _q(2), "transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deferral period in days"),
                ParamSpec("block", _q(10), "good block size"),
                ParamSpec("value_drift", _q(0),
                          "revaluation of the portion at buy-back; constant value assumed")),
        build=_build_tawarruq_pi,
    ),
    ScenarioSpec(
        name="tawarruq_pi_prime", family="tawarruq",
        summary="Block-granular monetization: portion costs the smallest block multiple >= p.",
        params=(ParamSpec("p", _q(1000), "savings to place"),
                ParamSpec("c", _q(2), "transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deferral period in days"),
                ParamSpec("block", _q(30), "good block size"),
                ParamSpec("value_drift", _q(0),
                          "revaluation of the portion at buy-back; constant value assumed")),
        build=_build_tawarruq_pi_prime,
    ),
    ScenarioSpec(
        name="tawarruq_pi_double_prime", family="tawarruq",
        summary="Contract-backed monetization: C1, C2, C3 signed, informs reference them.",
        params=(ParamSpec("p", _q(1000), "savings to place"),
                ParamSpec("c", _q(2), "transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deferral period in days"),
                ParamSpec("block", _q(30), "good block size"),
                ParamSpec("value_drift", _q(0),
                          "revaluation of the portion at buy-back; constant value assumed")),
        build=_build_tawarruq_pi_double_prime,
    ),
    ScenarioSpec(
        name="tawarruq_pi_triple_prime", family="tawarruq",
        summary="Preparation-ordered monetization: prepare all contracts, sign C3, C2, C1.",
        params=(ParamSpec("p", _q(1000), "savings to place"),
                ParamSpec("c", _q(2), "transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deferral period in days"),
                ParamSpec("block", _q(30), "good block size"),
                ParamSpec("value_drift", _q(0),
                          "revaluation of the portion at buy-back; constant value assumed")),
        build=_build_tawarruq_pi_triple_prime,
    ),
    ScenarioSpec(
        name="tawarruq_single_contract", family="tawarruq",
        summary="Monetization packaged in a single contract with three signatures.",
        params=(ParamSpec("p", _q(1000), "savings to place"),
                ParamSpec("c", _q(2), "transaction cost"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal"),
                ParamSpec("t", 365, "deferral period in days"),
                ParamSpec("block", _q(30), "good block size"),
                ParamSpec("value_drift", _q(0),
                          "revaluation of the portion at buy-back; constant value assumed")),
        build=_build_tawarruq_single_contract,
    ),
    ScenarioSpec(
        name="brokered_loan", family="loan",
        summary="Broker-mediated loan with willingness choice point and guarantee variants.",
        params=(ParamSpec("p", _q(100), "principal"),
                ParamSpec("i", _q(0), "increment over the principal"),
                ParamSpec("t", 365, "loan period in days"),
                ParamSpec("guarantee", "pledge-of-goods",
                          "pledge-of-goods | goods-on-default | income-share"),
                ParamSpec("collateral_value", _q(150), "market value of the collateral"),
                ParamSpec("lender_willing", True, "declared willingness choice point")),
        build=_build_brokered_loan,
    ),
    ScenarioSpec(
        name="unethical_examples", family="annotated",
        summary="Chance-contingent promise, hidden-defect sale, coercion, interest pair.",
        params=(ParamSpec("variant", "all",
                          "rain_promise | used_car_sale | extortion | interest_loan | all"),
                ParamSpec("loan_p", _q(100), "loan-pair principal"),
                ParamSpec("loan_c", _q(2), "loan-pair provision cost"),
                ParamSpec("loan_i", _q(10), "loan-pair increment"),
                ParamSpec("t", 365, "loan-pair period in days")),
        build=_build_unethical,
    ),
)

_REGISTRY: dict[str, ScenarioSpec] = {spec.name: spec for spec in _CATALOGUE}
_ALIASES = {
    "pi": "tawarruq_pi",
    "pi_prime": "tawarruq_pi_prime",
    "pi_double_prime": "tawarruq_pi_double_prime",
    "pi_triple_prime": "tawarruq_pi_triple_prime",
}


def scenario_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in _CATALOGUE)


def get_spec(name: str, extra: Mapping[str, ScenarioSpec] | None = None) -> ScenarioSpec:
    canonical = _ALIASES.get(name, name)
    if extra and canonical in extra:
        return extra[canonical]
    spec = _REGISTRY.get(canonical)
    if spec is None:
        known = sorted(set(scenario_names()) | set(extra or ()))
        raise UnknownScenario(f"unknown scenario {name!r}; known: {known}")
    return spec


def instantiate(
    name: str,
    params: Mapping[str, object] | None = None,
    extra: Mapping[str, ScenarioSpec] | None = None,
) -> ScenarioInstance:
    """Build a scenario instance; deterministic for given (name, params)."""
    spec = get_spec(name, extra)
    resolved = _resolve(spec.params, params or {})
    instance = spec.build(resolved)
    expected = dict(spec.expected) or dict(instance.expected)
    return ScenarioInstance(
        name=spec.name, params=resolved, world=instance.world, plans=instance.plans,
        principals=instance.principals, horizon=instance.horizon,
        choice_points=instance.choice_points, expected=expected,
    )


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def instance_to_dict(instance: ScenarioInstance) -> dict:
    world = instance.world
    return {
        "name": instance.name,
        "agents": [{"name": a.name, "role": a.role.value}
                   for a in sorted(world.agents.values(), key=lambda a: a.name)],
        "balances": {name: str(world.accounts[name]) for name in sorted(world.accounts)},
        "goods": [good_to_dict(world.goods[g]) for g in sorted(world.goods)],
        "contracts": [contract_to_dict(world.contracts[c]) for c in sorted(world.contracts)],
        "overdraft_allowed": world.overdraft_allowed,
        "plans": [plan_to_dict(p) for p in instance.plans],
        "principals": list(instance.principals),
        "horizon": instance.horizon,
        "choice_points": dict(instance.choice_points),
    }


def instance_from_dict(data: Mapping) -> ScenarioInstance:
    world = make_world(
        agents=[Agent(a["name"], Role(a.get("role", "person")))
                for a in data.get("agents", [])],
        balances={name: parse_quantity(value)
                  for name, value in data.get("balances", {}).items()},
        goods=[good_from_dict(g) for g in data.get("goods", [])],
        contracts=[contract_from_dict(c) for c in data.get("contracts", [])],
        overdraft_allowed=bool(data.get("overdraft_allowed", False)),
    )
    plans = tuple(plan_from_dict(p) for p in data.get("plans", []))
    return ScenarioInstance(
        name=data["name"],
        params={},
        world=world,
        plans=plans,
        principals=tuple(data.get("principals", ())),
        horizon=int(data.get("horizon", 3650)),
        choice_points={k: bool(v) for k, v in data.get("choice_points", {}).items()},
        expected={},
    )


def _spec_for_instance(data: Mapping) -> ScenarioSpec:
    frozen = dict(data)

    def build(params: Mapping[str, object]) -> ScenarioInstance:
        if params:
            raise ParameterViolation(
                f"file scenario {frozen['name']!r} takes no parameters")
        try:
            return instance_from_dict(frozen)
        except ValueError as exc:
            raise ValueError(f"file scenario {frozen['name']!r}: {exc}") from None

    return ScenarioSpec(
        name=frozen["name"],
        family=frozen.get("family", "custom"),
        summary=frozen.get("summary", "user-defined scenario"),
        params=(),
        build=build,
    )


def load_scenario_file(path: str) -> tuple[dict[str, ScenarioSpec], list[dict]]:
    """Load user scenarios (and custom legal positions) from a JSON file.

    Returns (scenario specs by name, raw position definitions); position
    dicts are interpreted by the legality module.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"scenario file {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path!r}: expected a JSON object at the top level, "
                         f"got {type(data).__name__}")
    scenarios, positions = data.get("scenarios", []), data.get("positions", [])
    for key, entries in (("scenarios", scenarios), ("positions", positions)):
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError(f"scenario file {path!r}: {key!r} must be a list of JSON objects")
    specs: dict[str, ScenarioSpec] = {}
    for entry in scenarios:
        spec = _spec_for_instance(entry)
        specs[spec.name] = spec
    return specs, positions
