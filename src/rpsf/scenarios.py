"""Catalogue of built-in financial products, instantiable into worlds + plans.

Each builder reproduces its product's step list exactly: the two-transfer
loan, the savings account repaying principal - cost + rate * principal, the
two-party same-item sale-repurchase (single- or separate-contract), the
three-party monetization round trip in four refinement stages (idealized,
block-granular, contract-backed, preparation-ordered), the packaged
single-contract variant, the cost-plus resale through a bank, the medieval
triple contract, the broker-mediated loan with guarantee variants, and a
set of ethically annotated one-offs.

Every builder writes its product as a sequence of basic products - a
contract handshake, payments, spot and credit sales, promises to buy,
informs - each a ``Part`` of (agent, step) pairs that ``compose`` files
into the agents' plans; an agent that waits for another's action names it
with ``sees``, so each cross-agent event is stated once.

Scenario instantiation is deterministic and pure; instances are immutable.
Custom scenarios can be loaded from JSON files mirroring the same shapes
(see ``load_scenario_file``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping, Sequence

from .engine import Branch, Do, Plan, PlanStep, Stop, WaitFor
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
    codec_row,
    make_world,
    value_from_dict,
    value_to_dict,
)


class UnknownScenario(Exception):
    pass


class ParameterViolation(Exception):
    pass


@dataclass(frozen=True)
class ParamSpec:
    """A catalogue parameter. ``check`` bounds a quantity: "positive",
    "nonnegative", or "" for no bound; an integer is a period in days and
    at least one."""

    name: str
    default: object
    doc: str = ""
    check: str = ""


@dataclass(frozen=True)
class ScenarioSpec:
    """A catalogue entry: name, classification, parameters and builder."""

    name: str
    family: str
    summary: str
    params: tuple[ParamSpec, ...]
    build: Callable[[Mapping[str, object]], "ScenarioInstance"]

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
# basic products
# ---------------------------------------------------------------------------
# Each basic product returns a Part: the (agent, step) pairs it adds to the
# plans, in order. A built-in is a sequence of parts; ``compose`` files each
# step under its agent. An agent that must see another's action first waits
# for it through ``sees``, so every cross-agent event is stated once.

Part = list[tuple[str, PlanStep]]


def compose(agents: Sequence[str], *parts: Part) -> tuple[Plan, ...]:
    """One plan per agent, in the order given, holding that agent's steps of
    ``parts`` in order; an agent without steps gets an empty plan."""
    steps: dict[str, list[PlanStep]] = {agent: [] for agent in agents}
    for part in parts:
        for agent, step in part:
            steps[agent].append(step)
    return tuple(Plan(agent, tuple(agent_steps)) for agent, agent_steps in steps.items())


def act(actor: str, kind: ActionKind, cite: str | None = None, **fields) -> Part:
    """One action; ``cite`` is the contract given as its reason."""
    if cite is not None:
        fields["reason"] = Reason(contract_ids=(cite,))
    return [(actor, Do(Action(kind=kind, actor=actor, **fields)))]


def wait(agent: str, **pattern) -> Part:
    """The agent waits for an event matching ``pattern``; builders write one
    only where no action defines the wait (``sees`` derives the rest)."""
    return [(agent, WaitFor(AfterEvent(ActionTemplate(**pattern))))]


# the fields that identify an awaited action, by kind; other kinds: the actor
_SEEN_BY = {
    ActionKind.PAY: ("actor", "counterparty", "amount"),
    ActionKind.SPOT_SALE: ("actor", "counterparty", "good_id"),
    ActionKind.BUY_ON_CREDIT: ("actor", "good_id"),
    ActionKind.INFORM: ("actor", "counterparty"),
    ActionKind.SIGN_CONTRACT: ("actor", "contract_id"),
    ActionKind.PREPARE_CONTRACT: ("contract_id",),
    ActionKind.REQUEST_PREPARE_GOOD: ("counterparty",),
}


def sees(agent: str, part: Part) -> Part:
    """The agent waits for the first action of ``part``."""
    action = next(step.action for _, step in part if isinstance(step, Do))
    fields = _SEEN_BY.get(action.kind, ("actor",))
    return wait(agent, kind=action.kind, **{name: getattr(action, name) for name in fields})


def _signs(agent: str, cid: str) -> Part:
    return act(agent, ActionKind.SIGN_CONTRACT, contract_id=cid)


def contract(cid: str, preparer: str, signers: Sequence[str], clauses: tuple[Clause, ...],
             terms: RepaymentTerms | None = None) -> Part:
    """The handshake: the preparer drafts the contract between the signers,
    who sign in the order given. The first signer waits for the draft unless
    it is the preparer, each later signer waits for the signature before its
    own, and the preparer waits for the last signature unless it gave it."""
    part = seen = act(preparer, ActionKind.PREPARE_CONTRACT, contract_id=cid,
                      parties=tuple(signers), clauses=clauses, terms=terms)
    for n, signer in enumerate(signers):
        if n or signer != preparer:
            part = part + sees(signer, seen)
        seen = _signs(signer, cid)
        part = part + seen
    return part if signers[-1] == preparer else part + sees(preparer, seen)


def payment(payer: str, payee: str, amount: Quantity, cite: str | None,
            day: int | None = None, ack: bool = False) -> Part:
    """``payer`` pays ``amount`` to ``payee``, waiting for ``day`` when one is
    given; with ``ack`` the payee waits for the payment and acknowledges it."""
    pay = act(payer, ActionKind.PAY, cite, counterparty=payee, amount=amount)
    part = pay if day is None else [(payer, WaitFor(ByDate(day)))] + pay
    if ack:
        part = part + sees(payee, pay) + act(payee, ActionKind.ACKNOWLEDGE_RECEIPT, cite,
                                             counterparty=payer, amount=amount)
    return part


def spot_sale(seller: str, buyer: str, price: Quantity, good: str, cite: str | None,
              ack: bool = False) -> Part:
    """``seller`` sells ``good`` to ``buyer`` for cash now; with ``ack`` the
    seller acknowledges the price."""
    part = act(seller, ActionKind.SPOT_SALE, cite, counterparty=buyer, amount=price, good_id=good)
    if ack:
        part = part + act(seller, ActionKind.ACKNOWLEDGE_RECEIPT, cite, counterparty=buyer,
                          amount=price)
    return part


def credit_sale(buyer: str, seller: str, price: Quantity, good: str, due: int, settle: str,
                cite: str | None, down: Quantity = ZERO) -> Part:
    """``buyer`` buys ``good`` from ``seller`` at ``price``: ``down`` now and
    the rest due on day ``due`` under the contract ``settle``, settled by a
    later ``payment(..., day=due, ack=True)``."""
    return act(buyer, ActionKind.BUY_ON_CREDIT, cite, counterparty=seller, amount=price,
               down_payment=down, due_date=due, good_id=good, contract_id=settle)


def promise_to_buy(buyer: str, seller: str, price: Quantity, good: str, deal: str,
                   on_credit: bool = False, trigger: Trigger = Always()) -> Part:
    """Under the contract ``deal``, ``buyer`` promises to buy ``good`` from
    ``seller`` at ``price`` once ``trigger`` fires."""
    return act(buyer, ActionKind.PROMISE_BUY_ON_CONDITION, counterparty=seller, amount=price,
               good_id=good, on_credit=on_credit, trigger=trigger, contract_id=deal)


def inform(sender: str, receiver: str, message: str, cite: str) -> Part:
    """``sender`` tells ``receiver`` ``message``, citing the contract ``cite``."""
    return act(sender, ActionKind.INFORM, cite, counterparty=receiver, message=message)


def _pays(payer: str, payee: str, amount: Quantity, cid: str,
          deadline: int | None = None) -> Clause:
    """The clause obliging ``payer`` to pay ``amount`` to ``payee`` under ``cid``."""
    return Clause(payer, ActionTemplate(kind=ActionKind.PAY, actor=payer, counterparty=payee,
                                        amount=amount, contract_id=cid), deadline=deadline)


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
    try:
        days = int(value)
    except ValueError:
        raise ParameterViolation(
            f"parameter {name} must be a whole number of days, got {value!r}") from None
    if days < 1:
        raise ParameterViolation(f"parameter {name} must be at least one day, got {days}")
    return days


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _as_flag(name: str, value: object) -> bool:
    if isinstance(value, str):
        flag = _BOOLEANS.get(value.lower())
        if flag is None:
            raise ParameterViolation(
                f"parameter {name} must be true or false (or 1/0, yes/no), got {value!r}")
        return flag
    return bool(value)


_CHECKS = {"positive": lambda q: q > ZERO, "nonnegative": lambda q: q >= ZERO}


def _resolve(spec_params: Sequence[ParamSpec], overrides: Mapping[str, object]) -> dict[str, object]:
    known = {p.name for p in spec_params}
    for name in overrides:
        if name not in known:
            raise ParameterViolation(f"unknown parameter {name!r} (accepts: {sorted(known)})")
    resolved: dict[str, object] = {}
    for p in spec_params:
        value = overrides.get(p.name, p.default)
        if isinstance(p.default, Quantity):
            value = resolved[p.name] = _as_quantity(p.name, value)
            if p.check and not _CHECKS[p.check](value):
                raise ParameterViolation(f"parameter {p.name} must be {p.check}, got {value}")
        elif isinstance(p.default, bool):
            resolved[p.name] = _as_flag(p.name, value)
        elif isinstance(p.default, int):
            resolved[p.name] = _as_duration(p.name, value)
        else:
            resolved[p.name] = str(value)
    return resolved


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
    if p - c < ZERO:
        raise ParameterViolation("costs c exceed the principal")
    out_leg = p - c
    back_leg = p + i + c2
    loan = "loan"
    terms = RepaymentTerms(principal=p, rate=total_div(i, p), fixed_cost=c, period=t)
    clauses = (_pays("X", "Y", out_leg, loan, deadline=0),
               _pays("Y", "X", back_leg, loan, deadline=t))
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": out_leg, "Y": i + c + c2},
    )
    lent = payment("X", "Y", out_leg, loan)
    plans = compose(("X", "Y"), contract(loan, "X", ("X", "Y"), clauses, terms=terms),
                    lent, sees("Y", lent), payment("Y", "X", back_leg, loan, day=t, ack=True))
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
    terms = RepaymentTerms(principal=p, rate=q, fixed_cost=c, period=t)
    repayment = terms.repayment()
    if repayment < ZERO:
        raise ParameterViolation("repayment p - c + q*p is negative")
    savings = "savings"
    clauses = (_pays("X", "Y", p, savings, deadline=0),
               _pays("Y", "X", repayment, savings, deadline=t))
    world = make_world(
        agents=[Agent("X"), Agent("Y", Role.BANK), Agent("Z", Role.BROKER)],
        balances={"X": p, "Y": q * p},
    )
    schedule = inform("Z", "X", "repayment schedule", savings)
    plans = compose(("X", "Y", "Z"), contract(savings, "Z", ("X", "Y"), clauses, terms=terms),
                    schedule, sees("X", schedule), payment("X", "Y", p, savings, ack=True),
                    payment("Y", "X", repayment, savings, day=t, ack=True))
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
    credit_price = p + i
    settle = "ina-settle"
    good = Good(good_id="S", kind="asset", owner="Y", market_value=p,
                block_size=Quantity(1, p.den))
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": p, "Y": i},
        goods=[good],
    )
    if single:
        spot_deal = credit_deal = "ina-contract"
        clauses = (
            Clause("Y", ActionTemplate(kind=ActionKind.SPOT_SALE, actor="Y",
                                       counterparty="X", amount=p, good_id="S"),
                   deadline=0),
            Clause("Y", ActionTemplate(kind=ActionKind.BUY_ON_CREDIT, actor="Y",
                                       counterparty="X", amount=credit_price, good_id="S")),
            _pays("Y", "X", credit_price, settle, deadline=t),
        )
        promises = contract(spot_deal, "Y", ("X", "Y"), clauses)
    else:
        spot_deal, credit_deal = "spot-deal", "repurchase-deal"
        x_promise = promise_to_buy("X", "Y", p, "S", spot_deal)
        promises = x_promise + sees("Y", x_promise) + promise_to_buy(
            "Y", "X", credit_price, "S", credit_deal, on_credit=True,
            trigger=AfterEvent(ActionTemplate(kind=ActionKind.SPOT_SALE, good_id="S")))
    plans = compose(("X", "Y"), promises, spot_sale("Y", "X", p, "S", spot_deal),
                    credit_sale("Y", "X", credit_price, "S", t, settle, credit_deal),
                    payment("Y", "X", credit_price, settle, day=t, ack=True))
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
    credit_price = p + i
    czx, cxy, cyz, settle = "czx", "cxy", "cyz", "credit-settle"
    world = make_world(
        agents=[Agent("X"), Agent("Y"), Agent("Z", Role.COMPANY)],
        balances={"X": p, "Y": i},
        goods=[Good(good_id="S", kind="asset", owner="Z", market_value=p,
                    block_size=Quantity(1, p.den))],
    )
    x_promise = promise_to_buy("X", "Z", p, "S", czx)
    z_sale = spot_sale("Z", "X", p, "S", czx, ack=True)
    y_buys = credit_sale("Y", "X", credit_price, "S", t, settle, cxy)
    z_promise = promise_to_buy("Z", "Y", p, "S", cyz)
    plans = compose(("X", "Y", "Z"), x_promise, sees("Z", x_promise), z_sale, sees("Y", z_sale),
                    promise_to_buy("Y", "X", credit_price, "S", cxy, on_credit=True), y_buys,
                    sees("Z", y_buys), z_promise, sees("Y", z_promise),
                    spot_sale("Y", "Z", p, "S", cyz, ack=True),
                    payment("Y", "X", credit_price, settle, day=t, ack=True))
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
    partnership, profit_sale, insurance = "partnership", "profit-sale", "insurance"
    world = make_world(
        agents=[Agent("A"), Agent("B")],
        balances={"A": invest + premium, "B": fee},
    )
    clauses = (_pays("A", "B", invest, partnership, deadline=0),)
    insured = act("B", ActionKind.PROMISE_INSURANCE_PAYOUT, partnership, counterparty="A",
                  amount=invest, down_payment=premium, due_date=t, contract_id=insurance)
    premium_paid = payment("A", "B", premium, insurance)
    plans = compose(
        ("A", "B"), contract(partnership, "A", ("A", "B"), clauses),
        act("B", ActionKind.PROMISE_PAY, partnership, counterparty="A", amount=fee, due_date=t,
            contract_id=profit_sale),
        insured, sees("A", insured), payment("A", "B", invest, partnership), premium_paid,
        sees("B", premium_paid), payment("B", "A", fee, profit_sale, day=t),
        payment("B", "A", invest, insurance, ack=True))
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
    resale = price + markup
    promise, settle = "murabaha-promise", "murabaha-settle"
    world = make_world(
        agents=[Agent("A"), Agent("B", Role.COMPANY), Agent("BANK", Role.BANK)],
        balances={"A": fee + resale, "BANK": price},
        goods=[Good(good_id="G", kind="good", owner="B", market_value=price,
                    block_size=Quantity(1, price.den))],
    )
    fee_paid = payment("A", "BANK", fee, promise)
    bank_buys = spot_sale("B", "BANK", price, "G", None)
    plans = compose(
        ("A", "B", "BANK"),
        promise_to_buy("A", "BANK", resale, "G", promise, on_credit=True,
                       trigger=AfterEvent(ActionTemplate(kind=ActionKind.SPOT_SALE,
                                                         counterparty="BANK", good_id="G"))),
        fee_paid, sees("B", fee_paid), bank_buys, sees("A", bank_buys),
        credit_sale("A", "BANK", resale, "G", t, settle, promise),
        payment("A", "BANK", resale, settle, day=t, ack=True))
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


def _build_tawarruq_pi(params: Mapping[str, object], granular: bool) -> ScenarioInstance:
    """Four-step monetization: request, preparation, spot purchase of the
    portion, credit sale at p - c + q*p due at day t, spot buy-back at
    p - c/2.

    Idealized (not ``granular``): the portion is worth exactly p, which must
    be a whole number of blocks, and X's flows equal the savings-account
    profile. Block-granular: the portion costs p', the smallest block
    multiple at or above p, and the credit sale splits payment: p' - p
    immediately and p - c + q*p at day t, so X's day-0 net is exactly -p
    despite paying p'.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=granular)
    settle = "pi-settle"
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    request = act("X", ActionKind.REQUEST_PREPARE_GOOD, counterparty="Z", good_id="G",
                  good_spec=spec)
    z_sale = spot_sale("Z", "X", portion, "G", None)
    plans = compose(("X", "Y", "Z"), request, sees("Z", request),
                    act("Z", ActionKind.PREPARE_GOOD, good_id="G", good_spec=spec), z_sale,
                    sees("Y", z_sale),
                    credit_sale("Y", "X", credit_total, "G", t, settle, None, down=down),
                    spot_sale("Y", "Z", buyback, "G", None),
                    payment("Y", "X", deferred, settle, day=t, ack=True))
    return ScenarioInstance(
        name="tawarruq_pi_prime" if granular else "tawarruq_pi", params=params,
        world=world, plans=plans, principals=("X", "Y", "Z"), horizon=t,
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


def _build_contract_backed(params: Mapping[str, object], name: str, contracts: Sequence[str],
                           heads: Callable, expected: Mapping[str, str]) -> ScenarioInstance:
    """Block-granular monetization with contracts behind the trades.

    ``heads(cl1, cl2, cl3)`` is the part that prepares and signs the
    contracts holding the three clauses; the request, the preparation, the
    informs and the three trades follow, citing ``contracts``, the contract
    of each clause in turn.
    """
    p, c, i, t, block, portion, credit_total, down, deferred, buyback = \
        _tawarruq_prices(params, granular=True)
    spec = GoodSpec(kind="gold", market_value=portion, block_size=block)
    world = _monetization_agents(i, down, endow_x=portion,
                                 drift=params.get("value_drift", ZERO))
    c1, c2, c3 = contracts
    settle = "pi-settle"
    request = act("X", ActionKind.REQUEST_PREPARE_GOOD, c1, counterparty="Z", good_id="G",
                  good_spec=spec)
    prepared = inform("Z", "X", "prepared", c1)
    z_sale = spot_sale("Z", "X", portion, "G", c1)
    bought = inform("X", "Y", "bought", c2)
    clauses = _monetization_contracts(portion, credit_total, buyback)
    plans = compose(("X", "Y", "Z"), heads(*clauses), request, sees("Z", request),
                    act("Z", ActionKind.PREPARE_GOOD, good_id="G", good_spec=spec), prepared,
                    sees("X", prepared), z_sale, sees("X", z_sale), bought, sees("Y", bought),
                    credit_sale("Y", "X", credit_total, "G", t, settle, c2, down=down),
                    inform("Y", "Z", "bought", c3), spot_sale("Y", "Z", buyback, "G", c3),
                    payment("Y", "X", deferred, settle, day=t, ack=True))
    return ScenarioInstance(
        name=name, params=params, world=world, plans=plans,
        principals=("X", "Y", "Z"), horizon=t, expected=dict(expected),
    )


def _chained_drafts(cl1: Clause, cl2: Clause, cl3: Clause) -> tuple[Part, Part, Part]:
    """Z drafts C1 with X; X drafts C2 with Y and Y drafts C3 with Z, each
    referring to the contract before it."""
    return (act("Z", ActionKind.PREPARE_CONTRACT, contract_id="C1", parties=("X", "Z"),
                clauses=(cl1,)),
            act("X", ActionKind.PREPARE_CONTRACT, contract_id="C2", parties=("X", "Y"),
                clauses=(cl2,), references=("C1",)),
            act("Y", ActionKind.PREPARE_CONTRACT, contract_id="C3", parties=("Y", "Z"),
                clauses=(cl3,), references=("C2",)))


def _double_prime_heads(cl1: Clause, cl2: Clause, cl3: Clause) -> Part:
    """Contract-backed monetization: C1, C2, C3 signed in that order before
    any trading, each giving the next mover its assurance; informs reference
    the contracts as the trades progress.
    """
    # who signs first within each pair is left free; the contract-level
    # order C1, C2, C3 is forced by the activation waits
    d1, d2, d3 = _chained_drafts(cl1, cl2, cl3)
    return (d1 + sees("X", d1) + _signs("X", "C1") + _signs("Z", "C1")
            + sees("X", _signs("Z", "C1")) + d2 + _signs("X", "C2") + sees("Y", d2)
            + _signs("Y", "C2") + sees("Y", _signs("X", "C2")) + d3 + _signs("Y", "C3")
            + sees("Z", d3) + _signs("Z", "C3")
            + sees("X", _signs("Y", "C3")) + sees("X", _signs("Z", "C3")))


def _triple_prime_heads(cl1: Clause, cl2: Clause, cl3: Clause) -> Part:
    """Preparation-ordered monetization: all three contracts are prepared
    before any is signed, and signing runs C3, then C2, then C1 - the party
    whose assurance depends on the rest commits last.
    """
    # preparation chains through the references; every signature on Cn
    # waits for C(n+1) to be fully signed, leaving the order within each
    # signing pair free
    d1, d2, d3 = _chained_drafts(cl1, cl2, cl3)
    return (d1 + sees("X", d1) + d2 + sees("Y", d2) + d3 + sees("Z", d3)
            + _signs("Y", "C3") + _signs("Z", "C3")
            + sees("X", _signs("Y", "C3")) + sees("X", _signs("Z", "C3"))
            + sees("Y", _signs("Z", "C3")) + _signs("X", "C2") + _signs("Y", "C2")
            + sees("X", _signs("Y", "C2"))
            + sees("Z", _signs("X", "C2")) + sees("Z", _signs("Y", "C2"))
            + _signs("X", "C1") + _signs("Z", "C1") + sees("X", _signs("Z", "C1")))


def _single_contract_heads(cl1: Clause, cl2: Clause, cl3: Clause) -> Part:
    """The whole monetization packaged in one contract with three signatures.

    Removes the contract-preparation choreography; the trades follow the
    same order as the contract-backed variant.
    """
    # three signatures in any order once the package is prepared
    package = act("X", ActionKind.PREPARE_CONTRACT, contract_id="package",
                  parties=("X", "Y", "Z"), clauses=(cl1, cl2, cl3))
    return (package + _signs("X", "package") + sees("Y", package) + _signs("Y", "package")
            + sees("Z", package) + _signs("Z", "package")
            + sees("X", _signs("Y", "package")) + sees("X", _signs("Z", "package")))


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
    if guarantee not in ("pledge-of-goods", "goods-on-default", "income-share"):
        raise ParameterViolation(f"unknown guarantee variant {guarantee!r}")
    if guarantee != "income-share" and collateral_value <= p:
        raise ParameterViolation("collateral must be worth more than the principal")
    repayment = p + i
    brokered = "brokered"
    pledge = guarantee == "pledge-of-goods"
    clauses = [_pays("Y", "X", p, brokered), _pays("X", "Y", repayment, brokered, deadline=t)]
    claim = AfterEvent(ActionTemplate(kind=ActionKind.JUSTIFY_ENTITLEMENT, actor="Z"))
    if pledge:
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
    pledged = spot_sale("X", "Y", ZERO, "collateral", brokered) if pledge else []
    # Y lends once it holds the collateral, or else once Z sends the details
    y_ready = sees("Y", pledged) if pledge else wait(
        "Y", kind=ActionKind.INFORM, actor="Z", counterparty="Y", message="payment details")
    deal = inform("Z", "X", "deal", brokered)
    # the branch bodies: the deal once the contract is active (X, Z) and Y
    # is willing (Y), and the way out when it is not
    x_deal, y_deal, z_deal = compose(
        ("X", "Y", "Z"), _signs("Y", brokered), inform("Y", "Z", "signed", brokered), pledged,
        y_ready, payment("Y", "X", p, brokered, ack=True),
        payment("X", "Y", repayment, brokered, day=t, ack=True),
        spot_sale("Y", "X", ZERO, "collateral", brokered) if pledge else [],
        inform("Z", "Y", "payment details", brokered), deal)
    declined = inform("Y", "Z", "declined", brokered)
    y_out, z_out = compose(("Y", "Z"), declined, [("Y", Stop())],
                           inform("Z", "X", "no deal", brokered))
    draft = act("Z", ActionKind.PREPARE_CONTRACT, contract_id=brokered, parties=("X", "Y"),
                clauses=tuple(clauses), terms=terms)
    x_signed = inform("X", "Z", "signed", brokered)
    active = ContractInStage(brokered, Stage.ACTIVE)
    plans = compose(
        ("X", "Y", "Z"), draft, sees("X", draft), _signs("X", brokered), x_signed,
        sees("Z", x_signed), sees("X", deal), inform("Z", "Y", "proposal", brokered),
        wait("Y", kind=ActionKind.INFORM, actor="Z", counterparty="Y", message="proposal"),
        sees("Z", declined),
        [("X", Branch(active, x_deal.steps, (Stop(),))),
         ("Y", Branch(ChoiceIs("lender_willing"), y_deal.steps, y_out.steps)),
         ("Z", Branch(active, z_deal.steps, z_out.steps))])
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
    variants = ("rain_promise", "used_car_sale", "extortion", "interest_loan", "all")
    if variant not in variants:
        raise ParameterViolation(f"variant must be one of {variants}")
    wanted = set(variants[:-1]) if variant == "all" else {variant}

    car_price = Quantity(30)
    extort = Quantity(5)
    loan_pair = "loan-pair"
    parts: list[Part] = []
    goods = []
    if "rain_promise" in wanted:
        parts.append(act(
            "X", ActionKind.PROMISE_PAY, counterparty="Y", amount=Quantity(10),
            due_date=2, contract_id="rain-promise",
            message="payable only if it rains at L on day 0",
            tags=frozenset({EthicalTag.CONTINGENT_ON_CHANCE})))
    if "used_car_sale" in wanted:
        goods.append(Good(good_id="used-car", kind="automobile", owner="X",
                          market_value=car_price))
        parts.append(act(
            "X", ActionKind.SPOT_SALE, counterparty="Y", amount=car_price,
            good_id="used-car", message="known defects not revealed",
            tags=frozenset({EthicalTag.UNDISCLOSED_INFORMATION})))
    if "extortion" in wanted:
        threat = act(
            "X", ActionKind.ASSERT_EXPECTATION, counterparty="Y", amount=extort,
            message="possessions damaged unless paid for an unwanted service",
            tags=frozenset({EthicalTag.COERCION}))
        parts += [threat, sees("Y", threat), payment("Y", "X", extort, None)]
    if "interest_loan" in wanted:
        promise = act(
            "Y", ActionKind.PROMISE_PAY, counterparty="X", amount=p + i, due_date=t,
            contract_id=loan_pair,
            message="repay p + i after receiving p - c, i proportional to p",
            terms=RepaymentTerms(principal=p, rate=total_div(i, p), fixed_cost=c,
                                 period=t))
        lent = payment("X", "Y", p - c, loan_pair)
        parts += [promise, sees("X", promise), lent, sees("Y", lent),
                  act("X", ActionKind.JUSTIFY_ENTITLEMENT, counterparty="Y", amount=p + i,
                      reason=Reason(text="opportunity costs of lending p over the period",
                                    contract_ids=(loan_pair,))),
                  payment("Y", "X", p + i, loan_pair, day=t)]
    world = make_world(
        agents=[Agent("X"), Agent("Y")],
        balances={"X": p - c if "interest_loan" in wanted else ZERO,
                  "Y": car_price + extort + i + c},
        goods=goods,
    )
    return ScenarioInstance(
        name="unethical_examples", params=params, world=world, plans=compose(("X", "Y"), *parts),
        principals=("X", "Y"), horizon=t,
        expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "haram"},
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _q(n: int, d: int = 1) -> Quantity:
    return Quantity(n, d)


def _monetization_params(block: int) -> tuple[ParamSpec, ...]:
    return (ParamSpec("p", _q(1000), "savings to place", "positive"),
            ParamSpec("c", _q(2), "transaction cost", "nonnegative"),
            ParamSpec("q", _q(1, 20), "rate: increment per unit principal", "nonnegative"),
            ParamSpec("t", 365, "deferral period in days"),
            ParamSpec("block", _q(block), "good block size", "positive"),
            ParamSpec("value_drift", _q(0),
                      "revaluation of the portion at buy-back; constant value assumed"))


_CATALOGUE: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="loan_with_interest", family="loan",
        summary="Two linked transfers: p - c out now, p + i + c2 back at day t.",
        params=(ParamSpec("p", _q(100), "principal", "positive"),
                ParamSpec("c", _q(0), "lender's provision cost", "nonnegative"),
                ParamSpec("c2", _q(0), "additional costs charged back", "nonnegative"),
                ParamSpec("i", _q(10), "increment over the principal", "nonnegative"),
                ParamSpec("t", 365, "loan period in days")),
        build=_build_loan_with_interest,
    ),
    ScenarioSpec(
        name="savings_account_with_interest", family="loan",
        summary="Deposit p now; the bank repays p - c + q*p after t days.",
        params=(ParamSpec("p", _q(1000), "principal deposited", "positive"),
                ParamSpec("c", _q(2), "fixed transaction cost", "nonnegative"),
                ParamSpec("q", _q(1, 20), "rate: increment per unit principal", "nonnegative"),
                ParamSpec("t", 365, "deposit period in days")),
        build=_build_savings_account,
    ),
    ScenarioSpec(
        name="ina_two_party", family="sale-repurchase",
        summary="Spot sale at p, credit buy-back at p + i: a synthesized loan.",
        params=(ParamSpec("p", _q(100), "spot price", "positive"),
                ParamSpec("i", _q(10), "credit markup", "nonnegative"),
                ParamSpec("t", 365, "credit period in days"),
                ParamSpec("single_contract", False, "package both sales in one contract")),
        build=_build_ina,
    ),
    ScenarioSpec(
        name="tawarruq_classic", family="tawarruq",
        summary="Three-party asset round trip synthesizing a loan of p at markup i.",
        params=(ParamSpec("p", _q(100), "asset spot price", "positive"),
                ParamSpec("i", _q(10), "credit markup", "nonnegative"),
                ParamSpec("t", 365, "credit period in days")),
        build=_build_tawarruq_classic,
    ),
    ScenarioSpec(
        name="contractus_trinus", family="triple-contract",
        summary="Partnership + fixed profit sale + principal insurance.",
        params=(ParamSpec("invest", _q(100), "invested principal", "positive"),
                ParamSpec("profit_fee", _q(15), "fixed price of the profit share", "nonnegative"),
                ParamSpec("premium", _q(5), "insurance premium on the principal", "nonnegative"),
                ParamSpec("t", 365, "partnership period in days")),
        build=_build_contractus_trinus,
    ),
    ScenarioSpec(
        name="murabaha", family="cost-plus",
        summary="Bank buys G and resells it on credit at price + markup.",
        params=(ParamSpec("price", _q(100), "bank's purchase price for G", "positive"),
                ParamSpec("markup", _q(10), "cost-plus margin", "nonnegative"),
                ParamSpec("fee", _q(2), "mediation compensation", "nonnegative"),
                ParamSpec("t", 365, "credit period in days")),
        build=_build_murabaha,
    ),
    ScenarioSpec(
        name="tawarruq_pi", family="tawarruq",
        summary="Idealized monetization: portion worth exactly p, four trades.",
        params=_monetization_params(block=10),
        build=partial(_build_tawarruq_pi, granular=False),
    ),
    ScenarioSpec(
        name="tawarruq_pi_prime", family="tawarruq",
        summary="Block-granular monetization: portion costs the smallest block multiple >= p.",
        params=_monetization_params(block=30),
        build=partial(_build_tawarruq_pi, granular=True),
    ),
    ScenarioSpec(
        name="tawarruq_pi_double_prime", family="tawarruq",
        summary="Contract-backed monetization: C1, C2, C3 signed, informs reference them.",
        params=_monetization_params(block=30),
        build=partial(_build_contract_backed, name="tawarruq_pi_double_prime",
                      contracts=("C1", "C2", "C3"), heads=_double_prime_heads,
                      expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal",
                                "STRICT_FUNCTIONAL": "haram"}),
    ),
    ScenarioSpec(
        name="tawarruq_pi_triple_prime", family="tawarruq",
        summary="Preparation-ordered monetization: prepare all contracts, sign C3, C2, C1.",
        params=_monetization_params(block=30),
        build=partial(_build_contract_backed, name="tawarruq_pi_triple_prime",
                      contracts=("C1", "C2", "C3"), heads=_triple_prime_heads,
                      expected={"CONVENTIONAL": "halal", "STRICT_DESCRIPTIVE": "halal"}),
    ),
    ScenarioSpec(
        name="tawarruq_single_contract", family="tawarruq",
        summary="Monetization packaged in a single contract with three signatures.",
        params=_monetization_params(block=30),
        build=partial(_build_contract_backed, name="tawarruq_single_contract",
                      contracts=("package",) * 3, heads=_single_contract_heads,
                      expected={"CONVENTIONAL": "halal"}),
    ),
    ScenarioSpec(
        name="brokered_loan", family="loan",
        summary="Broker-mediated loan with willingness choice point and guarantee variants.",
        params=(ParamSpec("p", _q(100), "principal", "positive"),
                ParamSpec("i", _q(0), "increment over the principal", "nonnegative"),
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
                ParamSpec("loan_p", _q(100), "loan-pair principal", "positive"),
                ParamSpec("loan_c", _q(2), "loan-pair provision cost", "nonnegative"),
                ParamSpec("loan_i", _q(10), "loan-pair increment", "nonnegative"),
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
    extra = extra or {}
    spec = extra.get(name) or _REGISTRY.get(_ALIASES.get(name, name))
    if spec is None:
        known = sorted(set(scenario_names()) | set(extra))
        raise UnknownScenario(f"unknown scenario {name!r}; known: {known}")
    return spec


def instantiate(
    name: str,
    params: Mapping[str, object] | None = None,
    extra: Mapping[str, ScenarioSpec] | None = None,
) -> ScenarioInstance:
    """Build a scenario instance; deterministic for given (name, params)."""
    spec = get_spec(name, extra)
    return spec.build(_resolve(spec.params, params or {}))


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _FileScenario:
    """One scenario as a scenario file holds it: the world's levels flattened
    next to the plans, plus the catalogue text of the entry."""

    name: str
    agents: tuple[Agent, ...] = ()
    balances: dict[str, Quantity] = field(default_factory=dict)
    goods: tuple[Good, ...] = ()
    contracts: tuple[ContractRecord, ...] = ()
    overdraft_allowed: bool = False
    plans: tuple[Plan, ...] = ()
    principals: tuple[str, ...] = ()
    horizon: int = 3650
    choice_points: dict[str, bool] = field(default_factory=dict)
    family: str = "custom"
    summary: str = "user-defined scenario"

    def instance(self) -> ScenarioInstance:
        world = make_world(agents=self.agents, balances=self.balances, goods=self.goods,
                           contracts=self.contracts, overdraft_allowed=self.overdraft_allowed)
        return ScenarioInstance(
            name=self.name, params={}, world=world, plans=self.plans,
            principals=self.principals, horizon=self.horizon,
            choice_points=self.choice_points,
        )


codec_row(_FileScenario, "name agents balances goods contracts overdraft_allowed plans "
          "principals horizon choice_points family summary", omit="family summary")


def instance_to_dict(instance: ScenarioInstance) -> dict:
    world = instance.world
    return value_to_dict(_FileScenario(
        name=instance.name,
        agents=tuple(world.agents[name] for name in sorted(world.agents)),
        balances={name: world.accounts[name] for name in sorted(world.accounts)},
        goods=tuple(world.goods[g] for g in sorted(world.goods)),
        contracts=tuple(world.contracts[c] for c in sorted(world.contracts)),
        overdraft_allowed=world.overdraft_allowed,
        plans=tuple(instance.plans),
        principals=tuple(instance.principals),
        horizon=instance.horizon,
        choice_points=dict(instance.choice_points),
    ))


def instance_from_dict(data: Mapping) -> ScenarioInstance:
    return value_from_dict(_FileScenario, data).instance()


def _build_file_scenario(instance: ScenarioInstance, params: Mapping[str, object]) -> ScenarioInstance:
    if params:
        raise ParameterViolation(f"file scenario {instance.name!r} takes no parameters")
    return instance


def load_scenario_file(path: str) -> tuple[dict[str, ScenarioSpec], list[dict]]:
    """Load user scenarios (and custom legal positions) from a JSON file.

    Every scenario is decoded and checked here, whether or not a command
    uses it, and none may take the name of a built-in or of an alias.
    Returns (scenario specs by name, raw position definitions); position
    dicts are interpreted by the legality module.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read scenario file {path!r}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
        raise ValueError(f"scenario file {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"scenario file {path!r}: expected a JSON object at the top level, "
                         f"got {type(data).__name__}")
    unknown = sorted(data.keys() - {"scenarios", "positions"})
    if unknown:
        raise ValueError(f"scenario file {path!r}: unknown key {unknown[0]!r}; "
                         "known: ['positions', 'scenarios']")
    scenarios, positions = data.get("scenarios", []), data.get("positions", [])
    for key, entries in (("scenarios", scenarios), ("positions", positions)):
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError(f"scenario file {path!r}: {key!r} must be a list of JSON objects")
    specs: dict[str, ScenarioSpec] = {}
    for i, entry in enumerate(scenarios):
        try:
            scenario = value_from_dict(_FileScenario, entry, f"scenarios[{i}]")
        except ValueError as exc:
            name = entry.get("name")
            if isinstance(name, str):
                raise ValueError(f"file scenario {name!r}: {exc}") from None
            raise
        if scenario.name in _REGISTRY or scenario.name in _ALIASES:
            raise ValueError(f"scenarios[{i}].name: {scenario.name!r} names the built-in scenario "
                             f"{_ALIASES.get(scenario.name, scenario.name)!r}; a file scenario "
                             "needs a name of its own")
        specs[scenario.name] = ScenarioSpec(
            name=scenario.name, family=scenario.family, summary=scenario.summary, params=(),
            build=partial(_build_file_scenario, scenario.instance()),
        )
    return specs, positions
