"""World state: action application, contracts, honouring, replay, invariants."""

import random
import re
from pathlib import Path
from typing import get_args

import pytest

from rpsf import world as world_module
from rpsf.engine import Plan, PlanStep, Stop
from rpsf.money import Quantity, ZERO, fields, record, replace
from rpsf.world import (
    _FIELDS,
    Action,
    ActionKind,
    ActionTemplate,
    AfterEvent,
    Agent,
    Always,
    BalanceAtLeast,
    ByDate,
    Clause,
    ConditionMet,
    ContractRecord,
    EthicalTag,
    Good,
    GoodSpec,
    InsufficientFunds,
    NotOwner,
    PROMISE_KINDS,
    Reason,
    RepaymentTerms,
    Role,
    SigningMode,
    Stage,
    StageViolation,
    UnknownReference,
    ValidationError,
    WorldError,
    apply_event,
    eval_condition,
    honour_status,
    make_world,
    promise_to_contract,
    replay,
    stage_transition_allowed,
    trigger_fired,
    value_from_dict,
    value_to_dict,
    world_to_json,
)


def q(n, d=1):
    return Quantity(n, d)


def pay(actor, counterparty, amount, **kw):
    return Action(kind=ActionKind.PAY, actor=actor, counterparty=counterparty,
                  amount=q(amount) if isinstance(amount, int) else amount, **kw)


@pytest.fixture
def two_agents():
    return make_world(agents=[Agent("X"), Agent("Y")], balances={"X": ZERO, "Y": q(100)})


class TestPayments:
    def test_simple_transfer(self, two_agents):
        world = apply_event(two_agents, pay("Y", "X", 100), 0)
        assert world.balance("X") == q(100)
        assert world.balance("Y") == ZERO
        assert world.history[-1].seq == 1

    def test_zero_payment_logged_but_no_movement(self, two_agents):
        world = apply_event(two_agents, pay("Y", "X", 0), 0)
        assert world.balance("X") == ZERO
        assert world.balance("Y") == q(100)
        assert len(world.history) == 1

    def test_insufficient_funds(self, two_agents):
        with pytest.raises(InsufficientFunds):
            apply_event(two_agents, pay("X", "Y", 1), 0)

    def test_overdraft_flag_allows_negative(self):
        world = make_world(agents=[Agent("X"), Agent("Y")], overdraft_allowed=True)
        world = apply_event(world, pay("X", "Y", 5), 0)
        assert world.balance("X") == q(-5)

    def test_receive_payment_mirrors_pay(self, two_agents):
        action = Action(kind=ActionKind.RECEIVE_PAYMENT, actor="X", counterparty="Y",
                        amount=q(40))
        world = apply_event(two_agents, action, 0)
        assert world.balance("X") == q(40)
        assert world.balance("Y") == q(60)

    def test_unknown_agent(self, two_agents):
        with pytest.raises(UnknownReference):
            apply_event(two_agents, pay("Q", "X", 1), 0)

    def test_negative_sum_rejected(self, two_agents):
        with pytest.raises(ValidationError):
            apply_event(two_agents, pay("Y", "X", q(-1)), 0)

    def test_date_cannot_move_backwards(self, two_agents):
        world = apply_event(two_agents, pay("Y", "X", 1), 5)
        with pytest.raises(ValidationError):
            apply_event(world, pay("Y", "X", 1), 4)


class TestMakeWorld:
    @pytest.mark.parametrize("kwargs,error,message", [
        ({"balances": {"Q": q(1)}}, UnknownReference, "balance for unknown agent 'Q'"),
        ({"goods": [Good("G", "asset", "X", q(1)), Good("G", "asset", "Y", q(1))]},
         ValidationError, "duplicate good 'G'"),
        ({"goods": [Good("G", "asset", "Q", q(1))]}, UnknownReference,
         "good 'G' owned by unknown agent"),
        ({"contracts": [ContractRecord("c", frozenset({"X"}), "X", ())] * 2},
         ValidationError, "duplicate contract 'c'"),
        ({"contracts": [ContractRecord("c", frozenset({"X"}), "X", (),
                                       references=frozenset({"b"}))]},
         UnknownReference, "contract 'c' references unknown 'b'"),
        ({"goods": [Good("G", "asset", "X", q(-1))]}, ValidationError,
         "good 'G' has negative market value"),
        ({"goods": [Good("G", "asset", "X", q(1), block_size=ZERO)]}, ValidationError,
         "good 'G' has nonpositive block size"),
    ], ids=["unknown-balance", "duplicate-good", "unknown-owner", "duplicate-contract",
            "unknown-reference", "negative-value", "zero-block"])
    def test_rejections(self, kwargs, error, message):
        with pytest.raises(error) as exc:
            make_world(agents=[Agent("X"), Agent("Y")], **kwargs)
        assert str(exc.value) == message


# what an action of each kind must carry besides its actor
NEEDS = {
    "promise-pay": "counterparty amount",
    "promise-accept-payment": "counterparty amount",
    "pay": "counterparty amount",
    "receive-payment": "counterparty amount",
    "acknowledge-receipt": "",
    "promise-buy-on-condition": "counterparty amount good_id",
    "buy-on-credit": "counterparty amount due_date good_id",
    "assert-expectation": "counterparty",
    "justify-entitlement": "counterparty",
    "promise-insurance-payout": "counterparty amount down_payment",
    "promise-manage-funds": "counterparty amount",
    "exchange-denominations": "counterparty amount",
    "spot-sale": "counterparty amount good_id",
    "inform": "counterparty",
    "sign-contract": "contract_id",
    "prepare-contract": "contract_id",
    "prepare-good": "good_id good_spec",
    "request-prepare-good": "counterparty good_id",
}

# the optional fields each kind takes besides its needs and the metadata
# every kind takes; a promise's due date is its clause's deadline
PROMISED = "due_date contract_id signing terms"
TAKES = {
    "promise-pay": PROMISED,
    "promise-accept-payment": PROMISED,
    "pay": "",
    "receive-payment": "",
    "acknowledge-receipt": "counterparty amount",
    "promise-buy-on-condition": PROMISED + " on_credit trigger",
    "buy-on-credit": "down_payment contract_id",
    "assert-expectation": "amount",
    "justify-entitlement": "amount",
    "promise-insurance-payout": PROMISED,
    "promise-manage-funds": PROMISED,
    "exchange-denominations": "",
    "spot-sale": "",
    "inform": "",
    "sign-contract": "",
    "prepare-contract": "counterparty parties clauses references terms",
    "prepare-good": "",
    "request-prepare-good": "",
}
METADATA = "reason channel message tags"

# a value other than its default for every optional field
FIELDS = dict(counterparty="Y", amount=q(1), down_payment=q(1), due_date=5, good_id="G",
              contract_id="c", reason=Reason(text="why"), channel="mail", message="hello",
              tags=frozenset({EthicalTag.COERCION}), signing=SigningMode.INITIATOR_ONLY,
              trigger=ByDate(1), on_credit=True, parties=("X", "Y"),
              clauses=(Clause("X", ActionTemplate(kind=ActionKind.PAY)),), references=("c",),
              terms=RepaymentTerms(principal=q(10), rate=q(1, 10)),
              good_spec=GoodSpec("gold", q(1)))


@pytest.fixture
def desk():
    # X owns G and Y owns H; X and Y have prepared contract c
    world = make_world(agents=[Agent("X"), Agent("Y")], balances={"X": q(100), "Y": q(100)},
                       goods=[Good("G", "asset", "X", q(1)), Good("H", "asset", "Y", q(1))])
    return apply_event(world, Action(ActionKind.PREPARE_CONTRACT, "Y", counterparty="X",
                                     contract_id="c"), 0)


def desk_action(kind, *extra, **changes):
    """An action of ``kind`` with the fields it needs and the ``extra`` ones,
    then ``changes``, that ``desk`` takes: it buys H, prepares N, names a new
    contract d where it makes one, and otherwise names G and c."""
    makes = kind in PROMISE_KINDS or kind in ("buy-on-credit", "prepare-contract")
    good = {"buy-on-credit": "H", "prepare-good": "N", "request-prepare-good": "N"}
    values = {**FIELDS, "good_id": good.get(kind, "G"), "contract_id": "d" if makes else "c"}
    names = {*NEEDS[kind].split(), *extra, *changes}
    return Action(kind=ActionKind(kind), actor="X",
                  **{n: changes.get(n, values[n]) for n in names})


def rejections(world, action):
    """What ``apply_event`` and, for a promise, ``promise_to_contract`` raise."""
    calls = [lambda: apply_event(world, action, 1)]
    if action.kind in PROMISE_KINDS:
        calls.append(lambda: promise_to_contract(action))
    for call in calls:
        with pytest.raises(WorldError) as exc:
            call()
        yield exc.value


class TestNeeds:
    def test_the_table_has_one_entry_per_kind(self):
        assert list(_FIELDS) == list(ActionKind)
        assert {kind.value: (" ".join(needs), " ".join(takes))
                for kind, (needs, takes) in _FIELDS.items()} == {
            kind: (NEEDS[kind], TAKES[kind]) for kind in NEEDS}

    def test_the_readme_states_the_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \|$", readme, re.M)
        assert [(kind, re.findall(r"`(\w+)`", needs), re.findall(r"`(\w+)`", takes))
                for kind, needs, takes in rows] == [
            (kind.value, list(needs), list(takes)) for kind, (needs, takes) in _FIELDS.items()]

    def test_every_optional_field_has_a_test_value(self):
        assert list(FIELDS) == [f.name for f in fields(Action) if f.has_default]

    @pytest.mark.parametrize("kind,name", [(kind, name) for kind, names in NEEDS.items()
                                           for name in names.split()])
    def test_an_action_without_a_field_its_kind_needs_is_rejected(self, desk, kind, name):
        # every other field the kind needs is set: the one missing is named
        for error in rejections(desk, replace(desk_action(kind), **{name: None})):
            assert type(error) is ValidationError
            assert str(error) == f"{kind} requires {name}"

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("kind", NEEDS)
    def test_a_field_is_taken_exactly_where_its_kind_takes_it(self, desk, kind, name):
        action = desk_action(kind, name)
        if name in (NEEDS[kind] + " " + TAKES[kind] + " " + METADATA).split():
            assert len(apply_event(desk, action, 1).history) == 2
            return
        for error in rejections(desk, action):
            assert type(error) is ValidationError
            assert str(error) == f"{kind} does not take {name}"

    @pytest.mark.parametrize("kind,name,value", [("pay", "references", ("nowhere",)),
                                                 ("sign-contract", "counterparty", "Q")])
    def test_an_untaken_field_is_named_before_any_name_is_resolved(self, desk, kind, name,
                                                                   value):
        action = desk_action(kind, **{name: value})
        assert [str(error) for error in rejections(desk, action)] == [
            f"{kind} does not take {name}"]

    def test_a_missing_field_is_named_before_an_untaken_one(self, desk):
        action = Action(ActionKind.PAY, "X", counterparty="Y", good_id="G")
        assert [str(error) for error in rejections(desk, action)] == ["pay requires amount"]


class TestReferences:
    @pytest.mark.parametrize("kind", NEEDS)
    def test_an_unknown_good_is_rejected_by_the_kind_that_takes_it(self, desk, kind):
        action = desk_action(kind, good_id="nothing")
        if kind in ("request-prepare-good", "promise-buy-on-condition"):  # await it
            assert "nothing" not in apply_event(desk, action, 1).goods
        elif kind == "prepare-good":
            assert apply_event(desk, action, 1).goods["nothing"].owner == "X"
        else:
            message = ("unknown good 'nothing'" if kind in ("spot-sale", "buy-on-credit")
                       else f"{kind} does not take good_id")
            assert [str(error) for error in rejections(desk, action)] == [message] * (
                2 if kind in PROMISE_KINDS else 1)

    @pytest.mark.parametrize("kind", NEEDS)
    def test_an_unknown_contract_is_rejected_by_the_kind_that_takes_it(self, desk, kind):
        action = desk_action(kind, contract_id="nowhere")
        if kind in PROMISE_KINDS or kind in ("buy-on-credit", "prepare-contract"):  # make it
            assert "nowhere" in apply_event(desk, action, 1).contracts
        else:
            message = ("unknown contract 'nowhere'" if kind == "sign-contract"
                       else f"{kind} does not take contract_id")
            assert [str(error) for error in rejections(desk, action)] == [message]


class TestSales:
    @pytest.fixture
    def market(self):
        return make_world(
            agents=[Agent("X"), Agent("Y"), Agent("Z", Role.COMPANY)],
            balances={"X": q(100), "Y": q(110), "Z": q(95)},
            goods=[Good(good_id="G", kind="asset", owner="Z", market_value=q(100))],
        )

    def test_spot_sale_round_trip_conserves_and_returns(self, market):
        # oracle: replay the three sales on a plain dict ledger
        ledger = {"X": 100, "Y": 110, "Z": 95}
        for seller, buyer, price in (("Z", "X", 100), ("X", "Y", 105), ("Y", "Z", 95)):
            ledger[buyer] -= price
            ledger[seller] += price
        world = market
        for seller, buyer, price in (("Z", "X", 100), ("X", "Y", 105), ("Y", "Z", 95)):
            sale = Action(kind=ActionKind.SPOT_SALE, actor=seller, counterparty=buyer,
                          amount=q(price), good_id="G")
            world = apply_event(world, sale, 0)
        assert world.goods["G"].owner == "Z"
        for name in ("X", "Y", "Z"):
            assert world.balance(name) == q(ledger[name])

    def test_not_owner(self, market):
        sale = Action(kind=ActionKind.SPOT_SALE, actor="X", counterparty="Y",
                      amount=q(10), good_id="G")
        with pytest.raises(NotOwner):
            apply_event(market, sale, 0)

    def test_unknown_good(self, market):
        sale = Action(kind=ActionKind.SPOT_SALE, actor="Z", counterparty="X",
                      amount=q(10), good_id="missing")
        with pytest.raises(UnknownReference):
            apply_event(market, sale, 0)

    def test_buy_on_credit_transfers_good_and_creates_settlement(self, market):
        buy = Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z",
                     amount=q(110), down_payment=q(10), due_date=30, good_id="G",
                     contract_id="settle")
        world = apply_event(market, buy, 0)
        assert world.goods["G"].owner == "X"
        assert world.balance("X") == q(90)  # only the down payment moved
        record = world.contracts["settle"]
        assert record.stage == Stage.ACTIVE
        assert record.clauses[0].obliged_action.amount == q(100)
        assert record.clauses[0].deadline == 30

    @staticmethod
    def _settlement(contract_id, amount, references):
        return {"contract_id": contract_id, "parties": ["X", "Z"], "initiator": "X",
                "clauses": [{"obliged_party": "X",
                             "obliged_action": {"kind": "pay", "actor": "X", "counterparty": "Z",
                                                "contract_id": contract_id, "amount": amount},
                             "trigger": {"always": True}, "deadline": 30}],
                "references": list(references), "signatures": ["X", "Z"], "stage": "active"}

    @pytest.mark.parametrize("extra,contract_id,amount,references", [
        ({"contract_id": "settle"}, "settle", "110", ()),
        ({}, "credit-1", "110", ()),
        ({"contract_id": "settle", "down_payment": q(21, 2)}, "settle", "199/2", ()),
        ({"reason": Reason(text="per frame", contract_ids=("frame",))}, "credit-1", "110",
         ("frame",)),
    ], ids=["named", "unnamed", "down-payment", "reason"])
    def test_credit_settlement_contract_is_pinned(self, extra, contract_id, amount, references):
        frame = ContractRecord(contract_id="frame", parties=frozenset({"X", "Z"}),
                               initiator="X", clauses=())
        world = make_world(
            agents=[Agent("X"), Agent("Z", Role.COMPANY)],
            balances={"X": q(100), "Z": q(95)},
            goods=[Good(good_id="G", kind="asset", owner="Z", market_value=q(100))],
            contracts=[frame],
        )
        buy = Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z", amount=q(110),
                     due_date=30, good_id="G", **extra)
        world = apply_event(world, buy, 3)
        assert set(world.contracts) == {"frame", contract_id}
        assert value_to_dict(world.contracts[contract_id]) == self._settlement(
            contract_id, amount, references)

    @pytest.mark.parametrize("action,error,message", [
        # at a down payment of -5 the seller got nothing and was owed 15
        (Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z", amount=q(10),
                down_payment=q(-5), due_date=30, good_id="G"),
         ValidationError, "sums must be nonnegative"),
        (Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z", amount=q(10),
                due_date=2, good_id="G"),
         ValidationError, "credit due date precedes the sale date"),
        (Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z", amount=q(10),
                down_payment=q(11), due_date=30, good_id="G"),
         ValidationError, "down payment exceeds the credit price"),
        (Action(kind=ActionKind.PROMISE_PAY, actor="X", counterparty="Q", amount=q(1)),
         UnknownReference, "unknown counterparty 'Q'"),
        (Action(kind=ActionKind.PREPARE_GOOD, actor="X", good_id="G",
                good_spec=GoodSpec("gold", q(1))),
         ValidationError, "good id 'G' already exists"),
        (Action(kind=ActionKind.PREPARE_CONTRACT, actor="X", counterparty="Y",
                contract_id="c", clauses=(Clause("Z", ActionTemplate()),)),
         ValidationError, "clause obliges 'Z', not a party to 'c'"),
        # the settlement is always signed by both and carries no rate: a credit
        # sale takes none of these
        (Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Z", amount=q(110),
                due_date=30, good_id="G", terms=RepaymentTerms(principal=q(100), rate=q(1, 10)),
                signing=SigningMode.INITIATOR_ONLY, trigger=ByDate(5)),
         ValidationError, "buy-on-credit does not take signing"),
    ], ids=["negative-down-payment", "due-before-sale", "down-over-price",
            "unknown-counterparty", "duplicate-good", "non-party-clause",
            "terms-signing-trigger"])
    def test_rejections(self, market, action, error, message):
        with pytest.raises(error) as exc:
            apply_event(market, action, 3)
        assert str(exc.value) == message

    def test_prepare_good_creates_and_rejects_bad_blocks(self, market):
        spec = GoodSpec(kind="gold", market_value=q(90), block_size=q(30))
        world = apply_event(market, Action(kind=ActionKind.PREPARE_GOOD, actor="Z",
                                           good_id="G2", good_spec=spec), 0)
        assert world.goods["G2"].owner == "Z"
        bad = GoodSpec(kind="gold", market_value=q(95), block_size=q(30))
        with pytest.raises(ValidationError):
            apply_event(world, Action(kind=ActionKind.PREPARE_GOOD, actor="Z",
                                      good_id="G3", good_spec=bad), 0)


class TestConservation:
    def test_random_progressions_conserve_total_money(self):
        rng = random.Random(99)
        names = ["A", "B", "C", "D"]
        world = make_world(
            agents=[Agent(n) for n in names],
            balances={n: q(1000) for n in names},
            goods=[Good(good_id="g", kind="asset", owner="A", market_value=q(50))],
        )
        total = world.total_money()
        for step in range(200):
            kind = rng.choice(["pay", "sale"])
            if kind == "pay":
                actor, other = rng.sample(names, 2)
                amount = q(rng.randint(0, 50))
                try:
                    world = apply_event(world, pay(actor, other, amount), step // 10)
                except InsufficientFunds:
                    continue
            else:
                owner = world.goods["g"].owner
                buyer = rng.choice([n for n in names if n != owner])
                sale = Action(kind=ActionKind.SPOT_SALE, actor=owner, counterparty=buyer,
                              amount=q(rng.randint(0, 60)), good_id="g")
                try:
                    world = apply_event(world, sale, step // 10)
                except InsufficientFunds:
                    continue
            assert world.total_money() == total

    def test_ownership_unique_throughout(self):
        rng = random.Random(5)
        names = ["A", "B", "C"]
        world = make_world(
            agents=[Agent(n) for n in names],
            balances={n: q(500) for n in names},
            goods=[Good(good_id="g", kind="asset", owner="A", market_value=q(10))],
        )
        for step in range(100):
            owner = world.goods["g"].owner
            buyer = rng.choice([n for n in names if n != owner])
            sale = Action(kind=ActionKind.SPOT_SALE, actor=owner, counterparty=buyer,
                          amount=q(rng.randint(0, 20)), good_id="g")
            world = apply_event(world, sale, 0)
            owners = [g.owner for g in world.goods.values()]
            assert len(owners) == 1 and owners[0] in names


class TestPromises:
    def test_promise_pay_both_parties_is_active(self):
        promise = Action(kind=ActionKind.PROMISE_PAY, actor="X", counterparty="Y",
                         amount=q(110), due_date=365, contract_id="c",
                         signing=SigningMode.BOTH_PARTIES)
        record = promise_to_contract(promise)
        assert record.stage == Stage.ACTIVE
        assert record.signatures == frozenset({"X", "Y"})
        clause = record.clauses[0]
        assert clause.obliged_party == "X"
        assert clause.obliged_action.amount == q(110)
        assert clause.deadline == 365

    @pytest.mark.parametrize("kind", sorted(kind.value for kind in PROMISE_KINDS))
    def test_a_promise_without_a_contract_id_is_named_as_any_missing_field(self, kind):
        # apply_event names one first, so only a direct caller meets this
        promise = replace(desk_action(kind), contract_id=None)
        with pytest.raises(ValidationError) as exc:
            promise_to_contract(promise)
        assert str(exc.value) == f"{kind} requires contract_id"

    def test_promise_initiator_only_partially_signed(self):
        promise = Action(kind=ActionKind.PROMISE_PAY, actor="X", counterparty="Y",
                         amount=q(1), contract_id="c", signing=SigningMode.INITIATOR_ONLY)
        record = promise_to_contract(promise)
        assert record.stage == Stage.PARTIALLY_SIGNED
        assert record.signatures == frozenset({"X"})

    def test_promise_buy_on_condition_clause_structure(self):
        promise = Action(kind=ActionKind.PROMISE_BUY_ON_CONDITION, actor="X",
                         counterparty="Z", amount=q(1020), good_id="G", contract_id="c1")
        record = promise_to_contract(promise)
        clause = record.clauses[0]
        trigger = clause.trigger
        assert isinstance(trigger, AfterEvent)
        assert trigger.pattern.kind == ActionKind.PREPARE_GOOD
        assert trigger.pattern.good_id == "G"
        # a spot purchase is discharged by the seller's sale event
        assert clause.obliged_action.kind == ActionKind.SPOT_SALE
        assert clause.obliged_action.actor == "Z"
        assert clause.obliged_action.counterparty == "X"

    def test_non_promise_rejected(self):
        with pytest.raises(ValidationError):
            promise_to_contract(pay("X", "Y", 5))


class TestContractLifecycle:
    def make_loan_world(self):
        world = make_world(agents=[Agent("X"), Agent("Y")],
                           balances={"X": q(100), "Y": q(10)})
        clauses = (
            Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X", counterparty="Y",
                                       amount=q(100), contract_id="loan"), deadline=0),
            Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                       amount=q(110), contract_id="loan"), deadline=365),
        )
        prepare = Action(kind=ActionKind.PREPARE_CONTRACT, actor="X",
                         counterparty="Y", contract_id="loan", parties=("X", "Y"),
                         clauses=clauses)
        world = apply_event(world, prepare, 0)
        world = apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="X",
                                          contract_id="loan"), 0)
        world = apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="Y",
                                          contract_id="loan"), 0)
        return world

    def test_signing_walks_the_stages(self):
        world = self.make_loan_world()
        assert world.contracts["loan"].stage == Stage.ACTIVE

    def test_sign_twice_rejected(self):
        world = self.make_loan_world()
        with pytest.raises(StageViolation):
            apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="X",
                                      contract_id="loan"), 0)

    @pytest.mark.parametrize("kind,error,message", [
        (ActionKind.SIGN_CONTRACT, StageViolation, "X already signed c"),
        (ActionKind.PREPARE_CONTRACT, ValidationError, "contract id 'c' already exists"),
    ])
    def test_a_contract_takes_one_id_and_one_signature_per_party(self, kind, error, message):
        world = make_world(agents=[Agent("X"), Agent("Y")])
        world = apply_event(world, Action(
            kind=ActionKind.PREPARE_CONTRACT, actor="X", counterparty="Y",
            contract_id="c", parties=("X", "Y")), 0)
        world = apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="X",
                                          contract_id="c"), 0)
        with pytest.raises(error) as exc:
            apply_event(world, Action(kind=kind, actor="X", contract_id="c"), 0)
        assert str(exc.value) == message

    def test_sign_unknown_contract(self):
        world = make_world(agents=[Agent("X")])
        with pytest.raises(UnknownReference):
            apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="X",
                                      contract_id="nope"), 0)

    def test_non_party_cannot_sign(self):
        world = make_world(agents=[Agent("X"), Agent("Y"), Agent("Q")])
        world = apply_event(world, Action(
            kind=ActionKind.PREPARE_CONTRACT, actor="X", counterparty="Y",
            contract_id="c", parties=("X", "Y")), 0)
        with pytest.raises(ValidationError):
            apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor="Q",
                                      contract_id="c"), 0)

    def test_honour_status_fully_discharged(self):
        world = self.make_loan_world()
        world = apply_event(world, pay("X", "Y", 100, reason=Reason(contract_ids=("loan",))), 0)
        world = apply_event(world, pay("Y", "X", 110, reason=Reason(contract_ids=("loan",))), 365)
        record = world.contracts["loan"]
        assert honour_status(record, world.history, 365) == Stage.HONOURED

    def test_honour_status_partial(self):
        world = self.make_loan_world()
        world = apply_event(world, pay("X", "Y", 100, reason=Reason(contract_ids=("loan",))), 0)
        record = world.contracts["loan"]
        assert honour_status(record, world.history, 100) == Stage.PARTIALLY_HONOURED

    def test_honour_status_breached_after_deadline(self):
        world = self.make_loan_world()
        world = apply_event(world, pay("X", "Y", 100, reason=Reason(contract_ids=("loan",))), 0)
        record = world.contracts["loan"]
        assert honour_status(record, world.history, 366) == Stage.BREACHED

    def test_honour_status_before_anything_is_due_is_the_stored_stage(self):
        # both clauses are live, neither is discharged, and no deadline has passed
        world = self.make_loan_world()
        assert honour_status(world.contracts["loan"], world.history, 0) == Stage.ACTIVE

    def test_honour_status_requires_active(self):
        world = make_world(agents=[Agent("X"), Agent("Y")])
        world = apply_event(world, Action(
            kind=ActionKind.PREPARE_CONTRACT, actor="X", counterparty="Y",
            contract_id="c", parties=("X", "Y")), 0)
        with pytest.raises(StageViolation):
            honour_status(world.contracts["c"], world.history, 0)

    def test_dormant_conditional_clause_neither_blocks_nor_breaches(self):
        # an insurance payout whose premium was never paid stays dormant
        world = make_world(agents=[Agent("A"), Agent("B")], balances={"B": q(100)})
        promise = Action(kind=ActionKind.PROMISE_INSURANCE_PAYOUT, actor="B",
                         counterparty="A", amount=q(100), down_payment=q(5),
                         due_date=10, contract_id="ins")
        world = apply_event(world, promise, 0)
        record = world.contracts["ins"]
        assert honour_status(record, world.history, 1000) == Stage.ACTIVE

    def test_a_by_date_clause_is_dormant_until_its_day(self):
        # X pays at once; Y's payment falls due only from day 200
        world = make_world(agents=[Agent("X"), Agent("Y")],
                           balances={"X": q(100), "Y": q(10)})
        clauses = (
            Clause("X", ActionTemplate(kind=ActionKind.PAY, actor="X", counterparty="Y",
                                       amount=q(100), contract_id="c")),
            Clause("Y", ActionTemplate(kind=ActionKind.PAY, actor="Y", counterparty="X",
                                       amount=q(10), contract_id="c"),
                   trigger=ByDate(200), deadline=210),
        )
        world = apply_event(world, Action(kind=ActionKind.PREPARE_CONTRACT, actor="X",
                                          counterparty="Y", contract_id="c",
                                          parties=("X", "Y"), clauses=clauses), 0)
        for agent in "XY":
            world = apply_event(world, Action(kind=ActionKind.SIGN_CONTRACT, actor=agent,
                                              contract_id="c"), 0)
        world = apply_event(world, pay("X", "Y", 100, reason=Reason(contract_ids=("c",))), 0)
        record = world.contracts["c"]
        assert honour_status(record, world.history, 100) == Stage.HONOURED
        assert honour_status(record, world.history, 200) == Stage.PARTIALLY_HONOURED
        assert honour_status(record, world.history, 211) == Stage.BREACHED

    def test_stage_transition_relation(self):
        assert stage_transition_allowed(Stage.DRAFTED, Stage.PREPARED)
        assert stage_transition_allowed(Stage.ACTIVE, Stage.PARTIALLY_HONOURED)
        assert stage_transition_allowed(Stage.PARTIALLY_HONOURED, Stage.BREACHED)
        assert not stage_transition_allowed(Stage.DRAFTED, Stage.ACTIVE)
        assert not stage_transition_allowed(Stage.HONOURED, Stage.BREACHED)

    def test_a_one_party_contract_goes_from_prepared_to_active(self):
        # prepared with no counterparty or parties, its one party is its actor
        world = make_world(agents=[Agent("X")])
        stages = []
        for kind in (ActionKind.PREPARE_CONTRACT, ActionKind.SIGN_CONTRACT):
            world = apply_event(world, Action(kind=kind, actor="X", contract_id="c"), 0)
            stages.append(world.contracts["c"].stage)
        assert stages == [Stage.PREPARED, Stage.ACTIVE]
        assert all(stage_transition_allowed(a, b) for a, b in zip(stages, stages[1:]))

    def test_references_must_exist(self):
        world = make_world(agents=[Agent("X"), Agent("Y")])
        with pytest.raises(UnknownReference):
            apply_event(world, Action(
                kind=ActionKind.PREPARE_CONTRACT, actor="X", counterparty="Y",
                contract_id="c2", parties=("X", "Y"), references=("c1",)), 0)

    def test_reason_must_cite_existing_contract(self):
        world = make_world(agents=[Agent("X"), Agent("Y")], balances={"X": q(10)},
                           goods=[Good(good_id="G", kind="asset", owner="Y",
                                       market_value=q(10))])
        ghost = Reason(contract_ids=("ghost",))
        # a promise and a credit sale make contracts that reference what they cite
        for action in (pay("X", "Y", 1, reason=ghost),
                       Action(kind=ActionKind.PROMISE_PAY, actor="X", counterparty="Y",
                              amount=q(1), due_date=5, contract_id="c", reason=ghost),
                       Action(kind=ActionKind.BUY_ON_CREDIT, actor="X", counterparty="Y",
                              amount=q(10), due_date=5, good_id="G", reason=ghost)):
            with pytest.raises(UnknownReference, match="reason cites unknown contract 'ghost'"):
                apply_event(world, action, 0)

    def test_reason_event_refs_point_at_logged_events(self):
        world = make_world(agents=[Agent("X"), Agent("Y")], balances={"X": q(10)})
        world = apply_event(world, pay("X", "Y", 1), 0)
        linked = pay("X", "Y", 1, reason=Reason(text="follow-up", event_refs=(1,)))
        world = apply_event(world, linked, 0)
        assert world.history[-1].action.reason.event_refs == (1,)
        with pytest.raises(UnknownReference):
            apply_event(world, pay("X", "Y", 1, reason=Reason(event_refs=(99,))), 0)


class TestRemainingVocabulary:
    def test_exchange_denominations_moves_no_net_cash(self, two_agents):
        swap = Action(kind=ActionKind.EXCHANGE_DENOMINATIONS, actor="Y",
                      counterparty="X", amount=q(50), message="coins for notes")
        world = apply_event(two_agents, swap, 0)
        assert world.balance("X") == ZERO
        assert world.balance("Y") == q(100)
        assert world.history[-1].action.kind == ActionKind.EXCHANGE_DENOMINATIONS

    def test_promise_accept_payment_clause(self):
        promise = Action(kind=ActionKind.PROMISE_ACCEPT_PAYMENT, actor="X",
                         counterparty="Y", amount=q(25), due_date=7, contract_id="acc")
        record = promise_to_contract(promise)
        clause = record.clauses[0]
        assert clause.obliged_action.kind == ActionKind.RECEIVE_PAYMENT
        assert clause.obliged_action.actor == "X"
        assert clause.deadline == 7

    def test_promise_manage_funds_waits_for_the_transfer(self):
        promise = Action(kind=ActionKind.PROMISE_MANAGE_FUNDS, actor="X",
                         counterparty="Y", amount=q(500), due_date=30, contract_id="mgmt")
        record = promise_to_contract(promise)
        clause = record.clauses[0]
        assert isinstance(clause.trigger, AfterEvent)
        assert clause.trigger.pattern.kind == ActionKind.PAY
        assert clause.trigger.pattern.actor == "Y"

    def test_payment_channel_is_recorded(self, two_agents):
        world = apply_event(two_agents, pay("Y", "X", 10, channel="wire"), 0)
        assert world.history[-1].action.channel == "wire"


class TestDecoding:
    # a bare tagged member, such as a plan's stop step, is written as {tag: true}
    @pytest.mark.parametrize("tp, data, message", [
        (PlanStep, {"stop": False}, "stop: expected true, got false"),
        (Plan, {"agent": "X", "steps": [{"stop": None}]}, "steps[0].stop: expected true, got null"),
    ])
    def test_a_bare_member_must_hold_true(self, tp, data, message):
        with pytest.raises(ValueError) as exc:
            value_from_dict(tp, data)
        assert str(exc.value) == message
        assert value_from_dict(PlanStep, {"stop": True}) == Stop()


class TestReplay:
    def test_replay_reproduces_world_byte_for_byte(self):
        rng = random.Random(123)
        names = ["A", "B", "C"]
        initial = make_world(
            agents=[Agent(n) for n in names],
            balances={n: q(300) for n in names},
            goods=[Good(good_id="g", kind="asset", owner="A", market_value=q(10))],
        )
        world = initial
        day = 0
        for _ in range(60):
            day += rng.randint(0, 3)
            actor, other = rng.sample(names, 2)
            try:
                world = apply_event(world, pay(actor, other, rng.randint(0, 40)), day)
            except InsufficientFunds:
                pass
        replayed = replay(initial, world.history)
        assert world_to_json(replayed) == world_to_json(world)

    def test_sequence_numbers_gap_free(self, two_agents):
        world = two_agents
        for k in range(10):
            world = apply_event(world, pay("Y", "X", 1), k)
        assert [e.seq for e in world.history] == list(range(1, 11))


def test_a_condition_trigger_without_a_world_has_not_fired(two_agents):
    # the condition reads the ground state, so a history alone cannot fire it
    trigger = ConditionMet(BalanceAtLeast("Y", q(0)))
    assert trigger_fired(trigger, two_agents.history, 5, two_agents) is True
    assert trigger_fired(trigger, two_agents.history, 5) is False


@record
class _Share:
    """A record whose one field has no JSON form."""

    share: float


class TestProgrammerErrors:
    """A condition, trigger, row or union that the package never builds is
    a programmer's error: each raises TypeError and leaves the tables as
    they were."""

    def test_an_unknown_condition_and_trigger(self, two_agents):
        with pytest.raises(TypeError, match=r"^unknown condition 'rich'$"):
            eval_condition("rich", two_agents, {})
        with pytest.raises(TypeError, match=r"^unknown trigger 'soon'$"):
            trigger_fired("soon", two_agents.history, 0, two_agents)

    def test_a_row_must_name_each_field_once(self):
        with pytest.raises(TypeError, match=r"^codec row of _Share must name each field once$"):
            world_module.codec_row(_Share, "share share")
        assert _Share not in world_module._ROWS

    def test_a_union_must_tag_each_member_once(self):
        tags = dict(world_module._UNIONS[frozenset(get_args(PlanStep))])
        with pytest.raises(TypeError, match=r"^codec union .* must tag each member once$"):
            world_module.codec_union(PlanStep, stop=Stop)
        assert frozenset({Stop}) not in world_module._UNIONS
        assert world_module._UNIONS[frozenset(get_args(PlanStep))] == tags

    def test_a_type_without_a_json_form_is_neither_read_nor_written(self, monkeypatch):
        with pytest.raises(TypeError, match=r"^no JSON form for <class 'float'>$"):
            value_from_dict(float, 0.5)
        with monkeypatch.context() as patch:
            patch.setattr(world_module, "_ROWS", dict(world_module._ROWS))
            world_module.codec_row(_Share)
            with pytest.raises(TypeError, match=r"^no JSON text for <class 'float'>$"):
                world_module.render_json(_Share(0.5))
        assert _Share not in world_module._ROWS and _Share not in world_module._WRITERS
