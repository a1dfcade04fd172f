"""Layered world state for financial products put into effect.

A world snapshot has four conceptual levels:

  ground    -- agents, one account per agent, goods and their owners;
  contracts -- contract records at stages of their life-cycle;
  plans     -- per-agent future behaviour (lives with the engine, which
               consumes plans in order; see engine.py);
  history   -- the gap-free, system-wide numbered event log, from which
               the ground and contract levels can be replayed exactly.

State transitions happen only through :func:`apply_event`, a pure function
from (world, action, date) to a new world. Money is conserved by
construction: every cash movement debits one account and credits another.

Action vocabulary
-----------------
Twelve speech-act/transfer kinds (promises to pay / accept payment / buy on
condition / insure / manage funds, payment, receipt, acknowledgement, credit
purchase, expectation, entitlement justification, denomination exchange)
plus composite kinds: spot sale, inform, contract preparation and signing,
good preparation and its request. Promise kinds produce signed contracts.
Actions may carry ethical annotations (chance-contingency, undisclosed
information, coercion); annotations are author-supplied, never inferred.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import cache
from itertools import islice
from math import lcm
from operator import attrgetter
from types import UnionType
from typing import (Callable, Iterable, Mapping, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)

from .money import MISSING, Quantity, ZERO, field, fields, parse_quantity, record, replace


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class WorldError(Exception):
    """Base class for invalid transitions."""


class ValidationError(WorldError):
    """An action is missing required parameters or violates a basic bound."""


class InsufficientFunds(WorldError):
    """A payer's balance cannot cover a cash movement (overdraft disabled)."""


class NotOwner(WorldError):
    """An agent tried to sell or hand over a good it does not own."""


class StageViolation(WorldError):
    """A contract operation was attempted outside its legal life-cycle stage."""


class UnknownReference(WorldError):
    """An action referenced an agent, good, contract or event that does not exist."""


# ---------------------------------------------------------------------------
# ground-level domain types
# ---------------------------------------------------------------------------

class Role(str, Enum):
    PERSON = "person"
    BANK = "bank"
    BROKER = "broker"
    COMPANY = "company"


@record
class Agent:
    name: str
    role: Role = Role.PERSON


@record
class Good:
    """A tradeable non-money asset.

    ``market_value`` is the value of the prepared portion; it must be a
    multiple of ``block_size`` (goods come in fixed-size blocks and the
    preparer may refuse to partition them). Trade prices around that value
    are free: margins and fees are not block-constrained. ``market_value``
    of None marks an unvalued good, which some legal positions treat as
    missing information.
    """

    good_id: str
    kind: str
    owner: str
    market_value: Optional[Quantity]
    block_size: Quantity = Quantity(1)
    is_money: bool = False


@record
class Reason:
    """Structured justification: free text plus references into the world.

    Rule engines match on the referenced contract ids only; the text is
    carried for the record (worlds may keep descriptions or references).
    """

    text: str = ""
    contract_ids: tuple[str, ...] = ()
    event_refs: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------

class ActionKind(str, Enum):
    PROMISE_PAY = "promise-pay"
    PROMISE_ACCEPT_PAYMENT = "promise-accept-payment"
    PAY = "pay"
    RECEIVE_PAYMENT = "receive-payment"
    ACKNOWLEDGE_RECEIPT = "acknowledge-receipt"
    PROMISE_BUY_ON_CONDITION = "promise-buy-on-condition"
    BUY_ON_CREDIT = "buy-on-credit"
    ASSERT_EXPECTATION = "assert-expectation"
    JUSTIFY_ENTITLEMENT = "justify-entitlement"
    PROMISE_INSURANCE_PAYOUT = "promise-insurance-payout"
    PROMISE_MANAGE_FUNDS = "promise-manage-funds"
    EXCHANGE_DENOMINATIONS = "exchange-denominations"
    SPOT_SALE = "spot-sale"
    INFORM = "inform"
    SIGN_CONTRACT = "sign-contract"
    PREPARE_CONTRACT = "prepare-contract"
    PREPARE_GOOD = "prepare-good"
    REQUEST_PREPARE_GOOD = "request-prepare-good"


PROMISE_KINDS = frozenset(
    {
        ActionKind.PROMISE_PAY,
        ActionKind.PROMISE_ACCEPT_PAYMENT,
        ActionKind.PROMISE_BUY_ON_CONDITION,
        ActionKind.PROMISE_INSURANCE_PAYOUT,
        ActionKind.PROMISE_MANAGE_FUNDS,
    }
)


class EthicalTag(str, Enum):
    CONTINGENT_ON_CHANCE = "contingent-on-chance"
    UNDISCLOSED_INFORMATION = "undisclosed-information"
    COERCION = "coercion"


class SigningMode(str, Enum):
    INITIATOR_ONLY = "initiator-only"
    BOTH_PARTIES = "both-parties"


@record
class GoodSpec:
    """Payload of a prepare-good action."""

    kind: str
    market_value: Optional[Quantity]
    block_size: Quantity = Quantity(1)
    is_money: bool = False


@record
class ActionTemplate:
    """A pattern over actions; unset fields match anything.

    Used both for contract clauses (the obliged action) and for wait
    triggers (the enabling event).
    """

    kind: Optional[ActionKind] = None
    actor: Optional[str] = None
    counterparty: Optional[str] = None
    amount: Optional[Quantity] = None
    good_id: Optional[str] = None
    contract_id: Optional[str] = None
    message: Optional[str] = None

    def matches(self, action: "Action") -> bool:
        if self.kind is not None and action.kind != self.kind:
            return False
        if self.actor is not None and action.actor != self.actor:
            return False
        if self.counterparty is not None and action.counterparty != self.counterparty:
            return False
        if self.amount is not None and action.amount != self.amount:
            return False
        if self.good_id is not None and action.good_id != self.good_id:
            return False
        if self.message is not None and action.message != self.message:
            return False
        if self.contract_id is not None:
            if action.contract_id == self.contract_id:
                return True
            refs = action.reason.contract_ids if action.reason else ()
            return self.contract_id in refs
        return True


# triggers ------------------------------------------------------------------

@record
class Always:
    pass


@record
class AfterEvent:
    pattern: ActionTemplate


@record
class ByDate:
    day: int


@record
class ConditionMet:
    condition: "Condition"


Trigger = Always | AfterEvent | ByDate | ConditionMet


# conditions over the ground state (serialisable, no lambdas) ----------------

@record
class ChoiceIs:
    name: str
    value: bool = True


@record
class BalanceAtLeast:
    agent: str
    amount: Quantity


@record
class OwnsGood:
    agent: str
    good_id: str


@record
class ContractInStage:
    contract_id: str
    stage: "Stage"


Condition = ChoiceIs | BalanceAtLeast | OwnsGood | ContractInStage


def eval_condition(cond: Condition, world: "WorldState", choices: Mapping[str, bool]) -> bool:
    if isinstance(cond, ChoiceIs):
        return bool(choices.get(cond.name, False)) == cond.value
    if isinstance(cond, BalanceAtLeast):
        return world.balance(cond.agent) >= cond.amount
    if isinstance(cond, OwnsGood):
        good = world.goods.get(cond.good_id)
        return good is not None and good.owner == cond.agent
    if isinstance(cond, ContractInStage):
        contract = world.contracts.get(cond.contract_id)
        return contract is not None and contract.stage == cond.stage
    raise TypeError(f"unknown condition {cond!r}")


# ---------------------------------------------------------------------------
# contracts
# ---------------------------------------------------------------------------

class Stage(str, Enum):
    DRAFTED = "drafted"
    PREPARED = "prepared"
    PARTIALLY_SIGNED = "partially-signed"
    ACTIVE = "active"
    PARTIALLY_HONOURED = "partially-honoured"
    HONOURED = "honoured"
    BREACHED = "breached"


_STAGE_NEXT: dict[Stage, frozenset[Stage]] = {
    Stage.DRAFTED: frozenset({Stage.PREPARED}),
    Stage.PREPARED: frozenset({Stage.PARTIALLY_SIGNED, Stage.ACTIVE}),
    Stage.PARTIALLY_SIGNED: frozenset({Stage.ACTIVE}),
    Stage.ACTIVE: frozenset({Stage.PARTIALLY_HONOURED, Stage.HONOURED, Stage.BREACHED}),
    Stage.PARTIALLY_HONOURED: frozenset({Stage.HONOURED, Stage.BREACHED}),
    Stage.HONOURED: frozenset(),
    Stage.BREACHED: frozenset(),
}


def stage_transition_allowed(current: Stage, target: Stage) -> bool:
    return target == current or target in _STAGE_NEXT[current]


@record
class Clause:
    """A conditional obligation inside a contract.

    The obligation activates once its trigger has fired (an always trigger
    is active from the start; a by-date trigger activates on that day); it
    is discharged by a history event matching the obliged action, no later
    than the deadline when one is set. A clause whose after-event trigger
    never fired, or whose by-date trigger's day is still to come, is
    dormant: it neither blocks honouring nor breaches.
    """

    obliged_party: str
    obliged_action: ActionTemplate
    trigger: Trigger = field(default_factory=Always)
    deadline: Optional[int] = None


@record
class RepaymentTerms:
    """Declared repayment formula of a money-loan contract.

    principal - fixed_cost + rate * principal, repayable after ``period``
    days. Declaring a positive rate ties the increment causally to the
    principal, which is what the structural interest detector looks for.
    """

    principal: Quantity
    rate: Quantity
    fixed_cost: Quantity = ZERO
    period: int = 0

    def repayment(self) -> Quantity:
        return self.principal - self.fixed_cost + self.rate * self.principal


@record
class ContractRecord:
    contract_id: str
    parties: frozenset[str]
    initiator: str
    clauses: tuple[Clause, ...]
    references: frozenset[str] = frozenset()
    signatures: frozenset[str] = frozenset()
    stage: Stage = Stage.DRAFTED
    terms: Optional[RepaymentTerms] = None


# ---------------------------------------------------------------------------
# actions and events
# ---------------------------------------------------------------------------

@record
class Action:
    """One agent action; parameter relevance depends on the kind.

    Conventions: for PAY the actor pays the counterparty; for
    RECEIVE_PAYMENT the actor receives from the counterparty; for SPOT_SALE
    the actor is the seller and the counterparty the buyer; for
    BUY_ON_CREDIT the actor is the buyer, ``amount`` the total price,
    ``down_payment`` the part settled at once and ``due_date`` the day the
    remainder falls due (an active payment contract is generated under
    ``contract_id``). Promise kinds produce contracts; PREPARE_CONTRACT
    carries explicit parties/clauses; PREPARE_GOOD carries a good
    specification.
    """

    kind: ActionKind
    actor: str
    counterparty: Optional[str] = None
    amount: Optional[Quantity] = None
    down_payment: Optional[Quantity] = None
    due_date: Optional[int] = None
    good_id: Optional[str] = None
    contract_id: Optional[str] = None
    reason: Optional[Reason] = None
    channel: Optional[str] = None
    message: Optional[str] = None
    tags: frozenset[EthicalTag] = frozenset()
    signing: SigningMode = SigningMode.BOTH_PARTIES
    trigger: Optional[Trigger] = None
    on_credit: bool = False
    parties: tuple[str, ...] = ()
    clauses: tuple[Clause, ...] = ()
    references: tuple[str, ...] = ()
    terms: Optional[RepaymentTerms] = None
    good_spec: Optional[GoodSpec] = None


@record
class Event:
    seq: int
    date: int
    action: Action
    delta: str = ""


class History:
    """A world's event log: the first ``len`` events of a buffer that only
    grows, so a log shares its buffer with every log appended to it.

    It reads as the tuple of its events: ``len``, iteration, indexing,
    slices (tuples), ``==`` and ``hash`` against tuples, ``+``, ``bool``
    and ``repr`` give what the tuple would.
    """

    __slots__ = ("_events", "_len")

    def __init__(self, events: list[Event], length: int):
        self._events, self._len = events, length

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return islice(self._events, self._len)

    def __getitem__(self, index):
        if index.__class__ is slice:
            return tuple(self._events[:self._len][index])
        if not -self._len <= index < self._len:
            raise IndexError("tuple index out of range")
        return self._events[index % self._len]

    def __eq__(self, other: object) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, History)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + (tuple(other) if other.__class__ is History else other)

    def __radd__(self, other: tuple) -> tuple:
        return other + tuple(self)

    def __repr__(self) -> str:
        return repr(tuple(self))


HistoryLog = Union[tuple[Event, ...], History]


def _appended(history: HistoryLog, event: Event) -> History:
    """``history`` and then ``event``. A log that holds its buffer's newest
    event appends to the buffer, and keeps it if its event landed in the
    slot after its own; another thread may have appended there first. Any
    other log copies its events."""
    length = len(history)
    if history.__class__ is History and len(history._events) == length:
        history._events.append(event)
        if history._events[length] is event:
            return History(history._events, length + 1)
    return History([*history, event], length + 1)


# ---------------------------------------------------------------------------
# world state
# ---------------------------------------------------------------------------

@record
class WorldState:
    """Immutable snapshot of ground + contract + history levels.

    Never mutated in place. ``apply_event`` returns a new snapshot that
    shares with this one every map its event leaves as it is; ``history``
    is a tuple or a ``History``, whose shared buffer only grows, so no
    snapshot sees another's events and snapshots are safe to share across
    concurrent evaluation contexts.
    """

    agents: Mapping[str, Agent] = field(default_factory=dict)
    accounts: Mapping[str, Quantity] = field(default_factory=dict)
    goods: Mapping[str, Good] = field(default_factory=dict)
    contracts: Mapping[str, ContractRecord] = field(default_factory=dict)
    history: HistoryLog = ()
    clock: int = 0
    overdraft_allowed: bool = False

    def balance(self, agent: str) -> Quantity:
        return self.accounts.get(agent, ZERO)

    def total_money(self) -> Quantity:
        total = ZERO
        for value in self.accounts.values():
            total = total + value
        return total


def make_world(
    agents: Sequence[Agent],
    balances: Mapping[str, Quantity] | None = None,
    goods: Sequence[Good] = (),
    contracts: Sequence[ContractRecord] = (),
    overdraft_allowed: bool = False,
) -> WorldState:
    """Assemble an initial snapshot, checking uniqueness and references."""
    agent_map: dict[str, Agent] = {}
    for agent in agents:
        if agent.name in agent_map:
            raise ValidationError(f"duplicate agent {agent.name!r}")
        agent_map[agent.name] = agent
    account_map = {name: ZERO for name in agent_map}
    for name, amount in (balances or {}).items():
        if name not in agent_map:
            raise UnknownReference(f"balance for unknown agent {name!r}")
        if amount < ZERO and not overdraft_allowed:
            raise ValidationError(f"negative opening balance for {name!r}")
        account_map[name] = amount
    good_map: dict[str, Good] = {}
    for good in goods:
        if good.good_id in good_map:
            raise ValidationError(f"duplicate good {good.good_id!r}")
        if good.owner not in agent_map:
            raise UnknownReference(f"good {good.good_id!r} owned by unknown agent")
        _check_good_value(good.market_value, good.block_size, good.good_id)
        good_map[good.good_id] = good
    contract_map: dict[str, ContractRecord] = {}
    for contract in contracts:
        if contract.contract_id in contract_map:
            raise ValidationError(f"duplicate contract {contract.contract_id!r}")
        for ref in contract.references:
            if ref not in contract_map:
                raise UnknownReference(
                    f"contract {contract.contract_id!r} references unknown {ref!r}"
                )
        contract_map[contract.contract_id] = contract
    return WorldState(
        agents=agent_map,
        accounts=account_map,
        goods=good_map,
        contracts=contract_map,
        overdraft_allowed=overdraft_allowed,
    )


def _check_good_value(value: Optional[Quantity], block: Quantity, good_id: str) -> None:
    if value is not None and value < ZERO:
        raise ValidationError(f"good {good_id!r} has negative market value")
    if block <= ZERO:
        raise ValidationError(f"good {good_id!r} has nonpositive block size")
    if value is not None and (value / block).den != 1:
        raise ValidationError(
            f"good {good_id!r}: market value {value} is not a multiple of block size {block}"
        )


# ---------------------------------------------------------------------------
# the transition function
# ---------------------------------------------------------------------------

# The cash rule: the four kinds that move cash at their event, each mapped to
# what its action gives as (payer, payee, sum paid then). A sale's buyer pays
# its seller; a credit sale pays its down payment now and the rest through a
# later PAY that discharges its settlement contract.
CASH_LEGS: dict[ActionKind, Callable[[Action], tuple]] = {
    ActionKind.PAY: attrgetter("actor", "counterparty", "amount"),
    ActionKind.RECEIVE_PAYMENT: attrgetter("counterparty", "actor", "amount"),
    ActionKind.SPOT_SALE: attrgetter("counterparty", "actor", "amount"),
    ActionKind.BUY_ON_CREDIT: attrgetter("actor", "counterparty", "down_payment"),
}

# What an action of each kind carries besides its actor: the fields it needs,
# in the order ``_need`` checks them, and the optional fields it takes. Every
# kind also takes the event's metadata, and no other field off its default.
# A kind with no branch in ``apply_event`` only logs its event: exchanging
# denominations swaps equal totals, so moves no net cash.
_PROMISED = ("due_date", "contract_id", "signing", "terms")  # due date: the clause's deadline
_FIELDS: dict[ActionKind, tuple[tuple[str, ...], tuple[str, ...]]] = {
    ActionKind.PROMISE_PAY: (("counterparty", "amount"), _PROMISED),
    ActionKind.PROMISE_ACCEPT_PAYMENT: (("counterparty", "amount"), _PROMISED),
    ActionKind.PAY: (("counterparty", "amount"), ()),
    ActionKind.RECEIVE_PAYMENT: (("counterparty", "amount"), ()),
    ActionKind.ACKNOWLEDGE_RECEIPT: ((), ("counterparty", "amount")),  # to all involved
    ActionKind.PROMISE_BUY_ON_CONDITION: (("counterparty", "amount", "good_id"),
                                          _PROMISED + ("on_credit", "trigger")),
    ActionKind.BUY_ON_CREDIT: (("counterparty", "amount", "due_date", "good_id"),
                               ("down_payment", "contract_id")),
    ActionKind.ASSERT_EXPECTATION: (("counterparty",), ("amount",)),
    ActionKind.JUSTIFY_ENTITLEMENT: (("counterparty",), ("amount",)),
    ActionKind.PROMISE_INSURANCE_PAYOUT: (("counterparty", "amount", "down_payment"), _PROMISED),
    ActionKind.PROMISE_MANAGE_FUNDS: (("counterparty", "amount"), _PROMISED),
    ActionKind.EXCHANGE_DENOMINATIONS: (("counterparty", "amount"), ()),
    ActionKind.SPOT_SALE: (("counterparty", "amount", "good_id"), ()),
    ActionKind.INFORM: (("counterparty",), ()),
    ActionKind.SIGN_CONTRACT: (("contract_id",), ()),
    ActionKind.PREPARE_CONTRACT: (("contract_id",),
                                  ("counterparty", "parties", "clauses", "references", "terms")),
    ActionKind.PREPARE_GOOD: (("good_id", "good_spec"), ()),
    ActionKind.REQUEST_PREPARE_GOOD: (("counterparty", "good_id"), ()),
}


def _check(needs: tuple[str, ...], takes: tuple[str, ...]) -> tuple:
    """What ``_need`` checks of a kind: its needs, then the getter, the
    defaults and the names of the fields that it does not take."""
    taken = {"reason", "channel", "message", "tags", *needs, *takes}  # the metadata too
    untaken = [f for f in fields(Action) if f.has_default and f.name not in taken]
    names = tuple(f.name for f in untaken)
    return needs, attrgetter(*names), tuple(f.default for f in untaken), names


_CHECKS = {kind: _check(needs, takes) for kind, (needs, takes) in _FIELDS.items()}


def net_cells(rows: Sequence[tuple[str, str, Quantity, int]]) -> tuple[int, dict[str, dict[int, int]]]:
    """Net cash per agent and day of ``(payer, payee, amount, day)`` rows, as
    ``(scale, sums)``: ``sums[agent][day]`` is the net times ``scale``, the
    least common denominator of the amounts, so an integer. Agents and days
    come in the order the rows first name them; cancelled cells hold 0."""
    scale = lcm(*{amount.den for _, _, amount, _ in rows})
    sums: dict[str, dict[int, int]] = {}
    for payer, payee, amount, day in rows:
        scaled = amount.num * (scale // amount.den)
        per_day = sums.setdefault(payer, {})
        per_day[day] = per_day.get(day, 0) - scaled
        per_day = sums.setdefault(payee, {})
        per_day[day] = per_day.get(day, 0) + scaled
    return scale, sums


def apply_event(world: WorldState, action: Action, date: int) -> WorldState:
    """Apply one action at the given date, returning the successor world.

    Raises InsufficientFunds / NotOwner / StageViolation / UnknownReference /
    ValidationError; on success the event gets the next gap-free sequence
    number and total money across accounts is unchanged except by explicit
    opening endowments (payments and sales are zero-sum by construction).
    The successor shares with ``world`` every map the event leaves as it is,
    and the history's buffer (``History``).
    """
    if date < world.clock:
        raise ValidationError(f"event date {date} precedes world clock {world.clock}")
    _need(action)
    _validate_common(world, action)

    accounts, goods, contracts = world.accounts, world.goods, world.contracts
    seq = len(world.history) + 1
    deltas: list[str] = []
    kind = action.kind
    if kind in CASH_LEGS:
        payer, payee, paid = CASH_LEGS[kind](action)
    if kind == ActionKind.PAY or kind == ActionKind.RECEIVE_PAYMENT:
        accounts = _move_cash(accounts, payer, payee, paid, world.overdraft_allowed, deltas)
    elif kind == ActionKind.SPOT_SALE:
        goods = _move_good(goods, action.good_id, payee, payer, deltas)
        accounts = _move_cash(accounts, payer, payee, paid, world.overdraft_allowed, deltas)
    elif kind == ActionKind.BUY_ON_CREDIT:
        if action.due_date < date:
            raise ValidationError("credit due date precedes the sale date")
        down = paid or ZERO
        if down > action.amount:
            raise ValidationError("down payment exceeds the credit price")
        goods = _move_good(goods, action.good_id, payee, payer, deltas)
        if down > ZERO:
            accounts = _move_cash(accounts, payer, payee, down, world.overdraft_allowed, deltas)
        # the settlement: a promise to pay the rest by the due date, signed by both, no terms
        contracts = _add_contract(contracts, promise_to_contract(replace(
            action, kind=ActionKind.PROMISE_PAY, amount=action.amount - down, down_payment=None,
            good_id=None, contract_id=action.contract_id or seq_named_contract(action, seq))),
            deltas)
    elif kind in PROMISE_KINDS:
        contracts = _add_contract(contracts, promise_to_contract(
            replace(action, contract_id=action.contract_id or seq_named_contract(action, seq))),
            deltas)
    elif kind == ActionKind.PREPARE_CONTRACT:
        parties = action.parties or ((action.actor, action.counterparty) if action.counterparty else (action.actor,))
        for clause in action.clauses:
            if clause.obliged_party not in parties:
                raise ValidationError(
                    f"clause obliges {clause.obliged_party!r}, not a party to {action.contract_id!r}"
                )
        contracts = _add_contract(contracts, ContractRecord(
            contract_id=action.contract_id,
            parties=frozenset(parties),
            initiator=action.actor,
            clauses=action.clauses,
            references=frozenset(action.references),
            stage=Stage.PREPARED,
            terms=action.terms,
        ), deltas)
    elif kind == ActionKind.SIGN_CONTRACT:
        record = contracts.get(action.contract_id)
        if record is None:
            raise UnknownReference(f"unknown contract {action.contract_id!r}")
        if action.actor not in record.parties:
            raise ValidationError(f"{action.actor} is not a party to {action.contract_id}")
        if record.stage not in (Stage.PREPARED, Stage.PARTIALLY_SIGNED):
            raise StageViolation(
                f"contract {action.contract_id} is {record.stage.value}, not signable"
            )
        if action.actor in record.signatures:
            raise StageViolation(f"{action.actor} already signed {action.contract_id}")
        signatures = record.signatures | {action.actor}
        stage = Stage.ACTIVE if signatures == record.parties else Stage.PARTIALLY_SIGNED
        contracts = {**contracts,
                     action.contract_id: replace(record, signatures=signatures, stage=stage)}
        deltas.append(f"contract {action.contract_id} {stage.value}")
    elif kind == ActionKind.PREPARE_GOOD:
        if action.good_id in goods:
            raise ValidationError(f"good id {action.good_id!r} already exists")
        spec = action.good_spec
        _check_good_value(spec.market_value, spec.block_size, action.good_id)
        goods = {**goods, action.good_id: Good(
            good_id=action.good_id,
            kind=spec.kind,
            owner=action.actor,
            market_value=spec.market_value,
            block_size=spec.block_size,
            is_money=spec.is_money,
        )}
        deltas.append(f"{action.good_id} prepared by {action.actor}")

    event = Event(seq, date, action, "; ".join(deltas))
    return WorldState(world.agents, accounts, goods, contracts, _appended(world.history, event),
                      date, world.overdraft_allowed)


# Each move returns a new map, leaves the one it is given to the world before
# the event and adds the text of its change to ``deltas``.

def _move_cash(accounts: Mapping[str, Quantity], payer: str, payee: str, amount: Quantity,
               overdraft: bool, deltas: list[str]) -> Mapping[str, Quantity]:
    if not overdraft and accounts[payer] < amount:
        raise InsufficientFunds(f"{payer} holds {accounts[payer]}, cannot pay {amount}")
    if amount == ZERO:
        return accounts
    accounts = dict(accounts)
    accounts[payer] = accounts[payer] - amount
    accounts[payee] = accounts[payee] + amount
    text = str(amount)
    deltas.append(f"{payer} -{text}; {payee} +{text}")
    return accounts


def _move_good(goods: Mapping[str, Good], good_id: str, seller: str, buyer: str,
               deltas: list[str]) -> Mapping[str, Good]:
    good = goods.get(good_id)
    if good is None:
        raise UnknownReference(f"unknown good {good_id!r}")
    if good.owner != seller:
        raise NotOwner(f"{seller} does not own {good_id} (owner: {good.owner})")
    deltas.append(f"{good_id} owner: {seller} -> {buyer}")
    return {**goods, good_id: replace(good, owner=buyer)}


def _add_contract(contracts: Mapping[str, ContractRecord], record: ContractRecord,
                  deltas: list[str]) -> Mapping[str, ContractRecord]:
    if record.contract_id in contracts:
        raise ValidationError(f"contract id {record.contract_id!r} already exists")
    deltas.append(f"contract {record.contract_id} {record.stage.value}")
    return {**contracts, record.contract_id: record}


# The kinds that name the contract they add after their event's sequence
# number when they carry no contract_id: a credit sale its settlement, a
# promise its own.
_SEQ_NAMED = {ActionKind.BUY_ON_CREDIT: "credit", **dict.fromkeys(PROMISE_KINDS, "promise")}


def seq_named_contract(action: Action, seq: int) -> Optional[str]:
    """The id, ``credit-{seq}`` or ``promise-{seq}``, of the contract that
    ``action`` adds as event ``seq`` when it carries no ``contract_id``;
    None when its contract id, if any, is its own. Enumeration reads it
    too: the world after such an action depends on its sequence number."""
    if action.contract_id:
        return None
    prefix = _SEQ_NAMED.get(action.kind)
    return None if prefix is None else f"{prefix}-{seq}"


def _need(action: Action) -> None:
    """Check that the action carries the fields its kind needs, none that its
    kind does not take (``_FIELDS``) and no negative sum."""
    kind = action.kind
    needs, getter, defaults, names = _CHECKS[kind]
    for name in needs:
        if getattr(action, name) is None:
            raise ValidationError(f"{kind.value} requires {name}")
    values = getter(action)
    if values != defaults:
        name = next(n for n, v, d in zip(names, values, defaults) if v != d)
        raise ValidationError(f"{kind.value} does not take {name}")
    amount, down = action.amount, action.down_payment  # canonical: the sign is num's
    if amount is not None and amount.num < 0 or down is not None and down.num < 0:
        raise ValidationError("sums must be nonnegative")


def _validate_common(world: WorldState, action: Action) -> None:
    if action.actor not in world.agents:
        raise UnknownReference(f"unknown actor {action.actor!r}")
    if action.counterparty is not None and action.counterparty not in world.agents:
        raise UnknownReference(f"unknown counterparty {action.counterparty!r}")
    if action.reason:
        for cid in action.reason.contract_ids:
            if cid not in world.contracts:
                raise UnknownReference(f"reason cites unknown contract {cid!r}")
        for ref in action.reason.event_refs:
            if not 1 <= ref <= len(world.history):
                raise UnknownReference(f"reason cites unknown event {ref}")
    for ref in action.references:
        if ref not in world.contracts:
            raise UnknownReference(f"reference to unknown contract {ref!r}")


# ---------------------------------------------------------------------------
# promises to contracts
# ---------------------------------------------------------------------------

def promise_to_contract(promise: Action) -> ContractRecord:
    """Turn a promise action into the contract it produces, under its ``contract_id``.

    One clause per promised obligation; stage is PARTIALLY_SIGNED when its
    ``signing`` is INITIATOR_ONLY, ACTIVE when both parties sign.
    """
    if promise.kind not in PROMISE_KINDS:
        raise ValidationError(f"{promise.kind.value} is not a promise")
    _need(promise)
    cid = promise.contract_id
    if cid is None:
        raise ValidationError(f"{promise.kind.value} requires contract_id")
    actor, other = promise.actor, promise.counterparty

    kind, trigger, good, bound = ActionKind.PAY, Always(), None, cid
    if promise.kind == ActionKind.PROMISE_ACCEPT_PAYMENT:
        kind = ActionKind.RECEIVE_PAYMENT
    elif promise.kind == ActionKind.PROMISE_BUY_ON_CONDITION:
        kind = ActionKind.BUY_ON_CREDIT if promise.on_credit else ActionKind.SPOT_SALE
        good, bound = promise.good_id, None
        trigger = promise.trigger or AfterEvent(
            ActionTemplate(kind=ActionKind.PREPARE_GOOD, good_id=good))
    elif promise.kind == ActionKind.PROMISE_INSURANCE_PAYOUT:
        trigger = AfterEvent(ActionTemplate(kind=ActionKind.PAY, actor=other, counterparty=actor,
                                            amount=promise.down_payment))
    elif promise.kind == ActionKind.PROMISE_MANAGE_FUNDS:
        trigger = AfterEvent(ActionTemplate(kind=ActionKind.PAY, actor=other, counterparty=actor))
    # a spot purchase is executed by the seller, so the discharging event has
    # the counterparty as its actor
    doer, receiver = (other, actor) if kind == ActionKind.SPOT_SALE else (actor, other)
    clauses = (Clause(
        obliged_party=actor,
        obliged_action=ActionTemplate(kind=kind, actor=doer, counterparty=receiver,
                                      amount=promise.amount, good_id=good, contract_id=bound),
        trigger=trigger,
        deadline=promise.due_date,
    ),)

    parties = frozenset({actor, other})
    if promise.signing == SigningMode.BOTH_PARTIES:
        signatures, stage = parties, Stage.ACTIVE
    else:
        signatures, stage = frozenset({actor}), Stage.PARTIALLY_SIGNED
    return ContractRecord(
        contract_id=cid,
        parties=parties,
        initiator=actor,
        clauses=clauses,
        references=frozenset(promise.reason.contract_ids) if promise.reason else frozenset(),
        signatures=signatures,
        stage=stage,
        terms=promise.terms,
    )


# ---------------------------------------------------------------------------
# honour status
# ---------------------------------------------------------------------------

def trigger_fired(trigger: Trigger, history: HistoryLog, now: int,
                  world: Optional[WorldState] = None,
                  choices: Mapping[str, bool] | None = None) -> bool:
    if isinstance(trigger, Always):
        return True
    if isinstance(trigger, ByDate):
        return now >= trigger.day
    if isinstance(trigger, AfterEvent):
        return any(trigger.pattern.matches(event.action) for event in history)
    if isinstance(trigger, ConditionMet):
        if world is None:
            return False
        return eval_condition(trigger.condition, world, choices or {})
    raise TypeError(f"unknown trigger {trigger!r}")


def _clause_discharged(clause: Clause, history: HistoryLog) -> bool:
    for event in history:
        if clause.obliged_action.matches(event.action):
            if clause.deadline is None or event.date <= clause.deadline:
                return True
    return False


def honour_status(contract: ContractRecord, history: HistoryLog, now: int) -> Stage:
    """Refined life-cycle status of an active contract against a history.

    Honoured when every live clause has a discharging event; partially
    honoured when some do; breached when a live clause's deadline passed
    undischarged. Clauses whose after-event trigger never fired, and
    clauses whose by-date trigger's day is still to come, stay dormant and
    are ignored; a condition-met clause is always live. The stored stage is
    returned unchanged when nothing has been discharged yet.
    """
    if contract.stage in (Stage.DRAFTED, Stage.PREPARED, Stage.PARTIALLY_SIGNED):
        raise StageViolation(
            f"contract {contract.contract_id} is {contract.stage.value}; honour status "
            "applies to active contracts"
        )
    live = [c for c in contract.clauses
            if isinstance(c.trigger, ConditionMet) or trigger_fired(c.trigger, history, now)]
    if not live:
        return contract.stage
    discharged = [c for c in live if _clause_discharged(c, history)]
    for clause in live:
        if clause not in discharged and clause.deadline is not None and now > clause.deadline:
            return Stage.BREACHED
    if len(discharged) == len(live):
        return Stage.HONOURED
    if discharged:
        return Stage.PARTIALLY_HONOURED
    return contract.stage


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(initial: WorldState, history: Iterable[Event]) -> WorldState:
    """Re-apply a history from an initial snapshot.

    Replaying a world's own history from its initial state reproduces the
    ground and contract levels exactly; tests compare serialized bytes.
    """
    world = initial
    for event in history:
        world = apply_event(world, event.action, event.date)
    return world


# ---------------------------------------------------------------------------
# JSON codec: one table drives the JSON values, their text and decoding
# ---------------------------------------------------------------------------
#
# Every serialized class has a row: its JSON keys in output order, the
# fields left out while they hold their default, and decode defaults for
# keys that a file may leave out although the class requires them. Every
# tagged union (triggers, conditions, plan steps) gives the tag key of each
# member. A member is written {tag: true} when it has no fields, {tag:
# value} when it has one and {tag: {...}} when it has more, or flat when
# its own row holds the tag as a key (ChoiceIs). Field types come from the
# annotations: a quantity is a string, an enum its value, a tuple an array
# and a frozenset a sorted array. Decoding takes exactly one JSON type per
# field type, takes no key that the row does not name, and names the JSON
# path of whatever does not fit.

@record
class _Row:
    keys: tuple[tuple[str, str], ...]  # (JSON key, field name) in output order
    omit: Mapping[str, object]  # field name -> the default while which it is left out
    defaults: Mapping[str, object]


_ROWS: dict[type, _Row] = {}
_UNIONS: dict[frozenset, dict[str, type]] = {}  # member classes -> {tag: member}
_TAGS: dict[type, str] = {}
_KEEP = object()  # the "default" of a field that is written whatever it holds


def codec_row(cls: type, keys: str | None = None, omit: str = "",
              defaults: Mapping[str, object] | None = None) -> None:
    """Add a record class to the JSON table.

    ``keys`` lists every field's JSON key in output order, as ``key=field``
    where the two differ; without it the keys are the declared fields, in
    order, so a row names keys only to rename or reorder fields. ``omit``
    names the fields left out while they hold their default, ``*`` for all
    that have one. ``defaults`` gives the value of a key that a file may
    leave out although the class has no default.
    """
    declared = fields(cls)
    if keys is None:
        keys = " ".join(f.name for f in declared)
    pairs = tuple(tuple(k.split("=", 1)) if "=" in k else (k, k) for k in keys.split())
    if sorted(name for _, name in pairs) != sorted(f.name for f in declared):
        raise TypeError(f"codec row of {cls.__name__} must name each field once")
    omitted = {f.name: f.default if f.default is not MISSING else f.default_factory()
               for f in declared if f.has_default and (omit == "*" or f.name in omit.split())}
    _ROWS[cls] = _Row(pairs, omitted, dict(defaults or {}))


def codec_union(union: object, **tags: type) -> None:
    """Add a tagged union to the JSON table; each keyword is a member's tag."""
    members = frozenset(tags.values())
    if members != frozenset(get_args(union)):
        raise TypeError(f"codec union {union!r} must tag each member once")
    _UNIONS[members] = tags
    for tag, member in tags.items():
        _TAGS[member] = tag


def value_to_dict(value: object) -> object:
    """The JSON value of ``value``, which ``render_json`` writes as text.

    A record of a class in the table becomes its row's object; a tuple or
    list becomes a list, a frozenset a sorted list, a dict a dict of the
    values, a quantity its string and an enum its value. Anything else is
    its own JSON value.
    """
    return _json_value(value)


# The walk recurses through its own name, so that a wrapper put on
# ``value_to_dict`` (or on ``action_to_dict``) sees one call per value asked for.
def _json_value(value: object) -> object:
    cls = value.__class__
    row = _ROWS.get(cls)
    if row is not None:
        out = {}
        for key, name in row.keys:
            item = getattr(value, name)
            default = row.omit.get(name, _KEEP)
            if default is _KEEP or (item is not None if default is None else item != default):
                out[key] = _json_value(item)
        tag = _TAGS.get(cls)
        if tag is None or any(key == tag for key, _ in row.keys):
            return out
        if not row.keys:
            return {tag: True}
        return {tag: out if len(row.keys) > 1 else out[row.keys[0][0]]}
    if isinstance(value, (tuple, list, History)):
        return [_json_value(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(_json_value(item) for item in value)
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if cls is Quantity:
        return str(value)
    if isinstance(value, Enum):
        return value.value
    return value


action_to_dict = value_to_dict


def value_from_dict(tp: object, data: object, path: str = "") -> object:
    """Decode ``data`` as a ``tp``; a ValueError names the JSON path at fault."""
    try:
        return _codec(tp)(data, path)
    except RecursionError:
        raise _fail(path, "nested too deeply") from None


def _non_none(args: tuple) -> object:
    members = tuple(a for a in args if a is not type(None))
    return members[0] if len(members) == 1 else Union[members]


def _join(path: str, key: object) -> str:
    return f"{path}.{key}" if path else str(key)


def _fail(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}" if path else message)


def _show(data: object) -> str:
    text = json.dumps(data, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def _reject_unknown(data: dict, known: frozenset, path: str) -> None:
    unknown = data.keys() - known
    if unknown:
        raise _fail(path, f"unknown key {sorted(unknown)[0]!r}; known: {sorted(known)}")


def _expect(data: object, kind: type, what: str, path: str) -> object:
    if type(data) is not kind:
        raise _fail(path, f"expected {what}, got {_show(data)}")
    return data


_JSON_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}


@cache
def _codec(tp: object) -> Callable:
    """The decoder of a type, built on first use; it takes (data, path)."""
    if tp in _ROWS:
        return _row_codec(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if type(None) not in args:  # each member reads its own tag
            return _union_decoder(_UNIONS[frozenset(args)])
        dec = _codec(_non_none(args))
        return lambda data, path: None if data is None else dec(data, path)
    if origin in (tuple, frozenset):
        dec = _codec(args[0])
        return lambda data, path: origin(
            dec(x, f"{path}[{i}]") for i, x in enumerate(_expect(data, list, "an array", path)))
    if origin is dict:
        dec = _codec(args[1])
        return lambda data, path: {k: dec(x, _join(path, k))
                                   for k, x in _expect(data, dict, "an object", path).items()}
    if tp is Quantity:
        def decode_quantity(data, path):
            try:
                return parse_quantity(data)
            except ValueError as exc:
                raise _fail(path, str(exc)) from None
        return decode_quantity
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}
        choices = ", ".join(repr(v) for v in members)

        def decode_enum(data, path):
            member = members.get(data) if type(data) is str else None
            if member is None:
                raise _fail(path, f"expected one of {choices}, got {_show(data)}")
            return member
        return decode_enum
    if tp in _JSON_NAMES:
        what = _JSON_NAMES[tp]
        return lambda data, path: _expect(data, tp, what, path)
    raise TypeError(f"no JSON form for {tp!r}")


def _row_codec(cls: type) -> Callable:
    """A row's decoder. A tagged member's decoder reads the object that holds its tag."""
    row = _ROWS[cls]
    hints = get_type_hints(cls)
    declared = {f.name: f for f in fields(cls)}
    tag = _TAGS.get(cls)
    keys = [key for key, _ in row.keys]
    decoders = [(key, name, _codec(hints[name]),
                 name not in row.defaults and not declared[name].has_default)
                for key, name in row.keys]
    known = frozenset(keys)

    def decode(data, path):
        _reject_unknown(_expect(data, dict, "an object", path), known, path)
        kwargs = {}
        for key, name, dec, required in decoders:
            if key in data:
                kwargs[name] = dec(data[key], _join(path, key))
            elif name in row.defaults:
                kwargs[name] = row.defaults[name]
            elif required:
                raise _fail(path, f"missing required key {key!r}")
        return cls(**kwargs)

    if tag is None or tag in keys:
        return decode
    wrapper = frozenset((tag,))

    def inner(data, path):  # the object that holds the tag holds nothing else
        _reject_unknown(data, wrapper, path)
        return data[tag]
    if not keys:
        def decode_bare(data, path):
            if inner(data, path) is not True:
                raise _fail(_join(path, tag), f"expected true, got {_show(data[tag])}")
            return cls()
        return decode_bare
    if len(keys) == 1:
        _, name, dec, _ = decoders[0]
        return lambda data, path: cls(**{name: dec(inner(data, path), _join(path, tag))})
    return lambda data, path: decode(inner(data, path), _join(path, tag))


def _union_decoder(tags: Mapping[str, type]) -> Callable:
    expected = "an object with one of the keys " + ", ".join(repr(t) for t in tags)

    def decode(data, path):
        if type(data) is dict:
            for tag, member in tags.items():
                if tag in data:
                    return _codec(member)(data, path)
        raise _fail(path, f"expected {expected}, got {_show(data)}")
    return decode


codec_row(Agent)
codec_row(Good, defaults={"kind": "asset", "market_value": None})
codec_row(GoodSpec, defaults={"kind": "asset", "market_value": None})
codec_row(Reason, omit="*")
codec_row(ActionTemplate, "kind actor counterparty good_id contract_id message amount", omit="*")
codec_row(Always)
codec_row(AfterEvent)
codec_row(ByDate)
codec_row(ConditionMet)
codec_union(Trigger, always=Always, by_date=ByDate, after_event=AfterEvent, condition=ConditionMet)
codec_row(ChoiceIs, "choice=name value")
codec_row(BalanceAtLeast)
codec_row(OwnsGood)
codec_row(ContractInStage)
codec_union(Condition, choice=ChoiceIs, balance_at_least=BalanceAtLeast, owns_good=OwnsGood,
            contract_stage=ContractInStage)
codec_row(Clause, omit="deadline")
codec_row(RepaymentTerms)
codec_row(ContractRecord, omit="terms", defaults={"clauses": ()})
codec_row(Action, omit="*")
codec_row(Event)


def world_object(world: WorldState, include_history: bool = True) -> dict:
    """The world's JSON object, with its agents, goods, contracts and events
    left as records: ``value_to_dict`` makes them JSON values and
    ``render_json`` writes them as text."""
    out = {
        "clock": world.clock,
        "overdraft_allowed": world.overdraft_allowed,
        "agents": tuple(world.agents[name] for name in sorted(world.agents)),
        "accounts": [{"owner": name, "balance": str(world.accounts[name])}
                     for name in sorted(world.accounts)],
        "goods": tuple(world.goods[g] for g in sorted(world.goods)),
        "contracts": tuple(world.contracts[c] for c in sorted(world.contracts)),
    }
    if include_history:
        out["history"] = world.history
    return out


def world_to_json(world: WorldState) -> str:
    """``render_json(value_to_dict(world_object(world)))``, written without
    building a dict for any agent, good, contract or event."""
    return render_json(world_object(world))


# ---------------------------------------------------------------------------
# indented JSON text
# ---------------------------------------------------------------------------
#
# Each row compiles a writer on first use: ``write(obj, newline)`` is the
# text json.dumps(value_to_dict(obj), indent=2) would give, placed on a
# line that ``newline`` opens. It follows the row as ``value_to_dict``
# does (the same keys in the same order, the same omitted defaults, the
# same tag) and writes the text of every field type in the table itself:
# strings, integers, booleans, quantities, enums, nested records, their
# Optionals, tuples, dicts with string keys and frozensets of strings or
# enums.

# the leaf encoders json's own encoders use, both written in C
_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__

_WRITERS: dict[type, Callable[[object, str], str]] = {}

# the action texts of the last two renders, older first: id(action) ->
# (action, newline, text); swapped in place, so no global is rebound
_kept: list[dict[int, tuple[Action, str, str]]] = [{}, {}]


def render_json(value: object) -> str:
    """Exactly ``json.dumps(value, indent=2)``, without json's pure-Python
    encoder, where a record of a class in the codec table stands for its
    ``value_to_dict``.

    json's C encoder ignores ``indent``, so json renders indented output
    with its pure-Python encoder. ``_write`` walks the value instead, hands
    each leaf to json's C functions and writes each record through its
    row's writer, so a record becomes text without becoming a dict first.
    Like json, it raises TypeError for a key or a leaf that JSON cannot hold.

    Each action's text is kept for the next render (``_keeping``): every
    event of a run, its replay and each interleaving holds its plan's own
    ``Action``. Each call drops what neither it nor the one before wrote.
    """
    _kept[:] = _kept[1], {}
    return _write(value, "\n")


def _json_key(key: object) -> str:
    """A dict key as json writes it: a number, a boolean or None as its JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write(value: object, newline: str) -> str:
    """The JSON text of ``value`` on a line that ``newline`` opens: a record
    through its row's writer, a container through ``_block``, as the row
    writers write theirs."""
    cls = value.__class__
    if cls is str:
        return _encode_str(value)
    if cls in _ROWS:
        return (_WRITERS.get(cls) or _row_writer(cls))(value, newline)
    inner = newline + "  "
    if isinstance(value, dict):
        return _block([_encode_str(_json_key(key)) + ": " + _write(item, inner)
                       for key, item in value.items()], newline, "{}")
    if isinstance(value, (list, tuple, History)):
        return _block([_write(item, inner) for item in value], newline, "[]")
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return _int_repr(value)
    return json.dumps(value)


def _block(texts: list, newline: str, brackets: str) -> str:
    """A JSON array or object of item texts placed on lines that ``newline +
    "  "`` opens; ``brackets`` is ``[]`` or ``{}``. One f-string brackets the
    joined items: each ``+`` would copy the whole text again."""
    if not texts:
        return brackets
    inner = newline + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(texts)}{newline}{brackets[1]}"


def _text_of(tp: object, var: str, newline: str, env: dict) -> str:
    """A Python expression for the JSON text of ``var``, a ``tp``, on a line
    that the expression ``newline`` opens. It binds in ``env`` the values it
    names."""
    if tp is str:
        return f"_encode_str({var})"
    if tp is Quantity:
        return f"_encode_str(str({var}))"
    if tp is int:
        return f"_int_repr({var})"
    if tp is bool:
        return f"('true' if {var} else 'false')"
    if isinstance(tp, type) and issubclass(tp, Enum):
        texts = {member: _write(member.value, "\n") for member in tp}  # not a render: no swap
        return f"{_bind(env, texts)}[{var}]"
    if tp in _ROWS:
        name = _bind(env, None)
        env[name] = _first_write(env, name, tp)
        return f"{name}({var}, {newline})"
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):
        if frozenset(args) in _UNIONS:  # each member writes its own tag
            return f"_write({var}, {newline})"
        return f"('null' if {var} is None else " \
            f"{_text_of(_non_none(args), var, newline, env)})"
    inner = f"{newline} + '  '"
    if origin is tuple:
        return f"_block([{_text_of(args[0], 'x', inner, env)} for x in {var}], " \
            f"{newline}, '[]')"
    if origin is frozenset and (args[0] is str or isinstance(args[0], type)
                                and issubclass(args[0], Enum)):
        # in the order of the items' JSON values
        key = "" if args[0] is str else f", key={_bind(env, attrgetter('value'))}"
        return f"_block([{_text_of(args[0], 'x', inner, env)} " \
            f"for x in sorted({var}{key})], {newline}, '[]')"
    if origin is dict and args[0] is str:
        return f"_block([_encode_str(k) + ': ' + {_text_of(args[1], 'x', inner, env)} " \
            f"for k, x in {var}.items()], {newline}, '{{}}')"
    raise TypeError(f"no JSON text for {tp!r}")


def _bind(env: dict, value: object) -> str:
    """A new name in ``env`` bound to ``value``."""
    name = f"c{len(env)}"
    env[name] = value
    return name


def _row_writer(cls: type) -> Callable[[object, str], str]:
    """Compile a row's writer and add it to ``_WRITERS``."""
    row = _ROWS[cls]
    hints = get_type_hints(cls)
    tag = _TAGS.get(cls)
    keys = [key for key, _ in row.keys]
    env: dict = {"__name__": __name__, "_encode_str": _encode_str, "_int_repr": _int_repr,
                 "_block": _block, "_write": _write}

    def label(key: str) -> str:
        return repr(_encode_str(key) + ": ")

    if tag is not None and tag not in keys and len(keys) < 2:  # {tag: true} or {tag: value}
        text = "'true'"
        if keys:
            name = row.keys[0][1]
            text = _text_of(hints[name], f"obj.{name}", "inner", env)
        lines = ["inner = nl + '  '", f"return '{{' + inner + {label(tag)} + {text} + nl + '}}'"]
    else:
        wrapped = tag is not None and tag not in keys  # {tag: {...}}
        lines = ["b = nl + '  '" if wrapped else "b = nl", "d = b + '  '"]
        texts, omits = [], []
        for i, (key, name) in enumerate(row.keys):
            tp, default = hints[name], row.omit.get(name, _KEEP)
            if default is None and get_origin(tp) in (Union, UnionType):
                tp = _non_none(get_args(tp))  # left out while None: the text never is null
            texts.append(label(key) + " + " + _text_of(tp, f"v{i}", "d", env))
            lines.append(f"v{i} = obj.{name}")
            env[f"default{i}"] = default
            omits.append("" if default is _KEEP else f"v{i} is not None" if default is None
                         else f"v{i} != default{i}")
        # the keys before the first one that may be left out open the list
        kept = next((i for i, omit in enumerate(omits) if omit), len(omits))
        lines.append(f"parts = [{', '.join(texts[:kept])}]")
        lines += [f"if {omit}: parts.append({text})" if omit else f"parts.append({text})"
                  for omit, text in zip(omits[kept:], texts[kept:])]
        lines.append("body = '{' + d + (',' + d).join(parts) + b + '}' if parts else '{}'")
        lines.append(f"return '{{' + b + {label(tag)} + body + nl + '}}'" if wrapped
                     else "return body")
    source = "".join(f"    {line}\n" for line in lines)
    exec(compile(f"def write(obj, nl):\n{source}", f"<codec writer {cls.__name__}>", "exec"), env)
    write = _WRITERS[cls] = _keeping(env["write"]) if cls is Action else env["write"]
    return write


def _keeping(write: Callable[[object, str], str]) -> Callable[[object, str], str]:
    """``write`` for actions, reusing a text that this render or the last
    one wrote on the same ``newline``; a hit moves into this render's
    texts. The entry holds the action, so its id names no other object."""
    def keep(action: Action, newline: str) -> str:
        key = id(action)
        entry = _kept[1].get(key) or _kept[0].get(key)
        if entry is None or entry[1] != newline:
            entry = (action, newline, write(action, newline))
        _kept[1][key] = entry
        return entry[2]
    return keep


def _first_write(env: dict, name: str, cls: type) -> Callable[[object, str], str]:
    """The writer bound to ``name`` in ``env`` until a record of ``cls`` is
    written: it compiles ``cls``'s writer, binds that in its own place and
    writes through it. So a command compiles the writers of the records it
    writes, and no other."""
    def write(value: object, newline: str) -> str:
        env[name] = _WRITERS.get(cls) or _row_writer(cls)
        return env[name](value, newline)
    return write
