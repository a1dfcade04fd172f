"""``synthesize`` against a brute-force oracle that shares none of its search:
every grounded trade sequence up to the bound, applied through
``apply_event``, kept when its projection is equivalent to the target and
its goods are back home."""

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from rpsf.engine import Progression  # noqa: E402
from rpsf.money import Quantity  # noqa: E402
from rpsf.synthesis import (ALL_AGENTS, Flow, canonical, equivalent,  # noqa: E402
                            monetary_projection, synthesize)
from rpsf.world import (Action, ActionKind, Agent, Good, GoodSpec, Reason,  # noqa: E402
                        WorldError, apply_event, make_world)

AGENTS = ("X", "Y", "Z")
SPOT, CREDIT, PREPARE = ActionKind.SPOT_SALE, ActionKind.BUY_ON_CREDIT, ActionKind.PREPARE_GOOD

flows = st.builds(
    lambda pair, num, den, day: Flow(pair[0], pair[1], Quantity(num, den), day),
    st.permutations(AGENTS).map(lambda names: names[:2]),
    st.integers(0, 20), st.sampled_from((1, 2, 3)), st.sampled_from((0, 0, 7, 30)),
)
catalogues = st.sets(st.sampled_from(("spot-sale", "credit-sale", "prepare-good")),
                     min_size=1)


def moves(catalogue, prices, dues):
    """Every grounded step, as (kind, seller, buyer, price, due): one good,
    ``g0``, traded at a target amount; a credit sale is due on a target date."""
    kinds = [kind for kind, name in ((SPOT, "spot-sale"), (CREDIT, "credit-sale"))
             if name in catalogue]
    steps = [(kind, seller, buyer, price, due if kind is CREDIT else None)
             for kind, seller, buyer, price, due
             in product(kinds, AGENTS, AGENTS, prices, dues or [None])
             if seller != buyer and (kind is SPOT or due is not None)]
    if "prepare-good" in catalogue:  # at most one good is prepared
        steps += [(PREPARE, agent, None, None, None) for agent in AGENTS]
    return list(dict.fromkeys(steps))


def action(step, index):
    kind, seller, buyer, price, due = step
    if kind is PREPARE:
        return Action(kind=PREPARE, actor=seller, good_id="g0",
                      good_spec=GoodSpec(kind="asset", market_value=None))
    if kind is SPOT:
        return Action(kind=SPOT, actor=seller, counterparty=buyer, amount=price, good_id="g0")
    return Action(kind=CREDIT, actor=buyer, counterparty=seller, amount=price,
                  down_payment=Quantity(0), due_date=due, good_id="g0",
                  contract_id=f"credit-{index}")


def settled(world, trades):
    """The world after each credit sale is paid on its due date."""
    credits = sorted((a.due_date, i, a) for i, a in enumerate(trades) if a.kind is CREDIT)
    for due, _, sale in credits:
        world = apply_event(world, Action(kind=ActionKind.PAY, actor=sale.actor,
                                          counterparty=sale.counterparty, amount=sale.amount,
                                          reason=Reason(contract_ids=(sale.contract_id,))), due)
    return world


def first_use_names(trades, used):
    """Rename the agents outside ``used`` in the order they first trade, onto
    the unused names in ``AGENTS`` order: the search's role symmetry."""
    fresh = (name for name in AGENTS if name not in used)
    names = {name: name for name in used}
    for a in trades:
        for agent in (a.actor, a.counterparty):
            if agent is not None and agent not in names:
                names[agent] = next(fresh)
    return names


def shape(trades, names=None):
    """A sequence as comparable rows: its trades, then its settlements."""
    names = names or {name: name for name in AGENTS}
    rows = tuple((a.kind, names[a.actor], names.get(a.counterparty), a.amount, a.due_date)
                 for a in trades)
    return rows, tuple(row[1:] for row in rows if row[0] is CREDIT)


def oracle(target, catalogue, bound, perspective):
    # grounded on the perspective's nonzero nets: prices are their absolute
    # values, and dues their days after 0
    nets = {}
    for f in target:
        for agent, signed in ((f.payer, -f.amount), (f.payee, f.amount)):
            if agent in perspective:
                nets[agent, f.date] = nets.get((agent, f.date), Quantity(0)) + signed
    prices = sorted({abs(net) for net in nets.values() if net})
    dues = sorted({day for (_, day), net in nets.items() if net and day > 0})
    preowned = "prepare-good" not in catalogue and bool({"spot-sale", "credit-sale"} & catalogue)
    goods = [Good("g0", "asset", AGENTS[1], None)] if preowned else []
    world0 = make_world([Agent(name) for name in AGENTS],
                        balances={name: Quantity(10**6) for name in AGENTS}, goods=goods)
    used = set(perspective) | {good.owner for good in goods}
    home = {good.good_id: good.owner for good in goods}
    steps, found = moves(catalogue, prices, dues), set()

    def walk(world, trades):
        end = settled(world, trades)
        homes = dict(home, **{a.good_id: a.actor for a in trades if a.kind is PREPARE})
        if (equivalent(monetary_projection(Progression(end.history, end)), target, perspective)
                and all(good.owner == homes[gid] for gid, good in end.goods.items())):
            found.add(shape(trades, first_use_names(trades, used)))
        if len(trades) < bound:
            for step in steps:
                trade = action(step, len(trades))
                try:
                    after = apply_event(world, trade, 0)
                except WorldError:  # not the seller's good, or a second good
                    continue
                walk(after, trades + (trade,))

    walk(world0, ())
    return found


@given(st.lists(flows, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ALL_AGENTS, ("X", "Y"), ("Z",))))
@example([Flow("X", "Y", Quantity(5), 0), Flow("Y", "X", Quantity(7), 30)],
         {"spot-sale", "credit-sale"}, 3, None)
# round trips at one price reach the same owners and nets from different
# homes, and a credit sale falls due on either date; zero flows net to
# nothing, so they ground no price at all
@example([Flow("X", "Y", Quantity(5), 0)], {"spot-sale", "credit-sale", "prepare-good"}, 3,
         ALL_AGENTS)
@example([Flow("X", "Y", Quantity(5), day) for day in (0, 7)] + [Flow("Y", "X", Quantity(5), 30)],
         {"credit-sale"}, 2, None)
@example([Flow("X", "Y", Quantity(0), 0)], {"spot-sale", "credit-sale", "prepare-good"}, 3,
         ALL_AGENTS)
@example([Flow("X", "Y", Quantity(0), day) for day in (0, 7, 30)], {"credit-sale"}, 2, None)
def test_oracle_and_search_find_the_same_witnesses(target, catalogue, bound, perspective):
    target = canonical(target)
    persp = (AGENTS[:1] if perspective is None
             else AGENTS if perspective == ALL_AGENTS else perspective)
    result = synthesize(target, catalogue, AGENTS, bound=bound, perspective=perspective)
    searched = [shape(w.trades) + (tuple(p[:4] for p in w.pending),) for w in result.witnesses]
    assert len(set(searched)) == len(searched)
    assert all(pending == settlements for _, settlements, pending in searched)
    assert {(rows, settlements) for rows, settlements, _ in searched} == oracle(
        target, catalogue, bound, persp)
