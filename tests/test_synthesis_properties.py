"""The synthesis search's state tuples, (owner, home, nets, used, depth,
mismatch), against the world transition and against a from-scratch recount,
and net positions against the Quantity-by-Quantity fold, and equivalence
against the net positions."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from rpsf import synthesis  # noqa: E402
from rpsf.money import ZERO, Quantity  # noqa: E402
from rpsf.synthesis import (  # noqa: E402
    ALL_AGENTS, Flow, canonical, equivalent, net_positions, synthesize)
from rpsf.world import ActionKind, Agent, Good, apply_event, make_world  # noqa: E402

AGENTS = ("X", "Y", "Z")

flows = st.builds(
    lambda pair, num, den, day: Flow(pair[0], pair[1], Quantity(num, den), day),
    st.permutations(AGENTS).map(lambda names: names[:2]),
    st.integers(0, 20), st.sampled_from((1, 2, 3)), st.sampled_from((0, 0, 7, 30)),
)
catalogues = st.sets(st.sampled_from(("spot-sale", "credit-sale", "prepare-good")),
                     min_size=1)


def search_steps(target, catalogue, bound, perspective):
    """Every (frame, state, path, action, child) ``_successor`` steps in one
    search, where ``path`` is the trades that lead to ``state``.

    The search expands each distinct subproblem once, from the first state
    that reaches it, so the steps cover every distinct subproblem, not
    every path. A search with more than its root node must have taken a
    step through the hook, or the properties that read the steps would
    check nothing.
    """
    steps, paths = [], {}
    successor = synthesis._successor

    def recording(frame, state, move):
        child = successor(frame, state, move)
        action = move[0]
        # ``steps`` keeps every state alive, so no id is reused
        path = paths.get(id(state), ())
        paths[id(child)] = path + (action,)
        steps.append((frame, state, path, action, child))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_successor", recording)
        result = synthesize(target, catalogue, AGENTS, bound=bound, perspective=perspective)
    assert steps or result.explored <= 1, f"{result.explored} nodes but no recorded step"
    return steps


@given(st.lists(flows, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ALL_AGENTS, ("X", "Y"))))
def test_owners_follow_apply_event_along_every_path(target, catalogue, bound, perspective):
    steps = search_steps(canonical(target), catalogue, bound, perspective)
    # each step's state is the root or an earlier step's child
    worlds = {}
    for _, state, path, action, child in steps:
        world = worlds.get(path)
        if world is None:
            assert path == ()
            owner = state[0]
            world = make_world([Agent(name) for name in AGENTS],
                               balances={name: Quantity(10**6) for name in AGENTS},
                               goods=[Good("g0", "asset", owner, None)] if owner else [])
        world = worlds[path + (action,)] = apply_event(world, action, 0)
        assert [(gid, good.owner) for gid, good in world.goods.items()] == [("g0", child[0])]


def path_flows(path):
    """The cash a path's trades move: spot sales now, credit sales at their
    due dates."""
    flows = []
    for a in path:
        if a.kind == ActionKind.SPOT_SALE:
            flows.append(Flow(a.counterparty, a.actor, a.amount, 0))
        elif a.kind == ActionKind.BUY_ON_CREDIT:
            flows.append(Flow(a.actor, a.counterparty, a.amount, a.due_date))
    return flows


def reference_mismatch(nets, target_nets, perspective):
    """Perspective cells where two nested net maps differ, counted afresh."""
    count = 0
    for agent in perspective:
        mine, theirs = nets.get(agent, {}), target_nets.get(agent, {})
        count += sum(1 for d in set(mine) | set(theirs)
                     if mine.get(d, ZERO) != theirs.get(d, ZERO))
    return count


@given(st.lists(flows, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ALL_AGENTS, ("X", "Y"), ("Z",))))
@example([Flow("X", "Y", Quantity(1, 2), 0), Flow("Y", "X", Quantity(1, 3), 0)],
         {"spot-sale"}, 1, None)
# the perspective holds both cells of a trade, so a move has two changes
@example([Flow("X", "Y", Quantity(5), 0), Flow("Y", "X", Quantity(7), 30)],
         {"spot-sale", "credit-sale"}, 2, ("X", "Y"))
def test_carried_counts_match_a_recount_along_every_path(target, catalogue, bound,
                                                         perspective):
    target = canonical(target)
    steps = search_steps(target, catalogue, bound, perspective)
    persp = {"X"} if perspective is None else (
        set(AGENTS) if perspective == ALL_AGENTS else set(perspective))
    target_nets = net_positions(target)
    for (scale, cells, _), state, path, action, child in steps:
        if action.kind == ActionKind.BUY_ON_CREDIT:
            assert action.contract_id == f"settle-{len(path)}"
        for node, node_path in ((state, path), (child, path + (action,))):
            owner, home, node_nets, _, depth, mismatch = node
            assert depth == len(node_path)
            # the good's home is its owner at the root, or whoever prepared it
            prepared = [a.actor for a in node_path if a.kind == ActionKind.PREPARE_GOOD]
            assert home == (prepared[0] if prepared else steps[0][1][0])
            assert (owner is None) is (home is None)
            nets = net_positions(path_flows(node_path))
            assert mismatch == reference_mismatch(nets, target_nets, persp)
            assert all(scale % flow.amount.den == 0 for flow in target)
            # the carried nets are the perspective's only
            assert {cell: Quantity(v, scale) for cell, v in zip(cells, node_nets) if v} == {
                (agent, d): v for agent, per_day in nets.items() if agent in persp
                for d, v in per_day.items()}


@given(st.lists(flows, min_size=1, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ("X", "Y"), ("Z",), AGENTS)), st.integers(0, 2),
       st.sampled_from(("route", Quantity(1, 2), Quantity(1, 3))))
@example([Flow("X", "Y", Quantity(5), 0), Flow("Y", "X", Quantity(7), 30)],
         {"spot-sale", "credit-sale"}, 3, None, 1, Quantity(1, 2))
def test_equivalent_targets_get_one_answer(target, catalogue, bound, perspective, index,
                                           rebooking):
    # B books one of A's flows either through W, an agent outside every
    # perspective, or as two flows on its day that sum to it
    flow = target[index % len(target)]
    rest = [f for i, f in enumerate(target) if i != index % len(target)]
    if rebooking == "route":
        pieces = [Flow(flow.payer, "W", flow.amount, flow.date),
                  Flow("W", flow.payee, flow.amount, flow.date)]
    else:
        part = flow.amount * rebooking
        pieces = [Flow(flow.payer, flow.payee, amount, flow.date)
                  for amount in (part, flow.amount - part)]
    a, b = canonical(target), canonical(rest + pieces)
    assert equivalent(a, b, perspective or AGENTS[:1])
    one, other = (synthesize(t, catalogue, AGENTS, bound=bound, perspective=perspective)
                  for t in (a, b))
    assert (one.found, one.explored, one.witnesses) == (
        other.found, other.explored, other.witnesses)


def reference_net_positions(trace):
    """Net positions as a fold of Quantity sums, one flow at a time."""
    nets = {}
    for flow in trace:
        for agent, sign in ((flow.payer, -1), (flow.payee, 1)):
            per_day = nets.setdefault(agent, {})
            per_day[flow.date] = per_day.get(flow.date, ZERO) + flow.amount * sign
    for agent in list(nets):
        nets[agent] = {d: v for d, v in nets[agent].items() if v != ZERO}
        if not nets[agent]:
            del nets[agent]
    return nets


def as_lists(nets):
    return [(agent, list(per_day.items())) for agent, per_day in nets.items()]


FOUR = ("W", "X", "Y", "Z")
small_flows = st.builds(
    lambda pair, num, den, day: Flow(pair[0], pair[1], Quantity(num, den), day),
    st.permutations(FOUR).map(lambda names: names[:2]),
    st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6, 7)), st.sampled_from((0, 1, 30)),
)


@given(st.lists(st.tuples(small_flows, st.booleans()), max_size=10))
@example([(Flow("X", "Y", Quantity(3), 0), False),
          (Flow("Y", "Z", Quantity(3, 2), 1), True),
          (Flow("Y", "X", Quantity(1), 0), False)])
def test_net_positions_match_the_fold_in_order(drawn):
    # a flag appends the flow's mirror image, so days and whole agents net to zero
    trace = [flow for flow, _ in drawn]
    trace += [Flow(f.payee, f.payer, f.amount, f.date) for f, mirrored in reversed(drawn)
              if mirrored]
    want = reference_net_positions(trace)
    got = net_positions(trace)
    assert list(got.items()) == list(want.items())
    assert as_lists(got) == as_lists(want)


# names that are each other's characters, so a name read one character at a
# time would be a perspective of other agents
NAMES = ("Bob", "Al", "B", "o", "b")
named_flows = st.builds(
    lambda pair, num, day: Flow(pair[0], pair[1], Quantity(num), day),
    st.permutations(NAMES).map(lambda names: names[:2]), st.integers(1, 9),
    st.sampled_from((0, 1)))


@given(st.lists(named_flows, max_size=4), st.lists(named_flows, max_size=4),
       st.sampled_from(NAMES))
@example([Flow("Bob", "Al", Quantity(100), 0)], [Flow("Bob", "Al", Quantity(5), 0)], "Bob")
def test_a_name_is_the_perspective_of_its_one_agent(a, b, name):
    a, b = canonical(a), canonical(b)
    assert equivalent(a, b, name) == equivalent(a, b, (name,))


@given(st.lists(named_flows, max_size=4), st.lists(named_flows, max_size=4),
       st.sampled_from(NAMES))
@example([Flow("Bob", "Al", Quantity(2), 0)],
         [Flow("Bob", "B", Quantity(2), 0), Flow("B", "Al", Quantity(2), 0)], "Bob")
def test_equivalent_compares_the_net_positions_agent_by_agent(a, b, name):
    # "Carol" is in neither trace, so it has no nets on either side
    nets_a, nets_b = net_positions(a), net_positions(b)
    for perspective, agents in ((ALL_AGENTS, {*nets_a, *nets_b}), (name, (name,)),
                                ((name, "Carol"), (name, "Carol"))):
        want = all(nets_a.get(agent) == nets_b.get(agent) for agent in agents)
        assert equivalent(a, b, perspective) == want
