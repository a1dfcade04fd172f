"""The synthesis search's owners-and-nets state against the world transition
and against a from-scratch recount, and net positions against the
Quantity-by-Quantity fold."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from rpsf import synthesis  # noqa: E402
from rpsf.money import ZERO, Quantity  # noqa: E402
from rpsf.synthesis import ALL_AGENTS, Flow, canonical, net_positions, synthesize  # noqa: E402
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
    """Every (state, path, action, child) ``_successor`` steps in one search,
    where ``path`` is the trades that lead to ``state``.

    The search expands each distinct subproblem once, from the first state
    that reaches it, so the steps cover every distinct subproblem, not
    every path.
    """
    steps, paths = [], {}
    successor = synthesis._successor

    def recording(state, action, *roles):
        child = successor(state, action, *roles)
        # ``steps`` keeps every state alive, so no id is reused
        path = paths.get(id(state), ())
        paths[id(child)] = path + (action,)
        steps.append((state, path, action, child))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_successor", recording)
        synthesize(target, catalogue, AGENTS, bound=bound, perspective=perspective)
    return steps


@given(st.lists(flows, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ALL_AGENTS, ("X", "Y"))))
def test_owners_follow_apply_event_along_every_path(target, catalogue, bound, perspective):
    steps = search_steps(canonical(target), catalogue, bound, perspective)
    # each step's state is the root or an earlier step's child
    worlds = {}
    for state, path, action, child in steps:
        world = worlds.get(path)
        if world is None:
            assert path == ()
            world = make_world([Agent(name) for name in AGENTS],
                               balances={name: Quantity(10**6) for name in AGENTS},
                               goods=[Good(gid, "asset", owner, None)
                                      for gid, owner in state.owners.items()])
        world = worlds[path + (action,)] = apply_event(world, action, 0)
        assert {gid: good.owner for gid, good in world.goods.items()} == child.owners


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
def test_carried_counts_match_a_recount_along_every_path(target, catalogue, bound,
                                                         perspective):
    target = canonical(target)
    steps = search_steps(target, catalogue, bound, perspective)
    persp = {"X"} if perspective is None else (
        set(AGENTS) if perspective == ALL_AGENTS else set(perspective))
    target_nets = net_positions(target)
    for state, path, action, child in steps:
        if action.kind == ActionKind.BUY_ON_CREDIT:
            assert action.contract_id == f"settle-{len(path)}"
        for node, node_path in ((state, path), (child, path + (action,))):
            assert node.depth == len(node_path)
            # a good's home is its owner at the root, or whoever prepared it
            home = dict(steps[0][0].owners)
            home.update((a.good_id, a.actor) for a in node_path
                        if a.kind == ActionKind.PREPARE_GOOD)
            assert node.home == home
            assert node.displaced == sum(1 for gid, owner in node.owners.items()
                                         if owner != home[gid])
            nets = net_positions(path_flows(node_path))
            assert node.mismatch == reference_mismatch(nets, target_nets, persp)
            scale = node.frame.scale
            assert all(scale % flow.amount.den == 0 for flow in target)
            # the carried nets are the perspective's only
            assert {cell: Quantity(v, scale)
                    for cell, v in zip(node.frame.cells, node.nets) if v} == {
                (agent, d): v for agent, per_day in nets.items() if agent in persp
                for d, v in per_day.items()}


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
