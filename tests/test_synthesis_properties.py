"""The synthesis search's owners-and-nets state against the world transition,
and net positions against the Quantity-by-Quantity fold."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from rpsf import synthesis  # noqa: E402
from rpsf.money import ZERO, Quantity  # noqa: E402
from rpsf.synthesis import ALL_AGENTS, Flow, canonical, net_positions, synthesize  # noqa: E402
from rpsf.world import Agent, Good, apply_event, make_world  # noqa: E402

AGENTS = ("X", "Y", "Z")

flows = st.builds(
    lambda pair, num, den, day: Flow(pair[0], pair[1], Quantity(num, den), day),
    st.permutations(AGENTS).map(lambda names: names[:2]),
    st.integers(0, 20), st.sampled_from((1, 2, 3)), st.sampled_from((0, 0, 7, 30)),
)
catalogues = st.sets(st.sampled_from(("spot-sale", "credit-sale", "prepare-good")),
                     min_size=1)


@given(st.lists(flows, max_size=3), catalogues, st.integers(0, 3),
       st.sampled_from((None, ALL_AGENTS, ("X", "Y"))))
def test_owners_follow_apply_event_along_every_path(target, catalogue, bound, perspective):
    steps = []
    successor = synthesis._successor

    def recording(state, action):
        child = successor(state, action)
        steps.append((state, action, child))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_successor", recording)
        synthesize(canonical(target), catalogue, AGENTS, bound=bound, perspective=perspective)
    # the search is depth first, so each step's state was reached by an earlier step
    worlds = {}
    for state, action, child in steps:
        world = worlds.get(state.actions)
        if world is None:
            assert state.actions == ()
            world = make_world([Agent(name) for name in AGENTS],
                               balances={name: Quantity(10**6) for name in AGENTS},
                               goods=[Good(gid, "asset", owner, None)
                                      for gid, owner in state.owners.items()])
        world = worlds[child.actions] = apply_event(world, action, 0)
        assert {gid: good.owner for gid, good in world.goods.items()} == child.owners


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
