"""The synthesis search's owners-and-nets state against the world transition."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from rpsf import synthesis  # noqa: E402
from rpsf.money import Quantity  # noqa: E402
from rpsf.synthesis import ALL_AGENTS, Flow, canonical, synthesize  # noqa: E402
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
