"""Differential suite for the incremental environment layer.

Pins the central contract of the O(Δ) environment work: for every
environment family, over long runs of churn driven through the public
``advance`` as the engines drive it,

* :meth:`EnvironmentDelta.between` of consecutive states is exactly their
  symmetric difference — on frozensets and on the array form alike — and
  the shared :data:`EMPTY_DELTA` when nothing changed;
* the :class:`ConnectivityTracker`'s maintained components are identical
  — members and order — to a from-scratch
  :func:`connected_component_tuples` walk of the same state, including
  agent-disable edge cases and components that split and re-merge;
* component/group identity is reused across quiet rounds (the allocation
  contract behind the scheduler's group interning).

The engine-level byte-parity of the incremental engine against its
from-scratch reference (``incremental=False``) is pinned separately
(:mod:`tests.test_incremental_parity`).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.group import Group
from repro.environment.adversary import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    RotatingPartitionAdversary,
    TargetedCrashAdversary,
)
from repro.environment.base import (
    EMPTY_DELTA,
    EnvironmentDelta,
    EnvironmentState,
    connected_component_tuples,
)
from repro.environment.connectivity import ConnectivityTracker
from repro.environment import dynamics
from repro.environment.dynamics import (
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    StaticEnvironment,
)
from repro.environment.graphs import (
    complete_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
    ring_graph,
)
from repro.environment.mobility import RandomWaypointEnvironment

# Each factory returns a fresh environment; names document what aspect of
# the delta/connectivity machinery the family stresses.
ENVIRONMENTS = {
    # static: one resync, then empty deltas forever
    "static": lambda: StaticEnvironment(ring_graph(24)),
    # sparse churn on a low-degree graph: the static-adjacency fast path,
    # pair splits/merges dominating
    "churn-sparse-ring": lambda: RandomChurnEnvironment(
        ring_graph(40), edge_up_probability=0.15
    ),
    # dense churn on a complete graph: the dynamic-adjacency path, with
    # deletions dominating round over round
    "churn-dense-complete": lambda: RandomChurnEnvironment(
        complete_graph(18), edge_up_probability=0.55
    ),
    # agent churn: enables/disables interleaved with edge churn
    "churn-agents": lambda: RandomChurnEnvironment(
        grid_graph(5, 5), edge_up_probability=0.4, agent_up_probability=0.7
    ),
    "churn-agents-dense": lambda: RandomChurnEnvironment(
        complete_graph(14), edge_up_probability=0.3, agent_up_probability=0.6
    ),
    # markov churn: temporally correlated outages
    "markov": lambda: MarkovChurnEnvironment(
        random_connected_graph(30, extra_edge_probability=0.08, seed=5),
        edge_failure_probability=0.25,
        edge_recovery_probability=0.35,
        agent_failure_probability=0.1,
        agent_recovery_probability=0.5,
    ),
    # duty cycle: pure agent-toggle deltas, edges always available
    "duty-cycle": lambda: PeriodicDutyCycleEnvironment(
        line_graph(30), period=7, duty_cycle=0.45, seed=11
    ),
    "duty-cycle-dense": lambda: PeriodicDutyCycleEnvironment(
        complete_graph(16), period=5, duty_cycle=0.55, seed=3
    ),
    # mobility: whole contact graph drifts every round, battery disables
    "mobility": lambda: RandomWaypointEnvironment(
        16,
        arena_size=40.0,
        range_radius=14.0,
        speed=6.0,
        battery_capacity=5.0,
        drain_per_round=1.0,
        recharge_per_round=1.5,
        seed=7,
    ),
    # adversaries: epoch-boundary bulk deltas, phase toggles, blackouts
    "rotating-partition": lambda: RotatingPartitionAdversary(
        complete_graph(20), num_blocks=3, rotate_every=4, seed=2
    ),
    "targeted-crash": lambda: TargetedCrashAdversary(
        ring_graph(20), targets=[0, 7, 13], period=6, down_rounds=3
    ),
    "blackout": lambda: BlackoutAdversary(grid_graph(4, 5), period=5, blackout_rounds=2),
    "edge-budget": lambda: EdgeBudgetAdversary(ring_graph(25), budget=4),
}

ROUNDS = 160


def from_scratch(state: EnvironmentState) -> list[tuple[int, ...]]:
    return connected_component_tuples(state.enabled_agents, state.effective_edges())


def observed(environment, rng, rounds):
    """Each round's state and its delta from the previous round's — the
    engines' own diff, None on the first round."""
    previous = None
    for round_index in range(rounds):
        state = environment.advance(round_index, rng)
        yield state, (
            None if previous is None else EnvironmentDelta.between(previous, state)
        )
        previous = state


def assert_exact(delta, previous, state):
    """``delta`` is the symmetric difference from ``previous`` to ``state``."""
    parts = (
        delta.edges_down,
        delta.edges_up,
        delta.agents_disabled,
        delta.agents_enabled,
    )
    expected = (
        previous.available_edges - state.available_edges,
        state.available_edges - previous.available_edges,
        previous.enabled_agents - state.enabled_agents,
        state.enabled_agents - previous.enabled_agents,
    )
    for part, want in zip(parts, expected):
        items = list(part)
        assert len(items) == len(want) and set(items) == want
    unchanged = (
        previous.enabled_agents == state.enabled_agents
        and previous.available_edges == state.available_edges
    )
    assert (delta is EMPTY_DELTA) == unchanged


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_between_is_the_exact_symmetric_difference(name):
    environment = ENVIRONMENTS[name]()
    rng = random.Random(99)
    previous = None
    for state, delta in observed(environment, rng, ROUNDS):
        if previous is not None:
            assert_exact(delta, previous, state)
            assert EnvironmentDelta.between(state, state) is EMPTY_DELTA
        previous = state


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_advance_with_delta_is_advance_with_an_unknown_delta(name):
    # The base adapter: the same state and the same draws as ``advance``,
    # paired with a None delta, for every family (none overrides it).
    plain, adapted = ENVIRONMENTS[name](), ENVIRONMENTS[name]()
    plain_rng, adapted_rng = random.Random(7), random.Random(7)
    for round_index in range(40):
        expected = plain.advance(round_index, plain_rng)
        state, delta = adapted.advance_with_delta(round_index, adapted_rng)
        assert delta is None
        assert state == expected
        assert list(state.enabled_agents) == list(expected.enabled_agents)
        assert list(state.available_edges) == list(expected.available_edges)
        assert adapted_rng.getstate() == plain_rng.getstate()


#: The transitions of the ``between`` property: Markov below and above
#: VECTORIZED_MIN_DRAWS (frozensets / array form), and random churn
#: through ``advance`` (frozensets) and ``_advance_arrays`` (array form).
TRANSITIONS = ("markov-loop", "markov-vectorized", "churn", "churn-arrays")

#: Probabilities with the 0.0 and 1.0 edge cases drawn often, so frozen
#: chains and unchanged rounds come up.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@given(
    transition=st.sampled_from(TRANSITIONS),
    num_agents=st.integers(min_value=1, max_value=14),
    edge_probabilities=st.tuples(probabilities, probabilities),
    agent_probabilities=st.tuples(probabilities, probabilities),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_between_property_over_state_forms(
    transition, num_agents, edge_probabilities, agent_probabilities, seed
):
    arrays = transition in ("markov-vectorized", "churn-arrays")
    if arrays and dynamics._numpy is None:
        return
    graph = random_connected_graph(num_agents, extra_edge_probability=0.3, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", 0 if arrays else 10**9)
        if transition.startswith("markov"):
            advance = MarkovChurnEnvironment(
                graph, *edge_probabilities, *agent_probabilities
            ).advance
        else:
            environment = RandomChurnEnvironment(
                graph, edge_probabilities[0], agent_probabilities[0]
            )
            advance = (
                environment.array_transition() if arrays else environment.advance
            )
        rng = random.Random(seed)
        states = [advance(round_index, rng) for round_index in range(4)]
    pairs = list(zip(states, states[1:]))
    deltas = [EnvironmentDelta.between(previous, state) for previous, state in pairs]
    for state in states:
        # Two array-form states are diffed without building a set.
        assert ("_up_edges" in state.__dict__) == arrays
        assert ("available_edges" in state.__dict__) != arrays
    for delta, (previous, state) in zip(deltas, pairs):
        assert_exact(delta, previous, state)
        assert EnvironmentDelta.between(state, state) is EMPTY_DELTA
        # An equal eager twin (the other form, for array states): nothing
        # changed.
        twin = EnvironmentState(
            state.enabled_agents, state.available_edges, state.round_index
        )
        assert EnvironmentDelta.between(state, twin) is EMPTY_DELTA
        assert EnvironmentDelta.between(twin, state) is EMPTY_DELTA


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_incremental_connectivity_matches_from_scratch(name):
    environment = ENVIRONMENTS[name]()
    tracker = ConnectivityTracker(environment.topology)
    rng = random.Random(4242)
    for state, delta in observed(environment, rng, ROUNDS):
        tracker.observe(state, delta)
        assert tracker.component_tuples(state) == from_scratch(state), (
            f"{name}: maintained components diverged at round "
            f"{state.round_index}"
        )


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_state_group_views_serve_maintained_components(name):
    environment = ENVIRONMENTS[name]()
    tracker = ConnectivityTracker(environment.topology, group_factory=Group)
    rng = random.Random(17)
    for state, delta in observed(environment, rng, 80):
        tracker.observe(state, delta)
        expected = from_scratch(state)
        assert state.communication_group_tuples() == expected
        assert [set(g) for g in state.communication_groups()] == [
            set(t) for t in expected
        ]
        groups = state.maintained_scheduler_groups()
        assert groups is not None
        assert [group.members for group in groups] == expected
        # Non-singleton view: correct groups at correct positions.
        assert [
            (index, group)
            for index, group in enumerate(groups)
            if len(group) > 1
        ] == tracker.nonsingleton_groups()


def test_group_objects_reused_across_rounds():
    environment = RandomChurnEnvironment(ring_graph(30), edge_up_probability=0.1)
    tracker = ConnectivityTracker(environment.topology, group_factory=Group)
    rng = random.Random(3)
    seen_singletons: dict[int, int] = {}
    for state, delta in observed(environment, rng, 120):
        tracker.observe(state, delta)
        for group in state.maintained_scheduler_groups():
            assert isinstance(group, Group)
            if len(group.members) == 1:
                agent = group.members[0]
                # A lone agent keeps one interned group object for the
                # whole run, no matter how often it joins and leaves
                # larger components in between.
                if agent in seen_singletons:
                    assert seen_singletons[agent] == id(group)
                else:
                    seen_singletons[agent] = id(group)


def test_quiet_round_shares_group_list():
    environment = StaticEnvironment(ring_graph(12))
    tracker = ConnectivityTracker(environment.topology, group_factory=Group)
    rounds = observed(environment, random.Random(0), 2)
    state0, delta0 = next(rounds)
    tracker.observe(state0, delta0)
    first = state0.maintained_scheduler_groups()
    first_tuple = tracker.groups_tuple()
    state1, delta1 = next(rounds)
    assert delta1 is EMPTY_DELTA
    tracker.observe(state1, delta1)
    assert state1.maintained_scheduler_groups() is first
    assert tracker.groups_tuple() is first_tuple


class _ScriptedEnvironment:
    """Drives the tracker through a scripted split / re-merge scenario."""

    def __init__(self, topology, scripts):
        self.topology = topology
        self.scripts = scripts  # list of (enabled, edges)

    def states(self):
        previous = None
        for index, (enabled, edges) in enumerate(self.scripts):
            state = EnvironmentState(
                enabled_agents=frozenset(enabled),
                available_edges=frozenset(edges),
                round_index=index,
            )
            yield state, (
                None if previous is None else EnvironmentDelta.between(previous, state)
            )
            previous = state


def test_scripted_split_and_remerge():
    # A 6-agent chain that splits into three pieces, loses an agent in the
    # middle, re-merges, and finally reconnects through a revived agent.
    chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    everyone = range(6)
    scripts = [
        (everyone, chain),                            # one component
        (everyone, [(0, 1), (3, 4)]),                 # split into 0-1 / 2 / 3-4 / 5
        (everyone, chain),                            # re-merge into one
        ([0, 1, 2, 4, 5], chain),                     # agent 3 disabled: split
        ([0, 1, 2, 4, 5], [(0, 1), (1, 2), (4, 5)]),  # edges around the hole drop
        (everyone, chain),                            # everything returns
        ([], []),                                     # blackout
        (everyone, chain),                            # recovery
    ]
    environment = _ScriptedEnvironment(
        ring_graph(6), scripts  # topology is only used for sizing
    )
    tracker = ConnectivityTracker(environment.topology, group_factory=Group)
    for state, delta in environment.states():
        tracker.observe(state, delta)
        assert tracker.component_tuples(state) == from_scratch(state)


def test_resync_after_none_delta_mid_run():
    environment = RandomChurnEnvironment(ring_graph(20), edge_up_probability=0.3)
    tracker = ConnectivityTracker(environment.topology)
    rng = random.Random(8)
    for state, delta in observed(environment, rng, 40):
        if state.round_index == 20:
            delta = None  # a consumer that lost track resynchronizes
        tracker.observe(state, delta)
        assert tracker.component_tuples(state) == from_scratch(state)


def test_tracker_reset_forces_resync():
    environment = RandomChurnEnvironment(ring_graph(16), edge_up_probability=0.4)
    tracker = ConnectivityTracker(environment.topology)
    for state, delta in observed(environment, random.Random(12), 10):
        tracker.observe(state, delta)
    tracker.reset()
    environment.reset()
    for state, delta in observed(environment, random.Random(12), 10):
        tracker.observe(state, delta)
        assert tracker.component_tuples(state) == from_scratch(state)


def test_stale_state_falls_back_to_from_scratch():
    environment = RandomChurnEnvironment(ring_graph(10), edge_up_probability=0.5)
    tracker = ConnectivityTracker(environment.topology, group_factory=Group)
    rounds = observed(environment, random.Random(1), 2)
    old_state, old_delta = next(rounds)
    tracker.observe(old_state, old_delta)
    new_state, new_delta = next(rounds)
    tracker.observe(new_state, new_delta)
    # The superseded state still answers truthfully (served from scratch).
    assert tracker.component_tuples(old_state) == from_scratch(old_state)
    assert old_state.maintained_scheduler_groups() is None


def test_rotating_partition_interleaved_advance_does_not_corrupt_deltas():
    # Regression: the epoch-edge cache is shared by every advance() call,
    # observed or not.  A plain advance() between observed rounds that
    # crosses an epoch boundary once produced an EMPTY delta right after
    # a rotation (silently wrong maintained components).  The delta is
    # now taken against the state the tracker last observed, whatever
    # the environment did in between.
    environment = RotatingPartitionAdversary(
        complete_graph(9), num_blocks=3, rotate_every=4, seed=0
    )
    tracker = ConnectivityTracker(environment.topology)
    rng = random.Random(0)
    previous = None
    for round_index in range(16):
        if round_index % 4 == 0:
            environment.advance(round_index, rng)  # unobserved, enters the epoch
        state = environment.advance(round_index, rng)
        delta = None if previous is None else EnvironmentDelta.between(previous, state)
        if round_index and round_index % 4 == 0:
            assert not delta.is_empty  # every rotation here moves some edge
        tracker.observe(state, delta)
        assert tracker.component_tuples(state) == from_scratch(state)
        previous = state


def test_environment_state_memoizes_derived_views():
    state = EnvironmentState(
        enabled_agents=frozenset([0, 1, 2, 3]),
        available_edges=frozenset([(0, 1), (2, 3), (1, 4)]),
    )
    assert state.effective_edges() is state.effective_edges()
    assert state.communication_group_tuples() is state.communication_group_tuples()
    assert state.communication_groups() is state.communication_groups()
    assert state.communication_group_tuples() == [(0, 1), (2, 3)]


def test_topology_is_connected_cached():
    topology = ring_graph(50)
    assert topology.is_connected()
    assert topology._is_connected is True  # cached verdict
    disconnected = grid_graph(2, 2)
    # sanity: cache does not confuse instances
    assert disconnected.is_connected()
