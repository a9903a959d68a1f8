"""Differential suite for the environment layer: quiet-round checks and
the component labeller.

Pins two contracts, for every environment family, over long runs of
churn driven through the public ``advance`` as the engines drive it (and
through the array transitions, whose states carry ``int64`` edge
arrays):

* :meth:`EnvironmentState.unchanged_from` of consecutive states is
  exactly the equality of their enabled-agent and available-edge sets —
  on frozensets and on the array form alike, quiet rounds included;
* the state's labelled components (:func:`label_components`, read
  through :meth:`EnvironmentState.communication_group_tuples`,
  :meth:`~EnvironmentState.component_groups` and the layout of
  :meth:`~EnvironmentState.component_partition`) are identical —
  members and order — to a from-scratch
  :func:`connected_component_tuples` walk of the same state, including
  rounds with no effective edge, blackouts, one giant component and
  edges that touch a disabled agent; with numpy hidden the walk serves
  and the engine's results are byte-identical.

The engine-level parity of the reference engine against the textbook
replay of the paper's round
(:class:`~repro.verification.oracle.TextbookReplay`) is pinned
separately (:mod:`tests.test_incremental_parity`,
:mod:`tests.test_textbook_replay`).
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.group import Group
from repro.algorithms.minimum import minimum_algorithm
from repro.environment.adversary import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    RotatingPartitionAdversary,
    TargetedCrashAdversary,
)
from repro.environment import base, dynamics
from repro.environment.base import EnvironmentState, connected_component_tuples
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
from repro.simulation.engine import Simulator

# Each factory returns a fresh environment; names document what aspect of
# the quiet-round and labelling machinery the family stresses.
ENVIRONMENTS = {
    # static: one labelling, then quiet rounds forever
    "static": lambda: StaticEnvironment(ring_graph(24)),
    # sparse churn on a low-degree graph: pairs and singletons dominating
    "churn-sparse-ring": lambda: RandomChurnEnvironment(
        ring_graph(40), edge_up_probability=0.15
    ),
    # dense churn on a complete graph: few, large components
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
    """Each round's state and whether it is unchanged from the previous
    round's — the engines' own check, None on the first round."""
    previous = None
    for round_index in range(rounds):
        state = environment.advance(round_index, rng)
        yield state, None if previous is None else state.unchanged_from(previous)
        previous = state


def assert_exact(unchanged, previous, state):
    """``unchanged`` is the equality of the two states' sets."""
    assert unchanged == (
        previous.enabled_agents == state.enabled_agents
        and previous.available_edges == state.available_edges
    )


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_unchanged_from_is_the_exact_set_equality(name):
    environment = ENVIRONMENTS[name]()
    rng = random.Random(99)
    previous = None
    quiet = 0
    for state, unchanged in observed(environment, rng, ROUNDS):
        if previous is not None:
            assert_exact(unchanged, previous, state)
            assert state.unchanged_from(state)
            quiet += unchanged
        previous = state
    if name == "static":
        assert quiet == ROUNDS - 1


class _CountingFrozenset(frozenset):
    """A frozenset that counts the equality tests made on it."""

    comparisons = 0

    def __eq__(self, other):
        type(self).comparisons += 1
        return frozenset.__eq__(self, other)

    def __ne__(self, other):
        type(self).comparisons += 1
        return frozenset.__ne__(self, other)

    __hash__ = frozenset.__hash__


def test_unchanged_from_answers_for_one_shared_set_without_comparing(
    monkeypatch,
):
    # Frozenset equality walks the whole set even against itself, so two
    # states holding the same sets must be told equal by identity.
    monkeypatch.setattr(_CountingFrozenset, "comparisons", 0)
    topology = complete_graph(40)
    agents = _CountingFrozenset(topology.agent_ids)
    edges = _CountingFrozenset(topology.edges)
    first = EnvironmentState(agents, edges, 0)
    second = EnvironmentState(agents, edges, 1)
    assert second.unchanged_from(first)
    assert _CountingFrozenset.comparisons == 0
    # Equal sets held as distinct objects are still compared, and found equal.
    copy = EnvironmentState(
        _CountingFrozenset(agents), _CountingFrozenset(edges), 2
    )
    assert copy.unchanged_from(first)
    assert _CountingFrozenset.comparisons == 2


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


#: The transitions of the ``unchanged_from`` property: Markov below and above
#: VECTORIZED_MIN_DRAWS (frozensets / array form), and random churn
#: through ``advance`` with numpy hidden from the labeller (frozensets) and
#: through ``_advance_arrays`` (array form).
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
def test_unchanged_from_property_over_state_forms(
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
            if not arrays:
                # Churn's advance hands over eager sets only where the
                # labeller has no numpy.
                patch.setattr(base, "_numpy", None)
            advance = (
                environment.array_transition() if arrays else environment.advance
            )
        rng = random.Random(seed)
        states = [advance(round_index, rng) for round_index in range(4)]
    pairs = list(zip(states, states[1:]))
    verdicts = [state.unchanged_from(previous) for previous, state in pairs]
    for state in states:
        # Two array-form states are compared without building a set.
        assert ("_up_edges" in state.__dict__) == arrays
        assert ("available_edges" in state.__dict__) != arrays
    for unchanged, (previous, state) in zip(verdicts, pairs):
        assert_exact(unchanged, previous, state)
        assert state.unchanged_from(state)
        # An equal eager twin (the other form, for array states), at
        # another round: nothing changed.
        twin = EnvironmentState(
            state.enabled_agents, state.available_edges, state.round_index + 1
        )
        assert state.unchanged_from(twin) and twin.unchanged_from(state)


def assert_labelled(state: EnvironmentState) -> None:
    """Every labelled view of ``state`` == the from-scratch walk."""
    components = state.communication_group_tuples()
    groups = state.component_groups()
    expected = from_scratch(state)
    assert components == expected, f"diverged at round {state.round_index}"
    assert [group.members for group in groups] == expected
    assert all(type(group) is Group for group in groups)
    partition = state.component_partition()
    assert len(partition) == len(expected)
    assert [int(root) for root in partition.roots] == [m[0] for m in expected]
    assert partition.positions == [
        index for index, members in enumerate(expected) if len(members) > 1
    ]
    bounds = partition.bounds
    assert [
        tuple(partition.members[start:stop])
        for start, stop in zip(bounds, bounds[1:])
    ] == [members for members in expected if len(members) > 1]
    assert state.communication_groups() == [frozenset(m) for m in expected]


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_labelled_components_match_the_walk(name):
    environment = ENVIRONMENTS[name]()
    rng = random.Random(4242)
    for round_index in range(ROUNDS):
        assert_labelled(environment.advance(round_index, rng))


def _array_transitions():
    """Array-form transitions: random churn's, and Markov churn's above
    its vectorization threshold (forced down to every size here)."""
    churn = RandomChurnEnvironment(
        grid_graph(6, 7), edge_up_probability=0.35, agent_up_probability=0.75
    )
    markov = MarkovChurnEnvironment(
        random_connected_graph(40, extra_edge_probability=0.1, seed=3),
        edge_failure_probability=0.3,
        edge_recovery_probability=0.3,
        agent_failure_probability=0.15,
        agent_recovery_probability=0.4,
    )
    return {
        "churn-arrays": churn.array_transition(),
        "markov-vectorized": markov.advance,
    }


@pytest.mark.parametrize("name", ["churn-arrays", "markov-vectorized"])
def test_array_form_states_label_their_edge_arrays(name, monkeypatch):
    if base._numpy is None:
        pytest.skip("array-form states need numpy")
    monkeypatch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", 0)
    advance = _array_transitions()[name]
    rng = random.Random(21)
    for round_index in range(ROUNDS):
        state = advance(round_index, rng)
        assert state.effective_edge_arrays is not None
        state.component_labels()
        # Labelling reads the int64 arrays only: neither frozenset exists.
        assert "available_edges" not in state.__dict__
        assert "enabled_agents" not in state.__dict__
        assert_labelled(state)


@given(
    num_agents=st.integers(min_value=1, max_value=16),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_labelling_property(num_agents, data):
    agents = st.integers(min_value=0, max_value=num_agents - 1)
    pairs = data.draw(st.lists(st.tuples(agents, agents), max_size=3 * num_agents))
    enabled = data.draw(st.sets(agents))
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    assert_labelled(EnvironmentState(frozenset(enabled), frozenset(edges)))


#: Hand-built states for the edge cases: (enabled agents, available edges).
EDGE_CASES = {
    "no-effective-edges": (range(6), []),
    "all-disabled": ([], [(0, 1), (1, 2), (3, 4)]),
    "edges-touch-only-disabled-agents": ([0, 2, 4], [(0, 1), (1, 2), (3, 4)]),
    "disabled-agent-splits-a-chain": ([0, 1, 3, 4], [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "one-giant-component": (range(12), complete_graph(12).edges),
    "giant-component-but-one-disabled": (range(1, 12), complete_graph(12).edges),
    "lone-agents-past-the-last-edge": ([0, 1, 2, 7, 9], [(0, 1)]),
    "edge-to-a-disabled-top-agent": ([0, 1, 2, 3], [(0, 1), (2, 9), (3, 9)]),
    "lone-agent-zero": ([0, 5, 6, 7], [(5, 7), (6, 7)]),
    "single-agent": ([0], []),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_states(case):
    enabled, edges = EDGE_CASES[case]
    assert_labelled(EnvironmentState(frozenset(enabled), frozenset(edges)))


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
    for index, (enabled, edges) in enumerate(scripts):
        assert_labelled(EnvironmentState(frozenset(enabled), frozenset(edges), index))


def test_component_partition_is_memoized():
    first = EnvironmentState(frozenset(range(6)), frozenset([(1, 2)]))
    assert first.component_partition() is first.component_partition()
    assert first.component_groups() is first.component_groups()
    assert first.communication_group_tuples() is first.communication_group_tuples()
    if base._numpy is not None:
        assert first.component_labels() is first.component_labels()


def test_partition_view_reads_as_its_groups():
    state = EnvironmentState(frozenset(range(5)), frozenset([(0, 1), (3, 4)]))
    partition = state.component_partition()
    # Asking for the view builds nothing; reading its layout builds no Group.
    assert partition.positions == [0, 2]
    assert partition.members == [0, 1, 3, 4] and partition.bounds == [0, 2, 4]
    assert partition._groups is None
    groups = [Group((0, 1)), Group((2,)), Group((3, 4))]
    assert partition == groups and partition == tuple(groups)
    assert list(partition) == groups and partition[1] == Group((2,))
    assert partition.groups() is state.component_groups()
    other = EnvironmentState(frozenset(range(5)), frozenset([(0, 1)]))
    assert partition != other.component_partition()


def test_partition_view_keeps_no_state_alive():
    # The view holds the labelling, not the state: a state no one else
    # holds is freed by reference counting alone, and its view still reads.
    state = EnvironmentState(frozenset(range(5)), frozenset([(0, 1), (3, 4)]))
    partition = state.component_partition()
    alive = weakref.ref(state)
    gc.disable()
    try:
        del state
        assert alive() is None
    finally:
        gc.enable()
    assert partition.positions == [0, 2]
    assert partition.tuples() == [(0, 1), (2,), (3, 4)]


def test_quiet_round_adopts_the_labelling():
    environment = StaticEnvironment(ring_graph(12))
    rng = random.Random(0)
    state0 = environment.advance(0, rng)
    state1 = environment.advance(1, rng)
    partition = state0.component_partition()
    assert partition.positions == [0]
    assert state1.unchanged_from(state0)
    state1._adopt_view_memos(state0)
    assert state1.component_partition() is partition
    assert state1.component_groups() is state0.component_groups()
    assert_labelled(state1)


def test_rotating_partition_interleaved_advance_does_not_corrupt_deltas():
    # Regression: the epoch-edge cache is shared by every advance() call,
    # observed or not.  A plain advance() between observed rounds that
    # crosses an epoch boundary once read as unchanged right after a
    # rotation, and a quiet-round adoption of stale groups.  The check is
    # made against the state last observed, whatever the environment did
    # in between.
    environment = RotatingPartitionAdversary(
        complete_graph(9), num_blocks=3, rotate_every=4, seed=0
    )
    rng = random.Random(0)
    previous = None
    for round_index in range(16):
        if round_index % 4 == 0:
            environment.advance(round_index, rng)  # unobserved, enters the epoch
        state = environment.advance(round_index, rng)
        if previous is not None:
            unchanged = state.unchanged_from(previous)
            if round_index % 4 == 0:
                assert not unchanged  # every rotation here moves some edge
            elif unchanged:
                state._adopt_view_memos(previous)
        assert_labelled(state)
        previous = state


# -- numpy hidden: the from-scratch walk serves ----------------------------------


@pytest.fixture
def without_numpy(monkeypatch):
    monkeypatch.setattr(base, "_numpy", None)


@pytest.mark.parametrize("name", ["churn-agents", "duty-cycle", "markov", "mobility"])
def test_walk_serves_without_numpy(name, without_numpy):
    environment = ENVIRONMENTS[name]()
    rng = random.Random(5)
    for round_index in range(60):
        state = environment.advance(round_index, rng)
        assert_labelled(state)
        assert "_component_labels" not in state.__dict__


#: Simulator workloads for the numpy-hidden parity: all-enabled churn,
#: agent churn and a duty cycle (disabled agents), each converging.
WALK_PARITY = {
    "churn": lambda: RandomChurnEnvironment(ring_graph(40), edge_up_probability=0.2),
    "churn-agents": lambda: RandomChurnEnvironment(
        grid_graph(6, 6), edge_up_probability=0.3, agent_up_probability=0.7
    ),
    "duty-cycle": lambda: PeriodicDutyCycleEnvironment(
        line_graph(30), period=7, duty_cycle=0.6, seed=11
    ),
}


@pytest.mark.parametrize("name", sorted(WALK_PARITY))
def test_simulator_results_identical_without_numpy(name, monkeypatch):
    def run():
        environment = WALK_PARITY[name]()
        values = [(13 * agent) % 97 for agent in range(environment.num_agents)]
        simulator = Simulator(minimum_algorithm(), environment, values, seed=3)
        result = simulator.run(max_rounds=300, extra_rounds_after_convergence=2)
        return result, json.dumps(result.to_dict(include_trajectory=True))

    labelled, labelled_text = run()
    monkeypatch.setattr(base, "_numpy", None)
    walked, walked_text = run()
    assert labelled.converged
    assert walked_text == labelled_text
    assert list(walked.trace) == list(labelled.trace)

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
