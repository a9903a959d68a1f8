"""Tests for the stochastic, adversarial and mobility environments."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import EnvironmentError_
from repro.environment import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    RandomWaypointEnvironment,
    RotatingPartitionAdversary,
    StaticEnvironment,
    TargetedCrashAdversary,
    complete_graph,
    line_graph,
    random_graph,
    ring_graph,
    star_graph,
    tree_graph,
)
from repro.algorithms.minimum import minimum_algorithm
from repro.environment import base, dynamics
from repro.experiment import random_integers
from repro.simulation.engine import Simulator

#: Marks the tests of the numpy half of the Markov transition.
needs_numpy = pytest.mark.skipif(
    dynamics._numpy is None, reason="the vectorized path needs numpy"
)


@pytest.fixture
def rng():
    return random.Random(7)


class TestStaticEnvironment:
    def test_everything_always_available(self, rng):
        env = StaticEnvironment(complete_graph(4))
        state = env.advance(0, rng)
        assert state.enabled_agents == frozenset(range(4))
        assert state.available_edges == complete_graph(4).edges
        assert len(state.communication_groups()) == 1

    def test_fairness_predicates_cover_all_edges(self):
        env = StaticEnvironment(line_graph(3))
        assert len(env.fairness_predicates()) == 2

    def test_describe(self):
        assert "static" in StaticEnvironment(line_graph(3)).describe()


class TestRandomChurn:
    def test_probability_bounds_validated(self):
        with pytest.raises(EnvironmentError_):
            RandomChurnEnvironment(line_graph(3), edge_up_probability=1.5)
        with pytest.raises(EnvironmentError_):
            RandomChurnEnvironment(line_graph(3), agent_up_probability=-0.1)

    def test_zero_probability_gives_no_edges(self, rng):
        env = RandomChurnEnvironment(complete_graph(4), edge_up_probability=0.0)
        state = env.advance(0, rng)
        assert state.available_edges == frozenset()

    def test_one_probability_gives_all_edges(self, rng):
        env = RandomChurnEnvironment(complete_graph(4), edge_up_probability=1.0)
        state = env.advance(0, rng)
        assert state.available_edges == complete_graph(4).edges

    def test_edges_are_subset_of_topology(self, rng):
        env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.5)
        for round_index in range(20):
            state = env.advance(round_index, rng)
            assert state.available_edges <= complete_graph(6).edges

    def test_agents_can_be_disabled(self, rng):
        env = RandomChurnEnvironment(
            complete_graph(6), edge_up_probability=1.0, agent_up_probability=0.3
        )
        sizes = {len(env.advance(i, rng).enabled_agents) for i in range(30)}
        assert min(sizes) < 6

    def test_every_edge_eventually_appears(self, rng):
        env = RandomChurnEnvironment(complete_graph(4), edge_up_probability=0.3)
        seen = set()
        for round_index in range(200):
            seen |= env.advance(round_index, rng).available_edges
        assert seen == complete_graph(4).edges

    def test_no_fairness_when_probability_zero(self):
        env = RandomChurnEnvironment(line_graph(3), edge_up_probability=0.0)
        assert env.fairness_predicates() == ()


class TestMarkovChurn:
    def test_parameters_validated(self):
        with pytest.raises(EnvironmentError_):
            MarkovChurnEnvironment(line_graph(3), edge_failure_probability=2.0)

    def test_starts_fully_up_and_stays_in_topology(self, rng):
        env = MarkovChurnEnvironment(
            complete_graph(5), edge_failure_probability=0.2, edge_recovery_probability=0.5
        )
        for round_index in range(30):
            state = env.advance(round_index, rng)
            assert state.available_edges <= complete_graph(5).edges

    def test_failures_occur_and_recover(self, rng):
        env = MarkovChurnEnvironment(
            complete_graph(4),
            edge_failure_probability=0.5,
            edge_recovery_probability=0.5,
        )
        counts = [len(env.advance(i, rng).available_edges) for i in range(50)]
        assert min(counts) < 6
        assert max(counts) > 0

    def test_reset_restores_all_up(self, rng):
        env = MarkovChurnEnvironment(
            complete_graph(4), edge_failure_probability=1.0, edge_recovery_probability=0.0
        )
        assert env.advance(0, rng).available_edges == frozenset()
        assert len(env.state_dict()["edges_down"]) == 6
        env.reset()
        assert env.state_dict() == {"edges_down": [], "agents_down": []}
        # With failures switched off, the reset chain's next state shows
        # every edge up again.
        env.edge_failure_probability = 0.0
        assert env.advance(1, rng).available_edges == complete_graph(4).edges

    def test_agent_failures(self, rng):
        env = MarkovChurnEnvironment(
            complete_graph(4),
            agent_failure_probability=0.9,
            agent_recovery_probability=0.1,
        )
        sizes = [len(env.advance(i, rng).enabled_agents) for i in range(30)]
        assert min(sizes) < 4


def _markov_run(
    monkeypatch, min_draws, topology, probabilities, rounds=24, restore=True
):
    """Everything observable about one Markov run, with the vectorized
    path forced on (``min_draws`` 0) or off (a huge ``min_draws``).

    Records whether each round's state is unchanged from the previous
    one, as the engines check it, and with ``restore`` loads a mid-run ``state_dict`` into a
    fresh environment, which then carries the run on.
    """
    monkeypatch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", min_draws)
    env = MarkovChurnEnvironment(topology, *probabilities)
    rng = random.Random(5)
    rng.gauss(0.0, 1.0)  # leaves a pending gauss value in the state
    observed = []
    previous = None
    for round_index in range(rounds):
        if restore and round_index == rounds // 2:
            checkpoint = env.state_dict()
            env = MarkovChurnEnvironment(topology, *probabilities)
            env.load_state(checkpoint)
        state = env.advance(round_index, rng)
        unchanged = None if previous is None else state.unchanged_from(previous)
        previous = state
        observed.append(
            (
                list(state.enabled_agents),
                list(state.available_edges),
                unchanged,
                env.state_dict(),
                rng.getstate(),
            )
        )
        vectorized = min_draws == 0 and dynamics._numpy is not None
        assert (state.effective_edge_arrays is not None) == vectorized
    return observed


#: (edge fail, edge recover, agent fail, agent recover): agent failures
#: off, on, and a chain that stops flipping (unchanged rounds).
MARKOV_PROBABILITIES = {
    "edges-only": (0.3, 0.4, 0.0, 1.0),
    "agent-failures": (0.3, 0.4, 0.15, 0.5),
    "dense-outages": (0.6, 0.1, 0.05, 0.2),
    "frozen": (0.0, 0.0, 0.0, 0.0),
}


class TestMarkovVectorizedPath:
    """The numpy transition against the Python loop it replaces above
    :data:`~repro.environment.dynamics.VECTORIZED_MIN_DRAWS`."""

    @needs_numpy
    @pytest.mark.parametrize("graph", ["complete", "ring"])
    @pytest.mark.parametrize("probabilities", sorted(MARKOV_PROBABILITIES))
    def test_numpy_path_matches_the_loop(self, monkeypatch, graph, probabilities):
        topology = complete_graph(24) if graph == "complete" else ring_graph(40)
        params = MARKOV_PROBABILITIES[probabilities]
        loop = _markov_run(monkeypatch, 10**9, topology, params)
        vectorized = _markov_run(monkeypatch, 0, topology, params)
        for round_index, (left, right) in enumerate(zip(loop, vectorized)):
            assert left == right, f"diverged at round {round_index}"
        # The restored run is the uninterrupted one.
        uninterrupted = _markov_run(monkeypatch, 0, topology, params, restore=False)
        for round_index, (left, right) in enumerate(zip(vectorized, uninterrupted)):
            assert left == right, f"diverged at round {round_index}"

    def test_loop_runs_when_numpy_is_missing(self, monkeypatch):
        # What a container without numpy looks like to the environment:
        # the loop runs whatever the draw count (and builds no arrays,
        # which _markov_run asserts every round).
        params = MARKOV_PROBABILITIES["agent-failures"]
        loop = _markov_run(monkeypatch, 10**9, complete_graph(12), params)
        monkeypatch.setattr(dynamics, "_numpy", None)
        assert _markov_run(monkeypatch, 0, complete_graph(12), params) == loop

    @needs_numpy
    def test_edge_arrays_stay_out_of_equality_and_repr(self, monkeypatch):
        monkeypatch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", 0)
        vectorized = MarkovChurnEnvironment(complete_graph(10), 0.3, 0.4)
        state = vectorized.advance(0, random.Random(1))
        monkeypatch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", 10**9)
        plain = MarkovChurnEnvironment(complete_graph(10), 0.3, 0.4)
        twin = plain.advance(0, random.Random(1))
        assert twin.effective_edge_arrays is None
        assert state == twin and hash(state) == hash(twin)
        assert repr(state) == repr(twin)


@needs_numpy
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=2000),
    pending_gauss=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_uniform_draws_is_the_random_stream(seed, count, pending_gauss):
    batch_rng = random.Random(seed)
    loop_rng = random.Random(seed)
    if pending_gauss:
        batch_rng.gauss(0.0, 1.0)
        loop_rng.gauss(0.0, 1.0)
    draws = dynamics.uniform_draws(batch_rng, count)
    expected = [loop_rng.random() for _ in range(count)]
    assert draws.tolist() == expected
    assert batch_rng.getstate() == loop_rng.getstate()
    # The pending gauss value survives the round trip.
    assert batch_rng.gauss(0.0, 1.0) == loop_rng.gauss(0.0, 1.0)


@needs_numpy
def test_uniform_draws_reuses_the_scratch_only_for_its_own_state():
    # Back-to-back batches from one generator draw on the scratch as it
    # stands; interleaved generators, a plain draw between batches and a
    # batch on another thread must each load their own state instead.
    import threading

    first, second = random.Random(1), random.Random(2)
    first_loop, second_loop = random.Random(1), random.Random(2)

    def check(rng, loop_rng, count):
        assert dynamics.uniform_draws(rng, count).tolist() == [
            loop_rng.random() for _ in range(count)
        ]
        assert rng.getstate() == loop_rng.getstate()

    check(first, first_loop, 700)
    assert dynamics._draw_scratch.holds == first.getstate()[1]
    check(first, first_loop, 700)
    check(second, second_loop, 300)
    check(first, first_loop, 700)
    assert first.random() == first_loop.random()
    check(first, first_loop, 700)

    on_thread = []
    thread = threading.Thread(
        target=lambda: on_thread.append(dynamics.uniform_draws(first, 500).tolist())
    )
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert on_thread == [[first_loop.random() for _ in range(500)]]
    assert first.getstate() == first_loop.getstate()
    # This thread's scratch still holds the state from before the thread
    # ran: it must not be drawn from as it stands.
    check(first, first_loop, 700)

    def failing(scratch):
        scratch.random_sample(10)
        raise RuntimeError("draw failed")

    with pytest.raises(RuntimeError):
        dynamics._drawn_on_scratch(first, failing)
    assert dynamics._draw_scratch.holds is None
    check(first, first_loop, 700)


#: Spans of ``randint``: 1 (one bit per word, half rejected), 2, the
#: numpy path's ends 2**31 + 1 and 2**32 - 1, and 2**32 and 2**32 + 1,
#: whose ``randint`` reads two words per try and so runs the loop.
RANDINT_SPANS = [1, 2, 3, 1000, 900_000, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=0, max_value=2000),
    low=st.one_of(
        st.sampled_from([0, -(2**63), 2**63 - 2**33, 2**63 - 1]),
        st.integers(min_value=-(10**12), max_value=10**12),
    ),
    span=st.sampled_from(RANDINT_SPANS),
)
@settings(max_examples=80, deadline=None)
def test_randint_draws_is_the_randint_stream(seed, count, low, span):
    batch_rng = random.Random(seed)
    loop_rng = random.Random(seed)
    high = low + span - 1
    # Every count takes the numpy batches (where numpy and the span allow).
    with mock.patch.object(dynamics, "VECTORIZED_MIN_DRAWS", 0):
        drawn = dynamics.randint_draws(batch_rng, count, low, high)
        assert random_integers(count, low, high, seed) == drawn
    assert drawn == [loop_rng.randint(low, high) for _ in range(count)]
    assert all(type(value) is int for value in drawn)
    assert batch_rng.getstate() == loop_rng.getstate()


def test_random_integers_without_numpy_is_the_same_list(monkeypatch):
    # What a container without numpy looks like to the generator: the loop
    # runs, and hands back the same instance and the same generator state.
    params = {"count": 5000, "low": 100000, "high": 999999, "seed": 11}
    vectorized = random_integers(**params)
    vectorized_rng = random.Random(3)
    dynamics.randint_draws(vectorized_rng, 5000, -7, 7)
    monkeypatch.setattr(dynamics, "_numpy", None)
    assert random_integers(**params) == vectorized
    loop_rng = random.Random(3)
    dynamics.randint_draws(loop_rng, 5000, -7, 7)
    assert loop_rng.getstate() == vectorized_rng.getstate()


#: Topologies for the churn array-transition property, by name.
CHURN_TOPOLOGIES = {
    "ring": ring_graph,
    "line": line_graph,
    "star": star_graph,
    "tree": tree_graph,
    "complete": complete_graph,
    "random": lambda n: random_graph(n, 0.3, seed=n),
}

#: Probabilities with the 0.0 and 1.0 edge cases drawn often.
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@needs_numpy
@given(
    topology=st.sampled_from(sorted(CHURN_TOPOLOGIES)),
    num_agents=st.integers(min_value=1, max_value=40),
    edge_up=probabilities,
    agent_up=probabilities,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_churn_array_transition_is_advance(
    topology, num_agents, edge_up, agent_up, seed
):
    # Three consecutive rounds through the array transition and through the
    # public advance loop: same enabled set, same available edges (both in
    # the same iteration order), the effective edges as (u, v) arrays, and
    # the same RNG state after every round.
    graph = CHURN_TOPOLOGIES[topology](num_agents)
    transition = RandomChurnEnvironment(graph, edge_up, agent_up).array_transition()
    loop = RandomChurnEnvironment(graph, edge_up, agent_up)
    array_rng = random.Random(seed)
    loop_rng = random.Random(seed)
    for round_index in range(3):
        state = transition(round_index, array_rng)
        expected = loop.advance(round_index, loop_rng)
        assert state.enabled_count == len(expected.enabled_agents)
        u, v = state.effective_edge_arrays
        pairs = list(zip(u.tolist(), v.tolist()))
        assert len(pairs) == len(expected.effective_edges())
        assert set(pairs) == expected.effective_edges()
        assert state == expected
        assert list(state.enabled_agents) == list(expected.enabled_agents)
        assert list(state.available_edges) == list(expected.available_edges)
        assert array_rng.getstate() == loop_rng.getstate()


@needs_numpy
@given(
    topology=st.sampled_from(sorted(CHURN_TOPOLOGIES)),
    num_agents=st.integers(min_value=1, max_value=40),
    edge_up=probabilities,
    agent_up=probabilities,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_churn_advance_form_follows_the_labeller(
    topology, num_agents, edge_up, agent_up, seed
):
    # Churn's advance returns the array form where the labeller has numpy
    # and eager frozensets where it has not: equal states, the same
    # iteration orders, and the RNG left in the same state.
    graph = CHURN_TOPOLOGIES[topology](num_agents)

    def advanced(hidden: bool):
        environment = RandomChurnEnvironment(graph, edge_up, agent_up)
        rng = random.Random(seed)
        with pytest.MonkeyPatch.context() as patch:
            if hidden:
                patch.setattr(base, "_numpy", None)
            states = [environment.advance(round_index, rng) for round_index in range(3)]
        return states, rng.getstate()

    arrays, array_rng = advanced(hidden=False)
    eager, eager_rng = advanced(hidden=True)
    assert all(state.effective_edge_arrays is not None for state in arrays)
    assert all("available_edges" not in state.__dict__ for state in arrays)
    assert all("_up_edges" not in state.__dict__ for state in eager)
    assert arrays == eager
    for state, expected in zip(arrays, eager):
        assert list(state.enabled_agents) == list(expected.enabled_agents)
        assert list(state.available_edges) == list(expected.available_edges)
        assert state.communication_group_tuples() == expected.communication_group_tuples()
    assert array_rng == eager_rng


@pytest.mark.parametrize("hidden", [False, True])
@pytest.mark.parametrize("num_agents", [1, 2, 5, 64, 1000])
def test_all_up_churn_discards_the_agent_draws_the_loop_made(
    monkeypatch, num_agents, hidden
):
    # With every agent up, advance skips the n agent draws in one
    # getrandbits call: the generator ends where n random() calls leave
    # it, so the edge draws and the state are the per-agent loop's.
    if hidden:
        monkeypatch.setattr(base, "_numpy", None)
    graph = tree_graph(num_agents)
    environment = RandomChurnEnvironment(graph, edge_up_probability=0.4)
    rng = random.Random(num_agents)
    loop_rng = random.Random(num_agents)
    for round_index in range(3):
        state = environment.advance(round_index, rng)
        for _ in range(num_agents):
            loop_rng.random()
        up_edges = frozenset(
            edge for edge in tuple(graph.edges) if loop_rng.random() < 0.4
        )
        assert rng.getstate() == loop_rng.getstate()
        assert state == base.EnvironmentState(
            frozenset(range(num_agents)), up_edges, round_index
        )
        assert list(state.enabled_agents) == list(range(num_agents))


@needs_numpy
@pytest.mark.parametrize("agent_up", [1.0, 0.9999])
def test_all_up_churn_states_share_one_read_only_id_array(monkeypatch, agent_up):
    # The all-enabled agents are one ascending int64 array per
    # environment, so a state's partition view never sorts them again.
    # (The array transition's states hold the ids its agent mask sets
    # whenever agents may be down.)
    environment = RandomChurnEnvironment(tree_graph(50), 0.5, agent_up)
    rng = random.Random(2)
    states = [environment.advance(round_index, rng) for round_index in range(4)]
    transition = environment.array_transition()
    arrays = [transition(round_index, rng) for round_index in range(4, 8)]
    shared = [state.__dict__["_enabled_ids"] for state in states]
    if agent_up == 1.0:
        shared += [state.__dict__["_enabled_ids"] for state in arrays]
    assert all(ids is shared[0] for ids in shared)
    assert shared[0].tolist() == list(range(50))
    assert not shared[0].flags.writeable
    states += arrays

    def no_sort(*args, **kwargs):
        raise AssertionError("the enabled agents were sorted")

    monkeypatch.setattr(base._numpy, "sort", no_sort)
    for state in states:
        assert state.component_partition().tuples() == base.connected_component_tuples(
            state.enabled_agents, state.effective_edges()
        )


@needs_numpy
def test_churn_environments_read_the_topology_table(monkeypatch):
    # Random and Markov churn keep no copy of the draw-order table: every
    # array-form state is built from the topology's own objects.
    built = []
    masked_state = dynamics.masked_state

    def recording(sequence, endpoints, *args):
        built.append((sequence, endpoints, args[3:]))
        return masked_state(sequence, endpoints, *args)

    monkeypatch.setattr(dynamics, "masked_state", recording)
    graph = complete_graph(90)
    random_churn = RandomChurnEnvironment(graph, 0.3)
    markov = MarkovChurnEnvironment(graph, 0.3, 0.3)
    rng = random.Random(5)
    states = [random_churn.advance(0, rng), random_churn.array_transition()(1, rng)]
    states += [markov.advance(round_index, rng) for round_index in range(2)]
    assert len(built) == 4
    for sequence, endpoints, _ in built:
        assert sequence is graph.edge_sequence()
        assert endpoints is graph.edge_endpoint_arrays()
    # Random churn's all-up states share the topology's id array.
    assert all(rest[0] is graph.agent_id_array() for _, _, rest in built[:2])
    assert all(state.__dict__["_edge_sequence"] is graph.edge_sequence() for state in states)
    for environment in (random_churn, markov):
        for name in ("_edge_sequence", "_edge_endpoints", "_all_agent_ids"):
            assert not hasattr(environment, name)
    # The all-enabled set serves only the numpy-less path.
    assert random_churn._all_agents is None


def _duty_cycle():
    return PeriodicDutyCycleEnvironment(tree_graph(60), period=5, duty_cycle=0.6, seed=4)


class _PlainDutyCycle(PeriodicDutyCycleEnvironment):
    """The duty cycle's states without their id and edge arrays: each
    partition sorts its enabled set and each labelling filters the edges."""

    def advance(self, round_index, rng):
        state = super().advance(round_index, rng)
        return base.EnvironmentState(
            state.enabled_agents, state.available_edges, round_index
        )


@needs_numpy
def test_duty_cycle_states_share_one_read_only_id_array_per_phase(monkeypatch):
    environment = _duty_cycle()
    rng = random.Random(0)
    states = [environment.advance(round_index, rng) for round_index in range(10)]
    for state, repeat in zip(states[:5], states[5:]):
        ids = state.__dict__["_enabled_ids"]
        arrays = state.effective_edge_arrays
        assert repeat.__dict__["_enabled_ids"] is ids
        assert repeat.effective_edge_arrays is arrays
        assert not any(array.flags.writeable for array in (ids, *arrays))
        assert ids.tolist() == sorted(state.enabled_agents)
        assert sorted(zip(*(array.tolist() for array in arrays))) == sorted(
            state.effective_edges()
        )
        # The state's value is the plain state's, iteration order included.
        plain = base.EnvironmentState(
            frozenset(
                agent
                for agent in environment.topology.agent_ids
                if environment._is_awake(agent, state.round_index)
            ),
            environment.topology.edges,
            state.round_index,
        )
        assert state == plain and hash(state) == hash(plain)
        assert repr(state) == repr(plain)
        assert list(state.enabled_agents) == list(plain.enabled_agents)

    # A run's records equal those of a run on the plain states, and no
    # partition sorts its enabled agents.
    values = random_integers(60, seed=1)
    plain_environment = _PlainDutyCycle(
        tree_graph(60), period=5, duty_cycle=0.6, seed=4
    )
    expected = list(
        Simulator(minimum_algorithm(), plain_environment, values, seed=3).steps(25)
    )

    def no_sort(*args, **kwargs):
        raise AssertionError("the enabled agents were sorted")

    monkeypatch.setattr(base._numpy, "sort", no_sort)
    records = list(Simulator(minimum_algorithm(), _duty_cycle(), values, seed=3).steps(25))
    assert records == expected
    assert any(record.largest_group > 1 for record in records)


def test_churn_subclass_overriding_the_transition_loses_the_array_form():
    # The array form reproduces RandomChurnEnvironment's own transition;
    # a subclass that overrides it, even by plain delegation, must be
    # advanced through its own advance.
    class Overriding(RandomChurnEnvironment):
        def advance(self, *args):
            return super().advance(*args)

    assert Overriding(ring_graph(6)).array_transition() is None
    state = Overriding(ring_graph(6), 0.5, 0.5).advance(0, random.Random(3))
    assert state == RandomChurnEnvironment(ring_graph(6), 0.5, 0.5).advance(
        0, random.Random(3)
    )


def test_array_transition_needs_numpy_and_the_churn_dynamics(monkeypatch):
    class Plain(RandomChurnEnvironment):
        pass

    has_numpy = dynamics._numpy is not None
    assert (Plain(ring_graph(6)).array_transition() is not None) == has_numpy
    assert MarkovChurnEnvironment(ring_graph(6)).array_transition() is None
    assert StaticEnvironment(ring_graph(6)).array_transition() is None
    monkeypatch.setattr(dynamics, "_numpy", None)
    assert RandomChurnEnvironment(ring_graph(6)).array_transition() is None


class TestPeriodicDutyCycle:
    def test_parameters_validated(self):
        with pytest.raises(EnvironmentError_):
            PeriodicDutyCycleEnvironment(line_graph(3), period=0)
        with pytest.raises(EnvironmentError_):
            PeriodicDutyCycleEnvironment(line_graph(3), duty_cycle=0.0)
        with pytest.raises(EnvironmentError_):
            PeriodicDutyCycleEnvironment(line_graph(3), phases=[0])

    def test_full_duty_cycle_means_always_awake(self, rng):
        env = PeriodicDutyCycleEnvironment(line_graph(4), period=5, duty_cycle=1.0)
        for round_index in range(10):
            assert len(env.advance(round_index, rng).enabled_agents) == 4

    def test_wake_pattern_is_periodic(self, rng):
        env = PeriodicDutyCycleEnvironment(
            line_graph(3), period=4, duty_cycle=0.5, phases=[0, 1, 2]
        )
        pattern_one = [env.advance(i, rng).enabled_agents for i in range(4)]
        pattern_two = [env.advance(i + 4, rng).enabled_agents for i in range(4)]
        assert pattern_one == pattern_two

    def test_half_duty_cycle_disables_someone_sometimes(self, rng):
        env = PeriodicDutyCycleEnvironment(
            complete_graph(4), period=10, duty_cycle=0.3, seed=3
        )
        sizes = [len(env.advance(i, rng).enabled_agents) for i in range(10)]
        assert min(sizes) < 4

    def test_wake_rounds_is_ceiling_of_duty_times_period(self):
        # Regression: round() banker's-rounded 0.25 * 10 = 2.5 down to 2,
        # undercutting the documented ceil(duty_cycle * period) window.
        cases = {
            (0.25, 10): 3,
            (0.6, 10): 6,
            (0.5, 4): 2,
            (0.05, 10): 1,
            (0.15, 10): 2,
            (1.0, 7): 7,
            # 0.07 * 100 = 7.000000000000001 in floats; the ceiling must
            # still be 7, not 8.
            (0.07, 100): 7,
        }
        for (duty, period), expected in cases.items():
            env = PeriodicDutyCycleEnvironment(
                line_graph(3), period=period, duty_cycle=duty, seed=0
            )
            assert env.wake_rounds == expected, (duty, period)

    def test_wake_rounds_never_exceed_period(self, rng):
        env = PeriodicDutyCycleEnvironment(line_graph(3), period=3, duty_cycle=0.999)
        assert env.wake_rounds == 3
        for round_index in range(6):
            assert len(env.advance(round_index, rng).enabled_agents) == 3


class TestAdversaries:
    def test_rotating_partition_always_partitions_the_system(self, rng):
        env = RotatingPartitionAdversary(complete_graph(6), num_blocks=2, rotate_every=3)
        for round_index in range(12):
            state = env.advance(round_index, rng)
            groups = state.communication_groups()
            assert len(groups) >= 2
            # Within a round no edge joins two different blocks.
            for a, b in state.available_edges:
                assert env._block_of(a, round_index) == env._block_of(b, round_index)

    def test_rotating_partition_eventually_offers_every_edge(self, rng):
        env = RotatingPartitionAdversary(
            complete_graph(4), num_blocks=2, rotate_every=1, seed=0
        )
        seen = set()
        for round_index in range(60):
            seen |= env.advance(round_index, rng).available_edges
        assert seen == complete_graph(4).edges

    def test_rotating_partition_parameter_validation(self):
        with pytest.raises(EnvironmentError_):
            RotatingPartitionAdversary(complete_graph(4), num_blocks=0)
        with pytest.raises(EnvironmentError_):
            RotatingPartitionAdversary(complete_graph(4), rotate_every=0)

    def test_targeted_crash_downs_targets_then_releases(self, rng):
        env = TargetedCrashAdversary(
            complete_graph(5), targets=[0, 1], period=10, down_rounds=8
        )
        down_state = env.advance(0, rng)
        up_state = env.advance(9, rng)
        assert 0 not in down_state.enabled_agents
        assert 1 not in down_state.enabled_agents
        assert up_state.enabled_agents == frozenset(range(5))

    def test_targeted_crash_validates_targets(self):
        with pytest.raises(EnvironmentError_):
            TargetedCrashAdversary(complete_graph(3), targets=[9])
        with pytest.raises(EnvironmentError_):
            TargetedCrashAdversary(complete_graph(3), targets=[0], period=5, down_rounds=9)

    def test_blackout_freezes_everything_then_recovers(self, rng):
        env = BlackoutAdversary(complete_graph(4), period=6, blackout_rounds=3)
        dark = env.advance(0, rng)
        bright = env.advance(4, rng)
        assert dark.enabled_agents == frozenset()
        assert dark.available_edges == frozenset()
        assert bright.enabled_agents == frozenset(range(4))

    def test_blackout_validates_parameters(self):
        with pytest.raises(EnvironmentError_):
            BlackoutAdversary(complete_graph(3), period=5, blackout_rounds=5)

    def test_edge_budget_limits_edges_per_round(self, rng):
        env = EdgeBudgetAdversary(complete_graph(5), budget=2)
        for round_index in range(20):
            assert len(env.advance(round_index, rng).available_edges) <= 2

    def test_edge_budget_cycles_through_all_edges(self, rng):
        env = EdgeBudgetAdversary(complete_graph(4), budget=1)
        seen = set()
        for round_index in range(len(complete_graph(4).edges)):
            seen |= env.advance(round_index, rng).available_edges
        assert seen == complete_graph(4).edges

    def test_edge_budget_validates_budget(self):
        with pytest.raises(EnvironmentError_):
            EdgeBudgetAdversary(complete_graph(3), budget=0)


class TestMobility:
    def test_parameters_validated(self):
        with pytest.raises(EnvironmentError_):
            RandomWaypointEnvironment(0)
        with pytest.raises(EnvironmentError_):
            RandomWaypointEnvironment(3, arena_size=-1.0)

    def test_edges_respect_radio_range(self, rng):
        env = RandomWaypointEnvironment(
            6, arena_size=100.0, range_radius=30.0, speed=5.0, seed=1
        )
        state = env.advance(0, rng)
        positions = env.positions()
        for a, b in state.available_edges:
            ax, ay = positions[a]
            bx, by = positions[b]
            assert ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 <= 30.0 + 1e-9

    def test_positions_stay_in_arena(self, rng):
        env = RandomWaypointEnvironment(5, arena_size=50.0, speed=10.0, seed=2)
        for round_index in range(50):
            env.advance(round_index, rng)
        assert all(0 <= x <= 50 and 0 <= y <= 50 for x, y in env.positions())

    def test_reset_is_reproducible(self, rng):
        env = RandomWaypointEnvironment(4, seed=9)
        first = env.positions()
        env.advance(0, rng)
        env.reset()
        assert env.positions() == first

    def test_battery_model_disables_and_recovers_agents(self):
        rng = random.Random(0)
        env = RandomWaypointEnvironment(
            3,
            arena_size=10.0,
            range_radius=20.0,
            speed=0.0,
            battery_capacity=2.0,
            drain_per_round=1.0,
            recharge_per_round=1.0,
            seed=4,
        )
        enabled_counts = [len(env.advance(i, rng).enabled_agents) for i in range(8)]
        assert min(enabled_counts) == 0  # all batteries drain together
        assert max(enabled_counts) == 3

    def test_no_battery_means_always_enabled(self, rng):
        env = RandomWaypointEnvironment(4, battery_capacity=None, seed=5)
        for round_index in range(10):
            assert len(env.advance(round_index, rng).enabled_agents) == 4

    def test_connectivity_varies_with_range(self, rng):
        tight = RandomWaypointEnvironment(8, arena_size=100, range_radius=5, seed=3)
        wide = RandomWaypointEnvironment(8, arena_size=100, range_radius=200, seed=3)
        tight_edges = len(tight.advance(0, rng).available_edges)
        wide_edges = len(wide.advance(0, rng).available_edges)
        assert wide_edges == 28  # complete graph on 8 agents
        assert tight_edges < wide_edges
