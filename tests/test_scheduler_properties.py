"""Property-style tests of the scheduler contract.

Every scheduler must refine the paper's transition relation: the groups it
activates in a round must be (1) pairwise disjoint — a partition fragment,
no agent acts twice — and (2) each a subset of one *communication group*
(connected component of enabled agents under available edges) of the
current environment state, so scheduled steps are steps the model allows.

The tests sweep all four schedulers across randomized environment states
drawn from every environment family, hundreds of rounds each.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.agents import (
    Group,
    MaximalGroupsScheduler,
    RandomPairScheduler,
    RandomSubgroupScheduler,
    Scheduler,
    SingleGroupScheduler,
)
from repro.algorithms.minimum import minimum_algorithm
from repro.environment import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    RandomWaypointEnvironment,
    RotatingPartitionAdversary,
    StaticEnvironment,
    complete_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
)
from repro.simulation.engine import Simulator

SCHEDULERS = [
    MaximalGroupsScheduler(),
    RandomPairScheduler(),
    SingleGroupScheduler(),
    RandomSubgroupScheduler(min_size=1, max_size=3),
]

ENVIRONMENT_FACTORIES = [
    lambda n, seed: StaticEnvironment(complete_graph(n)),
    lambda n, seed: RandomChurnEnvironment(
        complete_graph(n), edge_up_probability=0.3, agent_up_probability=0.8
    ),
    lambda n, seed: MarkovChurnEnvironment(
        random_connected_graph(n, extra_edge_probability=0.4, seed=seed),
        edge_failure_probability=0.3,
        edge_recovery_probability=0.4,
        agent_failure_probability=0.2,
        agent_recovery_probability=0.6,
    ),
    lambda n, seed: PeriodicDutyCycleEnvironment(
        grid_graph(2, (n + 1) // 2), period=6, duty_cycle=0.5, seed=seed
    ),
    lambda n, seed: RotatingPartitionAdversary(
        complete_graph(n), num_blocks=3, rotate_every=2, seed=seed
    ),
    lambda n, seed: BlackoutAdversary(line_graph(n), period=5, blackout_rounds=2),
    lambda n, seed: EdgeBudgetAdversary(complete_graph(n), budget=2),
    lambda n, seed: RandomWaypointEnvironment(
        n, arena_size=50.0, range_radius=18.0, speed=9.0,
        battery_capacity=4.0, seed=seed,
    ),
]


def _assert_valid_partition(groups, environment_state):
    members = [agent for group in groups for agent in group]
    assert len(members) == len(set(members)), (
        f"groups overlap: {[sorted(g) for g in groups]}"
    )
    components = environment_state.communication_groups()
    for group in groups:
        agents = set(group)
        assert any(agents <= component for component in components), (
            f"group {sorted(agents)} is not inside any communication group "
            f"{[sorted(c) for c in components]}"
        )


@pytest.mark.parametrize(
    "scheduler", SCHEDULERS, ids=lambda s: type(s).__name__
)
@pytest.mark.parametrize(
    "environment_factory",
    ENVIRONMENT_FACTORIES,
    ids=lambda f: f(4, 0).describe().split(" (")[0].split(",")[0],
)
@pytest.mark.parametrize("num_agents", [1, 2, 5, 9])
def test_scheduled_groups_are_disjoint_subsets_of_communication_groups(
    scheduler, environment_factory, num_agents
):
    for seed in range(3):
        environment = environment_factory(num_agents, seed)
        rng = random.Random(seed * 101 + num_agents)
        for round_index in range(60):
            environment_state = environment.advance(round_index, rng)
            groups = scheduler.schedule(environment_state, rng)
            _assert_valid_partition(groups, environment_state)


@pytest.mark.parametrize(
    "scheduler", SCHEDULERS, ids=lambda s: type(s).__name__
)
def test_schedule_on_fully_dark_round_is_empty(scheduler):
    environment = BlackoutAdversary(complete_graph(5), period=4, blackout_rounds=3)
    rng = random.Random(0)
    # Rounds 0..2 of each period are fully dark: nothing may be scheduled.
    state = environment.advance(0, rng)
    assert state.communication_groups() == []
    assert scheduler.schedule(state, rng) == []


def test_random_pair_scheduler_only_pairs():
    environment = RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.7)
    scheduler = RandomPairScheduler()
    rng = random.Random(1)
    for round_index in range(40):
        state = environment.advance(round_index, rng)
        for group in scheduler.schedule(state, rng):
            assert len(group) == 2


def test_single_group_scheduler_at_most_one_group():
    environment = RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.4)
    scheduler = SingleGroupScheduler()
    rng = random.Random(2)
    for round_index in range(40):
        state = environment.advance(round_index, rng)
        assert len(scheduler.schedule(state, rng)) <= 1


class _ComponentScheduler(Scheduler):
    """A plugin scheduler that acts on every component, building its own
    groups: a fresh list each round, so the engine validates it and
    finds the groups that step itself."""

    def schedule(self, environment_state, rng):
        return [
            Group(members)
            for members in environment_state.communication_group_tuples()
        ]

    def describe(self):
        # The result metadata records the description; the rest of the
        # result must match the maximal scheduler's byte for byte.
        return MaximalGroupsScheduler().describe()


class _LegacyComponentScheduler(_ComponentScheduler):
    """The same plugin, still declaring the retired component-consumer
    attribute, which nothing reads any more."""

    uses_communication_groups = True


@pytest.mark.parametrize("plugin", [_ComponentScheduler, _LegacyComponentScheduler])
def test_plugin_component_scheduler_matches_maximal(plugin):
    def run(scheduler):
        simulator = Simulator(
            minimum_algorithm(),
            RandomChurnEnvironment(
                grid_graph(5, 6), edge_up_probability=0.3, agent_up_probability=0.8
            ),
            initial_values=[(7 * agent) % 31 for agent in range(30)],
            scheduler=scheduler,
            seed=11,
        )
        return simulator.run(max_rounds=120, extra_rounds_after_convergence=3)

    plugin_result, maximal_result = run(plugin()), run(MaximalGroupsScheduler())
    assert plugin_result.converged
    assert list(plugin_result.trace) == list(maximal_result.trace)
    assert json.dumps(
        plugin_result.to_dict(include_trajectory=True), sort_keys=True
    ) == json.dumps(maximal_result.to_dict(include_trajectory=True), sort_keys=True)
