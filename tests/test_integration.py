"""Integration tests: every algorithm under every class of environment.

These tests exercise the full stack — algorithm, environment, scheduler,
simulator, verification — the way the examples and benchmarks do, and
check the paper's specification (conservation law, stability, convergence,
monotone objective) on the recorded traces rather than just the final
answer.
"""

from __future__ import annotations

import pytest

from repro import (
    Simulator,
    average_algorithm,
    convex_hull_algorithm,
    kth_smallest_algorithm,
    minimum_algorithm,
    second_smallest_algorithm,
    sorting_algorithm,
    summation_algorithm,
)
from repro.agents import MaximalGroupsScheduler, RandomPairScheduler, RandomSubgroupScheduler
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
)
from repro.verification import check_specification

VALUES = [9, 4, 7, 1, 8, 5]


def environments(num_agents):
    """A representative environment of every class, all fair."""
    topology = complete_graph(num_agents)
    return [
        StaticEnvironment(topology),
        RandomChurnEnvironment(topology, edge_up_probability=0.3),
        MarkovChurnEnvironment(topology, edge_failure_probability=0.3, edge_recovery_probability=0.4),
        PeriodicDutyCycleEnvironment(topology, period=6, duty_cycle=0.7, seed=1),
        RotatingPartitionAdversary(topology, num_blocks=2, rotate_every=3),
        TargetedCrashAdversary(topology, targets=[0], period=8, down_rounds=6),
        BlackoutAdversary(topology, period=8, blackout_rounds=4),
        EdgeBudgetAdversary(topology, budget=2),
        RandomWaypointEnvironment(num_agents, arena_size=60, range_radius=35, speed=8, seed=2),
    ]


class TestMinimumEverywhere:
    @pytest.mark.parametrize("env_index", range(9))
    def test_minimum_converges_and_satisfies_spec(self, env_index):
        environment = environments(6)[env_index]
        result = Simulator(minimum_algorithm(), environment, VALUES, seed=env_index).run(
            max_rounds=2000
        )
        assert result.converged, environment.describe()
        assert result.output == 1
        report = check_specification(minimum_algorithm(), result.trace)
        assert report.all_hold, report.explain()


class TestSumAndAverageUnderAdversity:
    @pytest.mark.parametrize("env_index", [0, 1, 4, 6, 8])
    def test_sum(self, env_index):
        environment = environments(6)[env_index]
        result = Simulator(summation_algorithm(), environment, VALUES, seed=env_index).run(
            max_rounds=3000
        )
        assert result.converged, environment.describe()
        assert result.output == sum(VALUES)

    # The averaging step needs a group that spans all remaining disagreement
    # to finish exactly, so only environments that eventually connect the
    # whole system in a single round are used here.
    @pytest.mark.parametrize("env_index", [0, 1, 5, 6])
    def test_average(self, env_index):
        environment = environments(6)[env_index]
        result = Simulator(average_algorithm(), environment, VALUES, seed=env_index).run(
            max_rounds=3000
        )
        assert result.converged, environment.describe()
        report = check_specification(average_algorithm(), result.trace)
        assert report.all_hold, report.explain()


class TestOrderStatisticsUnderAdversity:
    @pytest.mark.parametrize("env_index", [0, 1, 4, 7])
    def test_second_smallest(self, env_index):
        environment = environments(6)[env_index]
        result = Simulator(
            second_smallest_algorithm(), environment, VALUES, seed=env_index
        ).run(max_rounds=2000)
        assert result.converged, environment.describe()
        assert result.output == 4

    @pytest.mark.parametrize("env_index", [0, 1, 4])
    def test_third_smallest(self, env_index):
        environment = environments(6)[env_index]
        result = Simulator(
            kth_smallest_algorithm(3), environment, VALUES, seed=env_index
        ).run(max_rounds=2000)
        assert result.converged, environment.describe()
        assert result.output == 5


class TestSortingAndHullUnderAdversity:
    @pytest.mark.parametrize("env_index", [0, 1, 4, 6])
    def test_sorting(self, env_index):
        algorithm = sorting_algorithm(VALUES)
        environment = environments(6)[env_index]
        result = Simulator(
            algorithm, environment, algorithm.instance_cells, seed=env_index
        ).run(max_rounds=3000)
        assert result.converged, environment.describe()
        assert result.output == sorted(VALUES)
        report = check_specification(algorithm, result.trace)
        assert report.all_hold, report.explain()

    @pytest.mark.parametrize("env_index", [0, 1, 4, 8])
    def test_convex_hull(self, env_index):
        points = [(0, 0), (6, 1), (3, 7), (8, 8), (1, 4), (7, 3)]
        algorithm = convex_hull_algorithm(points)
        environment = environments(6)[env_index]
        result = Simulator(algorithm, environment, points, seed=env_index).run(
            max_rounds=2000
        )
        assert result.converged, environment.describe()


class TestSchedulersAcrossAlgorithms:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [MaximalGroupsScheduler, RandomPairScheduler, lambda: RandomSubgroupScheduler(2, 3)],
    )
    def test_minimum_with_every_scheduler(self, scheduler_factory):
        environment = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.5)
        result = Simulator(
            minimum_algorithm(),
            environment,
            VALUES,
            scheduler=scheduler_factory(),
            seed=3,
        ).run(max_rounds=2000)
        assert result.converged
        assert result.output == 1

    @pytest.mark.parametrize(
        "scheduler_factory", [MaximalGroupsScheduler, lambda: RandomSubgroupScheduler(2, 4)]
    )
    def test_sum_with_subgroup_schedulers(self, scheduler_factory):
        environment = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.6)
        result = Simulator(
            summation_algorithm(),
            environment,
            VALUES,
            scheduler=scheduler_factory(),
            seed=4,
        ).run(max_rounds=3000)
        assert result.converged
        assert result.output == sum(VALUES)


class TestAdaptivityClaim:
    def test_more_resources_never_systematically_slower(self):
        """The paper's "speed up or slow down with available resources":
        median convergence rounds should not increase when availability
        rises from 10% to 100%."""
        from repro import BatchRunner, ExperimentSpec

        spec = ExperimentSpec(
            algorithm="minimum",
            environment="churn",
            environment_params={"topology": "complete"},
            initial_values=(13, 5, 8, 1, 11, 7, 3, 9),
            seeds=(0, 1, 2, 3, 4),
            max_rounds=2000,
        )
        batch = BatchRunner(backend="serial").run_grid(
            spec, {"environment_params.edge_up_probability": [0.1, 1.0]}
        )
        scarce, abundant = batch.statistics().values()
        assert abundant.median_rounds <= scarce.median_rounds

    def test_self_similar_min_beats_snapshot_under_partitions(self):
        from repro.baselines import SnapshotAggregationBaseline

        environment = RotatingPartitionAdversary(
            complete_graph(6), num_blocks=2, rotate_every=3
        )
        self_similar = Simulator(minimum_algorithm(), environment, VALUES, seed=1).run(
            max_rounds=500
        )
        snapshot = SnapshotAggregationBaseline(reduce_fn=min).run(
            RotatingPartitionAdversary(complete_graph(6), num_blocks=2, rotate_every=3),
            VALUES,
            max_rounds=500,
            seed=1,
        )
        assert self_similar.converged
        assert not snapshot.converged
