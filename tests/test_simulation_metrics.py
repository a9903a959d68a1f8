"""Tests for run statistics aggregation and table formatting."""

from __future__ import annotations

import math

from repro import BatchRunner, ExperimentSpec
from repro.simulation import aggregate, format_table
from repro.simulation.result import SimulationResult
from repro.core import Multiset
from repro.temporal import Trace


def make_result(converged, convergence_round, group_steps=10, improving=5, correct=True):
    output = "answer" if correct else "wrong"
    return SimulationResult(
        converged=converged,
        convergence_round=convergence_round,
        rounds_executed=convergence_round or 100,
        final_states=[0],
        output=output,
        expected_output="answer",
        trace=Trace([Multiset([0])]),
        objective_trajectory=[0.0],
        group_steps=group_steps,
        improving_steps=improving,
    )


class TestAggregate:
    def test_all_converged(self):
        stats = aggregate([make_result(True, 10), make_result(True, 20)])
        assert stats.runs == 2
        assert stats.converged_runs == 2
        assert stats.convergence_rate == 1.0
        assert stats.mean_rounds == 15.0
        assert stats.median_rounds == 10.0
        assert stats.max_rounds == 20.0
        assert stats.correctness_rate == 1.0

    def test_partial_convergence(self):
        stats = aggregate([make_result(True, 10), make_result(False, None, correct=False)])
        assert stats.converged_runs == 1
        assert stats.convergence_rate == 0.5
        assert stats.mean_rounds == 10.0
        assert stats.correctness_rate == 0.5

    def test_no_convergence_reports_inf(self):
        stats = aggregate([make_result(False, None, correct=False)])
        assert math.isinf(stats.mean_rounds)
        assert math.isinf(stats.median_rounds)
        assert stats.convergence_rate == 0.0

    def test_empty_batch(self):
        stats = aggregate([])
        assert stats.runs == 0
        assert stats.convergence_rate == 0.0

    def test_percentiles_ordering(self):
        results = [make_result(True, rounds) for rounds in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]]
        stats = aggregate(results)
        assert stats.median_rounds <= stats.p90_rounds <= stats.max_rounds

    def test_mean_group_steps(self):
        stats = aggregate([make_result(True, 1, group_steps=4), make_result(True, 1, group_steps=6)])
        assert stats.mean_group_steps == 5.0
        assert stats.mean_improving_steps == 5.0


class TestFormatTable:
    def test_alignment_and_headers(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "2.50" in table

    def test_infinite_values_rendered(self):
        table = format_table(["x"], [[math.inf]])
        assert "inf" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table


class TestRepeatedRunsAndSweeps:
    """Repeated runs and parameter sweeps are specs run by ``BatchRunner``."""

    @staticmethod
    def _spec(**overrides) -> ExperimentSpec:
        fields = dict(
            name="minimum",
            algorithm="minimum",
            environment="churn",
            environment_params={"topology": "complete", "edge_up_probability": 0.3},
            initial_values=(5, 4, 3, 2, 1),
            seeds=(0, 1, 2, 3),
            max_rounds=300,
        )
        fields.update(overrides)
        return ExperimentSpec(**fields).validate()

    def test_repeated_runs_use_distinct_seeds(self):
        batch = BatchRunner(backend="serial").run(self._spec())
        results = batch.results_for("minimum")
        assert len(results) == 4
        assert all(result["converged"] for result in results)
        assert {result["metadata"]["seed"] for result in results} == {0, 1, 2, 3}

    def test_sweep_structure(self):
        batch = BatchRunner(backend="serial").run_grid(
            self._spec(seeds=(0, 1, 2)),
            {"environment_params.edge_up_probability": [0.2, 1.0]},
        )
        scarce, abundant = batch.statistics().values()
        assert scarce.runs == abundant.runs == 3
        # Full availability should not be slower than 20% availability.
        assert abundant.mean_rounds <= scarce.mean_rounds

    def test_sweep_keeps_individual_results(self):
        batch = BatchRunner(backend="serial").run_grid(
            self._spec(
                environment="static",
                environment_params={"topology": "complete"},
                initial_values=(4, 3, 2, 1),
                seeds=(0, 1),
                max_rounds=10,
            ),
            {"max_rounds": [10]},
        )
        (label,) = batch.labels()
        results = batch.results_for(label)
        assert len(results) == 2
        assert all(result["converged"] for result in results)
