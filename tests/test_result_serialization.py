"""Round-trip tests for SimulationResult serialization."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import pytest

from repro import ExperimentSpec, SimulationResult
from repro.environment import dynamics
from repro.environment.dynamics import MarkovChurnEnvironment
from repro.environment.graphs import complete_graph
from repro.simulation.result import jsonify


def run(algorithm: str, values, **spec_overrides) -> SimulationResult:
    base = dict(
        algorithm=algorithm,
        environment="churn",
        environment_params={"edge_up_probability": 0.4},
        initial_values=tuple(values),
        max_rounds=2000,
    )
    base.update(spec_overrides)
    return ExperimentSpec(**base).run(0)


class TestToDict:
    def test_is_json_safe(self):
        result = run("minimum", [5, 3, 9, 1])
        text = result.to_json()
        assert json.loads(text)["converged"] is True

    def test_trace_is_summarized_not_serialized(self):
        result = run("minimum", [5, 3, 9, 1])
        data = result.to_dict()
        assert data["trace"] == {
            "length": len(result.trace),
            "complete": result.trace.complete,
        }

    def test_objective_trajectory_summarized_by_default(self):
        result = run("minimum", [5, 3, 9, 1])
        data = result.to_dict()
        assert "objective_trajectory" not in data
        assert data["objective_initial"] == result.objective_trajectory[0]
        assert data["objective_final"] == result.objective_trajectory[-1]
        full = result.to_dict(include_trajectory=True)
        assert full["objective_trajectory"] == result.objective_trajectory

    def test_fractions_serialize_as_rational_strings(self):
        result = run("average", [1, 2, 4, 5])
        data = result.to_dict()
        assert data["output"] == "3/1"
        assert all(isinstance(state, str) for state in data["final_states"])


class TestRoundTrip:
    def test_minimum_round_trip(self):
        result = run("minimum", [5, 3, 9, 1])
        restored = SimulationResult.from_json(result.to_json())
        assert restored.converged == result.converged
        assert restored.convergence_round == result.convergence_round
        assert restored.rounds_executed == result.rounds_executed
        assert restored.final_states == result.final_states
        assert restored.output == result.output
        assert restored.expected_output == result.expected_output
        assert restored.correct
        assert restored.group_steps == result.group_steps
        assert restored.improving_steps == result.improving_steps
        assert restored.metadata["seed"] == result.metadata["seed"]
        assert restored.trace.complete == result.trace.complete

    def test_sorting_round_trip_restores_tuple_states(self):
        result = run(
            "sorting",
            (9, 2, 7, 1),
            environment_params={"topology": "line", "edge_up_probability": 0.5},
            max_rounds=5000,
        )
        restored = SimulationResult.from_dict(json.loads(result.to_json()))
        # (index, value) cells came back as tuples, so the multiset works
        assert restored.final_states == result.final_states
        assert restored.final_multiset == result.final_multiset
        assert restored.output == result.output == [1, 2, 7, 9]

    def test_round_trip_is_stable(self):
        # Everything to_dict keeps, the trace summary included (the trace
        # comes back counted), must survive arbitrarily many
        # serialize/restore cycles, so persisted batches can be compared
        # across runs.
        result = run("sum", [3, 5, 3, 7])
        once = SimulationResult.from_json(result.to_json())
        twice = SimulationResult.from_json(once.to_json())
        assert len(result.trace) > 1
        assert result.to_dict() == once.to_dict() == twice.to_dict()

    def test_non_converged_round_trip(self):
        result = run(
            "sorting",
            (9, 2, 7, 1),
            environment_params={"topology": "line", "edge_up_probability": 0.0},
            max_rounds=10,
        )
        restored = SimulationResult.from_json(result.to_json())
        assert not restored.converged
        assert restored.convergence_round is None
        assert restored.rounds_executed == 10
        assert restored.correct == result.correct is False


class TestJsonifyDataclasses:
    def test_fields_outside_the_value_are_not_serialized(self):
        @dataclass(frozen=True)
        class Tagged:
            value: int
            cache: object = field(default=None, compare=False)

        assert Tagged(3, cache=[1, 2]) == Tagged(3)
        assert jsonify(Tagged(3, cache=[1, 2])) == {"value": 3}
        assert jsonify(Tagged(3)) == {"value": 3}

    @pytest.mark.skipif(dynamics._numpy is None, reason="needs numpy")
    def test_equal_markov_states_serialize_alike(self, monkeypatch):
        # The vectorized transition hands over int64 edge arrays the loop
        # does not build; they are not part of the state's value.
        states = []
        for min_draws in (0, 10**9):
            monkeypatch.setattr(dynamics, "VECTORIZED_MIN_DRAWS", min_draws)
            environment = MarkovChurnEnvironment(complete_graph(10), 0.3, 0.4)
            states.append(environment.advance(0, random.Random(1)))
        vectorized, loop = states
        assert vectorized.effective_edge_arrays is not None
        assert loop.effective_edge_arrays is None
        assert vectorized == loop
        assert jsonify(vectorized) == jsonify(loop)
        assert set(jsonify(loop)) == {
            "enabled_agents",
            "available_edges",
            "round_index",
        }
