"""Round-trip tests for SimulationResult serialization."""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentSpec, SimulationResult
from repro.environment import dynamics
from repro.environment.dynamics import MarkovChurnEnvironment
from repro.environment.graphs import complete_graph
from repro.simulation.batch import BatchRunner
from repro.simulation.result import jsonify, readable_json

SPECS = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"


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


class TestJsonifyScalarLists:
    def test_exact_scalar_lists_come_back_equal_and_fresh(self):
        for value in ([], [3, 1, 2], [None, True, 0, -0.0, 1e308, "é"], (4, 5)):
            encoded = jsonify(value)
            assert encoded == list(value)
            assert type(encoded) is list and encoded is not value

    def test_other_items_take_the_general_path(self):
        class Colour(IntEnum):
            RED = 1

        @dataclass(frozen=True)
        class Cell:
            index: int
            value: Fraction

        assert jsonify([1, Fraction(1, 2)]) == [1, "1/2"]
        enums = jsonify([Colour.RED, 2])
        assert enums == [1, 2] and type(enums[0]) is Colour
        assert jsonify([(1, 2), (3,)]) == [[1, 2], [3]]
        assert jsonify([{3, 1, 2}, frozenset()]) == [[1, 2, 3], []]
        assert jsonify([Cell(0, Fraction(3, 4))]) == [{"index": 0, "value": "3/4"}]


# -- the readable writer -----------------------------------------------------------

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e308, math.inf, -math.inf, math.nan])
    | st.text()
)
_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=5)
    ),
    max_leaves=25,
)
_UNSERIALIZABLE = st.sampled_from([object(), {1, 2}, b"bytes", 1j, Fraction(1, 3)])
_BAD_VALUES = st.recursive(
    _SCALARS | _UNSERIALIZABLE,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(_KEYS | st.tuples(st.integers()), children, max_size=4)
    ),
    max_leaves=12,
)


def _parsed(text: str) -> str:
    # Re-encoded, so NaN compares equal to itself and -0.0 differs from 0.0.
    return json.dumps(json.loads(text))


class TestReadableJson:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_parses_like_the_indented_encoder(self, value):
        assert _parsed(readable_json(value)) == _parsed(json.dumps(value, indent=2))

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_without_indent_it_is_json_dumps(self, value):
        assert readable_json(value, indent=None) == json.dumps(value)

    @settings(max_examples=300, deadline=None)
    @given(_BAD_VALUES)
    def test_unserializable_values_raise_what_json_raises(self, value):
        try:
            json.dumps(value, indent=2)
        except TypeError as expected:
            with pytest.raises(TypeError) as raised:
                readable_json(value)
            assert str(raised.value) == str(expected)
        else:
            readable_json(value)

    def test_layout(self):
        value = {"a": [1, 2.5, None], "b": {"c": [], "d": {}, "e": [[1], (2, "x")]}}
        assert readable_json(value) == (
            '{\n'
            '  "a": [1, 2.5, null],\n'
            '  "b": {\n'
            '    "c": [],\n'
            '    "d": {},\n'
            '    "e": [\n'
            '      [1],\n'
            '      [2, "x"]\n'
            '    ]\n'
            '  }\n'
            '}'
        )
        assert readable_json({1: [True]}, indent=1) == '{\n "1": [true]\n}'


@pytest.mark.skipif(dynamics._numpy is None, reason="the array engine runs on numpy")
def test_batch_json_lines_do_not_grow_with_n():
    spec = ExperimentSpec.from_json((SPECS / "minimum_array.json").read_text())
    bodies = []
    for count in (3000, 20000):
        batch = BatchRunner(backend="serial").run(
            spec.with_updates({"generator_params.count": count})
        )
        body = batch.to_json()
        assert json.loads(body) == batch.to_dict()
        assert len(json.loads(body)["items"][0]["result"]["final_states"]) == count
        bodies.append(body)
    small, large = (body.count("\n") for body in bodies)
    assert small == large
