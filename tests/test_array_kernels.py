"""The array engine's sort-free round, piece by piece.

``tests/test_array_engine_parity.py`` pins whole runs of the array engine
against the reference engine.  This module pins its three vectorized
layers directly, on inputs a run rarely produces:

* the component labelling over the fixed agent-id index (random graphs
  with isolated and disabled agents, and rounds with no edge at all),
  through both of its path compressions and past its first sweep;
* the label-space group-step kernel, on maximal partitions and on
  scheduled partitions whose member orders are not ascending and whose
  groups tie on the maximum (the sum collector tie-break), for minimum,
  maximum and sum — the kernel must agree with the algorithm's own step
  rule applied group by group;
* the exact ``int64`` array deltas of the three kernel objectives, at
  the int64 extremes, where a plain ``int64`` sum wraps around.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.algorithms.maximum import maximum_algorithm, maximum_objective
from repro.algorithms.minimum import minimum_algorithm, minimum_objective
from repro.algorithms.summation import summation_algorithm, sum_objective
from repro.core.errors import SpecificationError
from repro.core.objective import exact_int64_sum
from repro.environment import base as environment_base
from repro.environment.base import connected_component_tuples, label_components
from repro.environment.dynamics import StaticEnvironment
from repro.environment.graphs import complete_graph
from repro.simulation.array_engine import (
    INT64_MAX,
    INT64_MIN,
    ArrayEngine,
    _group_step_kernel,
    _scheduled_arrays,
)

ALGORITHMS = {
    "minimum": minimum_algorithm(),
    "maximum": maximum_algorithm(upper_bound=INT64_MAX),
    "sum": summation_algorithm(),
}

#: Agents in a maximal round: enough for edge lists sparse enough that
#: the labeller compresses only the agents it hooked.
MAX_AGENTS = 48

#: Every group total must fit int64 for the sum kernel; 48 agents of at
#: most 2**57 in magnitude cannot leave it.
SUM_LIMIT = 2**57

#: ``isqrt(INT64_MAX)``: the sum delta squares in int64 up to here.
SQUARE_LIMIT = 3_037_000_499


def _values(kernel: str, count: int):
    """State lists that tie often (small values, zeros) and reach far."""
    if kernel == "sum":
        wide = st.integers(-SUM_LIMIT, SUM_LIMIT)
    else:
        wide = st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1])
    element = st.one_of(st.integers(0, 3), st.integers(-3, 3), wide)
    return st.lists(element, min_size=count, max_size=count)


@st.composite
def graph_rounds(draw):
    """A maximal round: values, an enabled mask and an effective edge list."""
    kernel = draw(st.sampled_from(sorted(ALGORITHMS)))
    num_agents = draw(st.integers(1, MAX_AGENTS))
    values = draw(_values(kernel, num_agents))
    enabled = draw(st.lists(st.booleans(), min_size=num_agents, max_size=num_agents))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_agents - 1), st.integers(0, num_agents - 1)
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=96,
        )
    )
    # Edges touch only enabled agents, in both orientations, as the
    # engine's effective edge arrays do.
    edges = [(a, b) for a, b in pairs if enabled[a] and enabled[b]]
    return kernel, values, enabled, edges


#: A long path among 40 agents: it hooks 12 agents, fewer than half, so
#: the labeller compresses only those.
LONG_PATH = (40, [(agent, agent + 1) for agent in range(12)])

#: Every pair of 8 agents: 28 hooked endpoints, so the whole label array
#: is compressed.
DENSE = (8, [(a, b) for a in range(8) for b in range(a + 1, 8)])

#: The path 3-1-4-0-5-2, each edge larger endpoint first: the first
#: sweep hooks 3 onto 1 but 4 and 5 onto 0, so {1, 3} still need a
#: second sweep to join them.
ZIGZAG_PATH = (20, [(3, 1), (4, 1), (4, 0), (5, 0), (5, 2)])


@st.composite
def scheduled_rounds(draw):
    """A scheduled round: values and a partition of some agents into groups
    whose member order is the scheduler's, not ascending."""
    kernel = draw(st.sampled_from(sorted(ALGORITHMS)))
    num_agents = draw(st.integers(0, 16))
    values = draw(_values(kernel, num_agents))
    order = draw(st.permutations(range(num_agents)))
    scheduled = draw(st.integers(0, num_agents))
    keys = draw(
        st.lists(st.integers(0, 5), min_size=scheduled, max_size=scheduled)
    )
    groups: dict[int, list[int]] = {}
    for agent, key in zip(order[:scheduled], keys):
        groups.setdefault(key, []).append(agent)
    return kernel, values, list(groups.values())


def _step_rule_round(kernel, values, groups):
    """What the algorithm's own step rule makes of one partition."""
    algorithm = ALGORITHMS[kernel]
    after = list(values)
    improving = 0
    for members in groups:
        before = [values[agent] for agent in members]
        stepped = list(algorithm.group_step(before, random.Random(0)))
        if stepped != before:
            improving += 1
        for agent, value in zip(members, stepped):
            after[agent] = value
    largest = max(map(len, groups), default=0)
    return after, improving, len(groups), largest


def _kernel_round(kernel, values, ids, group_of_id, group_count):
    states = np.array(values, dtype=np.int64)
    before = states.take(ids)
    new_values, changed, improving, group_steps, largest = _group_step_kernel(
        kernel, before, group_of_id, group_count
    )
    assert new_values.dtype == np.int64
    assert changed.tolist() == np.flatnonzero(new_values != before).tolist()
    states[ids] = new_values
    return states.tolist(), improving, group_steps, largest


@settings(max_examples=300, deadline=None)
@given(graph_rounds())
@example(("sum", [0, 5, 5, 0], [True, True, True, True], []))  # all singletons
@example(("sum", [2, 5, 5, 3], [True, False, True, True], [(3, 2), (2, 0)]))
@example(("maximum", [INT64_MIN, INT64_MIN, 1], [True, True, True], [(1, 0)]))
@example(("minimum", list(range(40, 0, -1)), [True] * 40, LONG_PATH[1]))
@example(("maximum", [5, INT64_MIN, 3, 3, 0, 7, -1, 2], [True] * 8, DENSE[1]))
@example(("sum", [1, 0, 3, 2, 0, 5] + [1] * 14, [True] * 20, ZIGZAG_PATH[1]))
def test_maximal_round_matches_the_step_rule(case):
    kernel, values, enabled, edges = case
    num_agents = len(values)
    enabled_agents = [agent for agent in range(num_agents) if enabled[agent]]
    components = connected_component_tuples(enabled_agents, edges)

    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    ids, labels = label_components(u, v, num_agents)
    # Every label is the smallest agent id of its component; agents no
    # edge touches (isolated or disabled) label themselves.
    expected_labels = list(range(num_agents))
    for component in components:
        for agent in component:
            expected_labels[agent] = component[0]
    assert labels.tolist() == expected_labels
    assert ids.tolist() == sorted({agent for edge in edges for agent in edge})

    after, improving, group_steps, largest = _kernel_round(
        kernel, values, ids, labels.take(ids), num_agents
    )
    singletons = len(enabled_agents) - ids.shape[0]
    if singletons:
        group_steps += singletons
        largest = max(largest, 1)
    assert (after, improving, group_steps, largest) == _step_rule_round(
        kernel, values, components
    )


def test_labeller_examples_reach_every_compression(monkeypatch):
    # The examples above exist to take each branch of the labeller at
    # least once; record which compression each sweep ran.
    compressions = []
    compressed = environment_base._compressed

    def recording(labels, hooked):
        compressions.append(2 * hooked.shape[0] < labels.shape[0])
        return compressed(labels, hooked)

    monkeypatch.setattr(environment_base, "_compressed", recording)
    seen = {}
    for name, (num_agents, edges) in (
        ("long path", LONG_PATH), ("dense", DENSE), ("zigzag path", ZIGZAG_PATH)
    ):
        compressions.clear()
        u = np.array([a for a, _ in edges], dtype=np.int64)
        v = np.array([b for _, b in edges], dtype=np.int64)
        label_components(u, v, num_agents)
        seen[name] = list(compressions)
    # One sweep each, on the hooked subset and on the whole array; the
    # zigzag path sweeps twice, both times on a subset.
    assert seen == {
        "long path": [True], "dense": [False], "zigzag path": [True, True]
    }


@settings(max_examples=300, deadline=None)
@given(scheduled_rounds())
@example(("sum", [4, 4, 1, 0], [[3, 1, 0, 2]]))  # tied maxima, out of order
@example(("sum", [4, 4, 1, 0], [[1, 3], [0], [2]]))
@example(("minimum", [3, 2, 1], []))
def test_scheduled_round_matches_the_step_rule(case):
    kernel, values, groups = case
    ids, group_of_id = _scheduled_arrays(groups)
    assert ids.tolist() == [agent for members in groups for agent in members]
    assert _kernel_round(
        kernel, values, ids, group_of_id, len(groups)
    ) == _step_rule_round(kernel, values, groups)


# -- exact array deltas -----------------------------------------------------------

EXTREMES = [
    INT64_MAX,
    -INT64_MAX,
    INT64_MIN,
    0,
    1,
    -1,
    SQUARE_LIMIT,
    SQUARE_LIMIT + 1,
    -SQUARE_LIMIT,
    -SQUARE_LIMIT - 1,
]

int64_arrays = st.lists(
    st.one_of(st.sampled_from(EXTREMES), st.integers(INT64_MIN, INT64_MAX)),
    max_size=40,
)

OBJECTIVES = {
    "minimum": minimum_objective(),
    "maximum": maximum_objective(INT64_MAX),
    "maximum-small-bound": maximum_objective(7),
    "sum": sum_objective(),
}


@pytest.mark.parametrize("name", sorted(OBJECTIVES))
@settings(max_examples=200, deadline=None)
@given(removed=int64_arrays, added=int64_arrays)
@example(removed=[INT64_MAX] * 3, added=[INT64_MIN] * 3)  # sums cross 2**63
@example(removed=[SQUARE_LIMIT] * 4, added=[SQUARE_LIMIT + 1] * 4)
@example(removed=[-SQUARE_LIMIT - 1, 2], added=[-SQUARE_LIMIT, 5])
@example(removed=[], added=[])
def test_array_delta_is_exact(name, removed, added):
    objective = OBJECTIVES[name]
    assert objective.supports_array_delta
    removed_array = np.array(removed, dtype=np.int64)
    added_array = np.array(added, dtype=np.int64)
    delta = objective.array_delta(removed_array, added_array)
    assert type(delta) is int
    assert delta == objective.delta(removed_array.tolist(), added_array.tolist())


@settings(max_examples=200, deadline=None)
@given(int64_arrays)
@example([INT64_MAX] * 40)
@example([INT64_MIN] * 40)
def test_exact_int64_sum(values):
    total = exact_int64_sum(np.array(values, dtype=np.int64))
    assert type(total) is int
    assert total == sum(values)


def test_fast_fold_keeps_the_lower_bound_check():
    # The array-form delta goes through the same lower-bound guard as
    # objective_delta: an objective pushed below its bound still raises,
    # with and without the cross-check.
    for cross_check in (False, True):
        engine = ArrayEngine(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(4)),
            initial_values=[4, 3, 2, 1],
            seed=0,
            cross_check=cross_check,
        )
        engine.initial_snapshot()
        engine._state.objective_value = 0
        with pytest.raises(SpecificationError, match="below its declared lower bound"):
            next(engine.steps())
