"""The array form of :class:`EnvironmentState` against the eager form.

An array-form state (:meth:`EnvironmentState.from_arrays`) holds its
enabled agents and its available edges as index arrays and builds the
frozensets on first read.  Whatever a reader can observe — equality,
hash, ``repr``, iteration order, serialization, copies, pickles,
quiet-round checks and adopted views — must be that of the eager state built from the same
sets in the same insertion order.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.environment import dynamics
from repro.environment.base import EnvironmentState
from repro.simulation.result import jsonify

np = dynamics._numpy

#: The array form holds numpy arrays.
pytestmark = pytest.mark.skipif(np is None, reason="the array form needs numpy")


@st.composite
def graphs(draw):
    """A random graph: an agent count and a frozen edge sequence."""
    num_agents = draw(st.integers(min_value=1, max_value=24))
    pairs = [(a, b) for a in range(num_agents) for b in range(a + 1, num_agents)]
    size = draw(st.integers(min_value=0, max_value=len(pairs)))
    return num_agents, tuple(draw(st.permutations(pairs))[:size])


@st.composite
def masks(draw, graph):
    """One state's inputs on ``graph``: random edge and agent masks."""
    num_agents, sequence = graph
    edge_up = draw(
        st.lists(st.booleans(), min_size=len(sequence), max_size=len(sequence))
    )
    agent_up = draw(
        st.lists(st.booleans(), min_size=num_agents, max_size=num_agents)
    )
    all_agents = draw(st.booleans())
    round_index = draw(st.integers(min_value=0, max_value=10**6))
    return num_agents, sequence, edge_up, agent_up, all_agents, round_index


def state_inputs():
    return graphs().flatmap(masks)


def state_pairs():
    """Two states' inputs on one graph."""
    return graphs().flatmap(lambda graph: st.tuples(masks(graph), masks(graph)))


def _forms(num_agents, sequence, edge_up, agent_up, all_agents, round_index):
    """``(eager, make_array_form)`` for one set of inputs.

    The eager state inserts agents ascending and edges in sequence order,
    as the environments do; each call of ``make_array_form`` returns a
    fresh, not yet materialized array-form state.
    """
    up_edges = np.flatnonzero(np.array(edge_up, dtype=bool))
    if all_agents:
        enabled = frozenset(range(num_agents))
        enabled_ids = None
    else:
        enabled_ids = np.flatnonzero(np.array(agent_up, dtype=bool))
        enabled = frozenset(enabled_ids.tolist())
    edges = frozenset(sequence[index] for index in up_edges.tolist())
    eager = EnvironmentState(enabled, edges, round_index)
    effective = [
        sequence[index]
        for index in up_edges.tolist()
        if sequence[index][0] in enabled and sequence[index][1] in enabled
    ]
    arrays = (
        np.array([a for a, _ in effective], dtype=np.int64),
        np.array([b for _, b in effective], dtype=np.int64),
    )

    def make_array_form():
        return EnvironmentState.from_arrays(
            enabled if enabled_ids is None else enabled_ids.copy(),
            sequence,
            up_edges.copy(),
            round_index,
            (arrays[0].copy(), arrays[1].copy()),
        )

    return eager, make_array_form


def _is_lazy(state) -> bool:
    return "available_edges" not in state.__dict__


@given(state_inputs())
@settings(max_examples=60, deadline=None)
def test_array_form_is_observably_the_eager_state(inputs):
    eager, make = _forms(*inputs)
    state = make()
    assert state.enabled_count == len(eager.enabled_agents)
    assert _is_lazy(state)
    if not inputs[4]:
        assert "enabled_agents" not in state.__dict__
    assert make() == eager and eager == make()
    assert hash(make()) == hash(eager)
    assert repr(make()) == repr(eager)
    assert jsonify(make()) == jsonify(eager)
    state = make()
    assert list(state.enabled_agents) == list(eager.enabled_agents)
    assert list(state.available_edges) == list(eager.available_edges)
    assert state.effective_edges() == eager.effective_edges()
    assert list(state.effective_edges()) == list(eager.effective_edges())
    assert state.communication_group_tuples() == eager.communication_group_tuples()


@given(state_inputs())
@settings(max_examples=40, deadline=None)
def test_array_form_copies_and_pickles(inputs):
    eager, make = _forms(*inputs)
    for clone in (
        copy.copy(make()),
        copy.deepcopy(make()),
        pickle.loads(pickle.dumps(make())),
    ):
        assert type(clone) is EnvironmentState and _is_lazy(clone)
        assert clone.enabled_count == len(eager.enabled_agents)
        assert clone == eager and hash(clone) == hash(eager)
        assert list(clone.enabled_agents) == list(eager.enabled_agents)
        assert list(clone.available_edges) == list(eager.available_edges)
        u, v = clone.effective_edge_arrays
        assert set(zip(u.tolist(), v.tolist())) == eager.effective_edges()
    # A materialized state round-trips too, sets included.
    state = make()
    state.available_edges
    clone = pickle.loads(pickle.dumps(state))
    assert not _is_lazy(clone) and clone == eager


@given(state_pairs())
@settings(max_examples=40, deadline=None)
def test_unchanged_from_across_mixed_forms(pair):
    first, second = pair
    # The first state's agents with the second's edges: a pair that can
    # differ in its edges alone.
    mixed = first[:2] + (second[2],) + first[3:5] + (second[5],)
    for a, b in ((first, second), (first, mixed), (first, first)):
        eager_a, make_a = _forms(*a)
        eager_b, make_b = _forms(*b)
        expected = (
            eager_a.enabled_agents == eager_b.enabled_agents
            and eager_a.available_edges == eager_b.available_edges
        )
        assert eager_b.unchanged_from(eager_a) == expected
        assert eager_b.unchanged_from(make_a()) == expected
        assert make_b().unchanged_from(eager_a) == expected
        # Two array-form states are compared on their up-edge indexes,
        # and on their id arrays when both hold one: no edge set is built.
        array_a, array_b = make_a(), make_b()
        assert array_b.unchanged_from(array_a) == expected
        assert _is_lazy(array_a) and _is_lazy(array_b)


def test_adopted_views_cross_forms_without_building_sets():
    sequence = ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5))
    up_edges = np.array([0, 1, 4], dtype=np.int64)
    enabled_ids = np.array([0, 1, 2, 4, 5], dtype=np.int64)
    arrays = (np.array([0, 1, 4]), np.array([1, 2, 5]))
    eager = EnvironmentState(
        frozenset(enabled_ids.tolist()), frozenset({(0, 1), (1, 2), (4, 5)}), 3
    )
    groups = eager.communication_group_tuples()
    effective = eager.effective_edges()

    # Array form adopting an eager state's views: served as-is, and the
    # adoption itself builds neither set.
    state = EnvironmentState.from_arrays(enabled_ids, sequence, up_edges, 4, arrays)
    state._adopt_view_memos(eager)
    assert _is_lazy(state) and "enabled_agents" not in state.__dict__
    assert state.communication_group_tuples() is groups
    assert state.effective_edges() is effective
    assert state.communication_groups() == eager.communication_groups()

    # Eager state adopting an array-form state's views.
    source = EnvironmentState.from_arrays(enabled_ids, sequence, up_edges, 5, arrays)
    source_groups = source.communication_group_tuples()
    twin = EnvironmentState(eager.enabled_agents, eager.available_edges, 6)
    twin._adopt_view_memos(source)
    assert twin.communication_group_tuples() is source_groups
    assert twin.effective_edges() == effective


def test_unknown_attributes_still_raise():
    state = EnvironmentState.from_arrays(
        frozenset({0}), (), np.empty(0, dtype=np.int64)
    )
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        state.missing
    assert state.available_edges == frozenset()
