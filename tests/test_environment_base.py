"""Tests for topologies, environment states and connectivity."""

from __future__ import annotations

import pytest

from repro.core.errors import EnvironmentError_
from repro.environment import (
    EnvironmentState,
    Topology,
    complete_graph,
    connected_components,
    grid_graph,
    line_graph,
    random_connected_graph,
    random_graph,
    ring_graph,
    star_graph,
    tree_graph,
)
from repro.environment import base
from repro.environment.base import (
    connected_component_tuples,
    edge_components,
    edge_endpoints,
)
from repro.registry import GRAPHS


class TestTopology:
    def test_basic_properties(self):
        topology = Topology(3, [(0, 1), (1, 2)])
        assert topology.num_agents == 3
        assert list(topology.agent_ids) == [0, 1, 2]
        assert topology.has_edge(0, 1)
        assert topology.has_edge(1, 0)
        assert not topology.has_edge(0, 2)
        assert not topology.has_edge(1, 1)

    def test_edges_are_normalized_and_deduplicated(self):
        topology = Topology(3, [(1, 0), (0, 1)])
        assert topology.edges == frozenset({(0, 1)})

    def test_neighbors(self):
        topology = Topology(4, [(0, 1), (0, 2)])
        assert topology.neighbors(0) == frozenset({1, 2})
        assert topology.neighbors(3) == frozenset()

    def test_self_loops_rejected(self):
        with pytest.raises(EnvironmentError_):
            Topology(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(EnvironmentError_):
            Topology(2, [(0, 5)])

    def test_zero_agents_rejected(self):
        with pytest.raises(EnvironmentError_):
            Topology(0, [])

    def test_connectivity_and_completeness(self):
        assert complete_graph(4).is_complete()
        assert complete_graph(4).is_connected()
        assert line_graph(4).is_connected()
        assert not line_graph(4).is_complete()
        assert not Topology(3, [(0, 1)]).is_connected()


def _oracle_edges(num_agents, edges) -> tuple:
    """The edge order of the straightforward build: check, normalize and
    set-insert each edge in turn, then freeze."""
    normalized = set()
    for a, b in edges:
        if not (0 <= a < num_agents and 0 <= b < num_agents):
            raise EnvironmentError_(
                f"edge ({a}, {b}) references an agent outside 0..{num_agents - 1}"
            )
        if a == b:
            raise EnvironmentError_(f"self-loop edge ({a}, {b}) is not allowed")
        normalized.add((a, b) if a < b else (b, a))
    return tuple(frozenset(normalized))


#: Parameters for every registered graph (sizes where set collisions and
#: resizes shape the iteration order).
GRAPH_PARAMS = {
    "complete": {"num_agents": 60},
    "grid": {"rows": 17, "cols": 23},
    "line": {"num_agents": 500},
    "random": {"num_agents": 90, "edge_probability": 0.2, "seed": 4},
    "random-connected": {"num_agents": 90, "extra_edge_probability": 0.1, "seed": 4},
    "ring": {"num_agents": 500},
    "star": {"num_agents": 300, "center": 7},
    "tree": {"num_agents": 5000, "branching": 3},
}


#: The registered graphs again at sizes past the set's growth switch at
#: 50,000 entries, where each resize doubles the table instead of
#: quadrupling it.
LARGE_GRAPH_PARAMS = [
    ("complete", {"num_agents": 400}),
    ("tree", {"num_agents": 100_000}),
]


class TestTopologyEdgeOrder:
    """``tuple(topology.edges)`` is the environments' draw order, so the
    build must keep the order of the plain check-normalize-insert loop."""

    @pytest.mark.parametrize(
        "name, params",
        [pytest.param(name, GRAPH_PARAMS[name], id=name) for name in sorted(GRAPH_PARAMS)]
        + [
            pytest.param(name, params, id=f"{name}-large")
            for name, params in LARGE_GRAPH_PARAMS
        ],
    )
    def test_registered_graphs_keep_the_edge_order(self, monkeypatch, name, params):
        # The builders skip the per-edge check, so the edges they generate
        # must pass it, and go in in the order the check loop inserts them.
        assert sorted(GRAPH_PARAMS) == GRAPHS.available()
        calls = []
        generated = Topology._generated.__func__

        def recording(cls, num_agents, edges):
            edges = list(edges)
            calls.append((num_agents, edges))
            return generated(cls, num_agents, edges)

        monkeypatch.setattr(Topology, "_generated", classmethod(recording))
        topology = GRAPHS.build(name, **params)
        [(num_agents, edges)] = calls
        assert all(
            type(edge) is tuple and len(edge) == 2 and 0 <= edge[0] < edge[1] < num_agents
            for edge in edges
        )
        assert tuple(topology.edges) == _oracle_edges(num_agents, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            [(5, 1), (1, 5), (0, 9), (9, 0), (3, 4)],
            [[2, 7], [7, 2], (2, 7), [0, 1], (8, 3)],
            [(i, (i * 7 + 3) % 40) for i in range(40) if i != (i * 7 + 3) % 40] * 2,
            [[(i * 13) % 40, i] for i in range(40) if (i * 13) % 40 != i],
        ],
        ids=["reversed", "list-pairs", "duplicates", "list-reversed"],
    )
    def test_user_edge_lists_keep_the_edge_order(self, edges):
        topology = Topology(40, edges)
        assert tuple(topology.edges) == _oracle_edges(40, edges)
        assert all(type(edge) is tuple for edge in topology.edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (3, 3)], r"self-loop edge \(3, 3\) is not allowed"),
            ([(0, 1), (2, 9)], r"edge \(2, 9\) references an agent outside 0..3"),
            ([(0, -1)], r"edge \(0, -1\) references an agent outside 0..3"),
            # Out of range wins over self-loop on the same edge ...
            ([(7, 7)], r"edge \(7, 7\) references an agent outside 0..3"),
            # ... and the first bad edge in input order wins across edges.
            ([(1, 1), (0, 9)], r"self-loop edge \(1, 1\)"),
            ([(0, 9), (1, 1)], r"edge \(0, 9\) references"),
        ],
    )
    def test_errors_and_their_precedence(self, edges, message):
        with pytest.raises(EnvironmentError_, match=message):
            Topology(4, edges)
        with pytest.raises(EnvironmentError_, match=message):
            _oracle_edges(4, edges)


@pytest.mark.skipif(base._numpy is None, reason="the endpoint table needs numpy")
class TestTopologyEdgeTable:
    """The topology owns one draw-order edge table, built once and shared."""

    @pytest.mark.parametrize("name", sorted(GRAPH_PARAMS))
    def test_table_is_the_frozensets_order(self, name):
        topology = GRAPHS.build(name, **GRAPH_PARAMS[name])
        sequence = topology.edge_sequence()
        assert sequence == tuple(topology.edges)
        assert topology.edge_sequence() is sequence
        u, v = topology.edge_endpoint_arrays()
        expected_u, expected_v = edge_endpoints(tuple(topology.edges))
        assert u.dtype == v.dtype == base._numpy.int64
        assert u.tolist() == expected_u.tolist() and v.tolist() == expected_v.tolist()
        ids = topology.agent_id_array()
        assert ids.tolist() == list(topology.agent_ids)
        for array in (u, v, ids):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0
        assert topology.edge_endpoint_arrays()[0] is u
        assert topology.agent_id_array() is ids

    def test_user_topology_has_the_same_table(self):
        topology = Topology(5, [(3, 1), [0, 4], (2, 3)])
        u, v = topology.edge_endpoint_arrays()
        assert list(zip(u.tolist(), v.tolist())) == list(topology.edges)


class TestGraphConstructors:
    def test_complete_graph_edge_count(self):
        assert len(complete_graph(5).edges) == 10

    def test_line_graph_edge_count(self):
        assert len(line_graph(5).edges) == 4

    def test_ring_graph_edge_count(self):
        assert len(ring_graph(5).edges) == 5
        assert len(ring_graph(2).edges) == 1

    def test_star_graph(self):
        star = star_graph(5, center=2)
        assert len(star.edges) == 4
        assert all(2 in edge for edge in star.edges)
        with pytest.raises(EnvironmentError_):
            star_graph(3, center=9)

    def test_grid_graph(self):
        grid = grid_graph(2, 3)
        assert grid.num_agents == 6
        assert len(grid.edges) == 7  # 3 vertical + 4 horizontal
        assert grid.is_connected()
        with pytest.raises(EnvironmentError_):
            grid_graph(0, 3)

    def test_tree_graph(self):
        tree = tree_graph(7, branching=2)
        assert len(tree.edges) == 6
        assert tree.is_connected()
        with pytest.raises(EnvironmentError_):
            tree_graph(3, branching=0)

    def test_random_graph_probability_extremes(self):
        assert len(random_graph(5, 0.0, seed=1).edges) == 0
        assert random_graph(5, 1.0, seed=1).is_complete()
        with pytest.raises(EnvironmentError_):
            random_graph(5, 1.5)

    def test_random_connected_graph_is_connected(self):
        for seed in range(5):
            assert random_connected_graph(12, 0.05, seed=seed).is_connected()

    def test_random_graph_reproducible_by_seed(self):
        assert random_graph(8, 0.3, seed=7).edges == random_graph(8, 0.3, seed=7).edges


class TestConnectedComponents:
    def test_isolated_agents_are_singletons(self):
        components = connected_components({0, 1, 2}, [])
        assert components == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_components_follow_edges(self):
        components = connected_components({0, 1, 2, 3}, [(0, 1), (2, 3)])
        assert components == [frozenset({0, 1}), frozenset({2, 3})]

    def test_edges_to_excluded_agents_ignored(self):
        components = connected_components({0, 1}, [(0, 2), (1, 2)])
        assert components == [frozenset({0}), frozenset({1})]

    def test_single_component(self):
        components = connected_components({0, 1, 2}, [(0, 1), (1, 2)])
        assert components == [frozenset({0, 1, 2})]

    def test_edge_components_skip_untouched_agents(self):
        # Only edge-touched vertices appear: sorted members, components
        # ordered by smallest member, whatever order the edges arrive in.
        edges = [(7, 3), (5, 6), (3, 9), (1, 5)]
        assert edge_components(edges) == [(1, 5, 6), (3, 7, 9)]
        assert edge_components([]) == []

    def test_tuples_merge_singletons_into_edge_components(self):
        agents = {0, 1, 2, 3, 4, 5}
        edges = [(4, 1), (2, 5), (3, 6)]  # (3, 6) leaves the agent set
        assert connected_component_tuples(agents, edges) == [
            (0,), (1, 4), (2, 5), (3,),
        ]


class TestEnvironmentState:
    def test_effective_edges_require_enabled_endpoints(self):
        state = EnvironmentState(
            enabled_agents=frozenset({0, 1}),
            available_edges=frozenset({(0, 1), (1, 2)}),
        )
        assert state.effective_edges() == frozenset({(0, 1)})

    def test_communication_groups_exclude_disabled_agents(self):
        state = EnvironmentState(
            enabled_agents=frozenset({0, 1, 3}),
            available_edges=frozenset({(0, 1), (2, 3)}),
        )
        groups = state.communication_groups()
        assert frozenset({0, 1}) in groups
        assert frozenset({3}) in groups
        assert all(2 not in group for group in groups)

    def test_can_communicate(self):
        state = EnvironmentState(
            enabled_agents=frozenset({0, 1}),
            available_edges=frozenset({(0, 1), (1, 2)}),
        )
        assert state.can_communicate(0, 1)
        assert not state.can_communicate(1, 2)  # 2 is disabled
        assert state.can_communicate(0, 0)  # enabled agent trivially
        assert not state.can_communicate(2, 2)  # disabled agent

    def test_is_edge_available_ignores_enabledness(self):
        state = EnvironmentState(
            enabled_agents=frozenset(),
            available_edges=frozenset({(0, 1)}),
        )
        assert state.is_edge_available(1, 0)
        assert not state.is_edge_available(0, 2)
