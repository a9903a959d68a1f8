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
from repro.environment.base import connected_component_tuples, edge_components


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
