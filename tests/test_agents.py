"""Tests for agents, groups and schedulers."""

from __future__ import annotations

import random

import pytest

from repro.agents import (
    Group,
    MaximalGroupsScheduler,
    RandomPairScheduler,
    RandomSubgroupScheduler,
    SingleGroupScheduler,
)
from repro.core import Multiset
from repro.environment import EnvironmentState, complete_graph


@pytest.fixture
def rng():
    return random.Random(11)


def env_state(enabled, edges):
    return EnvironmentState(
        enabled_agents=frozenset(enabled), available_edges=frozenset(edges)
    )


class TestGroup:
    def test_of_sorts_members(self):
        assert Group.of([3, 1, 2]).members == (1, 2, 3)

    def test_len_iter_contains(self):
        group = Group.of([0, 2])
        assert len(group) == 2
        assert list(group) == [0, 2]
        assert 2 in group
        assert 1 not in group
        assert not group.is_singleton
        assert Group.of([5]).is_singleton

    def test_states_and_multiset(self):
        states = [9, 8, 7]
        group = Group.of([0, 2])
        assert group.states_of(states) == [9, 7]
        assert group.state_multiset(states) == Multiset([9, 7])

    def test_install_reports_state_delta(self):
        states = [9, 8, 7]
        group = Group.of([0, 2])
        removed, added = group.install(states, [9, 5])
        assert removed == [7]
        assert added == [5]
        assert states == [9, 8, 5]

    def test_install_no_change_reports_empty_delta(self):
        states = [9, 8, 7]
        removed, added = Group.of([0, 1]).install(states, [9.0, 8])
        assert removed == []
        assert added == []
        # An equal state is not written: the list keeps its own objects.
        assert states == [9, 8, 7]
        assert type(states[0]) is int


class TestMaximalGroupsScheduler:
    def test_groups_are_connected_components(self, rng):
        state = env_state({0, 1, 2, 3}, {(0, 1), (2, 3)})
        groups = MaximalGroupsScheduler().schedule(state, rng)
        assert {group.members for group in groups} == {(0, 1), (2, 3)}

    def test_disabled_agents_excluded(self, rng):
        state = env_state({0, 1}, {(0, 1), (1, 2)})
        groups = MaximalGroupsScheduler().schedule(state, rng)
        assert {group.members for group in groups} == {(0, 1)}

    def test_singletons_included(self, rng):
        state = env_state({0, 1, 2}, {(0, 1)})
        groups = MaximalGroupsScheduler().schedule(state, rng)
        assert (2,) in {group.members for group in groups}


class TestRandomPairScheduler:
    def test_pairs_are_disjoint_and_connected(self, rng):
        topology = complete_graph(6)
        state = env_state(range(6), topology.edges)
        groups = RandomPairScheduler().schedule(state, rng)
        seen = set()
        for group in groups:
            assert len(group) == 2
            a, b = group.members
            assert topology.has_edge(a, b)
            assert not seen & set(group.members)
            seen |= set(group.members)

    def test_no_edges_means_no_groups(self, rng):
        state = env_state({0, 1, 2}, set())
        assert RandomPairScheduler().schedule(state, rng) == []

    def test_disabled_endpoint_excludes_edge(self, rng):
        state = env_state({0}, {(0, 1)})
        assert RandomPairScheduler().schedule(state, rng) == []


class TestSingleGroupScheduler:
    def test_returns_at_most_one_group(self, rng):
        state = env_state({0, 1, 2, 3}, {(0, 1), (2, 3)})
        groups = SingleGroupScheduler().schedule(state, rng)
        assert len(groups) == 1
        assert groups[0].members in {(0, 1), (2, 3)}

    def test_ignores_singleton_components(self, rng):
        state = env_state({0, 1, 2}, {(0, 1)})
        groups = SingleGroupScheduler().schedule(state, rng)
        assert groups[0].members == (0, 1)

    def test_empty_when_no_multi_agent_component(self, rng):
        state = env_state({0, 1, 2}, set())
        assert SingleGroupScheduler().schedule(state, rng) == []


class TestRandomSubgroupScheduler:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomSubgroupScheduler(min_size=0)
        with pytest.raises(ValueError):
            RandomSubgroupScheduler(min_size=3, max_size=2)

    def test_chunks_partition_each_component(self, rng):
        state = env_state(range(8), complete_graph(8).edges)
        groups = RandomSubgroupScheduler(min_size=2, max_size=3).schedule(state, rng)
        members = sorted(agent for group in groups for agent in group)
        assert members == list(range(8))

    def test_chunks_respect_size_bounds_except_leftover(self, rng):
        state = env_state(range(9), complete_graph(9).edges)
        groups = RandomSubgroupScheduler(min_size=2, max_size=3).schedule(state, rng)
        assert all(1 <= len(group) <= 3 for group in groups)

    def test_members_stay_within_their_component(self, rng):
        state = env_state(range(6), {(0, 1), (1, 2), (3, 4), (4, 5)})
        groups = RandomSubgroupScheduler(min_size=2, max_size=3).schedule(state, rng)
        for group in groups:
            component = {0, 1, 2} if group.members[0] <= 2 else {3, 4, 5}
            assert set(group.members) <= component

    def test_describe_mentions_sizes(self):
        assert "2..4" in RandomSubgroupScheduler(2, 4).describe()
