"""Group schedulers.

The paper's transition relation allows *any* partition of the agents into
groups to take concurrent steps, as long as each group is a set of agents
the environment currently lets collaborate.  A scheduler chooses, for each
round, which partition actually acts.  Different schedulers model
different execution styles:

* :class:`MaximalGroupsScheduler` — every connected component acts as one
  group; the fastest, most synchronous execution.
* :class:`RandomPairScheduler` — a random matching of currently connected
  pairs acts; models asynchronous pairwise gossip, the weakest realistic
  interaction pattern.
* :class:`SingleGroupScheduler` — only one component acts per round;
  models a system so resource-starved that collaboration happens one
  group at a time.
* :class:`RandomSubgroupScheduler` — each component acts, but split into
  random subgroups; exercises self-similarity across group sizes.

Schedulers never merge agents that the environment keeps apart: every
scheduled group is a subset of one communication group of the current
environment state, so scheduled steps are steps the paper's model allows.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from ..environment.base import ComponentPartition, EnvironmentState
from ..registry import register_scheduler
from .group import Group

__all__ = [
    "Scheduler",
    "MaximalGroupsScheduler",
    "RandomPairScheduler",
    "SingleGroupScheduler",
    "RandomSubgroupScheduler",
]


class Scheduler(ABC):
    """Chooses which groups act in a round, given the environment state."""

    @abstractmethod
    def schedule(
        self, environment_state: EnvironmentState, rng: random.Random
    ) -> Sequence[Group]:
        """Return the groups that act this round, as a list (or any
        sequence of groups).

        The groups must be pairwise disjoint and each must be a subset of
        one communication group of ``environment_state``.  Agents that are
        not scheduled simply stutter.
        """

    def describe(self) -> str:
        """One-line description for benchmark reports."""
        return type(self).__name__


@register_scheduler("maximal")
class MaximalGroupsScheduler(Scheduler):
    """Every communication group of the environment acts, whole.

    The partition is the state's own
    :meth:`~repro.environment.base.EnvironmentState.component_partition`
    view, in component order: one per state, shared by every reader, so
    it must be treated as read-only.  It holds the state's labelling and
    sorts nothing until something reads it, and both engines recognise
    it as the component partition: they read its layout (the reference
    engine) or the labelling itself (the array engine) and build no
    :class:`Group`.  A subclass that returns
    ``super().schedule(...)`` keeps that path.  The scheduler draws no
    randomness.
    """

    def schedule(
        self, environment_state: EnvironmentState, rng: random.Random
    ) -> ComponentPartition:
        return environment_state.component_partition()

    def describe(self) -> str:
        return "maximal groups (every connected component acts)"


@register_scheduler("random-pair")
class RandomPairScheduler(Scheduler):
    """A random matching of connected, enabled pairs acts each round.

    Models pairwise gossip: each agent talks to at most one neighbour per
    round.  The matching is built greedily from a random shuffle of the
    currently available edges.
    """

    def schedule(
        self, environment_state: EnvironmentState, rng: random.Random
    ) -> list[Group]:
        edges = list(environment_state.effective_edges())
        rng.shuffle(edges)
        matched: set[int] = set()
        groups: list[Group] = []
        for a, b in edges:
            if a in matched or b in matched:
                continue
            matched.add(a)
            matched.add(b)
            groups.append(Group.of((a, b)))
        return groups

    def describe(self) -> str:
        return "random pairwise gossip (random matching of available edges)"


@register_scheduler("single-group")
class SingleGroupScheduler(Scheduler):
    """Exactly one communication group acts per round (chosen at random)."""

    def schedule(
        self, environment_state: EnvironmentState, rng: random.Random
    ) -> list[Group]:
        components = [
            component
            for component in environment_state.communication_groups()
            if len(component) >= 2
        ]
        if not components:
            return []
        return [Group.of(rng.choice(components))]

    def describe(self) -> str:
        return "single group per round"


@register_scheduler("random-subgroup")
class RandomSubgroupScheduler(Scheduler):
    """Each communication group is split into random connected-agnostic chunks.

    The paper's partition ``π`` may split a communicating set into smaller
    groups; this scheduler exercises that freedom by cutting every
    component into chunks of random size between ``min_size`` and
    ``max_size``.  (Chunk members are drawn from the same component, so
    they can in fact communicate.)
    """

    def __init__(self, min_size: int = 2, max_size: int = 4):
        if min_size < 1 or max_size < min_size:
            raise ValueError("need 1 <= min_size <= max_size")
        self.min_size = min_size
        self.max_size = max_size

    def schedule(
        self, environment_state: EnvironmentState, rng: random.Random
    ) -> list[Group]:
        groups: list[Group] = []
        for component in environment_state.communication_groups():
            members = list(component)
            rng.shuffle(members)
            index = 0
            while index < len(members):
                size = rng.randint(self.min_size, self.max_size)
                chunk = members[index : index + size]
                index += size
                if chunk:
                    groups.append(Group.of(chunk))
        return groups

    def describe(self) -> str:
        return f"random subgroups (size {self.min_size}..{self.max_size})"
