"""Adversarial environments.

The paper motivates the model with adversarial situations: "an opposing
team may disable agents and communication channels".  The environments in
this module are *deterministic adversaries* that actively work against the
computation — partitioning the network, silencing large fractions of the
agents, targeting specific agents — while still (by construction) meeting
a fairness assumption ``Q``, because an adversary that disables everything
forever makes progress impossible for *any* algorithm.

Each adversary documents which fairness it preserves.  The benchmarks use
them to demonstrate the paper's headline property: self-similar algorithms
remain correct under adversity and simply slow down, whereas baselines
that rely on global coordination (snapshots, spanning trees) break or
stall.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.errors import EnvironmentError_
from ..registry import register_environment
from .base import Environment, EnvironmentState, Topology

__all__ = [
    "RotatingPartitionAdversary",
    "TargetedCrashAdversary",
    "BlackoutAdversary",
    "EdgeBudgetAdversary",
]


@register_environment("rotating-partition")
class RotatingPartitionAdversary(Environment):
    """Splits the agents into ``k`` blocks and only allows intra-block edges.

    At every instant the system is partitioned into ``k`` mutually isolated
    groups — no algorithm can ever coordinate globally in a single round.
    Every ``rotate_every`` rounds the adversary reshuffles the block
    assignment (deterministically from the epoch number and the instance
    ``seed``), so any given pair of agents shares a block in a constant
    fraction of the epochs and therefore meets infinitely often — the
    assumption ``Q_E`` still holds.  This is the canonical scenario for
    self-similarity: each partition block must behave like a complete
    system on its own.

    Within an epoch the state is constant: every round shares the cached
    edge set, so consecutive states differ only across an epoch boundary.
    """

    def __init__(
        self,
        topology: Topology,
        num_blocks: int = 2,
        rotate_every: int = 5,
        seed: int = 0,
    ):
        super().__init__(topology)
        if num_blocks < 1:
            raise EnvironmentError_("num_blocks must be at least 1")
        if rotate_every < 1:
            raise EnvironmentError_("rotate_every must be at least 1")
        self.num_blocks = num_blocks
        self.rotate_every = rotate_every
        self.seed = seed
        self._epoch_cache: dict[int, dict[int, int]] = {}
        self._all_agents = frozenset(topology.agent_ids)
        self._epoch_edges: tuple[int, frozenset] | None = None

    def _blocks_for_epoch(self, epoch: int) -> dict[int, int]:
        """Block assignment for one epoch: a seeded shuffle cut into
        near-equal contiguous chunks (cached — epochs repeat per round)."""
        if epoch not in self._epoch_cache:
            shuffler = random.Random(self.seed * 1_000_003 + epoch)
            order = list(self.topology.agent_ids)
            shuffler.shuffle(order)
            assignment = {
                agent: position * self.num_blocks // len(order)
                for position, agent in enumerate(order)
            }
            # Keep the cache bounded: only the current epoch is ever needed.
            self._epoch_cache = {epoch: assignment}
        return self._epoch_cache[epoch]

    def _block_of(self, agent: int, round_index: int) -> int:
        epoch = round_index // self.rotate_every
        return self._blocks_for_epoch(epoch)[agent]

    def _edges_for_round(self, round_index: int) -> frozenset:
        epoch = round_index // self.rotate_every
        cached = self._epoch_edges
        if cached is not None and cached[0] == epoch:
            return cached[1]
        edges = frozenset(
            (a, b)
            for a, b in self.topology.edges
            if self._block_of(a, round_index) == self._block_of(b, round_index)
        )
        self._epoch_edges = (epoch, edges)
        return edges

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        return EnvironmentState(
            enabled_agents=self._all_agents,
            available_edges=self._edges_for_round(round_index),
            round_index=round_index,
        )

    def describe(self) -> str:
        return (
            f"rotating partition ({self.num_blocks} blocks, "
            f"rotate every {self.rotate_every} rounds)"
        )

    def fairness_predicates(self):
        return tuple(
            f"edge {edge} joins same block in a constant fraction of epochs"
            for edge in sorted(self.topology.edges)
        )


@register_environment("targeted-crash")
class TargetedCrashAdversary(Environment):
    """Disables a chosen set of agents for long stretches, then releases them.

    The adversary crashes the agents in ``targets`` for ``down_rounds``
    rounds out of every ``period`` rounds.  Because the targets recover for
    the remainder of each period, the fairness assumption still holds; but
    any algorithm that relies on a distinguished coordinator among the
    targets is starved for most of the computation.

    Only two enabled sets ever occur (targets down / everyone up); both
    are built once and shared by every round's state.
    """

    def __init__(
        self,
        topology: Topology,
        targets: Sequence[int],
        period: int = 10,
        down_rounds: int = 8,
    ):
        super().__init__(topology)
        bad = [t for t in targets if not 0 <= t < topology.num_agents]
        if bad:
            raise EnvironmentError_(f"targets {bad} outside 0..{topology.num_agents - 1}")
        if not 0 <= down_rounds <= period:
            raise EnvironmentError_("down_rounds must be between 0 and period")
        self.targets = frozenset(targets)
        self.period = period
        self.down_rounds = down_rounds
        self._all_agents = frozenset(topology.agent_ids)
        self._survivors = frozenset(
            a for a in topology.agent_ids if a not in self.targets
        )

    def _in_down_phase(self, round_index: int) -> bool:
        return (round_index % self.period) < self.down_rounds

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        enabled = (
            self._survivors if self._in_down_phase(round_index) else self._all_agents
        )
        return EnvironmentState(
            enabled_agents=enabled,
            available_edges=self.topology.edges,
            round_index=round_index,
        )

    def describe(self) -> str:
        return (
            f"targeted crash of {sorted(self.targets)} "
            f"({self.down_rounds}/{self.period} rounds down)"
        )

    def fairness_predicates(self):
        return tuple(
            f"agent {agent} enabled once per period" for agent in sorted(self.targets)
        )


@register_environment("blackout")
class BlackoutAdversary(Environment):
    """Periodically disables *everything* for a stretch of rounds.

    During a blackout no agent may take a step — the computation freezes,
    exactly as the paper's model allows ("no progress is possible while the
    environment prevents all agents from changing state").  Between
    blackouts the system is fully available.  The escape postulate is
    respected because blackouts always end.

    Only two states ever occur (dark / fully up); their sets are built
    once and shared by every round's state.
    """

    def __init__(self, topology: Topology, period: int = 10, blackout_rounds: int = 5):
        super().__init__(topology)
        if not 0 <= blackout_rounds < period:
            raise EnvironmentError_("blackout_rounds must be in [0, period)")
        self.period = period
        self.blackout_rounds = blackout_rounds
        self._all_agents = frozenset(topology.agent_ids)
        self._nobody: frozenset[int] = frozenset()
        self._no_edges: frozenset = frozenset()

    def _in_blackout(self, round_index: int) -> bool:
        return (round_index % self.period) < self.blackout_rounds

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        if self._in_blackout(round_index):
            return EnvironmentState(
                enabled_agents=self._nobody,
                available_edges=self._no_edges,
                round_index=round_index,
            )
        return EnvironmentState(
            enabled_agents=self._all_agents,
            available_edges=self.topology.edges,
            round_index=round_index,
        )

    def describe(self) -> str:
        return f"blackout ({self.blackout_rounds}/{self.period} rounds dark)"

    def fairness_predicates(self):
        return ("all edges available once per period",)


@register_environment("edge-budget")
class EdgeBudgetAdversary(Environment):
    """Allows only ``budget`` edges per round, chosen round-robin.

    Models extreme bandwidth scarcity: the adversary meters communication
    down to a handful of links per round, cycling through the topology's
    edges so that each one is available once every
    ``ceil(|E| / budget)`` rounds (hence ``Q_E`` holds).  Convergence time
    degrades roughly inversely with the budget, which experiment E1 uses
    to quantify the "speed up or slow down with available resources"
    claim.

    Consecutive round-robin windows differ in at most ``2 · budget``
    edges, regardless of the topology.
    """

    def __init__(self, topology: Topology, budget: int = 1):
        super().__init__(topology)
        if budget < 1:
            raise EnvironmentError_("budget must be at least 1")
        self.budget = budget
        self._ordered_edges = sorted(topology.edges)
        self._all_agents = frozenset(topology.agent_ids)

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        if not self._ordered_edges:
            edges: frozenset = frozenset()
        else:
            start = (round_index * self.budget) % len(self._ordered_edges)
            chosen = [
                self._ordered_edges[(start + offset) % len(self._ordered_edges)]
                for offset in range(min(self.budget, len(self._ordered_edges)))
            ]
            edges = frozenset(chosen)
        return EnvironmentState(
            enabled_agents=self._all_agents,
            available_edges=edges,
            round_index=round_index,
        )

    def describe(self) -> str:
        return f"edge budget ({self.budget} edges per round, round-robin)"

    def fairness_predicates(self):
        return tuple(
            f"edge {edge} available once per cycle" for edge in self._ordered_edges
        )
