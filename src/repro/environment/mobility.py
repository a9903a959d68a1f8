"""Mobility and battery dynamics.

The paper motivates dynamic systems with mobile agents: "agents go in and
out of communication range as they travel" and "cease functioning after
they run out of battery power and resume operation when they gain access
to other sources of power".  This module models exactly that scenario:

* agents move in a square arena following a random-waypoint model;
* two agents can communicate in a round when their distance is at most
  the radio ``range_radius``;
* optionally, each agent has a battery that drains while it is awake and
  recharges while it sleeps; an agent with an empty battery is disabled
  until the battery recovers.

The induced communication graph changes every round, is often
disconnected and has no fixed structure — the most faithful instantiation
of the paper's "extremely dynamic" environments.  As long as the arena is
small enough relative to the radio range (or agents keep moving), every
pair of agents meets infinitely often with probability one, which is the
``Q_E``-on-a-complete-graph assumption needed even for the sum problem.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from ..core.errors import EnvironmentError_
from ..registry import register_environment
from .base import Environment, EnvironmentState, Topology
from .graphs import complete_graph

__all__ = ["MobileAgent", "RandomWaypointEnvironment"]


@dataclass
class MobileAgent:
    """Internal per-agent mobility and battery state."""

    x: float
    y: float
    target_x: float
    target_y: float
    battery: float


@register_environment("mobility")
class RandomWaypointEnvironment(Environment):
    """Random-waypoint mobility with a disk communication model.

    Parameters
    ----------
    num_agents:
        Number of mobile agents.
    arena_size:
        Side length of the square arena agents move in.
    range_radius:
        Two agents can communicate when their Euclidean distance is at
        most this radius.
    speed:
        Distance an agent covers per round while moving toward its current
        waypoint.
    battery_capacity:
        Rounds of activity a full battery sustains; ``None`` disables the
        battery model entirely (agents are always enabled).
    drain_per_round / recharge_per_round:
        Battery units consumed while enabled and regained while disabled.
    seed:
        Seed for the initial placement and waypoint selection, so that a
        simulation can be reproduced exactly.

    The contact graph is recomputed from positions every round (that *is*
    the model); the engines diff consecutive contact graphs — who moved in
    or out of range, whose battery crossed empty — so the connectivity
    layer downstream still updates incrementally.
    """

    def __init__(
        self,
        num_agents: int,
        arena_size: float = 100.0,
        range_radius: float = 30.0,
        speed: float = 5.0,
        battery_capacity: float | None = None,
        drain_per_round: float = 1.0,
        recharge_per_round: float = 2.0,
        seed: int | None = None,
    ):
        if num_agents <= 0:
            raise EnvironmentError_("num_agents must be positive")
        if arena_size <= 0 or range_radius <= 0 or speed < 0:
            raise EnvironmentError_(
                "arena_size and range_radius must be positive, speed non-negative"
            )
        # The underlying topology for Q_E purposes is the complete graph:
        # mobility can bring any pair of agents within range.
        super().__init__(complete_graph(num_agents))
        self.arena_size = arena_size
        self.range_radius = range_radius
        self.speed = speed
        self.battery_capacity = battery_capacity
        self.drain_per_round = drain_per_round
        self.recharge_per_round = recharge_per_round
        if seed is None:
            # Draw the placement seed explicitly: reset() re-rolls the
            # initial world from this value, so an "unseeded" environment
            # must still pin one — otherwise reset() produces a different
            # arena than the construction did and a reset run diverges
            # from a fresh one.
            seed = random.randrange(2**63)
        self.seed = seed
        self._agents: list[MobileAgent] = []
        self.reset()

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        rng = random.Random(self.seed)
        self._agents = []
        for _ in range(self.num_agents):
            x = rng.uniform(0, self.arena_size)
            y = rng.uniform(0, self.arena_size)
            self._agents.append(
                MobileAgent(
                    x=x,
                    y=y,
                    target_x=rng.uniform(0, self.arena_size),
                    target_y=rng.uniform(0, self.arena_size),
                    battery=(
                        self.battery_capacity
                        if self.battery_capacity is not None
                        else math.inf
                    ),
                )
            )

    # -- dynamics -------------------------------------------------------------

    def _move(self, agent: MobileAgent, rng: random.Random) -> None:
        dx = agent.target_x - agent.x
        dy = agent.target_y - agent.y
        dist = math.hypot(dx, dy)
        if dist <= self.speed:
            agent.x, agent.y = agent.target_x, agent.target_y
            agent.target_x = rng.uniform(0, self.arena_size)
            agent.target_y = rng.uniform(0, self.arena_size)
        elif dist > 0:
            agent.x += dx / dist * self.speed
            agent.y += dy / dist * self.speed

    def _update_battery(self, agent: MobileAgent, was_enabled: bool) -> None:
        if self.battery_capacity is None:
            return
        if was_enabled:
            agent.battery = max(0.0, agent.battery - self.drain_per_round)
        else:
            agent.battery = min(
                self.battery_capacity, agent.battery + self.recharge_per_round
            )

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        for agent in self._agents:
            self._move(agent, rng)

        enabled = set()
        for agent_id, agent in enumerate(self._agents):
            is_enabled = agent.battery > 0
            if is_enabled:
                enabled.add(agent_id)
            self._update_battery(agent, is_enabled)

        edges = set()
        for a, b in itertools.combinations(range(self.num_agents), 2):
            pa, pb = self._agents[a], self._agents[b]
            if math.hypot(pa.x - pb.x, pa.y - pb.y) <= self.range_radius:
                edges.add((a, b))

        return EnvironmentState(
            enabled_agents=frozenset(enabled),
            available_edges=frozenset(edges),
            round_index=round_index,
        )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        # Positions, waypoints and batteries are the whole mobility state;
        # every future draw (waypoint re-rolls) and every future contact
        # graph follows from them plus the engine's RNG.  Floats survive
        # the JSON round trip exactly (shortest-repr); an infinite battery
        # (no battery model) is stored as None.
        return {
            "agents": [
                [
                    agent.x,
                    agent.y,
                    agent.target_x,
                    agent.target_y,
                    None if math.isinf(agent.battery) else agent.battery,
                ]
                for agent in self._agents
            ]
        }

    def load_state(self, state) -> None:
        super().load_state(state)
        agents = state.get("agents")
        if agents is None:
            return
        if len(agents) != self.num_agents:
            raise EnvironmentError_(
                f"checkpoint carries {len(agents)} mobile agents for "
                f"{self.num_agents}"
            )
        self._agents = [
            MobileAgent(
                x=x,
                y=y,
                target_x=target_x,
                target_y=target_y,
                battery=math.inf if battery is None else battery,
            )
            for x, y, target_x, target_y, battery in agents
        ]

    # -- reporting ------------------------------------------------------------

    def positions(self) -> list[tuple[float, float]]:
        """Current agent positions (useful for the examples' textual plots)."""
        return [(agent.x, agent.y) for agent in self._agents]

    def describe(self) -> str:
        battery = (
            "no battery model"
            if self.battery_capacity is None
            else f"battery {self.battery_capacity}"
        )
        return (
            f"random waypoint (arena {self.arena_size}, radius {self.range_radius}, "
            f"speed {self.speed}, {battery})"
        )

    def fairness_predicates(self):
        return ("every pair of agents within radio range infinitely often (w.p. 1)",)
