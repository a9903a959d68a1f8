"""Standard communication topologies.

The paper's environment assumptions are stated as predicate sets ``Q_E``
over a graph ``E``: for the minimum and convex-hull problems any connected
graph suffices; the sum problem needs a complete graph; sorting needs (at
least) the line joining adjacent array positions.  This module provides
constructors for those graphs and a few others used in the experiments.

Every builder emits normalized (``a < b``), in-range pairs with no
self-loop, in the order the public :class:`~repro.environment.base.Topology`
constructor would insert them, so it builds through
``Topology._generated``, which checks no edge one by one.
"""

from __future__ import annotations

import itertools
import random

from ..core.errors import EnvironmentError_
from ..registry import register_graph
from .base import Topology

__all__ = [
    "complete_graph",
    "line_graph",
    "ring_graph",
    "star_graph",
    "grid_graph",
    "random_graph",
    "random_connected_graph",
    "tree_graph",
]


@register_graph("complete")
def complete_graph(num_agents: int) -> Topology:
    """Every pair of agents shares an edge (the paper's requirement for sum)."""
    return Topology._generated(num_agents, itertools.combinations(range(num_agents), 2))


@register_graph("line")
def line_graph(num_agents: int) -> Topology:
    """Agents in a line: ``i`` is joined to ``i + 1`` (sorting's requirement)."""
    return Topology._generated(num_agents, ((i, i + 1) for i in range(num_agents - 1)))


@register_graph("ring")
def ring_graph(num_agents: int) -> Topology:
    """A cycle through all agents."""
    if num_agents < 3:
        return line_graph(num_agents)
    edges = [(i, i + 1) for i in range(num_agents - 1)]
    edges.append((0, num_agents - 1))
    return Topology._generated(num_agents, edges)


@register_graph("star")
def star_graph(num_agents: int, center: int = 0) -> Topology:
    """All agents joined to a single hub agent."""
    if not 0 <= center < num_agents:
        raise EnvironmentError_(f"center {center} outside 0..{num_agents - 1}")
    return Topology._generated(
        num_agents,
        (
            (other, center) if other < center else (center, other)
            for other in range(num_agents)
            if other != center
        ),
    )


@register_graph("grid")
def grid_graph(rows: int, cols: int) -> Topology:
    """A ``rows x cols`` grid; agent ``(r, c)`` has id ``r * cols + c``."""
    if rows <= 0 or cols <= 0:
        raise EnvironmentError_("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            agent = r * cols + c
            if c + 1 < cols:
                edges.append((agent, agent + 1))
            if r + 1 < rows:
                edges.append((agent, agent + cols))
    return Topology._generated(rows * cols, edges)


@register_graph("tree")
def tree_graph(num_agents: int, branching: int = 2) -> Topology:
    """A complete ``branching``-ary tree rooted at agent 0."""
    if branching < 1:
        raise EnvironmentError_("branching factor must be at least 1")
    edges = []
    for child in range(1, num_agents):
        parent = (child - 1) // branching
        edges.append((parent, child))
    return Topology._generated(num_agents, edges)


@register_graph("random")
def random_graph(num_agents: int, edge_probability: float, seed: int | None = None) -> Topology:
    """An Erdős–Rényi ``G(n, p)`` graph (not necessarily connected)."""
    if not 0.0 <= edge_probability <= 1.0:
        raise EnvironmentError_("edge_probability must be in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(num_agents), 2)
        if rng.random() < edge_probability
    ]
    return Topology._generated(num_agents, edges)


@register_graph("random-connected")
def random_connected_graph(
    num_agents: int, extra_edge_probability: float = 0.1, seed: int | None = None
) -> Topology:
    """A random connected graph: a random spanning tree plus extra random edges.

    The spanning tree guarantees connectivity (the weakest structure under
    which the minimum / hull algorithms make progress); the extra edges
    control density.
    """
    rng = random.Random(seed)
    agents = list(range(num_agents))
    rng.shuffle(agents)
    edges = set()
    # Random spanning tree: attach each agent to a random earlier agent.
    for index in range(1, num_agents):
        other = agents[rng.randrange(index)]
        a, b = agents[index], other
        edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations(range(num_agents), 2):
        if (a, b) not in edges and rng.random() < extra_edge_probability:
            edges.add((a, b))
    # _generated inserts the set's edges one by one, in its iteration
    # order, as the check loop would; it never copies the set's table.
    return Topology._generated(num_agents, edges)
