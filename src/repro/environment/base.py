"""The environment half of the paper's system model.

A system state is a pair ``(G, S)``: the environment state ``G`` and the
multiset ``S`` of agent states.  The environment decides, at every moment,
which agents are *enabled* (able to change state) and which communication
links are *available*; it never reads or writes agent state.  Designers
cannot choose the environment's behaviour — they can only assume a set
``Q`` of predicates each of which holds infinitely often (assumption (2)).

This module defines:

* :class:`Topology` — the fixed communication graph ``E`` over which the
  paper's predicate sets ``Q_E`` are defined (``Q_e`` = "edge *e* is
  available");
* :class:`EnvironmentState` — one concrete ``G``: the set of enabled agents
  and the set of currently available edges, together with the group
  structure (connected components) it induces.  Derived views
  (:meth:`EnvironmentState.effective_edges`, the communication groups) are
  computed lazily and memoized on the frozen state, so repeated queries in
  one round never recompute;
* :class:`EnvironmentDelta` — what changed between two consecutive
  environment states (edges up/down, agents enabled/disabled).
  Environments that can report their churn as a delta set
  :attr:`Environment.reports_deltas` and implement
  :meth:`Environment.advance_with_delta`, which lets the simulation layer
  maintain connectivity incrementally
  (:mod:`repro.environment.connectivity`) instead of re-walking the whole
  graph every round;
* :class:`Environment` — the abstract driver that produces a (possibly
  adversarial, possibly random) sequence of environment states.

Concrete environments live in :mod:`repro.environment.dynamics`,
:mod:`repro.environment.adversary` and :mod:`repro.environment.mobility`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..core.errors import EnvironmentError_

__all__ = [
    "Topology",
    "EnvironmentState",
    "EnvironmentDelta",
    "EMPTY_DELTA",
    "Environment",
]

Edge = tuple[int, int]


def _normalize_edge(a: int, b: int) -> Edge:
    """Store undirected edges with the smaller endpoint first."""
    if a == b:
        raise EnvironmentError_(f"self-loop edge ({a}, {b}) is not allowed")
    return (a, b) if a < b else (b, a)


class Topology:
    """The fixed communication graph ``(A, E)`` of a system.

    The vertex set is ``range(num_agents)``; edges are undirected pairs of
    distinct agents.  The paper's environment assumption ``Q_E`` says every
    edge of ``E`` is available infinitely often; which ``E`` suffices
    depends on the problem (connected for minimum/hull, complete for sum,
    a line in index order for sorting).
    """

    def __init__(self, num_agents: int, edges: Iterable[tuple[int, int]]):
        if num_agents <= 0:
            raise EnvironmentError_("a topology needs at least one agent")
        self.num_agents = num_agents
        normalized = set()
        for a, b in edges:
            if not (0 <= a < num_agents and 0 <= b < num_agents):
                raise EnvironmentError_(
                    f"edge ({a}, {b}) references an agent outside 0..{num_agents - 1}"
                )
            normalized.add(_normalize_edge(a, b))
        self.edges: frozenset[Edge] = frozenset(normalized)
        self._adjacency: dict[int, frozenset[int]] | None = None
        self._is_connected: bool | None = None

    # -- queries --------------------------------------------------------------

    @property
    def agent_ids(self) -> range:
        """The agent identifiers ``0 .. num_agents - 1``."""
        return range(self.num_agents)

    def adjacency(self) -> dict[int, frozenset[int]]:
        """Return the adjacency map (computed once and cached)."""
        if self._adjacency is None:
            neighbors: dict[int, set[int]] = {a: set() for a in self.agent_ids}
            for a, b in self.edges:
                neighbors[a].add(b)
                neighbors[b].add(a)
            self._adjacency = {a: frozenset(ns) for a, ns in neighbors.items()}
        return self._adjacency

    def neighbors(self, agent: int) -> frozenset[int]:
        """Return the neighbours of ``agent`` in the fixed graph."""
        return self.adjacency()[agent]

    def has_edge(self, a: int, b: int) -> bool:
        """Return True when the undirected edge ``{a, b}`` is in the graph."""
        if a == b:
            return False
        return _normalize_edge(a, b) in self.edges

    def is_connected(self) -> bool:
        """Return True when the fixed graph is connected.

        The verdict is computed once and cached on the immutable topology:
        spec validation and the baselines query it repeatedly, and the
        BFS over a large graph is not free.
        """
        if self._is_connected is None:
            components = connected_components(set(self.agent_ids), self.edges)
            self._is_connected = len(components) <= 1
        return self._is_connected

    def is_complete(self) -> bool:
        """Return True when every pair of agents is joined by an edge."""
        expected = self.num_agents * (self.num_agents - 1) // 2
        return len(self.edges) == expected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology(num_agents={self.num_agents}, edges={len(self.edges)})"


def edge_components(edges: Iterable[Edge]) -> list[tuple[int, ...]]:
    """Connected components of the graph ``edges`` span, without singletons.

    Only vertices touched by an edge appear.  Components are sorted member
    tuples, ordered by smallest member.  On sparse rounds (few available
    edges, many agents) this keeps the cost proportional to the active
    part of the graph, not to the whole agent population.
    """
    adjacency: dict[int, list[int]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)

    connected: list[tuple[int, ...]] = []
    visited: set[int] = set()
    for start in adjacency:
        if start in visited:
            continue
        visited.add(start)
        stack = [start]
        members = [start]
        while stack:
            for neighbor in adjacency[stack.pop()]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    members.append(neighbor)
                    stack.append(neighbor)
        members.sort()
        connected.append(tuple(members))
    connected.sort()
    return connected


def connected_component_tuples(
    agents: Iterable[int], edges: Iterable[Edge]
) -> list[tuple[int, ...]]:
    """Connected components as sorted member tuples, ordered by smallest member.

    The workhorse behind :func:`connected_components` (which wraps the
    tuples in frozensets) and the maximal-groups scheduler (which feeds
    them to :class:`~repro.agents.group.Group` directly, avoiding a
    re-sort per component).

    Edges whose endpoints are not both in ``agents`` are ignored.  The
    edge-touched components come from :func:`edge_components`; every
    other agent is a singleton component, emitted via a sorted merge.
    """
    agent_set = set(agents)
    connected = edge_components(
        (a, b) for a, b in edges if a in agent_set and b in agent_set
    )

    singletons = sorted(agent_set.difference(*connected))
    if not singletons:
        return connected
    if not connected:
        return [(agent,) for agent in singletons]

    # Merge the edge-connected components and the singleton components
    # into one list ordered by smallest member.
    result: list[tuple[int, ...]] = []
    position = 0
    count = len(singletons)
    for component in connected:
        smallest = component[0]
        while position < count and singletons[position] < smallest:
            result.append((singletons[position],))
            position += 1
        result.append(component)
    for agent in singletons[position:]:
        result.append((agent,))
    return result


def connected_components(
    agents: Iterable[int], edges: Iterable[Edge]
) -> list[frozenset[int]]:
    """Return the connected components of the graph restricted to ``agents``.

    Edges whose endpoints are not both in ``agents`` are ignored.  The
    result is sorted by smallest member so that the group structure of an
    environment state is deterministic.
    """
    return [
        frozenset(members)
        for members in connected_component_tuples(agents, edges)
    ]


class EnvironmentDelta:
    """What changed from one environment state to the next.

    A delta is the exact symmetric difference between two consecutive
    states: edges that became available / unavailable and agents that
    became enabled / disabled.  Environments that know their own churn
    report one per round (:meth:`Environment.advance_with_delta`), which
    is what lets the connectivity layer update communication groups in
    O(|delta|) instead of re-walking the graph.

    Field order is not semantically meaningful; each field may hold any
    iterable of edges / agent ids (consumers only iterate and test
    emptiness).
    """

    __slots__ = ("edges_down", "edges_up", "agents_disabled", "agents_enabled")

    def __init__(
        self,
        edges_down: Iterable[Edge] = (),
        edges_up: Iterable[Edge] = (),
        agents_disabled: Iterable[int] = (),
        agents_enabled: Iterable[int] = (),
    ):
        self.edges_down = edges_down
        self.edges_up = edges_up
        self.agents_disabled = agents_disabled
        self.agents_enabled = agents_enabled

    @property
    def is_empty(self) -> bool:
        """True when nothing changed (the state is identical to the last)."""
        return not (
            self.edges_down
            or self.edges_up
            or self.agents_disabled
            or self.agents_enabled
        )

    @classmethod
    def between(
        cls,
        previous_enabled: frozenset[int],
        previous_edges: frozenset[Edge],
        enabled: frozenset[int],
        edges: frozenset[Edge],
    ) -> "EnvironmentDelta":
        """Delta between two (enabled, available-edges) snapshots.

        Returns the shared :data:`EMPTY_DELTA` when nothing changed, so
        quiet rounds allocate nothing.
        """
        if previous_enabled is enabled or previous_enabled == enabled:
            agents_disabled: Iterable[int] = ()
            agents_enabled: Iterable[int] = ()
        else:
            agents_disabled = previous_enabled - enabled
            agents_enabled = enabled - previous_enabled
        if previous_edges is edges or previous_edges == edges:
            edges_down: Iterable[Edge] = ()
            edges_up: Iterable[Edge] = ()
        else:
            edges_down = previous_edges - edges
            edges_up = edges - previous_edges
        if not (agents_disabled or agents_enabled or edges_down or edges_up):
            return EMPTY_DELTA
        return cls(edges_down, edges_up, agents_disabled, agents_enabled)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EnvironmentDelta(-{len(tuple(self.edges_down))}e "
            f"+{len(tuple(self.edges_up))}e "
            f"-{len(tuple(self.agents_disabled))}a "
            f"+{len(tuple(self.agents_enabled))}a)"
        )


#: The delta of a round in which nothing changed.
EMPTY_DELTA = EnvironmentDelta()


@dataclass(frozen=True)
class EnvironmentState:
    """One environment state ``G``: who is enabled and who can talk to whom.

    The state itself is two frozensets; everything derived from them —
    the effective edges, the communication groups in either representation
    — is a *lazy view*: computed on first request and memoized on the
    instance (via ``object.__setattr__``, the frozen-dataclass idiom), so
    schedulers, engines and probes can all query the same state without
    repeating the filter or the component walk.

    The simulation layer's connectivity tracker
    (:class:`repro.environment.connectivity.ConnectivityTracker`) can
    pre-install maintained component views on a state, in which case the
    group accessors serve those instead of computing from scratch; the
    installed views are always equal to what the from-scratch computation
    would produce (pinned by the differential test suite).
    """

    enabled_agents: frozenset[int]
    available_edges: frozenset[Edge]
    round_index: int = 0

    def effective_edges(self) -> frozenset[Edge]:
        """Edges whose both endpoints are enabled (only these support steps).

        Computed once per state and memoized: ``communication_groups()``,
        ``communication_group_tuples()`` and every ``can_communicate``-style
        consumer share one filtered set instead of rebuilding it per call.
        """
        memo = self.__dict__.get("_effective_edges")
        if memo is None:
            enabled = self.enabled_agents
            memo = frozenset(
                edge
                for edge in self.available_edges
                if edge[0] in enabled and edge[1] in enabled
            )
            object.__setattr__(self, "_effective_edges", memo)
        return memo

    def communication_groups(self) -> list[frozenset[int]]:
        """Connected components of enabled agents under available edges.

        Disabled agents are excluded entirely: a disabled agent executes no
        actions and does not change state, so it belongs to no acting
        group this round.
        """
        memo = self.__dict__.get("_communication_groups")
        if memo is None:
            memo = [
                frozenset(members) for members in self.communication_group_tuples()
            ]
            object.__setattr__(self, "_communication_groups", memo)
        return memo

    def communication_group_tuples(self) -> list[tuple[int, ...]]:
        """The communication groups as sorted member tuples (hot-path form).

        Same components, same order as :meth:`communication_groups`, but
        each component is a sorted tuple — the exact member layout
        :class:`~repro.agents.group.Group` stores — so schedulers can
        build their groups without materialising a frozenset per
        component."""
        memo = self.__dict__.get("_component_tuples")
        if memo is None:
            maintained = self.__dict__.get("_maintained_components")
            if maintained is not None:
                memo = maintained.component_tuples(self)
            else:
                memo = connected_component_tuples(
                    self.enabled_agents, self.effective_edges()
                )
            object.__setattr__(self, "_component_tuples", memo)
        return memo

    def maintained_scheduler_groups(self):
        """The maintained, interned per-component group objects, or None.

        Populated (indirectly) by the connectivity tracker when the
        simulation runs with an incremental environment; schedulers that
        act on whole components use it to reuse group objects for
        components unchanged since the previous round.  Callers must treat
        the returned list as read-only.
        """
        maintained = self.__dict__.get("_maintained_components")
        if maintained is None:
            return None
        return maintained.scheduler_groups(self)

    def _adopt_view_memos(self, previous: "EnvironmentState") -> None:
        """Copy ``previous``'s memoized derived views onto this state.

        Only valid when this state is known to be semantically identical
        to ``previous`` (an empty :class:`EnvironmentDelta` between them);
        the engines use it so that quiet rounds never recompute a view
        some earlier round already paid for."""
        source = previous.__dict__
        own = self.__dict__
        for key in (
            "_effective_edges",
            "_communication_groups",
            "_component_tuples",
            "_maintained_components",
        ):
            if key not in own:
                memo = source.get(key)
                if memo is not None:
                    object.__setattr__(self, key, memo)

    def can_communicate(self, a: int, b: int) -> bool:
        """Return True when agents ``a`` and ``b`` are enabled and share an
        available edge."""
        if a == b:
            return a in self.enabled_agents
        if a not in self.enabled_agents or b not in self.enabled_agents:
            return False
        return _normalize_edge(a, b) in self.available_edges

    def is_edge_available(self, a: int, b: int) -> bool:
        """Return True when the edge ``{a, b}`` is available this round
        (regardless of whether the endpoints are enabled)."""
        return _normalize_edge(a, b) in self.available_edges


class Environment(ABC):
    """Abstract producer of environment states.

    Subclasses model concrete dynamics: random churn, adversaries,
    mobility, and so on.  The simulator calls :meth:`advance` once per
    round; an environment may be deterministic or may use the supplied
    random generator.

    The fixed :class:`Topology` is the graph ``E`` over which the
    environment assumption ``Q_E`` is stated — in every environment
    implemented here the set of available edges is a subset of the
    topology's edges.
    """

    #: True when this environment implements :meth:`advance_with_delta`
    #: with real per-round deltas.  The engines only attempt incremental
    #: connectivity maintenance for environments that declare it; every
    #: other environment keeps the classic from-scratch path.
    reports_deltas: bool = False

    def __init__(self, topology: Topology):
        self.topology = topology

    @property
    def num_agents(self) -> int:
        """Number of agents in the system."""
        return self.topology.num_agents

    @abstractmethod
    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        """Produce the environment state for round ``round_index``."""

    def advance_with_delta(
        self, round_index: int, rng: random.Random
    ) -> tuple[EnvironmentState, EnvironmentDelta | None]:
        """Produce the next state together with the delta from the last one.

        The state (and every random draw behind it) is exactly what
        :meth:`advance` would have produced — reporting a delta never
        changes the random stream, so seeded runs are byte-identical in
        either mode.  A ``None`` delta means "unknown": the first round
        after construction or :meth:`reset`, or an environment that cannot
        (or does not care to) track its own churn.  Consumers treat None
        as "resynchronize from the full state".

        The default implementation delegates to :meth:`advance` and always
        reports None.
        """
        return self.advance(round_index, rng), None

    def reset(self) -> None:
        """Reset any internal state before a new simulation run.

        The default implementation does nothing; stateful environments
        (mobility, adversaries with epochs) override it.
        """

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The environment's mutable evolution state as JSON-safe data.

        Whatever future :meth:`advance` calls depend on beyond the
        construction parameters and the round index must be here: the
        Markov chain's current up/down sets, mobile agents' positions and
        batteries.  The default is empty — correct for every environment
        whose states are a pure function of the round index (static, duty
        cycles, the adversaries) or of fresh per-round draws (random
        churn).  Delta-reporting bases (the previous round's snapshot) are
        deliberately *not* state: :meth:`load_state` drops them, the next
        ``advance_with_delta`` reports None, and the consumer
        resynchronizes — same states, same random draws, same results.
        """
        return {}

    def load_state(self, state: Mapping) -> None:
        """Restore :meth:`state_dict` output into this environment.

        The restored environment continues at identical random draw order:
        after this call, ``advance_with_delta(round_index, rng)`` produces
        exactly the states the uninterrupted environment would have.  The
        default implementation resets (which is the whole restoration for
        stateless environments and clears the delta base for all);
        stateful overrides call it first, then apply their state.
        """
        self.reset()

    def describe(self) -> str:
        """One-line description used in benchmark reports."""
        return type(self).__name__

    # -- fairness -------------------------------------------------------------

    def fairness_predicates(self) -> Sequence[str]:
        """Human-readable list of the ``Q`` predicates this environment
        guarantees to satisfy infinitely often.

        Concrete environments override this to document (and allow tests to
        assert) which of the paper's assumptions they meet.
        """
        return ()
