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
  available"), and the draw-order edge table every environment reads;
* :class:`EnvironmentState` — one concrete ``G``: the set of enabled agents
  and the set of currently available edges, together with the group
  structure (connected components) it induces.  Array environments
  hand over its *array form*, whose two sets are built on first read.
  Derived views (:meth:`EnvironmentState.effective_edges`, the
  communication groups) are computed lazily and memoized on the frozen
  state, so repeated queries in one round never recompute;
* :func:`label_components` — the one component labeller: min-label
  propagation over ``int64`` edge arrays, from which a state derives its
  communication groups in canonical order (the from-scratch walk
  :func:`connected_component_tuples` serves when numpy is missing, and
  as the cross-check oracle);
* :class:`ComponentPartition` — a state's maximal partition as a view
  over its labelling: the non-singleton components' members, bounds and
  positions, and the roots, with ``Group`` objects built only when read;
* :meth:`EnvironmentState.unchanged_from` — whether a state equals the
  one before it, round index aside.  It is a function of the two states
  alone, so no environment reports or tracks its own churn; the engines
  use it to let a quiet round adopt the previous state's memoized views;
* :class:`Environment` — the abstract driver that produces a (possibly
  adversarial, possibly random) sequence of environment states.

Concrete environments live in :mod:`repro.environment.dynamics`,
:mod:`repro.environment.adversary` and :mod:`repro.environment.mobility`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Mapping

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised by the without-numpy CI leg
    _numpy = None

from ..core.errors import EnvironmentError_, SimulationError

__all__ = [
    "Topology",
    "ComponentPartition",
    "EnvironmentState",
    "Environment",
    "check_components",
    "edge_endpoints",
    "group_layout",
    "label_components",
]

Edge = tuple[int, int]


def _normalize_edge(a: int, b: int) -> Edge:
    """Store undirected edges with the smaller endpoint first."""
    if a == b:
        raise EnvironmentError_(f"self-loop edge ({a}, {b}) is not allowed")
    return (a, b) if a < b else (b, a)


def _checked_edges(num_agents: int, edges: Iterable[tuple[int, int]]):
    """``edges`` normalized (smaller endpoint first), each checked in
    input order: an endpoint outside ``0 .. num_agents - 1`` or a
    self-loop raises, the range taking precedence on one edge."""
    for edge in edges:
        a, b = edge
        if not (0 <= a < num_agents and 0 <= b < num_agents):
            raise EnvironmentError_(
                f"edge ({a}, {b}) references an agent outside 0..{num_agents - 1}"
            )
        if a < b:
            yield edge if type(edge) is tuple else (a, b)
        elif b < a:
            yield (b, a)
        else:
            raise EnvironmentError_(f"self-loop edge ({a}, {b}) is not allowed")


class Topology:
    """The fixed communication graph ``(A, E)`` of a system.

    The vertex set is ``range(num_agents)``; edges are undirected pairs of
    distinct agents.  The paper's environment assumption ``Q_E`` says every
    edge of ``E`` is available infinitely often; which ``E`` suffices
    depends on the problem (connected for minimum/hull, complete for sum,
    a line in index order for sorting).

    Edges given to the constructor come from outside the program, so each
    is checked and normalized in input order; the graph builders of
    :mod:`repro.environment.graphs` emit normalized edges and build
    through ``_generated``, which checks none.  The topology owns the
    draw-order edge table every environment reads: :meth:`edge_sequence`
    and its :meth:`edge_endpoint_arrays`, plus :meth:`agent_id_array`,
    each built once, on first request.
    """

    def __init__(self, num_agents: int, edges: Iterable[tuple[int, int]]):
        self._build(num_agents, _checked_edges(num_agents, edges))

    @classmethod
    def _generated(cls, num_agents: int, edges: Iterable[Edge]) -> "Topology":
        """The topology over edges this package's graph builders made:
        normalized (``a < b``), in-range pairs with no self-loop, so no
        edge is checked one by one.  Given in the order the check loop
        would insert them, they build the same frozenset in the same
        iteration order."""
        topology = cls.__new__(cls)
        topology._build(num_agents, edges)
        return topology

    def _build(self, num_agents: int, edges: Iterable[Edge]) -> None:
        if num_agents <= 0:
            raise EnvironmentError_("a topology needs at least one agent")
        self.num_agents = num_agents
        # The insertion order fixes the frozenset's iteration order, which
        # is the environments' draw order, so edges go in exactly as given;
        # freezing the filled set copies its table.  ``iter`` makes a set
        # argument be inserted edge by edge, not copied table to table.
        self.edges: frozenset[Edge] = frozenset(set(iter(edges)))
        self._adjacency: dict[int, frozenset[int]] | None = None
        self._is_connected: bool | None = None
        self._edge_sequence: tuple[Edge, ...] | None = None
        self._edge_endpoints: tuple | None = None
        self._agent_ids = None

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

    def edge_sequence(self) -> tuple[Edge, ...]:
        """The edges in draw order: ``tuple(self.edges)``, which keeps the
        frozenset's iteration order.  Built once and shared by every
        environment over this topology."""
        sequence = self._edge_sequence
        if sequence is None:
            sequence = self._edge_sequence = tuple(self.edges)
        return sequence

    def edge_endpoint_arrays(self) -> tuple:
        """The ``(u, v)`` endpoints of :meth:`edge_sequence` as two
        read-only ``int64`` arrays, in draw order.  Built once, on first
        request.  Needs numpy."""
        arrays = self._edge_endpoints
        if arrays is None:
            arrays = edge_endpoints(self.edge_sequence())
            for array in arrays:
                array.flags.writeable = False
            self._edge_endpoints = arrays
        return arrays

    def agent_id_array(self):
        """The agent ids ``0 .. num_agents - 1`` as one read-only ascending
        ``int64`` array.  Built once, on first request.  Needs numpy."""
        ids = self._agent_ids
        if ids is None:
            ids = self._agent_ids = _numpy.arange(self.num_agents, dtype=_numpy.int64)
            ids.flags.writeable = False
        return ids

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
    tuples in frozensets) and, when numpy is missing, a state's
    :class:`ComponentPartition` (which feeds them to
    :class:`~repro.agents.group.Group` directly, avoiding a re-sort per
    component).

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


def edge_endpoints(edges) -> tuple:
    """The ``(u, v)`` endpoints of a sequence or set of edges as two
    ``int64`` numpy arrays, in iteration order.  Needs numpy."""
    np = _numpy
    count = len(edges)
    return tuple(
        np.fromiter(map(itemgetter(end), edges), np.int64, count) for end in (0, 1)
    )


def label_components(u, v, num_agents: int):
    """Connected components of the edges ``(u[i], v[i])``.  Needs numpy.

    Labels over the fixed agent-id index: ``labels`` starts as
    ``arange(num_agents)`` and min-label propagation with full path
    compression runs over the edge arrays directly, so no sort and no
    remapping is needed.  The first sweep hooks once: every label is
    still its agent's id, so it hooks each edge's larger endpoint onto
    its smaller one.  Every later sweep hooks both directions.  Path
    compression then jumps the labels of the agents a sweep can have
    hooked, or the whole label array when those are not fewer than half
    the agents (:func:`_compressed`).  Returns ``(ids, labels)``: the
    ascending ids of the agents some edge touches, and every agent's
    label — the smallest agent id of its component (an agent no edge
    touches labels itself).  Every endpoint must be below ``num_agents``.
    """
    np = _numpy
    labels = np.arange(num_agents, dtype=np.int64)
    if not u.shape[0]:
        return np.empty(0, dtype=np.int64), labels
    touched = np.zeros(num_agents, dtype=bool)
    touched[u] = True
    touched[v] = True
    ids = np.flatnonzero(touched)
    hooked = np.maximum(u, v)
    np.minimum.at(labels, hooked, np.minimum(u, v))
    labels = _compressed(labels, hooked)
    # Labels only ever decrease toward the component minimum, so the
    # sweeps end in O(log diameter).
    while not np.array_equal(labels.take(u), labels.take(v)):
        np.minimum.at(labels, u, labels.take(v))
        np.minimum.at(labels, v, labels.take(u))
        labels = _compressed(labels, ids)
    return ids, labels


def _compressed(labels, hooked):
    """``labels`` with every label chain jumped to its root.

    Only the agents in ``hooked`` (repeats allowed) may label anything
    but themselves.  Jumping their labels alone pays a gather, a compare
    and a scatter per step, and jumping the whole array a gather and a
    compare, so the subset runs while it holds fewer than half the
    agents.  Either way each step jumps every label once, in place for
    the subset, so both reach the same labels.
    """
    np = _numpy
    if 2 * hooked.shape[0] < labels.shape[0]:
        parents = labels.take(hooked)
        while True:
            jumped = labels.take(parents)
            if np.array_equal(jumped, parents):
                return labels
            labels[hooked] = parents = jumped
    while True:
        jumped = labels.take(labels)
        if np.array_equal(jumped, labels):
            return labels
        labels = jumped


def _labelled_layout(enabled_ids, ids, labels) -> tuple:
    """The ``(members, bounds, positions, roots)`` of a labelling's
    component partition (see :class:`ComponentPartition`).

    ``enabled_ids`` is the ascending enabled agents; ``(ids, labels)``
    is :func:`label_components`' output over edges between enabled
    agents.  A component's label is its smallest member, so the enabled
    agents that label themselves — the *roots* — ascend exactly in
    :func:`connected_component_tuples`' order, with no sort.  The touched
    agents are the members of the non-singleton components; one stable
    argsort of their labels groups them, members ascending, and each
    group's label finds its position among the roots.
    """
    np = _numpy
    # Enabled agents past the labelled range are touched by no edge.
    cut = int(np.searchsorted(enabled_ids, labels.shape[0]))
    head = enabled_ids[:cut]
    roots = np.concatenate((head[labels.take(head) == head], enabled_ids[cut:]))
    if not ids.shape[0]:
        return [], [0], [], roots
    keys = labels.take(ids)
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    firsts = np.concatenate(([0], starts))
    members = ids.take(order).tolist()
    bounds = [0, *starts.tolist(), len(members)]
    return members, bounds, np.searchsorted(roots, keys.take(firsts)).tolist(), roots


def group_layout(groups: Iterable[Sequence[int]], smallest: int = 2) -> tuple:
    """The ``(members, bounds, positions)`` of the groups of at least
    ``smallest`` agents among ``groups``, member sequences in schedule
    order: the first three parts of a :class:`ComponentPartition`'s
    layout, read off a list."""
    members: list[int] = []
    bounds = [0]
    positions = []
    for position, group in enumerate(groups):
        if len(group) >= smallest:
            members.extend(group)
            bounds.append(len(members))
            positions.append(position)
    return members, bounds, positions


class ComponentPartition(Sequence):
    """The maximal partition of one environment state: its communication
    groups in component order, read from the state's labelling.

    A sequence of :class:`~repro.agents.group.Group` objects, so any
    reader can index or iterate it; but the groups are built only when
    something reads it that way.  The round loop reads the layout
    instead, built on first read from the labelling (one stable argsort;
    from the component walk's tuples when numpy is missing):

    * :attr:`members` — the members of the non-singleton components, in
      group order, members ascending;
    * :attr:`bounds` — where each of those groups starts in
      :attr:`members`, plus the end;
    * :attr:`positions` — where each of those groups sits in the
      component order;
    * :attr:`roots` — every component's smallest member, in component
      order (a lone agent is its own root).

    Component order is ascending smallest member, exactly
    :func:`connected_component_tuples`' order.  Every part is built at
    most once and shared, so readers must treat it as read-only.  The
    view holds the labelling, never the state, and lets go of the
    labelling once its layout is built.
    """

    __slots__ = ("_enabled", "_labelling", "_layout", "_tuples", "_groups")

    def __init__(self, enabled, labelling: tuple):
        """The view of the labelling ``(ids, labels)``
        (:func:`label_components`) of the enabled agents ``enabled``: an
        ascending ``int64`` id array, or a set."""
        self._enabled = enabled
        self._labelling = labelling
        self._layout: tuple | None = None
        self._tuples: list[tuple[int, ...]] | None = None
        self._groups: list | None = None

    @classmethod
    def walked(cls, components: list[tuple[int, ...]]) -> "ComponentPartition":
        """The view of a component walk's member tuples
        (:func:`connected_component_tuples`)."""
        partition = cls(None, None)
        partition._tuples = components
        return partition

    def _built(self) -> tuple:
        layout = self._layout
        if layout is None:
            if self._labelling is None:
                tuples = self._tuples
                layout = (*group_layout(tuples), [group[0] for group in tuples])
            else:
                enabled = self._enabled
                if not isinstance(enabled, _numpy.ndarray):
                    enabled = _numpy.sort(
                        _numpy.fromiter(enabled, _numpy.int64, len(enabled))
                    )
                layout = _labelled_layout(enabled, *self._labelling)
            self._layout = layout
            self._enabled = self._labelling = None
        return layout

    @property
    def members(self) -> list[int]:
        """The non-singleton components' members, group after group."""
        return self._built()[0]

    @property
    def bounds(self) -> list[int]:
        """Group ``k`` is ``members[bounds[k]:bounds[k + 1]]``."""
        return self._built()[1]

    @property
    def positions(self) -> list[int]:
        """The component-order position of each non-singleton group."""
        return self._built()[2]

    @property
    def roots(self):
        """Every component's smallest member, in component order."""
        return self._built()[3]

    def tuples(self) -> list[tuple[int, ...]]:
        """The components as sorted member tuples, in component order."""
        tuples = self._tuples
        if tuples is None:
            members, bounds, positions, roots = self._built()
            tuples = [(root,) for root in roots.tolist()]
            for position, start, stop in zip(positions, bounds, bounds[1:]):
                tuples[position] = tuple(members[start:stop])
            self._tuples = tuples
        return tuples

    def groups(self) -> list:
        """The components as :class:`~repro.agents.group.Group` objects."""
        groups = self._groups
        if groups is None:
            from ..agents.group import Group  # the agents layer imports this module

            groups = self._groups = list(map(Group, self.tuples()))
        return groups

    def __len__(self) -> int:
        return len(self._built()[3])

    def __getitem__(self, index):
        return self.groups()[index]

    def __iter__(self):
        return iter(self.groups())

    def __eq__(self, other) -> bool:
        if isinstance(other, (ComponentPartition, list, tuple)):
            return self.groups() == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ComponentPartition({self.groups()!r})"


def check_components(state: "EnvironmentState", source: str) -> list[tuple[int, ...]]:
    """Debug cross-check: the state's labelled components == its
    from-scratch component walk.

    Returns the components
    (:meth:`EnvironmentState.communication_group_tuples`).  On divergence
    raises :class:`~repro.core.errors.SimulationError` naming ``source``
    (the engine's labelling), with the round index and both partitions.
    """
    components = state.communication_group_tuples()
    expected = connected_component_tuples(
        state.enabled_agents, state.effective_edges()
    )
    if components != expected:
        raise SimulationError(
            f"{source} diverged from the from-scratch component walk at "
            f"round {state.round_index}: {components!r} vs actual {expected!r}"
        )
    return components


@dataclass(frozen=True)
class EnvironmentState:
    """One environment state ``G``: who is enabled and who can talk to whom.

    The state's value is the pair of frozensets ``enabled_agents`` and
    ``available_edges`` (plus the round index); everything derived from
    them — the effective edges, the communication groups in either
    representation — is a *lazy view*: computed on first request and
    memoized on the instance (via ``object.__setattr__``, the
    frozen-dataclass idiom), so schedulers, engines and probes can all
    query the same state without repeating the filter or the component
    walk.

    An environment that holds its state as arrays builds the *array form*
    (:meth:`from_arrays`) instead: the enabled agents as an ascending id
    array (or an already-built set) and the available edges as an
    ascending index into the environment's frozen edge sequence.  The two
    frozensets are then lazy views too, built on first read in ascending
    index order — the insertion order an eager build uses — so equality,
    hashing, ``repr`` and iteration order are those of the eager state
    built from the same sets, and the two forms compare equal.  A reader
    that needs only :attr:`enabled_count` and ``effective_edge_arrays``
    never builds either set.

    The communication groups come from one labelling per state
    (:meth:`component_labels`, by :func:`label_components`), memoized
    like every other view: the schedulers, the probes and both engines
    read the same one.  The state's maximal partition is one
    :class:`ComponentPartition` view over it
    (:meth:`component_partition`), whose layout — the non-singleton
    components' members, bounds and positions, and the roots — is built
    on first read, and whose :class:`~repro.agents.group.Group` objects
    are built only if something reads the groups
    (:meth:`component_groups`, a round record's ``groups``).  Without
    numpy the from-scratch walk :func:`connected_component_tuples`
    computes the components instead; the two agree member for member
    and in order (pinned by the differential test suite).

    An environment that already holds its state as arrays may also hand
    over the effective edges as ``effective_edge_arrays``: a pair of
    ``int64`` numpy arrays ``(u, v)``, one entry per effective edge, owned
    by this state (never views of the environment's live state).  It is a
    transport for array consumers, not part of the state's value, so it
    takes no part in equality, hashing, ``repr`` or serialization; None
    when the environment did not build it.
    """

    enabled_agents: frozenset[int]
    available_edges: frozenset[Edge]
    round_index: int = 0
    effective_edge_arrays: tuple | None = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_arrays(
        cls,
        enabled,
        edge_sequence: Sequence[Edge],
        up_edges,
        round_index: int = 0,
        effective_edge_arrays: tuple | None = None,
    ) -> "EnvironmentState":
        """The array form of a state (see the class docstring).

        ``enabled`` is the enabled agents as a frozenset or as an
        ascending ``int64`` id array; ``up_edges`` is the ascending
        ``int64`` index of the available edges into ``edge_sequence``.
        The arrays must be owned by the state, never views of the
        environment's live masks.  The exceptions are shared read-only
        arrays: the topology's all-agent id array
        (:meth:`Topology.agent_id_array`), which churn's all-up states
        share, and the per-phase arrays a duty cycle caches
        (:meth:`with_enabled_ids`).
        """
        state = object.__new__(cls)
        own = state.__dict__
        if isinstance(enabled, frozenset):
            own["enabled_agents"] = enabled
        else:
            own["_enabled_ids"] = enabled
        own["_edge_sequence"] = edge_sequence
        own["_up_edges"] = up_edges
        own["round_index"] = round_index
        own["effective_edge_arrays"] = effective_edge_arrays
        return state

    @classmethod
    def with_enabled_ids(
        cls,
        enabled_agents: frozenset[int],
        enabled_ids,
        available_edges: frozenset[Edge],
        round_index: int = 0,
        effective_edge_arrays: tuple | None = None,
    ) -> "EnvironmentState":
        """The state ``EnvironmentState(enabled_agents, available_edges,
        round_index, effective_edge_arrays)``, carrying its enabled agents
        also as ``enabled_ids``: the same agents as a read-only ascending
        ``int64`` id array, which the state's partition view reads instead
        of sorting the set.  An environment that repeats its states (the
        duty cycle) builds the ids and the effective edge arrays once and
        shares them, read-only, across states.  Value, equality, ``repr``
        and iteration order are the plain state's."""
        state = cls(enabled_agents, available_edges, round_index, effective_edge_arrays)
        state.__dict__["_enabled_ids"] = enabled_ids
        return state

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: an array-form state's
        # frozensets before their first read.
        own = self.__dict__
        if name == "enabled_agents" and "_enabled_ids" in own:
            value = frozenset(own["_enabled_ids"].tolist())
        elif name == "available_edges" and "_up_edges" in own:
            sequence = own["_edge_sequence"]
            value = frozenset(map(sequence.__getitem__, own["_up_edges"].tolist()))
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        object.__setattr__(self, name, value)
        return value

    @property
    def enabled_count(self) -> int:
        """``len(enabled_agents)``, without building an array-form state's set."""
        enabled = self.__dict__.get("_enabled_ids")
        return len(self.enabled_agents if enabled is None else enabled)

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
        component.  Read off :meth:`component_partition`."""
        return self.component_partition().tuples()

    def component_labels(self) -> tuple:
        """The state's component labelling ``(ids, labels)``.  Needs numpy.

        :func:`label_components` over the effective edges: the
        ``effective_edge_arrays`` when the environment built them, the
        effective edge set otherwise.  ``labels`` covers the agents up to
        the largest endpoint; any agent past it is touched by no edge.
        """
        memo = self.__dict__.get("_component_labels")
        if memo is None:
            arrays = self.effective_edge_arrays
            if arrays is None:
                arrays = edge_endpoints(self.effective_edges())
            u, v = arrays
            size = int(max(u.max(), v.max())) + 1 if u.shape[0] else 0
            memo = label_components(u, v, size)
            object.__setattr__(self, "_component_labels", memo)
        return memo

    def component_partition(self) -> ComponentPartition:
        """The state's maximal partition: its communication groups, in
        component order, as a :class:`ComponentPartition` view.

        Memoized and shared by every reader.  It holds
        :meth:`component_labels` (the component walk's tuples when numpy
        is missing) and builds its layout only when something reads it,
        so asking for it sorts nothing.
        """
        own = self.__dict__
        memo = own.get("_component_partition")
        if memo is None:
            if _numpy is None:
                memo = ComponentPartition.walked(
                    connected_component_tuples(
                        self.enabled_agents, self.effective_edges()
                    )
                )
            else:
                enabled = own.get("_enabled_ids")
                memo = ComponentPartition(
                    self.enabled_agents if enabled is None else enabled,
                    self.component_labels(),
                )
            object.__setattr__(self, "_component_partition", memo)
        return memo

    def component_groups(self) -> list:
        """The communication groups as :class:`~repro.agents.group.Group`
        objects, in component order: the groups of
        :meth:`component_partition`, built on first call.  Shared, so
        callers must treat the list as read-only."""
        return self.component_partition().groups()

    def unchanged_from(self, previous: "EnvironmentState") -> bool:
        """True when this state's enabled agents and available edges equal
        ``previous``'s (the round index aside).

        Stops at the first difference, and compares the enabled counts
        first.  Two array-form states compare their enabled-id arrays,
        and their up-edge indexes when both index one edge sequence, so
        neither builds a set; every other pair compares the frozensets, by
        identity first (frozenset ``==`` walks the set even against itself).
        """
        if previous is self:
            return True
        if previous.enabled_count != self.enabled_count:
            return False
        old = previous.__dict__
        new = self.__dict__
        old_ids = old.get("_enabled_ids")
        new_ids = new.get("_enabled_ids")
        if old_ids is not None and new_ids is not None:
            if old_ids is not new_ids and not _numpy.array_equal(old_ids, new_ids):
                return False
        else:
            agents = previous.enabled_agents
            if agents is not self.enabled_agents and agents != self.enabled_agents:
                return False
        sequence = new.get("_edge_sequence")
        if sequence is not None and old.get("_edge_sequence") is sequence:
            return bool(_numpy.array_equal(old["_up_edges"], new["_up_edges"]))
        edges = previous.available_edges
        return edges is self.available_edges or edges == self.available_edges

    def _adopt_view_memos(self, previous: "EnvironmentState") -> None:
        """Copy ``previous``'s memoized derived views onto this state.

        Only valid when this state is known to be semantically identical
        to ``previous`` (:meth:`unchanged_from`);
        the engines use it so that quiet rounds never recompute a view
        some earlier round already paid for."""
        source = previous.__dict__
        own = self.__dict__
        for key in (
            "_effective_edges",
            "_communication_groups",
            "_component_labels",
            "_component_partition",
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
    ) -> tuple[EnvironmentState, None]:
        """:meth:`advance`, paired with a None ("unknown") delta.

        Environments do not track their own churn: the engines call
        :meth:`advance` and compare consecutive states with
        :meth:`EnvironmentState.unchanged_from`.  This adapter remains for
        callers that still expect a ``(state, delta)`` pair; a None delta tells a
        consumer to resynchronize from the full state.  The engines never
        call it, so overriding it changes nothing they do.
        """
        return self.advance(round_index, rng), None

    def array_transition(
        self,
    ) -> Callable[[int, random.Random], EnvironmentState] | None:
        """The array form of :meth:`advance`, or None (the default).

        A callable ``(round_index, rng) -> EnvironmentState`` that makes
        :meth:`advance`'s draws and returns its state in array form
        (:meth:`EnvironmentState.from_arrays`, ``effective_edge_arrays``
        set).  Asking builds its tables, so consumers ask once, up front.
        """
        return None

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
        churn).  Derived structure the engines keep across rounds (the
        previous state) is not environment state: a restored engine
        resynchronizes it from the next state.
        """
        return {}

    def load_state(self, state: Mapping) -> None:
        """Restore :meth:`state_dict` output into this environment.

        The restored environment continues at identical random draw order:
        after this call, ``advance(round_index, rng)`` produces exactly the
        states the uninterrupted environment would have.  The default
        implementation resets (which is the whole restoration for
        stateless environments); stateful overrides call it first, then
        apply their state.
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
