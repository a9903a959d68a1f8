"""Incremental connectivity: communication groups maintained across rounds.

The per-round cost of a simulation used to be dominated not by the
algorithm but by the environment layer: every round the engine re-filtered
the available edges, re-ran a BFS over the whole graph to find the
communication groups, and rebuilt one group object per connected component
— O(n + |E|) work even when the round's churn flipped a handful of edges.

:class:`ConnectivityTracker` replaces the from-scratch walk with delta
maintenance.  The engines take the
:class:`~repro.environment.base.EnvironmentDelta` between each round's
state and the last
(:meth:`~repro.environment.base.EnvironmentDelta.between`); the tracker
folds it into a maintained component structure:

* **edge insertions** merge components union-find style (union by size,
  with deferred materialization so a cascade of unions costs the size of
  the merged component once, not per union); the overwhelmingly common
  sparse case — an edge joining two lone agents — takes a direct
  two-singleton fast path;
* **edge deletions and agent disables** dissolve only the components
  incident to the change and re-walk just those vertices (a bounded,
  localized rebuild — deletions cannot reconnect anything, so the walk
  never escapes the dissolved components); an edge leaving a two-agent
  component splits it directly, no walk at all;
* **components untouched by the round's delta keep their identity**, so
  per-component group objects are reused — singleton components (and
  pair components, capped) are interned for the tracker's lifetime —
  and a quiet round allocates O(|delta|) objects instead of O(n).

The component objects are built by the configured ``group_factory`` (the
engine passes :class:`~repro.agents.group.Group`), so the maintained
components *are* the scheduler's group objects: serving a round's groups
is one filtering pass over the min-slot array, with no per-component
indirection or copying.

Components are stored in a *min-slot array*: slot ``i`` holds the
component whose smallest member is agent ``i`` (or None).  Agent ids are
already the sort key of the canonical component order, so producing the
ordered component list is a single filtering pass with no per-round sort,
every structural update is an O(1) list store, and a component's position
in the round's group list is the number of occupied slots below its min
(answered by a C-level count over the parallel presence bytearray).

On low-degree topologies the tracker does not maintain an availability
adjacency at all: localized walks filter the topology's fixed adjacency
through the state's own available-edge set.  Dense topologies (where a
walked vertex would otherwise scan every agent) keep an incrementally
maintained adjacency.

The maintained components are, by construction, exactly the output of
:func:`~repro.environment.base.connected_component_tuples` on the same
state — same members, same sort order — which the differential test suite
(:mod:`tests.test_environment_connectivity`) pins across long randomized
runs of every environment family.  The tracker installs itself on each
observed :class:`EnvironmentState`, whose group accessors then serve the
maintained views; states the tracker has not observed fall back to the
from-scratch computation.
"""

from __future__ import annotations

from typing import Callable

from .base import (
    Edge,
    EnvironmentDelta,
    EnvironmentState,
    Topology,
    connected_component_tuples,
)

__all__ = ["ConnectivityTracker"]

#: Maximum degree up to which localized walks use the fixed topology
#: adjacency filtered by edge membership instead of a maintained
#: availability adjacency.
_STATIC_ADJACENCY_DEGREE_BOUND = 8


class _Component:
    """Default component representation when no group factory is given.

    Mirrors the attribute contract the tracker relies on — a sorted
    ``members`` tuple, set at construction — which is exactly the shape
    of :class:`~repro.agents.group.Group`.
    """

    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]):
        self.members = members

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_Component({list(self.members)})"


class ConnectivityTracker:
    """Maintains the communication groups of an environment across rounds.

    Parameters
    ----------
    topology:
        The fixed graph; used to size the per-agent tables.
    group_factory:
        Optional callable building the per-component object from its
        sorted member tuple.  The engine passes
        :class:`~repro.agents.group.Group`, making the maintained
        components directly consumable as scheduled groups; when None,
        :meth:`EnvironmentState.maintained_scheduler_groups` stays None
        and only the component tuples are served.

    Usage: call :meth:`observe` once per round with the state and its
    :meth:`~repro.environment.base.EnvironmentDelta.between` delta from
    the previously observed state.  A None delta (first round, post-reset
    or post-restore) resynchronizes from the full state.
    """

    def __init__(
        self,
        topology: Topology,
        group_factory: Callable[[tuple[int, ...]], object] | None = None,
    ):
        num_agents = topology.num_agents
        self._topology = topology
        self._factory = group_factory or _Component
        self._serves_groups = group_factory is not None
        self._state: EnvironmentState | None = None
        self._synced = False
        self._enabled: set[int] = set()
        self._avail_adjacency: dict[int, set[int]] = {}
        adjacency = topology.adjacency()
        max_degree = max(map(len, adjacency.values()), default=0)
        self._static_adjacency = (
            adjacency if max_degree <= _STATIC_ADJACENCY_DEGREE_BOUND else None
        )
        self._component_of: list[object | None] = [None] * num_agents
        # min_slot[i] = the component whose smallest member is i;
        # _present mirrors occupancy for C-level position counting;
        # _multi_mins holds the min members of non-singleton components.
        self._min_slot: list[object | None] = [None] * num_agents
        self._present = bytearray(num_agents)
        self._multi_mins: set[int] = set()
        # Singleton and pair components are interned (pairs capped so
        # unbounded topologies cannot grow memory without bound): the
        # same lone agent or blinking edge keeps one component object
        # for the tracker's lifetime.
        self._singletons: list[object | None] = [None] * num_agents
        self._pairs: dict[tuple[int, int], object] = {}
        self._pair_cap = 65536
        # Per-round lazy materializations (invalidated when the round's
        # delta changed anything).
        self._tuples: list[tuple[int, ...]] | None = None
        self._groups: list | None = None
        self._groups_tuple: tuple | None = None
        self._nonsingletons: list[tuple[int, object]] | None = None

    # -- round driving --------------------------------------------------------

    def observe(
        self, state: EnvironmentState, delta: EnvironmentDelta | None
    ) -> None:
        """Fold one round's environment transition into the maintained state.

        Installs the tracker on ``state`` so its group accessors serve the
        maintained components for the rest of the round.
        """
        if delta is None or not self._synced:
            self._resync(state)
        elif not delta.is_empty:
            self._apply_delta(delta, state)
        self._state = state
        object.__setattr__(state, "_maintained_components", self)

    def reset(self) -> None:
        """Forget everything; the next :meth:`observe` resynchronizes."""
        self._synced = False
        self._state = None

    # -- views ----------------------------------------------------------------

    def component_tuples(self, state: EnvironmentState) -> list[tuple[int, ...]]:
        """The communication groups of ``state`` as sorted member tuples.

        Identical (members and order) to
        :func:`~repro.environment.base.connected_component_tuples` on the
        state's enabled agents and effective edges.
        """
        if state is not self._state:
            # A state from some other round (or a tracker handle copied
            # onto a state we never observed): serve the truth, from
            # scratch.
            return connected_component_tuples(
                state.enabled_agents, state.effective_edges()
            )
        if self._tuples is None:
            self._tuples = [
                component.members
                for component in self._min_slot
                if component is not None
            ]
        return self._tuples

    def scheduler_groups(self, state: EnvironmentState) -> list | None:
        """The maintained per-component group objects, in component order.

        Returns None when no group factory was configured or ``state`` is
        not the tracker's current round.  The list is shared and reused
        across quiet rounds — callers must not mutate it.
        """
        if not self._serves_groups or state is not self._state:
            return None
        groups = self._groups
        if groups is None:
            # The min-slot array is ordered by construction; components
            # are the factory's group objects, so the round's group list
            # is one C-level filtering pass.
            groups = self._groups = list(filter(None, self._min_slot))
        return groups

    def groups_tuple(self) -> tuple:
        """:meth:`scheduler_groups` as a shared tuple (for round records).

        Quiet rounds hand out the same tuple object, so a static stretch
        of a simulation shares one groups tuple across all its records.
        """
        if self._groups_tuple is None:
            groups = self._groups
            if groups is None:
                groups = self._groups = list(filter(None, self._min_slot))
            self._groups_tuple = tuple(groups)
        return self._groups_tuple

    def nonsingleton_groups(self) -> list[tuple[int, object]]:
        """``(index, component)`` for every non-singleton component, in order.

        ``index`` is the component's position in :meth:`scheduler_groups`:
        the number of occupied min-slots below its smallest member,
        counted at C speed over the presence bytearray.
        """
        nonsingletons = self._nonsingletons
        if nonsingletons is None:
            min_slot = self._min_slot
            count = self._present.count
            nonsingletons = self._nonsingletons = []
            append = nonsingletons.append
            position = 0
            previous = 0
            # Cumulative segment counts: the presence bytearray is walked
            # once in total, not once per component.
            for key in sorted(self._multi_mins):
                position += count(1, previous, key)
                append((position, min_slot[key]))
                previous = key
        return nonsingletons

    # -- maintenance ----------------------------------------------------------

    def _invalidate_round_views(self) -> None:
        self._tuples = None
        self._groups = None
        self._groups_tuple = None
        self._nonsingletons = None

    def _singleton(self, agent: int):
        component = self._singletons[agent]
        if component is None:
            component = self._factory((agent,))
            self._singletons[agent] = component
        return component

    def _pair(self, members: tuple[int, int]):
        component = self._pairs.get(members)
        if component is None:
            component = self._factory(members)
            if len(self._pairs) < self._pair_cap:
                self._pairs[members] = component
        return component

    def _resync(self, state: EnvironmentState) -> None:
        """Rebuild the maintained structure from a full state."""
        num_agents = self._topology.num_agents
        self._enabled = set(state.enabled_agents)
        if self._static_adjacency is None:
            adjacency: dict[int, set[int]] = {
                agent: set() for agent in self._topology.agent_ids
            }
            for a, b in state.available_edges:
                adjacency[a].add(b)
                adjacency[b].add(a)
            self._avail_adjacency = adjacency
        factory = self._factory
        component_of: list[object | None] = [None] * num_agents
        min_slot: list[object | None] = [None] * num_agents
        present = bytearray(num_agents)
        multi_mins: set[int] = set()
        for members in connected_component_tuples(
            state.enabled_agents, state.effective_edges()
        ):
            key = members[0]
            size = len(members)
            if size == 1:
                component = self._singleton(key)
            elif size == 2:
                component = self._pair(members)
                multi_mins.add(key)
            else:
                component = factory(members)
                multi_mins.add(key)
            min_slot[key] = component
            present[key] = 1
            for member in members:
                component_of[member] = component
        self._component_of = component_of
        self._min_slot = min_slot
        self._present = present
        self._multi_mins = multi_mins
        self._invalidate_round_views()
        self._synced = True

    def _apply_delta(self, delta: EnvironmentDelta, state: EnvironmentState) -> None:
        enabled = self._enabled
        adjacency = self._avail_adjacency
        static_adjacency = self._static_adjacency
        dynamic = static_adjacency is None
        component_of = self._component_of
        min_slot = self._min_slot
        present = self._present
        multi_mins = self._multi_mins
        singletons = self._singletons
        factory = self._factory
        pairs_cache = self._pairs
        pair_cap = self._pair_cap
        changed = False

        # -- removals: edges down, agents disabled ------------------------
        # A removed edge was *effective* iff both endpoints currently
        # belong to the same component; only then can it affect
        # connectivity.  An effective edge leaving a two-agent component
        # splits it into two interned singletons directly; anything larger
        # is dissolved for the localized re-walk below.
        dissolved: set[int] = set()  # min members of components to re-walk
        dirty: list = []
        for a, b in delta.edges_down:
            if dynamic:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
            component = component_of[a]
            if component is None or component_of[b] is not component:
                continue
            members = component.members
            if len(members) == 2:
                changed = True
                single_a = singletons[a]
                if single_a is None:
                    single_a = self._singleton(a)
                single_b = singletons[b]
                if single_b is None:
                    single_b = self._singleton(b)
                component_of[a] = single_a
                component_of[b] = single_b
                min_slot[a] = single_a
                min_slot[b] = single_b
                present[a] = 1
                present[b] = 1
                multi_mins.discard(members[0])
            else:
                key = members[0]
                if key not in dissolved:
                    dissolved.add(key)
                    dirty.append(component)
        for agent in delta.agents_disabled:
            component = component_of[agent]
            if component is not None:
                members = component.members
                if len(members) == 1:
                    changed = True
                    min_slot[agent] = None
                    present[agent] = 0
                else:
                    key = members[0]
                    if key not in dissolved:
                        dissolved.add(key)
                        dirty.append(component)
                component_of[agent] = None
            enabled.discard(agent)

        # -- localized rebuild of the dissolved components ----------------
        # Deletions cannot connect anything new, so a walk from the
        # surviving members of a dissolved component stays inside that
        # component's old vertex set: the rebuild is bounded by the
        # components the round actually touched.
        if dirty:
            changed = True
            pool: list[int] = []
            previous: dict[int, object] = {}
            for component in dirty:
                key = component.members[0]
                if min_slot[key] is component:
                    min_slot[key] = None
                    present[key] = 0
                multi_mins.discard(key)
                previous[key] = component
                for member in component.members:
                    if component_of[member] is component:
                        pool.append(member)
            if not dynamic:
                # Static-adjacency walk: filter the fixed topology
                # adjacency through the state's available-edge set.  The
                # walk must see the pre-insertion graph, so edges that
                # came up this round are explicitly excluded.
                available = state.available_edges
                arrived = delta.edges_up
                if not isinstance(arrived, (set, frozenset)):
                    arrived = set(arrived)
            seen: set[int] = set()
            for start in pool:
                if start in seen:
                    continue
                seen.add(start)
                stack = [start]
                members_list = [start]
                if dynamic:
                    while stack:
                        for neighbor in adjacency[stack.pop()]:
                            if neighbor in enabled and neighbor not in seen:
                                seen.add(neighbor)
                                members_list.append(neighbor)
                                stack.append(neighbor)
                else:
                    while stack:
                        vertex = stack.pop()
                        for neighbor in static_adjacency[vertex]:
                            if neighbor in enabled and neighbor not in seen:
                                edge = (
                                    (vertex, neighbor)
                                    if vertex < neighbor
                                    else (neighbor, vertex)
                                )
                                if edge in available and edge not in arrived:
                                    seen.add(neighbor)
                                    members_list.append(neighbor)
                                    stack.append(neighbor)
                if len(members_list) == 1:
                    component = singletons[start]
                    if component is None:
                        component = self._singleton(start)
                    min_slot[start] = component
                    present[start] = 1
                    component_of[start] = component
                    continue
                members_list.sort()
                member_tuple = tuple(members_list)
                key = member_tuple[0]
                # A component that lost an edge without splitting (or
                # shrinking) keeps its identity — and its group object.
                component = previous.get(key)
                if component is None or component.members != member_tuple:
                    component = (
                        self._pair(member_tuple)
                        if len(member_tuple) == 2
                        else factory(member_tuple)
                    )
                min_slot[key] = component
                present[key] = 1
                multi_mins.add(key)
                for member in member_tuple:
                    component_of[member] = component

        # -- insertions: agents enabled, edges up -------------------------
        # Every edge that becomes effective this round is an insertion:
        # a new available edge between enabled agents, or an existing
        # available edge revived by an endpoint waking up.  An edge
        # joining two lone agents — the dominant sparse case — merges
        # them directly; everything else queues for the union pass.
        pending: list[Edge] = []
        agents_enabled = delta.agents_enabled
        if agents_enabled:
            changed = True
            for agent in agents_enabled:
                enabled.add(agent)
            for agent in agents_enabled:
                component = singletons[agent]
                if component is None:
                    component = self._singleton(agent)
                component_of[agent] = component
                min_slot[agent] = component
                present[agent] = 1
                if dynamic:
                    for neighbor in adjacency[agent]:
                        if neighbor in enabled:
                            pending.append(
                                (agent, neighbor)
                                if agent < neighbor
                                else (neighbor, agent)
                            )
                else:
                    # The scan over the state's available edges may also
                    # pick up edges that came up this round; the union
                    # pass treats the duplicate insertion as a no-op.
                    available = state.available_edges
                    for neighbor in static_adjacency[agent]:
                        if neighbor in enabled:
                            edge = (
                                (agent, neighbor)
                                if agent < neighbor
                                else (neighbor, agent)
                            )
                            if edge in available:
                                pending.append(edge)
        for a, b in delta.edges_up:
            if dynamic:
                adjacency[a].add(b)
                adjacency[b].add(a)
            if a not in enabled or b not in enabled:
                continue
            component_a = component_of[a]
            component_b = component_of[b]
            if component_a is component_b:
                continue
            if len(component_a.members) == 1 and len(component_b.members) == 1:
                changed = True
                key = (a, b) if a < b else (b, a)
                # _pair() inlined: this runs once per merged edge on the
                # hottest delta path, and the method call costs as much as
                # the lookup.  Keep in sync with _pair().
                pair = pairs_cache.get(key)
                if pair is None:
                    pair = factory(key)
                    if len(pairs_cache) < pair_cap:
                        pairs_cache[key] = pair
                low = key[0]
                high = key[1]
                min_slot[low] = pair
                min_slot[high] = None
                present[high] = 0
                multi_mins.add(low)
                component_of[a] = pair
                component_of[b] = pair
            else:
                pending.append((a, b))

        # -- unions (union by size, deferred materialization) -------------
        # Roots accumulate member lists; each absorbed component's members
        # move exactly once per merge, and the final sorted tuple is built
        # once per merged component, so a cascade of unions costs
        # O(total · log) rather than quadratic re-tupling.
        if pending:
            parent: dict[int, object] = {}
            merged_members: dict[int, list[int]] = {}

            def find(component):
                key = component.members[0]
                root = parent.get(key)
                if root is None:
                    return component
                while True:
                    next_root = parent.get(root.members[0])
                    if next_root is None:
                        break
                    root = next_root
                parent[key] = root
                return root

            touched: list = []
            for a, b in pending:
                root_a = find(component_of[a])
                root_b = find(component_of[b])
                if root_a is root_b:
                    continue
                changed = True
                key_a, key_b = root_a.members[0], root_b.members[0]
                list_a = merged_members.get(key_a)
                list_b = merged_members.get(key_b)
                size_a = len(list_a) if list_a is not None else len(root_a.members)
                size_b = len(list_b) if list_b is not None else len(root_b.members)
                if size_a < size_b:
                    root_a, root_b = root_b, root_a
                    key_a, key_b = key_b, key_a
                    list_a, list_b = list_b, list_a
                if list_a is None:
                    list_a = list(root_a.members)
                    touched.append(root_a)
                list_a.extend(list_b if list_b is not None else root_b.members)
                if list_b is not None:
                    del merged_members[key_b]
                else:
                    touched.append(root_b)
                merged_members[key_a] = list_a
                parent[key_b] = root_a

            if merged_members:
                for component in touched:
                    key = component.members[0]
                    min_slot[key] = None
                    present[key] = 0
                    multi_mins.discard(key)
                for members_list in merged_members.values():
                    members_list.sort()
                    member_tuple = tuple(members_list)
                    key = member_tuple[0]
                    component = (
                        self._pair(member_tuple)
                        if len(member_tuple) == 2
                        else factory(member_tuple)
                    )
                    min_slot[key] = component
                    present[key] = 1
                    multi_mins.add(key)
                    for member in member_tuple:
                        component_of[member] = component

        if changed:
            self._invalidate_round_views()
