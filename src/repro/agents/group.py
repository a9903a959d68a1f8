"""Groups of communicating agents.

In each environment state the enabled agents split into *groups* — the
connected components of the available communication graph.  A group is the
unit of computation: the paper's transition relation lets every group of a
partition take one collaborative step, and self-similarity means the same
step rule serves groups of every size (including singletons, whose only
``f``-conserving, ``h``-decreasing option is usually to stutter).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Sequence

from ..core.multiset import Multiset

__all__ = ["Group", "install_states"]


def install_states(
    members: Sequence[int], states: list[Hashable], new_states: Sequence[Hashable]
) -> tuple[list[Hashable], list[Hashable]]:
    """Write the new states of the agents ``members`` into the agent-state list.

    Returns the ``(removed, added)`` state delta: the old and the new
    state of every member whose state actually changed, aligned by
    position; only those entries of ``states`` are written.  The
    simulator folds this delta into its maintained round multiset, so
    a round's bookkeeping costs O(|delta|) rather than O(num_agents);
    ``len(removed)`` is the changed-agent count.
    """
    removed: list[Hashable] = []
    added: list[Hashable] = []
    for agent_id, new_state in zip(members, new_states):
        old_state = states[agent_id]
        if new_state != old_state:
            states[agent_id] = new_state
            removed.append(old_state)
            added.append(new_state)
    return removed, added


class Group:
    """An ordered group of agent ids (order fixes how step rules see states).

    A plain slotted class rather than a dataclass: schedulers build one
    ``Group`` per connected component per round (tens of thousands per
    second at large n), so construction cost matters.  Value semantics
    (equality, hashing) follow the ``members`` tuple, as before.
    """

    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]):
        self.members = members

    @classmethod
    def of(cls, members: Iterable[int]) -> "Group":
        """Build a group from any iterable of agent ids (sorted for determinism)."""
        return cls(tuple(sorted(members)))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Group):
            return self.members == other.members
        return NotImplemented

    def __hash__(self) -> int:
        return hash((Group, self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, agent_id: int) -> bool:
        return agent_id in self.members

    @property
    def is_singleton(self) -> bool:
        """True when the group contains exactly one agent."""
        return len(self.members) == 1

    def states_of(self, states: Sequence[Hashable]) -> list[Hashable]:
        """Return the members' states, in member order."""
        return [states[agent_id] for agent_id in self.members]

    def state_multiset(self, states: Sequence[Hashable]) -> Multiset:
        """Return the group state ``S_B`` as a multiset."""
        return Multiset(self.states_of(states))

    def install(
        self, states: list[Hashable], new_states: Sequence[Hashable]
    ) -> tuple[list[Hashable], list[Hashable]]:
        """Write new states back into the agent-state list and return the
        ``(removed, added)`` delta (:func:`install_states`)."""
        return install_states(self.members, states, new_states)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Group({list(self.members)})"
