"""Computation traces.

The paper specifies algorithms with linear-time temporal logic over
*computations* — sequences of system states ``(G, S)`` starting from an
initial state.  A simulation produces a finite prefix of such a computation;
this module provides the :class:`Trace` container that temporal formulas in
:mod:`repro.temporal.formulas` are evaluated against.

A trace stores arbitrary state objects.  Formulas receive a state and return
a truth value, so the same machinery checks properties of plain agent-state
multisets, of full ``(G, S)`` pairs, or of rich simulation snapshots.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from ..core.errors import VerificationError

State = TypeVar("State")

__all__ = ["Trace", "CountedTrace"]


class Trace(Generic[State]):
    """A finite sequence of states observed during one computation.

    Parameters
    ----------
    states:
        The successive states, in order.  The first element is the initial
        state of the computation.
    complete:
        True when the computation is known to have reached a point after
        which the agent state can no longer change (e.g. the simulator
        detected a fixpoint and every later state would repeat the last
        one).  Liveness formulas (``eventually``, ``leads_to``) are only
        conclusive on complete traces; on incomplete traces they report
        what the observed prefix supports.
    """

    def __init__(self, states: Iterable[State] = (), complete: bool = False):
        self._states: list[State] = list(states)
        self.complete = complete

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[State]:
        return iter(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._states[index], complete=self.complete and
                         (index.stop is None or index.stop >= len(self._states)))
        return self._states[index]

    def __bool__(self) -> bool:
        return bool(self._states)

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self._states == other._states and self.complete == other.complete
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "complete" if self.complete else "prefix"
        return f"Trace(length={len(self._states)}, {suffix})"

    # -- construction ---------------------------------------------------------

    def append(self, state: State) -> None:
        """Append a state observed after the current last state."""
        self._states.append(state)

    def mark_complete(self) -> None:
        """Declare that the trace has reached a terminal fixpoint."""
        self.complete = True

    @property
    def states(self) -> Sequence[State]:
        """The underlying list of states (read-only view by convention)."""
        return self._states

    @property
    def initial(self) -> State:
        """The initial state of the computation."""
        if not self._states:
            raise IndexError("empty trace has no initial state")
        return self._states[0]

    @property
    def final(self) -> State:
        """The last observed state."""
        if not self._states:
            raise IndexError("empty trace has no final state")
        return self._states[-1]

    def suffix(self, start: int) -> "Trace[State]":
        """Return the suffix trace starting at position ``start``."""
        return Trace(self._states[start:], complete=self.complete)

    def map(self, projection: Callable[[State], object]) -> "Trace":
        """Return a new trace whose states are ``projection`` of this one's."""
        return Trace((projection(state) for state in self._states),
                     complete=self.complete)

    def pairs(self) -> Iterator[tuple[State, State]]:
        """Iterate over consecutive ``(state, next_state)`` pairs."""
        for index in range(len(self._states) - 1):
            yield self._states[index], self._states[index + 1]

    def stutter_free(self) -> "Trace[State]":
        """Return the trace with consecutive duplicate states collapsed."""
        collapsed: list[State] = []
        for state in self._states:
            if not collapsed or collapsed[-1] != state:
                collapsed.append(state)
        return Trace(collapsed, complete=self.complete)


class CountedTrace(Trace):
    """A trace that kept its length and completeness flag, not its states.

    Runs whose result leaves the process as a dictionary
    (:meth:`~repro.simulation.result.SimulationResult.to_dict` keeps only
    ``{"length", "complete"}`` of the trace) count their states instead of
    retaining them: batch units, the service, ``repro run`` without
    ``--verbose``, ``repro resume`` and
    :meth:`~repro.simulation.result.SimulationResult.from_dict`.
    ``len``, ``bool``, ``complete`` and ``==`` work as on any trace.
    Reading a state — iterating, indexing, ``initial``/``final``, or a
    temporal check such as ``check_specification`` — raises
    :class:`~repro.core.errors.VerificationError` rather than answering
    from states that were never kept.
    """

    def __init__(self, length: int, complete: bool = False):
        if length < 0:
            raise ValueError(f"a trace length is never negative, got {length!r}")
        self._length = length
        self.complete = complete

    @property
    def _states(self):
        # Every state-reading method of Trace goes through ``_states``, so
        # refusing here makes all of them (present and future) raise.
        raise VerificationError(
            f"this trace was counted, not recorded: it kept its length "
            f"({self._length}) and completeness, but no states, because the "
            "run's result was produced as a dictionary (a batch or service "
            "unit, repro run without --verbose, repro resume, or "
            "SimulationResult.from_dict); run it in-process with "
            "spec.run(seed) for a trace whose states can be checked"
        )

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __eq__(self, other) -> bool:
        if isinstance(other, CountedTrace):
            return self._length == other._length and self.complete == other.complete
        if isinstance(other, Trace):
            # Python asks the subclass first, so this also answers
            # ``trace == counted`` without reading the missing states.
            return False
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = "complete" if self.complete else "prefix"
        return f"CountedTrace(length={self._length}, {suffix})"
