"""Results of simulation runs.

A :class:`SimulationResult` packages everything a test, example or
benchmark needs to know about one run: whether and when the computation
converged, the final agent states, the full trace of agent-state multisets
(for temporal-logic checking), the trajectory of the objective function,
and counters describing how much communication the environment actually
allowed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Hashable, Mapping, Sequence

from ..core.multiset import Multiset
from ..temporal.trace import CountedTrace, Trace

__all__ = ["SimulationResult"]


def jsonify(value: Any) -> Any:
    """Coerce a simulation value (state, output, objective) to JSON-safe data.

    Tuples and sets become lists (sets sorted by repr for determinism),
    exact rationals become ``"p/q"`` strings, dataclass states (points,
    hull states) become dictionaries of their compared fields — a field
    declared ``compare=False`` is not part of the value, so two equal
    dataclasses serialize alike.  Anything else unknown falls back to
    ``repr`` so serialization never fails — batch results must always be
    persistable.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonify(item) for item in value), key=repr)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
    return repr(value)


class RestoredRecord(Mapping):
    """A serialized dataclass state, restored as a hashable mapping.

    :func:`jsonify` writes a dataclass state (a point, a hull state) as a
    dictionary of its compared fields.  Restored states must stay
    hashable, so they form a :class:`Multiset`, and must serialize back to
    the same dictionary, so a restored result round-trips.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Mapping[str, Any]):
        self._fields = dict(fields)

    def __getitem__(self, key: str) -> Any:
        return self._fields[key]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __hash__(self) -> int:
        return hash(frozenset(self._fields.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RestoredRecord({self._fields!r})"


def _restore_state(value: Any) -> Any:
    """Undo the hashable-to-JSON coercion of :func:`jsonify` on agent states.

    Agent states are hashable, so any list in serialized state data must
    have been a tuple, and any dictionary a dataclass (restored as a
    :class:`RestoredRecord`).  Rational strings are left as-is — they are
    hashable and only used for content comparisons."""
    if isinstance(value, list):
        return tuple(_restore_state(item) for item in value)
    if isinstance(value, dict):
        return RestoredRecord(
            {key: _restore_state(item) for key, item in value.items()}
        )
    return value


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    converged:
        True when the agents reached the target multiset ``S* = f(S(0))``
        within the allotted rounds.
    convergence_round:
        The first round at the end of which the agents were at ``S*``
        (None when the run did not converge).
    rounds_executed:
        Total number of rounds simulated.
    final_states:
        The agent states at the end of the run, indexed by agent id.
    output:
        The algorithm's answer extracted from the final states (e.g. the
        minimum value, the sum, the sorted array, the hull).
    expected_output:
        The answer the algorithm *should* produce, computed directly from
        the initial values via ``f``; equal to ``output`` whenever the run
        converged.
    trace:
        Trace of agent-state multisets, one entry per round boundary
        (including the initial state), for temporal-logic checks.
    objective_trajectory:
        Value of the objective ``h`` at each round boundary.
    group_steps:
        Total number of group steps scheduled.
    improving_steps:
        How many of those steps strictly decreased the objective.
    stutter_steps:
        How many left the group state unchanged (no useful work possible).
    invalid_steps:
        Steps rejected because they broke conservation or failed to
        improve (only possible when enforcement is off).
    largest_group:
        The largest group size ever scheduled (a measure of how much
        collaboration the environment permitted).
    probes:
        Payloads of the observation probes attached to the run, keyed by
        probe name (empty when the run carried no payload-producing
        probes).  See :mod:`repro.simulation.protocol`.
    """

    converged: bool
    convergence_round: int | None
    rounds_executed: int
    final_states: list[Hashable]
    output: Any
    expected_output: Any
    trace: Trace[Multiset]
    objective_trajectory: list[float]
    group_steps: int = 0
    improving_steps: int = 0
    stutter_steps: int = 0
    invalid_steps: int = 0
    largest_group: int = 0
    probes: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    @property
    def final_multiset(self) -> Multiset:
        """The final agent states as a multiset."""
        return Multiset(self.final_states)

    @property
    def correct(self) -> bool:
        """True when the extracted output matches the expected output."""
        return self.output == self.expected_output

    def summary(self) -> str:
        """Return a one-line human-readable summary of the run."""
        status = (
            f"converged at round {self.convergence_round}"
            if self.converged
            else f"did not converge in {self.rounds_executed} rounds"
        )
        return (
            f"{status}; {self.group_steps} group steps "
            f"({self.improving_steps} improving, {self.stutter_steps} stutters, "
            f"{self.invalid_steps} invalid); largest group {self.largest_group}"
        )

    # -- serialization ---------------------------------------------------------

    def to_dict(self, include_trajectory: bool = False) -> dict:
        """A JSON-safe mirror of the result, for persistence and comparison.

        The trace is summarized (length and completeness) rather than
        serialized: traces exist for in-process temporal-logic checking
        and can hold thousands of multisets.  The objective trajectory is
        likewise summarized to its endpoints unless ``include_trajectory``
        asks for the full series.
        """
        data = {
            "converged": self.converged,
            "convergence_round": self.convergence_round,
            "rounds_executed": self.rounds_executed,
            "final_states": jsonify(self.final_states),
            "output": jsonify(self.output),
            "expected_output": jsonify(self.expected_output),
            "correct": self.correct,
            "trace": {"length": len(self.trace), "complete": self.trace.complete},
            "objective_initial": jsonify(
                self.objective_trajectory[0] if self.objective_trajectory else None
            ),
            "objective_final": jsonify(
                self.objective_trajectory[-1] if self.objective_trajectory else None
            ),
            "group_steps": self.group_steps,
            "improving_steps": self.improving_steps,
            "stutter_steps": self.stutter_steps,
            "invalid_steps": self.invalid_steps,
            "largest_group": self.largest_group,
            "metadata": jsonify(dict(self.metadata)),
        }
        if self.probes:
            # Only emitted when probes produced payloads, so serialized
            # results of probe-less runs are unchanged across versions.
            data["probes"] = jsonify(dict(self.probes))
        if include_trajectory:
            data["objective_trajectory"] = jsonify(list(self.objective_trajectory))
        return data

    def to_json(self, indent: int | None = None, include_trajectory: bool = False) -> str:
        """Serialize :meth:`to_dict` to JSON text."""
        return json.dumps(self.to_dict(include_trajectory=include_trajectory),
                          indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        The reconstruction is faithful for everything :meth:`to_dict`
        kept, so ``from_dict(data).to_dict() == data``: counters,
        convergence data, outputs (in their serialized form) and final
        states (tuples and dataclass records restored).  Per-round
        multisets are intentionally not persisted, so the trace comes back
        as a :class:`~repro.temporal.trace.CountedTrace` of the recorded
        length and completeness — or, for a one-state trace, as the final
        multiset itself, which is then its only state.
        """
        final_states = [_restore_state(state) for state in data["final_states"]]
        trace_info = data.get("trace", {})
        length = trace_info.get("length", 1)
        complete = bool(trace_info.get("complete", False))
        if length == 1:
            trace: Trace[Multiset] = Trace([Multiset(final_states)], complete=complete)
        else:
            trace = CountedTrace(length, complete=complete)
        trajectory = data.get(
            "objective_trajectory",
            [data.get("objective_initial"), data.get("objective_final")],
        )
        return cls(
            converged=data["converged"],
            convergence_round=data["convergence_round"],
            rounds_executed=data["rounds_executed"],
            final_states=final_states,
            output=data["output"],
            expected_output=data["expected_output"],
            trace=trace,
            objective_trajectory=list(trajectory),
            group_steps=data.get("group_steps", 0),
            improving_steps=data.get("improving_steps", 0),
            stutter_steps=data.get("stutter_steps", 0),
            invalid_steps=data.get("invalid_steps", 0),
            largest_group=data.get("largest_group", 0),
            probes=dict(data.get("probes", {})),
            metadata=dict(data.get("metadata", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        """Parse a result from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))
