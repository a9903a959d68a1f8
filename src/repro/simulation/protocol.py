"""The unified simulation surface: the ``Engine`` base class and the probe pipeline.

The paper specifies its self-similar algorithms by temporal-logic
properties over *computations* — streams of states — and this module gives
the library the matching execution shape.  Every execution backend (the
synchronous group-step :class:`~repro.simulation.engine.Simulator`, the
numpy :class:`~repro.simulation.array_engine.ArrayEngine`, the
asynchronous :class:`~repro.simulation.messaging.MergeMessagePassingSimulator`)
subclasses one :class:`Engine`, which owns the run lifecycle — seeding, the
lazy, resumable :meth:`Engine.steps` generator yielding one
:class:`RoundRecord` per round, :meth:`Engine.run`, checkpoint and restore
— while each backend supplies only its round and a handful of snapshot
hooks.  One shared driver, :func:`run_engine`, carries the single
stopping policy (``max_rounds``, ``stop_at_convergence``,
``extra_rounds_after_convergence``, ``on_round``) for every engine, so
execution backends differ only in *how a round runs*, never in how runs
stop or what a :class:`SimulationResult` contains.

Observation is not wired into the engines at all.  It is a pipeline of
:class:`Probe` objects — ``on_start(engine)``, ``on_round(record)``,
``on_finish() -> payload`` — attached per run.  The driver owns exactly one
:class:`HistoryProbe` (supplied or implicit), whose ``history`` mode
decides what a run *retains* (:func:`resolve_history` is the one rule that
turns a spec's retention settings into that mode):

``"full"``
    every round's multiset and objective value (the default; preserves the
    classic, byte-identical :class:`SimulationResult` with its full trace);
``"objective"``
    the objective trajectory only — the trace keeps just the final state;
``"none"``
    O(1) memory: no per-round multisets, no trajectory list — only the
    endpoints of the objective and the run counters survive.

A run whose result leaves the process as a dictionary
(``run_engine(count_trace=True)``, which batch units, the service and
``repro resume`` use) keeps a *counted* ``"full"`` trace: its length and
completeness, plus the objective endpoints — everything
:meth:`SimulationResult.to_dict` emits, and nothing more.  Its checkpoints
carry a count instead of every retained multiset.  In-process runs
(``Simulator.run``, ``spec.run``, ``repro run --verbose``) keep the states.

Any other probe streams alongside: online temporal-logic checking, running
statistics, JSONL export — all without the engine materialising state it
does not need.  A 10M-round run with ``history="none"`` holds one
maintained multiset, not 10M of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from ..agents.group import Group
from ..core.errors import SimulationError, SpecificationError
from ..core.multiset import Multiset
from ..core.relation import STUTTER_JUDGEMENT, StepJudgement
from ..temporal.trace import CountedTrace, Trace
from .checkpoint import (
    DriverState,
    EngineCheckpoint,
    RoundState,
    RunCheckpoint,
    decode_rng_state,
    decode_state,
    encode_rng_state,
    encode_state,
    engine_checkpoint_of,
)
from .result import SimulationResult

if TYPE_CHECKING:
    from ..core.algorithm import SelfSimilarAlgorithm
    from ..environment.base import Environment, EnvironmentState

__all__ = [
    "HISTORY_MODES",
    "RoundRecord",
    "Engine",
    "Probe",
    "HistoryProbe",
    "RunContext",
    "resolve_history",
    "run_engine",
]

#: Retention modes of the run driver / :class:`HistoryProbe`.
HISTORY_MODES = ("full", "objective", "none")


def resolve_history(
    record_trace: bool = True, history: str | None = None, pinned: str | None = None
) -> str:
    """The retention mode a run uses: the one rule for its three knobs.

    A history probe's ``pinned`` mode wins (the probe takes over
    retention in the driver), then an explicit ``history``, then the
    spec's ``record_trace`` field (True → ``"full"``, False →
    ``"objective"``).
    """
    if pinned is not None:
        return pinned
    if history is not None:
        return history
    return "full" if record_trace else "objective"


class RoundRecord:
    """What one simulated round did — the unit of the streaming API.

    Attributes
    ----------
    round_index:
        The round that was executed (0-based, matches the index the
        environment's :meth:`advance` received).
    multiset:
        The agent-state multiset *after* the round, computed exactly once
        per round and shared with the trace.
    objective:
        Value of the objective ``h`` on that multiset.
    converged:
        True when the multiset equals the target ``S* = f(S(0))``.
    groups:
        The non-empty groups that took a step this round, in execution
        order (for message-passing engines: the ``{receiver, sender}``
        pair of every applied one-sided merge).
    judgements:
        The relation ``D``'s verdict for each group step, aligned with
        ``groups``.
    group_steps:
        Number of group steps executed this round (``len(groups)``).
    improving_steps:
        Group steps that strictly decreased the objective.
    stutter_steps:
        Group steps that left their group's state unchanged.
    invalid_steps:
        Steps that violated ``D`` (possible only with enforcement off).
    largest_group:
        Size of the largest group scheduled this round (0 when none).

    ``groups`` and ``judgements`` are tuples built on first read, so a
    round no one inspects builds neither: the engine hands over any
    sequence of groups (the reference engine passes the state's
    :class:`~repro.environment.base.ComponentPartition` itself), and
    either the aligned judgements or a mapping from position to
    judgement holding only the steps that did not stutter — every other
    position is a stutter.  The engine counts the four step totals while
    it executes the round; they always agree with a scan of
    ``judgements`` and ``groups``, which ``Simulator(cross_check=True)``
    re-derives every round.
    """

    __slots__ = (
        "round_index",
        "multiset",
        "objective",
        "converged",
        "group_steps",
        "improving_steps",
        "stutter_steps",
        "invalid_steps",
        "largest_group",
        "_groups",
        "_judgements",
    )

    def __init__(
        self,
        round_index: int,
        multiset: Multiset,
        objective: float,
        converged: bool,
        groups: Sequence[Group],
        judgements: Sequence[StepJudgement] | Mapping[int, StepJudgement],
        improving_steps: int,
        stutter_steps: int,
        invalid_steps: int,
        largest_group: int,
    ):
        self.round_index = round_index
        self.multiset = multiset
        self.objective = objective
        self.converged = converged
        self.group_steps = len(groups)
        self.improving_steps = improving_steps
        self.stutter_steps = stutter_steps
        self.invalid_steps = invalid_steps
        self.largest_group = largest_group
        self._groups = groups
        self._judgements = judgements

    @property
    def groups(self) -> tuple[Group, ...]:
        groups = self._groups
        if type(groups) is not tuple:
            groups = self._groups = tuple(groups)
        return groups

    @property
    def judgements(self) -> tuple[StepJudgement, ...]:
        judgements = self._judgements
        if type(judgements) is not tuple:
            if isinstance(judgements, Mapping):
                aligned = [STUTTER_JUDGEMENT] * self.group_steps
                for position, judgement in judgements.items():
                    aligned[position] = judgement
                judgements = aligned
            judgements = self._judgements = tuple(judgements)
        return judgements

    #: The fields equality and ``repr`` read, in constructor order.
    _FIELDS = (
        "round_index",
        "multiset",
        "objective",
        "converged",
        "groups",
        "judgements",
        "improving_steps",
        "stutter_steps",
        "invalid_steps",
        "largest_group",
    )

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._FIELDS
        )

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"RoundRecord({fields})"


class Engine:
    """The base class of every execution backend :func:`run_engine` drives.

    It holds the whole run lifecycle once: the construction preamble (the
    initial-value count check and the effective seed), the lazily
    resumable round stream :meth:`steps`, :meth:`run`, and the checkpoint
    identity and common state (kind, seed, agent count, RNG, round
    index, environment, objective).  Everything about stopping,
    observing and retaining lives in the driver and the probes.  A
    subclass supplies only how one round executes and the snapshot
    hooks the driver reads, so a new backend (an event-driven runtime, a
    remote shard) is a new ``Engine`` subclass — never a new ``run()``.

    A subclass implements :meth:`_execute_round` (and
    :meth:`finish_metadata`, if it has no ``scheduler``); it sets
    ``_target`` (the multiset ``S*``) and ``_state`` (its
    :class:`~repro.simulation.checkpoint.RoundState`) at construction.
    The state hooks (:meth:`initial_snapshot`, :meth:`current_states`,
    :meth:`current_multiset`, :meth:`has_converged`, :meth:`reset` and the
    engine's halves of the checkpoint, :meth:`_checkpoint_agents` and
    :meth:`_restore_agents`) default to a *list-state* engine: one that
    keeps the agent states in the list ``states``, indexed by agent id,
    and their starting values in ``_initial_states``
    (:meth:`_start_list_state` builds them).  A subclass extends them only
    with what it keeps beside the states; the array engine replaces them
    with its numpy forms.
    """

    #: ``EngineCheckpoint.engine`` of this engine's checkpoints; a
    #: checkpoint restores only into an engine of the same kind.
    checkpoint_kind = ""

    #: Lower bound of the result's ``largest_group``, for engines whose
    #: execution style fixes the collaboration width.
    largest_group_floor = 0

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        environment: Environment,
        initial_values: Sequence[Any],
        seed: int | None,
    ):
        if len(initial_values) != environment.num_agents:
            raise SimulationError(
                f"{len(initial_values)} initial values supplied for "
                f"{environment.num_agents} agents"
            )
        if seed is None:
            # Draw the effective seed explicitly so the run stays
            # reproducible: the result metadata records this value.
            seed = random.randrange(2**63)
        self.algorithm = algorithm
        self.environment = environment
        self.seed = seed
        self.initial_values = list(initial_values)
        # The environment state the engine last observed: the base its
        # next state is diffed against (None after reset or restore).
        self._previous_environment_state: EnvironmentState | None = None

    # -- what every engine shares ------------------------------------------------

    @property
    def target(self) -> Multiset:
        """The multiset ``S* = f(S(0))`` the agents must reach and keep."""
        return self._target

    @property
    def round_index(self) -> int:
        """Index of the next round :meth:`steps` will execute."""
        return self._state.round_index

    def steps(self, max_rounds: int | None = None) -> Iterator[RoundRecord]:
        """Stream the computation, one :class:`RoundRecord` per round.

        The generator executes rounds lazily: nothing runs until a record
        is pulled, and abandoning the iterator pauses the engine with no
        loose state — calling :meth:`steps` again resumes from the next
        round.  ``max_rounds`` bounds how many rounds *this* iterator will
        execute; None streams indefinitely (the caller decides when to
        stop, e.g. on :attr:`RoundRecord.converged`).

        A round that *raises* (an enforcement violation, say) keeps the
        group steps applied before the failure — the maintained round
        state stays consistent with the agent states — but the aborted
        attempt's RNG draws and counters are not rolled back: pulling the
        stream again re-executes the same round index as a fresh round
        from the current RNG state.
        """
        state = self._state
        executed = 0
        while max_rounds is None or executed < max_rounds:
            record = self._execute_round(state.round_index)
            state.round_index += 1
            executed += 1
            yield record

    def run(self, *args: Any, **kwargs: Any) -> SimulationResult:
        """Run the engine and return a :class:`SimulationResult`.

        This is :func:`run_engine` on this engine; see its docstring for
        the parameters (``max_rounds``, ``stop_at_convergence``,
        ``extra_rounds_after_convergence``, ``on_round``, ``probes``,
        ``history``, ``resume_from``, ``count_trace``).
        """
        return run_engine(self, *args, **kwargs)

    def trace_complete(self, converged: bool, stopped_by_callback: bool) -> bool:
        """Whether the observed prefix determines the whole computation.

        Once at ``S* = f(S*)`` every further step is a stutter, provided
        the algorithm actually enforces ``D`` and the run was not cut
        short."""
        return converged and self.algorithm.enforce and not stopped_by_callback

    def checkpoint(self) -> EngineCheckpoint:
        """Serialize the run state at the current round boundary.

        Everything the continuation depends on is captured exactly: the
        RNG state, the maintained objective value (whose float summation
        history is not recomputable), the environment's own mutable state
        and the engine's agent states (:meth:`_checkpoint_agents`).
        Derived structure is rebuilt deterministically on restore.
        """
        state = self._state
        return EngineCheckpoint(
            engine=self.checkpoint_kind,
            seed=self.seed,
            round_index=state.round_index,
            rng_state=encode_rng_state(state.rng.getstate()),
            objective_value=encode_state(state.objective_value),
            environment=self.environment.state_dict(),
            **self._checkpoint_agents(),
        )

    def restore(self, checkpoint: EngineCheckpoint | RunCheckpoint | dict) -> None:
        """Restore a checkpoint into this (identically-constructed) engine.

        The continued run is byte-identical to the uninterrupted one: same
        random draws, same round records, same maintained objective.  The
        checkpoint must come from the same configuration — engine kind,
        seed and agent count are verified.
        """
        if isinstance(checkpoint, RunCheckpoint):
            checkpoint = checkpoint.engine
        checkpoint = engine_checkpoint_of(checkpoint)
        if checkpoint.engine != self.checkpoint_kind:
            raise SimulationError(
                f"cannot restore a {checkpoint.engine!r} checkpoint into "
                f"{type(self).__name__} (checkpoint kind "
                f"{self.checkpoint_kind!r})"
            )
        if checkpoint.seed != self.seed:
            raise SimulationError(
                f"checkpoint was taken under seed {checkpoint.seed}, but "
                f"this engine runs seed {self.seed}; restore requires an "
                "identically-constructed engine"
            )
        num_agents = self.environment.num_agents
        if len(checkpoint.agent_states) != num_agents:
            raise SimulationError(
                f"checkpoint holds {len(checkpoint.agent_states)} agent "
                f"states for {num_agents} agents"
            )
        state = self._state
        state.rng.setstate(decode_rng_state(checkpoint.rng_state))
        state.round_index = checkpoint.round_index
        self.environment.load_state(checkpoint.environment)
        self._restore_agents(checkpoint)
        state.objective_value = decode_state(checkpoint.objective_value)

    def _advance_environment(self, round_index: int) -> EnvironmentState:
        """One environment transition.  A quiet round's state — one
        :meth:`~EnvironmentState.unchanged_from` the state this engine
        last observed — adopts that state's memoized views (effective
        edges, labelling, groups) instead of recomputing them."""
        environment_state = self.environment.advance(round_index, self._state.rng)
        previous = self._previous_environment_state
        self._previous_environment_state = environment_state
        if previous is not None and environment_state.unchanged_from(previous):
            environment_state._adopt_view_memos(previous)
        return environment_state

    # -- what each engine implements ---------------------------------------------

    def _execute_round(self, round_index: int) -> RoundRecord:
        """Execute round ``round_index`` and record what it did."""
        raise NotImplementedError

    def finish_metadata(self) -> dict:
        """Run metadata recorded on the result, read at run end so engine
        counters are final; the default is a scheduled engine's."""
        return {
            "algorithm": self.algorithm.name,
            "environment": self.environment.describe(),
            "scheduler": self.scheduler.describe(),
            "num_agents": self.environment.num_agents,
            "seed": self.seed,
        }

    # -- the list-state hooks ------------------------------------------------------

    def _start_list_state(self) -> None:
        """Build a list-state engine's ``states``, ``_initial_states``,
        target ``S*`` and :class:`RoundState` (objective not yet priced)."""
        #: The agent states, indexed by agent id.
        self.states: list = self.algorithm.initial_states(self.initial_values)
        self._initial_states = list(self.states)
        self._target = self.algorithm.target(self.states)
        self._state = RoundState(self.seed, self.states)

    def initial_snapshot(self) -> tuple[Multiset, float]:
        """The pre-run ``(multiset, objective)`` pair: the maintained bag
        and its objective, priced once so the first round starts from it."""
        state = self._state
        if state.objective_value is None:
            state.objective_value = self.algorithm.objective(state.maintained)
        return state.maintained, state.objective_value

    def current_states(self) -> list:
        """The current agent states, indexed by agent id."""
        return list(self.states)

    def current_multiset(self) -> Multiset:
        """The current agent states as a multiset, built from ``states``."""
        return Multiset(self.states)

    def has_converged(self) -> bool:
        """True when the agents currently form the target multiset.

        Deliberately rebuilt from ``states`` rather than answered from the
        maintained round state, so the query stays truthful even if a
        caller mutated ``states`` directly between rounds.  Per-round
        convergence checks inside :meth:`steps` compare the maintained
        bag instead.
        """
        return Multiset(self.states) == self._target

    def reset(self) -> None:
        """Restore the initial configuration (same seed, same initial values)."""
        self.states = list(self._initial_states)
        self._state.reset(self.seed, self.states)
        self.environment.reset()
        self._previous_environment_state = None

    def _checkpoint_agents(self) -> dict:
        """The engine's own :class:`EngineCheckpoint` fields: the encoded
        ``agent_states`` (the maintained multiset is rebuilt on restore)."""
        return {"agent_states": [encode_state(state) for state in self.states]}

    def _restore_agents(self, checkpoint: EngineCheckpoint) -> None:
        """Install the checkpoint's agent states and rebuild what derives
        from them; :meth:`restore` has verified the checkpoint and
        restored the RNG, round index and environment, and restores the
        objective value afterwards."""
        self.states = [decode_state(encoded) for encoded in checkpoint.agent_states]
        self._state.maintained = Multiset(self.states)
        self._previous_environment_state = None


@dataclass
class RunContext:
    """What the driver exposes to probes that observe the *run*, not just
    its records.

    ``progress`` is the driver's live :class:`DriverState` (mutated in
    place as the run advances); ``observers`` is the full probe pipeline
    in driver order.  :meth:`checkpoint` snapshots everything into a
    :class:`RunCheckpoint` — the engine's serialized state, a copy of the
    driver state, and every probe's ``state_dict()`` — which is how
    :class:`~repro.simulation.probes.CheckpointProbe` writes a resumable
    run without the driver knowing anything about files or cadence.
    """

    engine: Engine
    observers: tuple["Probe", ...]
    progress: DriverState
    policy: dict

    def checkpoint(self) -> RunCheckpoint:
        return RunCheckpoint(
            engine=self.engine.checkpoint(),
            driver=self.progress.copy(),
            probe_states=[
                {"name": probe.name, "state": probe.state_dict()}
                for probe in self.observers
            ],
            policy=dict(self.policy),
        )


class Probe:
    """Base class of the observation pipeline.

    A probe is attached to one run: the driver calls :meth:`on_start` with
    the engine, :meth:`on_initial` with the pre-run snapshot,
    :meth:`on_round` with every :class:`RoundRecord`, :meth:`on_complete`
    once the driver knows whether the observed prefix is a complete
    computation, and finally :meth:`on_finish`, whose non-None return value
    is published under :attr:`name` in ``SimulationResult.probes``.

    All hooks default to no-ops so concrete probes override only what they
    observe.  Probes must not mutate the engine or the records.
    """

    #: Key under which the probe's payload appears in ``result.probes``.
    name = "probe"

    def on_attach(self, context: RunContext) -> None:
        """The driver is about to run; ``context`` stays valid for the
        whole run.  Most probes ignore it — only run-level observers
        (checkpointing) need the engine, the pipeline and the live
        driver state."""

    def on_start(self, engine: Engine) -> None:
        """A run is beginning on ``engine``; reset per-run state here."""

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        """Observe the initial state (the trace position before round 0)."""

    def on_round(self, record: RoundRecord) -> None:
        """Observe one executed round."""

    def on_round_end(self, record: RoundRecord) -> None:
        """Called after *every* observer's :meth:`on_round` for the round.

        This is the checkpoint-safe position: all probe state already
        reflects the round, so a snapshot taken here resumes cleanly.
        The driver skips the second dispatch pass entirely when no
        attached probe overrides this hook."""

    def on_stream_end(self) -> None:
        """The driver's round loop has ended normally; :meth:`on_complete`
        has *not* run yet for any probe.

        This is where a final run snapshot belongs: completion hooks fold
        irreversible effects into probe state (a stats probe counts the
        finished run, a sink emits its closing line), so a checkpoint
        taken any later would replay them on resume.  Only run-level
        observers override this."""

    def state_dict(self) -> dict | None:
        """The probe's resumable state as JSON-safe data (None = stateless).

        Everything a resumed run needs to finish with a byte-identical
        payload must be here; derived caches and live resources (open
        files, engine references) must not."""
        return None

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (no-op for stateless probes)."""

    def on_resume(self, engine: Engine, state: dict | None) -> None:
        """A checkpointed run is resuming on ``engine``.

        The default start-then-load sequence fits probes whose per-run
        state is plain data; probes holding resources (streaming sinks)
        override it to reattach instead of starting fresh."""
        self.on_start(engine)
        if state is not None:
            self.load_state(state)

    def on_complete(self, complete: bool) -> None:
        """Learn whether the observed prefix is a complete computation
        (the final state is a fixpoint that would repeat forever)."""

    def on_finish(self) -> Any:
        """Return the probe's payload (None publishes nothing).

        Always called once :meth:`on_start` has run — also, best-effort,
        when setup or the run itself raises (the payload is then
        discarded), so resource-holding probes release their resources
        here.
        """
        return None


class HistoryProbe(Probe):
    """The retention probe: accumulates what the result keeps per round.

    This is the default (and only driver-internal) probe; its ``history``
    mode is the knob that turns the classic record-everything simulator
    into a bounded-memory streaming engine.  See module docstring for the
    three modes.

    ``counted`` makes ``"full"`` retention keep a
    :class:`~repro.temporal.trace.CountedTrace` and the objective
    endpoints instead of every multiset and the whole trajectory.  The
    driver sets it from ``run_engine(count_trace=...)``; loading a
    counted checkpoint sets it too, so retention follows the checkpoint.
    """

    name = "history"

    def __init__(self, history: str = "full"):
        if history not in HISTORY_MODES:
            raise SpecificationError(
                f"history must be one of {HISTORY_MODES}, got {history!r}"
            )
        self.history = history
        self.counted = False
        self._states: list[Multiset] = []
        self._trajectory: list[float] = []
        self._initial_objective: float | None = None
        self._final_objective: float | None = None
        self._rounds = 0
        self._retain()

    def _retain(self) -> None:
        """Derive what each observation keeps from the mode and ``counted``."""
        self._counting = self.counted and self.history == "full"
        self._keep_states = self.history == "full" and not self._counting
        self._keep_trajectory = self.history != "none" and not self._counting

    def on_start(self, engine: Engine) -> None:
        self._states = []
        self._trajectory = []
        self._initial_objective = None
        self._final_objective = None
        self._rounds = 0
        self._retain()

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        self._initial_objective = objective
        self._final_objective = objective
        if self._keep_states:
            self._states.append(multiset)
        if self._keep_trajectory:
            self._trajectory.append(objective)

    def on_round(self, record: RoundRecord) -> None:
        self._rounds += 1
        self._final_objective = record.objective
        if self._keep_states:
            self._states.append(record.multiset)
        if self._keep_trajectory:
            self._trajectory.append(record.objective)

    def state_dict(self) -> dict:
        # Retention is the probe's whole job, so its checkpoint *is* the
        # retained history.  A counted trace is its length — a full trace
        # holds the initial state plus one per observed round — so a
        # counted checkpoint stays the same size however long the run;
        # only an in-process "full" run writes every multiset.
        state: dict[str, Any] = {"history": self.history}
        if self._counting:
            state["length"] = self._rounds + 1
        else:
            state["states"] = [
                [encode_state(value) for value in multiset]
                for multiset in self._states
            ]
            state["trajectory"] = [encode_state(value) for value in self._trajectory]
        state["objective_initial"] = encode_state(self._initial_objective)
        state["objective_final"] = encode_state(self._final_objective)
        state["rounds"] = self._rounds
        return state

    def load_state(self, state: dict) -> None:
        if state.get("history") != self.history:
            raise SpecificationError(
                f"checkpoint retains history={state.get('history')!r} but "
                f"this run declares history={self.history!r}; resume with "
                "the retention mode the checkpoint was taken under"
            )
        if "length" in state:
            # A counted checkpoint has no states to restore: the resumed
            # run counts too.
            self.counted = True
            self._retain()
        if self._counting:
            # A checkpoint that recorded every state (written by an
            # in-process run, or before traces were counted) is counted
            # by its length; its trajectory is summarized to the
            # endpoints below.
            if "length" not in state and len(state["states"]) != state["rounds"] + 1:
                raise SpecificationError(
                    f"checkpoint history holds {len(state['states'])} states "
                    f"for {state['rounds']} rounds"
                )
            self._states = []
            self._trajectory = []
        else:
            self._states = [
                Multiset(decode_state(value) for value in elements)
                for elements in state["states"]
            ]
            self._trajectory = [decode_state(value) for value in state["trajectory"]]
        self._initial_objective = decode_state(state["objective_initial"])
        self._final_objective = decode_state(state["objective_final"])
        self._rounds = state["rounds"]

    def build_history(
        self, complete: bool, final_multiset: Multiset
    ) -> tuple[Trace[Multiset], list[float]]:
        """Assemble the result's trace and objective trajectory.

        In ``"full"`` mode the trace holds every observed multiset (or,
        counted, their number) and carries the completeness verdict; the
        reduced modes keep only the final state (never marked complete).  The
        trajectory is every objective value, except in ``"none"`` mode and
        counted ``"full"`` mode, which keep only its endpoints.
        """
        if self._counting:
            trace: Trace[Multiset] = CountedTrace(self._rounds + 1, complete=complete)
        elif self.history == "full":
            trace = Trace(self._states, complete=complete)
        else:
            trace = Trace([final_multiset])
        if self._keep_trajectory:
            return trace, self._trajectory
        trajectory = (
            [self._initial_objective] if self._initial_objective is not None else []
        )
        if self._rounds and self._final_objective is not None:
            trajectory.append(self._final_objective)
        return trace, trajectory

    def on_finish(self) -> dict:
        return {
            "history": self.history,
            "rounds_observed": self._rounds,
            "objective_initial": self._initial_objective,
            "objective_final": self._final_objective,
        }


def run_engine(
    engine: Engine,
    max_rounds: int = 1000,
    stop_at_convergence: bool = True,
    extra_rounds_after_convergence: int = 0,
    on_round: Callable[[RoundRecord], bool | None] | None = None,
    probes: Sequence[Probe] | None = None,
    history: str | None = None,
    resume_from: RunCheckpoint | None = None,
    count_trace: bool = False,
) -> SimulationResult:
    """Drive any :class:`Engine` to a :class:`SimulationResult`.

    This is the single ``run()`` implementation behind every engine
    (:meth:`Engine.run` forwards here): it pulls round records from
    :meth:`Engine.steps`, applies the stopping
    policy, feeds the probe pipeline, and assembles the result from the
    history probe plus the engine's final snapshot.

    Parameters
    ----------
    max_rounds:
        Upper bound on the number of rounds simulated.
    stop_at_convergence:
        When True (default), the run stops as soon as the agents reach the
        target multiset ``S*`` (plus ``extra_rounds_after_convergence``
        additional rounds, useful to confirm stability of the goal state).
    extra_rounds_after_convergence:
        Rounds to keep simulating after convergence when
        ``stop_at_convergence`` is set.
    on_round:
        Optional streaming callback invoked with every record; returning
        True stops the run early (an application-defined stop policy).
    probes:
        Observation pipeline for this run.  A supplied :class:`HistoryProbe`
        takes over retention; otherwise the driver creates one in
        ``history`` mode.
    history:
        Retention mode of the implicit history probe (ignored when the
        caller supplies a :class:`HistoryProbe`); None means ``"full"``.
    resume_from:
        A :class:`RunCheckpoint` to continue from instead of starting a
        fresh run.  The driver restores its engine state first
        (:meth:`Engine.restore`), and the probe pipeline must match the
        one the checkpoint was taken under — alignment is verified by
        probe name.  The completed result is byte-identical to the
        uninterrupted run's.  ``max_rounds`` and
        the rest of the stopping policy count from the *original* run
        start, so a resumed run executes exactly the rounds the
        interrupted one still had left.
    count_trace:
        Keep a counted trace under ``"full"`` retention (see
        :class:`HistoryProbe`), for callers that only keep
        :meth:`SimulationResult.to_dict`: the dictionary is byte-identical,
        and neither the run nor its checkpoints hold the multisets.
    """
    if resume_from is not None:
        engine.restore(resume_from)
    probe_list = list(probes or ())
    history_probe = next(
        (probe for probe in probe_list if isinstance(probe, HistoryProbe)), None
    )
    if history_probe is None:
        history_probe = HistoryProbe("full" if history is None else history)
    history_probe.counted = count_trace
    observers = [history_probe] + [p for p in probe_list if p is not history_probe]
    # The post-round pass exists only for run-level observers
    # (checkpointing); with none attached the per-round cost is one
    # truth test on an empty list.
    post_round = [
        probe
        for probe in observers
        if type(probe).on_round_end is not Probe.on_round_end
    ]
    stream_end = [
        probe
        for probe in observers
        if type(probe).on_stream_end is not Probe.on_stream_end
    ]

    records = None
    started: list[Probe] = []
    try:
        progress = DriverState()
        context = RunContext(
            engine=engine,
            observers=tuple(observers),
            progress=progress,
            policy={
                "max_rounds": max_rounds,
                "stop_at_convergence": stop_at_convergence,
                "extra_rounds_after_convergence": extra_rounds_after_convergence,
                "history": history_probe.history,
            },
        )
        for probe in observers:
            probe.on_attach(context)

        if resume_from is None:
            for probe in observers:
                probe.on_start(engine)
                started.append(probe)

            initial_multiset, initial_objective = engine.initial_snapshot()
            for probe in observers:
                probe.on_initial(initial_multiset, initial_objective)
            if initial_multiset == engine.target:
                progress.convergence_round = 0
        else:
            # A checkpoint is only byte-identically resumable under the
            # stopping policy it was taken under; a silent mismatch would
            # finish the run with different semantics than it started
            # with.  (The history mode is validated by the history probe's
            # load_state; checkpoints from older formats carry no policy
            # and skip the check.)
            saved_policy = resume_from.policy
            if saved_policy:
                for key, value in context.policy.items():
                    if key in saved_policy and saved_policy[key] != value:
                        raise SpecificationError(
                            f"checkpoint was taken under {key}="
                            f"{saved_policy[key]!r} but this run declares "
                            f"{key}={value!r}; resume with the stopping "
                            "policy the checkpoint was taken under"
                        )
            saved = resume_from.probe_states
            if len(saved) != len(observers):
                raise SpecificationError(
                    f"checkpoint carries {len(saved)} probe state(s) but "
                    f"this run attaches {len(observers)}; resume with the "
                    "probe pipeline the checkpoint was taken under"
                )
            for probe, entry in zip(observers, saved):
                if entry.get("name") != probe.name:
                    raise SpecificationError(
                        f"checkpoint probe {entry.get('name')!r} does not "
                        f"match attached probe {probe.name!r}; resume with "
                        "the probe pipeline the checkpoint was taken under"
                    )
                probe.on_resume(engine, entry.get("state"))
                started.append(probe)
            saved_driver = resume_from.driver
            progress.rounds_executed = saved_driver.rounds_executed
            progress.group_steps = saved_driver.group_steps
            progress.improving_steps = saved_driver.improving_steps
            progress.stutter_steps = saved_driver.stutter_steps
            progress.invalid_steps = saved_driver.invalid_steps
            progress.largest_group = saved_driver.largest_group
            progress.convergence_round = saved_driver.convergence_round
            progress.stopped_by_callback = saved_driver.stopped_by_callback

        # Engines whose execution style fixes the collaboration width
        # report it as a floor (one-sided merges are pair steps even in
        # merge-free runs).
        progress.largest_group = max(
            progress.largest_group, engine.largest_group_floor
        )
        # Not checkpointed: whenever convergence happened, every round
        # executed since was an after-convergence round.
        if progress.convergence_round is not None and stop_at_convergence:
            rounds_after_convergence = (
                progress.rounds_executed - progress.convergence_round
            )
        else:
            rounds_after_convergence = 0

        records = engine.steps()
        # A callback-stopped run already ended; resuming its final
        # checkpoint must re-assemble the finished result, not execute
        # the rounds the callback declined.
        round_range = (
            range(0)
            if progress.stopped_by_callback
            else range(progress.rounds_executed, max_rounds)
        )
        for round_index in round_range:
            if progress.convergence_round is not None and stop_at_convergence:
                if rounds_after_convergence >= extra_rounds_after_convergence:
                    break
                rounds_after_convergence += 1

            record = next(records)
            progress.rounds_executed += 1
            progress.group_steps += record.group_steps
            progress.improving_steps += record.improving_steps
            progress.stutter_steps += record.stutter_steps
            progress.invalid_steps += record.invalid_steps
            progress.largest_group = max(
                progress.largest_group, record.largest_group
            )

            for probe in observers:
                probe.on_round(record)

            if progress.convergence_round is None and record.converged:
                progress.convergence_round = round_index + 1

            for probe in post_round:
                probe.on_round_end(record)

            if on_round is not None and on_round(record):
                progress.stopped_by_callback = True
                break

        for probe in stream_end:
            probe.on_stream_end()
    except BaseException:
        # A failing setup step or round (a bad probe configuration, an
        # enforcement violation, a callback error) must not leak probe
        # resources: best-effort teardown of every probe whose on_start
        # ran, so sinks flush and close, then let the original error
        # propagate.  on_complete is deliberately skipped — the run has
        # no completeness verdict.
        for probe in started:
            try:
                probe.on_finish()
            except Exception:
                pass
        raise
    finally:
        if records is not None:
            records.close()

    convergence_round = progress.convergence_round
    rounds_executed = progress.rounds_executed
    group_steps = progress.group_steps
    improving_steps = progress.improving_steps
    stutter_steps = progress.stutter_steps
    invalid_steps = progress.invalid_steps
    largest_group = progress.largest_group
    converged = convergence_round is not None
    complete = engine.trace_complete(converged, progress.stopped_by_callback)
    final_states = engine.current_states()
    final_multiset = Multiset(final_states)
    trace, objective_trajectory = history_probe.build_history(complete, final_multiset)

    payloads: dict[str, Any] = {}
    finished: list[Probe] = []
    try:
        for probe in observers:
            probe.on_complete(complete)
        for probe in probe_list:
            payload = probe.on_finish()
            finished.append(probe)
            if payload is None:
                continue
            key = probe.name
            suffix = 2
            while key in payloads:
                key = f"{probe.name}#{suffix}"
                suffix += 1
            payloads[key] = payload
        if history_probe not in probe_list:
            history_probe.on_finish()
            finished.append(history_probe)
    except BaseException:
        # One probe failing its completion must not leak the resources of
        # the probes after it: finish the rest best-effort, then let the
        # original error propagate.
        for probe in observers:
            if probe not in finished:
                try:
                    probe.on_finish()
                except Exception:
                    pass
        raise

    return SimulationResult(
        converged=converged,
        convergence_round=convergence_round,
        rounds_executed=rounds_executed,
        final_states=final_states,
        output=engine.algorithm.result(final_multiset),
        expected_output=engine.algorithm.result(engine.target),
        trace=trace,
        objective_trajectory=objective_trajectory,
        group_steps=group_steps,
        improving_steps=improving_steps,
        stutter_steps=stutter_steps,
        invalid_steps=invalid_steps,
        largest_group=largest_group,
        probes=payloads,
        metadata=engine.finish_metadata(),
    )
