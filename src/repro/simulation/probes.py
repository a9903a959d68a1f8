"""The built-in probe library: streaming observability as plugins.

Every probe here implements the :class:`~repro.simulation.protocol.Probe`
pipeline and is registered under a spec-addressable name (the ``probes``
field of an :class:`~repro.experiment.ExperimentSpec`, the ``--probe``
flag of the CLI), so new instrumentation attaches to *any* engine — the
synchronous group-step simulator or the asynchronous message-passing
runtime — without touching engine code:

``"history"``
    the retention probe (:class:`~repro.simulation.protocol.HistoryProbe`);
``"objective"``
    online summary (and optionally the full series) of the objective ``h``;
``"convergence"``
    when the run reached ``S*`` and how long it stayed;
``"temporal"``
    online temporal-logic checking: the paper's ``□`` / ``◇`` / ``stable``
    specifications evaluated *during* the run, in O(1) memory per formula,
    with verdicts matching after-the-fact evaluation on a recorded trace
    bit for bit;
``"stats"``
    running :class:`~repro.simulation.metrics.RunStatistics` accumulation
    across every run the probe observes;
``"jsonl"``
    a streaming JSON-lines sink, one line per round, for dashboards and
    offline analysis of runs too long to materialise.

Probes are constructed fresh per run by the experiment layer, cross
process boundaries as registry names plus JSON parameters, and publish
their payloads under ``SimulationResult.probes`` (which
:class:`~repro.simulation.batch.BatchRunner` ships back and merges).
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.errors import SpecificationError
from ..core.multiset import Multiset
from ..registry import register_probe
from ..temporal.online import OnlineFormula, OPERATORS, online
from .checkpoint import RunCheckpoint, decode_state, encode_state
from .protocol import Engine, HistoryProbe, Probe, RoundRecord, RunContext
from .result import jsonify

__all__ = [
    "HistoryProbe",
    "ObjectiveProbe",
    "ConvergenceProbe",
    "TemporalProperty",
    "TemporalProbe",
    "StatsProbe",
    "JSONLSink",
    "CheckpointProbe",
    "stream_start_payload",
    "stream_initial_payload",
    "stream_round_payload",
    "stream_finish_payload",
]


# -- the streaming line protocol -------------------------------------------------
#
# One payload per observed event, shared by every byte-stream sink: the
# JSONL file sink below and the experiment service's
# :class:`~repro.service.streams.ServiceSinkProbe` emit these very
# dictionaries, which is what makes an SSE stream of a run equal the JSONL
# file of the same run line for line.


def stream_start_payload(engine: Engine) -> dict:
    """The stream's opening line: which run this is."""
    return {
        "event": "start",
        "algorithm": engine.algorithm.name,
        "seed": engine.seed,
    }


def stream_initial_payload(
    multiset: Multiset, objective: float, include_states: bool = False
) -> dict:
    """The pre-run snapshot (trace position before round 0)."""
    payload = {"event": "initial", "objective": jsonify(objective)}
    if include_states:
        payload["states"] = jsonify(list(multiset))
    return payload


def stream_round_payload(record: RoundRecord, include_states: bool = False) -> dict:
    """One executed round."""
    payload = {
        "event": "round",
        "round": record.round_index,
        "objective": jsonify(record.objective),
        "converged": record.converged,
        "group_steps": record.group_steps,
        "improving_steps": record.improving_steps,
        "largest_group": record.largest_group,
    }
    if include_states:
        payload["states"] = jsonify(list(record.multiset))
    return payload


def stream_finish_payload(complete: bool) -> dict:
    """The stream's closing line: the driver's completeness verdict."""
    return {"event": "finish", "complete": complete}


register_probe("history")(HistoryProbe)


@register_probe("objective")
class ObjectiveProbe(Probe):
    """Online summary of the objective ``h`` over the round stream.

    Keeps O(1) state (endpoints, extrema, improvement count) and — only
    when ``keep_trajectory`` is set — the full series, so the objective
    trajectory stays available even under ``history="none"`` retention.
    """

    name = "objective"

    def __init__(self, keep_trajectory: bool = False):
        self.keep_trajectory = keep_trajectory
        self._trajectory: list[float] = []
        self._initial: float | None = None
        self._last: float | None = None
        self._minimum: float | None = None
        self._maximum: float | None = None
        self._decreases = 0
        self._rounds = 0

    def on_start(self, engine: Engine) -> None:
        self.__init__(keep_trajectory=self.keep_trajectory)

    def _observe(self, objective: float) -> None:
        if self._last is not None and objective < self._last:
            self._decreases += 1
        self._last = objective
        if self._minimum is None or objective < self._minimum:
            self._minimum = objective
        if self._maximum is None or objective > self._maximum:
            self._maximum = objective
        if self.keep_trajectory:
            self._trajectory.append(objective)

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        self._initial = objective
        self._observe(objective)

    def on_round(self, record: RoundRecord) -> None:
        self._rounds += 1
        self._observe(record.objective)

    def on_finish(self) -> dict:
        payload = {
            "initial": jsonify(self._initial),
            "final": jsonify(self._last),
            "minimum": jsonify(self._minimum),
            "maximum": jsonify(self._maximum),
            "decreasing_rounds": self._decreases,
            "rounds": self._rounds,
        }
        if self.keep_trajectory:
            payload["trajectory"] = jsonify(self._trajectory)
        return payload

    def state_dict(self) -> dict:
        return {
            "trajectory": [encode_state(value) for value in self._trajectory],
            "initial": encode_state(self._initial),
            "last": encode_state(self._last),
            "minimum": encode_state(self._minimum),
            "maximum": encode_state(self._maximum),
            "decreases": self._decreases,
            "rounds": self._rounds,
        }

    def load_state(self, state: dict) -> None:
        self._trajectory = [decode_state(value) for value in state["trajectory"]]
        self._initial = decode_state(state["initial"])
        self._last = decode_state(state["last"])
        self._minimum = decode_state(state["minimum"])
        self._maximum = decode_state(state["maximum"])
        self._decreases = state["decreases"]
        self._rounds = state["rounds"]


@register_probe("convergence")
class ConvergenceProbe(Probe):
    """When the run reached the target multiset ``S*`` — and whether it
    stayed there (a streaming view of the paper's *stable* requirement)."""

    name = "convergence"

    def __init__(self):
        self._engine: Engine | None = None
        self._convergence_round: int | None = None
        self._rounds = 0
        self._left_target_after_convergence = False
        self._last_converged = False

    def on_start(self, engine: Engine) -> None:
        self.__init__()
        self._engine = engine

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        # A run may start already converged; the driver reports that as
        # convergence_round=0 and so must this probe.
        if multiset == self._engine.target:
            self._convergence_round = 0
            self._last_converged = True

    def on_round(self, record: RoundRecord) -> None:
        # Count rounds as observed by *this run* rather than reading the
        # engine's absolute record.round_index: a resumed engine's records
        # start mid-stream, and the driver's convergence_round (pinned to
        # the legacy run() semantics) is relative to the run — the probe
        # must agree with it.
        self._rounds += 1
        if record.converged and self._convergence_round is None:
            self._convergence_round = self._rounds
        if self._convergence_round is not None and not record.converged:
            self._left_target_after_convergence = True
        self._last_converged = record.converged

    def on_finish(self) -> dict:
        return {
            "converged": self._convergence_round is not None,
            "convergence_round": self._convergence_round,
            "rounds_observed": self._rounds,
            "stayed_at_target": not self._left_target_after_convergence,
            "at_target_at_end": self._last_converged,
        }

    def state_dict(self) -> dict:
        # The engine reference is a live resource, re-bound by
        # on_start/on_resume; everything else is plain data.
        return {
            "convergence_round": self._convergence_round,
            "rounds": self._rounds,
            "left_target": self._left_target_after_convergence,
            "last_converged": self._last_converged,
        }

    def load_state(self, state: dict) -> None:
        self._convergence_round = state["convergence_round"]
        self._rounds = state["rounds"]
        self._left_target_after_convergence = state["left_target"]
        self._last_converged = state["last_converged"]


# -- temporal-logic probe -------------------------------------------------------


@dataclass(frozen=True)
class TemporalProperty:
    """One named temporal formula to check online over a run.

    ``predicates`` entries are either callables (programmatic use) or
    JSON-safe specs — a registered predicate name (``"at-target"``) or a
    dictionary with parameters (``{"predicate": "objective-below",
    "threshold": 10}``) — resolved against the engine when the run starts.
    """

    name: str
    operator: str
    predicates: tuple = ()


#: Named state predicates resolvable from JSON specs.  Each builder maps
#: ``(engine, **params)`` to a predicate over agent-state multisets.
_PREDICATE_BUILDERS: dict[str, Callable[..., Callable[[Multiset], bool]]] = {}


def _predicate(name: str):
    def decorator(builder):
        _PREDICATE_BUILDERS[name] = builder
        return builder

    return decorator


@_predicate("at-target")
def _at_target(engine: Engine) -> Callable[[Multiset], bool]:
    """The collective state equals the target multiset ``S* = f(S(0))``."""
    target = engine.target
    return lambda bag: bag == target


@_predicate("conserves-f")
def _conserves_f(engine: Engine) -> Callable[[Multiset], bool]:
    """The conservation law: ``f(S)`` still equals ``f(S(0)) = S*``."""
    function = engine.algorithm.function
    target = engine.target
    return lambda bag: function(bag) == target


@_predicate("objective-at-optimum")
def _objective_at_optimum(engine: Engine) -> Callable[[Multiset], bool]:
    """The objective ``h`` has reached its value on the target multiset."""
    objective = engine.algorithm.objective
    optimum = objective(engine.target)
    return lambda bag: objective(bag) == optimum


@_predicate("objective-below")
def _objective_below(engine: Engine, threshold: float) -> Callable[[Multiset], bool]:
    """The objective ``h`` is at or below ``threshold``."""
    objective = engine.algorithm.objective
    return lambda bag: objective(bag) <= threshold


def _resolve_predicate(spec: Any, engine: Engine) -> Callable[[Multiset], bool]:
    if callable(spec):
        return spec
    if isinstance(spec, str):
        name, params = spec, {}
    elif isinstance(spec, Mapping):
        params = dict(spec)
        name = params.pop("predicate", None)
        if not isinstance(name, str):
            raise SpecificationError(
                f"a predicate dictionary needs a 'predicate' name, got {spec!r}"
            )
    else:
        raise SpecificationError(
            f"a predicate must be a callable, a name or a dictionary, got {spec!r}"
        )
    try:
        builder = _PREDICATE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_PREDICATE_BUILDERS))
        raise SpecificationError(
            f"unknown temporal predicate {name!r}; available: {known}"
        ) from None
    try:
        return builder(engine, **params)
    except TypeError as error:
        raise SpecificationError(
            f"cannot build temporal predicate {name!r} with parameters "
            f"{params!r}: {error}"
        ) from error


def _coerce_property(entry: Any) -> TemporalProperty:
    if isinstance(entry, TemporalProperty):
        return entry
    if isinstance(entry, Mapping):
        data = dict(entry)
        try:
            name = data.pop("name")
            operator = data.pop("operator")
        except KeyError as error:
            raise SpecificationError(
                f"a temporal property needs {error.args[0]!r}: {entry!r}"
            ) from None
        if "predicates" in data:
            predicates = tuple(data.pop("predicates"))
        elif "predicate" in data:
            predicates = (data.pop("predicate"),)
        else:
            predicates = ()
        if data:
            raise SpecificationError(
                f"unknown temporal property fields {sorted(data)} in {entry!r}"
            )
        return TemporalProperty(name=name, operator=operator, predicates=predicates)
    if isinstance(entry, Sequence) and not isinstance(entry, (str, bytes)):
        name, operator, *predicates = entry
        return TemporalProperty(
            name=name, operator=operator, predicates=tuple(predicates)
        )
    raise SpecificationError(f"cannot interpret temporal property {entry!r}")


def _validate_property(prop: TemporalProperty) -> TemporalProperty:
    """Fail fast on a bad operator, arity or predicate name.

    Checked at probe *construction* (spec validation builds probes), so a
    typo in a JSON spec surfaces as one readable SpecificationError before
    a batch fans out — not as a ValueError in every worker at run time.
    """
    operator_cls = OPERATORS.get(prop.operator)
    if operator_cls is None:
        known = ", ".join(sorted(OPERATORS))
        raise SpecificationError(
            f"temporal property {prop.name!r} uses unknown operator "
            f"{prop.operator!r}; available: {known}"
        )
    if len(prop.predicates) != operator_cls.arity:
        raise SpecificationError(
            f"temporal property {prop.name!r}: operator {prop.operator!r} "
            f"takes {operator_cls.arity} predicate(s), got "
            f"{len(prop.predicates)}"
        )
    for spec in prop.predicates:
        if callable(spec):
            continue
        name = spec if isinstance(spec, str) else (
            spec.get("predicate") if isinstance(spec, Mapping) else None
        )
        if not isinstance(name, str):
            raise SpecificationError(
                f"temporal property {prop.name!r}: a predicate must be a "
                f"callable, a name or a dictionary, got {spec!r}"
            )
        if name not in _PREDICATE_BUILDERS:
            known = ", ".join(sorted(_PREDICATE_BUILDERS))
            raise SpecificationError(
                f"temporal property {prop.name!r} uses unknown predicate "
                f"{name!r}; available: {known}"
            )
    return prop


#: The paper's core specification, checked by default: the computation
#: eventually reaches the target, stays there, and conserves ``f`` always.
DEFAULT_PROPERTIES = (
    TemporalProperty("reaches-target", "eventually", ("at-target",)),
    TemporalProperty("target-stable", "stable", ("at-target",)),
    TemporalProperty("conserves-f", "always", ("conserves-f",)),
)


@register_probe("temporal")
class TemporalProbe(Probe):
    """Online temporal-logic checking over the round stream.

    Feeds every observed state (the initial multiset, then each round's)
    through one :class:`~repro.temporal.online.OnlineFormula` per declared
    property, in O(1) memory per formula.  Verdicts use the driver's
    completeness bit, so they match after-the-fact evaluation of
    :mod:`repro.temporal.formulas` on the recorded trace exactly — the
    difference is that no trace needs to exist.
    """

    name = "temporal"

    def __init__(self, properties: Iterable[Any] | None = None):
        self._declared = tuple(
            _validate_property(_coerce_property(entry))
            for entry in (DEFAULT_PROPERTIES if properties is None else properties)
        )
        names = [prop.name for prop in self._declared]
        if len(set(names)) != len(names):
            raise SpecificationError(
                f"temporal property names must be unique, got {names}"
            )
        self._formulas: dict[str, OnlineFormula] = {}
        self._complete = False

    def on_start(self, engine: Engine) -> None:
        self._complete = False
        self._formulas = {
            prop.name: online(
                prop.operator,
                *(_resolve_predicate(spec, engine) for spec in prop.predicates),
            )
            for prop in self._declared
        }

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        for formula in self._formulas.values():
            formula.observe(multiset)

    def on_round(self, record: RoundRecord) -> None:
        for formula in self._formulas.values():
            formula.observe(record.multiset)

    def on_complete(self, complete: bool) -> None:
        self._complete = complete

    def verdicts(self) -> dict[str, bool]:
        """Current truth value of every declared property."""
        return {
            name: formula.verdict(self._complete)
            for name, formula in self._formulas.items()
        }

    def on_finish(self) -> dict:
        return {"complete": self._complete, "verdicts": self.verdicts()}

    def state_dict(self) -> dict:
        # Each online formula's fold state is O(1) plain data; the
        # predicates themselves are re-resolved against the engine on
        # resume (on_start builds fresh formulas, then the fold state is
        # loaded into them).
        return {
            "complete": self._complete,
            "formulas": {
                name: formula.state_dict()
                for name, formula in self._formulas.items()
            },
        }

    def load_state(self, state: dict) -> None:
        self._complete = state["complete"]
        saved = state["formulas"]
        if set(saved) != set(self._formulas):
            raise SpecificationError(
                "checkpointed temporal properties "
                f"{sorted(saved)} do not match the declared ones "
                f"{sorted(self._formulas)}"
            )
        for name, formula_state in saved.items():
            self._formulas[name].load_state(formula_state)


@register_probe("stats")
class StatsProbe(Probe):
    """Running statistics across every run this probe instance observes.

    Unlike the other probes, :meth:`on_start` does *not* reset: attach one
    instance to many runs (or merge payloads from a batch via
    :func:`repro.simulation.metrics.statistics_from_payloads`) and the
    payload accumulates the material :class:`RunStatistics` is built from
    — no :class:`SimulationResult` scraping, no retained traces.
    """

    name = "stats"

    def __init__(self):
        self._engine: Engine | None = None
        self._runs = 0
        self._convergence_rounds: list[int] = []
        self._group_steps = 0
        self._improving_steps = 0
        self._correct_runs = 0
        self._run_convergence_round: int | None = None
        self._run_rounds = 0

    def on_start(self, engine: Engine) -> None:
        self._engine = engine
        self._runs += 1
        self._run_convergence_round = None
        self._run_rounds = 0

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        if multiset == self._engine.target:
            self._run_convergence_round = 0

    def on_round(self, record: RoundRecord) -> None:
        self._run_rounds += 1
        self._group_steps += record.group_steps
        self._improving_steps += record.improving_steps
        if self._run_convergence_round is None and record.converged:
            # Run-relative, like the driver's convergence_round (see
            # ConvergenceProbe.on_round for why round_index is not used).
            self._run_convergence_round = self._run_rounds

    def on_complete(self, complete: bool) -> None:
        if self._run_convergence_round is not None:
            self._convergence_rounds.append(self._run_convergence_round)
        engine = self._engine
        output = engine.algorithm.result(Multiset(engine.current_states()))
        if output == engine.algorithm.result(engine.target):
            self._correct_runs += 1

    def on_finish(self) -> dict:
        return {
            "runs": self._runs,
            "converged_runs": len(self._convergence_rounds),
            "convergence_rounds": list(self._convergence_rounds),
            "group_steps": self._group_steps,
            "improving_steps": self._improving_steps,
            "correct_runs": self._correct_runs,
        }

    def statistics(self):
        """The accumulated runs as a :class:`RunStatistics`."""
        from .metrics import statistics_from_payloads

        return statistics_from_payloads([self.on_finish()])

    def state_dict(self) -> dict:
        # Cross-run accumulators *and* the current run's progress: a
        # resumed run must neither double-count itself nor lose the rounds
        # it already observed.  (The default on_resume calls on_start —
        # which counts a new run — then load_state, which restores the
        # true run count.)
        return {
            "runs": self._runs,
            "convergence_rounds": list(self._convergence_rounds),
            "group_steps": self._group_steps,
            "improving_steps": self._improving_steps,
            "correct_runs": self._correct_runs,
            "run_convergence_round": self._run_convergence_round,
            "run_rounds": self._run_rounds,
        }

    def load_state(self, state: dict) -> None:
        self._runs = state["runs"]
        self._convergence_rounds = list(state["convergence_rounds"])
        self._group_steps = state["group_steps"]
        self._improving_steps = state["improving_steps"]
        self._correct_runs = state["correct_runs"]
        self._run_convergence_round = state["run_convergence_round"]
        self._run_rounds = state["run_rounds"]


@register_probe("jsonl")
class JSONLSink(Probe):
    """Streaming JSON-lines export: one line per observed round.

    The sink writes during the run (no buffering beyond the file object),
    so arbitrarily long ``history="none"`` runs stream to disk in O(1)
    memory.  ``path`` may contain ``{seed}`` and ``{algorithm}``
    placeholders, which keeps per-seed files distinct when a spec fans out
    across :class:`~repro.simulation.batch.BatchRunner` workers.
    """

    name = "jsonl"

    def __init__(self, path: str | pathlib.Path, include_states: bool = False):
        self._path_template = str(path)
        try:
            # Fail at construction (spec-validation time) on a typo'd
            # placeholder, not with a bare KeyError in every batch worker.
            self._path_template.format(seed=0, algorithm="x")
        except (KeyError, IndexError, ValueError) as error:
            raise SpecificationError(
                f"jsonl probe path {self._path_template!r} has an invalid "
                f"placeholder ({error!r}); supported: {{seed}}, {{algorithm}}"
            ) from error
        self.include_states = include_states
        self._file = None
        self._path: pathlib.Path | None = None
        self._lines = 0

    def _emit(self, payload: dict) -> None:
        self._file.write(json.dumps(payload) + "\n")
        self._lines += 1

    def on_start(self, engine: Engine) -> None:
        self._path = pathlib.Path(
            self._path_template.format(
                seed=engine.seed, algorithm=engine.algorithm.name
            )
        )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self._path.open("w")
        self._lines = 0
        self._emit(stream_start_payload(engine))

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        self._emit(stream_initial_payload(multiset, objective, self.include_states))

    def on_round(self, record: RoundRecord) -> None:
        self._emit(stream_round_payload(record, self.include_states))

    def on_complete(self, complete: bool) -> None:
        self._emit(stream_finish_payload(complete))

    def on_finish(self) -> dict:
        if self._file is not None:
            self._file.close()
            self._file = None
        return {"path": str(self._path), "lines": self._lines}

    def state_dict(self) -> dict:
        # state_dict() is called exactly when a checkpoint captures the
        # run, and the recorded line count is only honest if those lines
        # are durably on disk: after a hard kill (no exception unwind, no
        # close()) anything still in the user-space buffer is lost and
        # the checkpoint would claim more lines than the file holds —
        # making it unresumable.  Flush and fsync before reporting.
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
        return {"lines": self._lines}

    def on_resume(self, engine: Engine, state: dict | None) -> None:
        """Reattach to the sink file, appending from the checkpointed offset.

        The first ``lines`` lines of the existing file are kept and
        anything after them is truncated away — a crashed run may have
        streamed rounds past the checkpoint it is being resumed from, and
        those rounds are about to be re-emitted.  The resumed file is
        byte-identical to an uninterrupted run's.
        """
        if state is None:
            self.on_start(engine)
            return
        self._path = pathlib.Path(
            self._path_template.format(
                seed=engine.seed, algorithm=engine.algorithm.name
            )
        )
        expected = int(state["lines"])
        try:
            with self._path.open("r") as handle:
                kept = [next(handle) for _ in range(expected)]
        except OSError as error:
            raise SpecificationError(
                f"cannot resume jsonl sink {self._path}: {error} (the "
                "partial stream written before the checkpoint is required)"
            ) from error
        except StopIteration:
            raise SpecificationError(
                f"cannot resume jsonl sink {self._path}: the file holds "
                f"fewer than the checkpointed {expected} lines"
            ) from None
        self._file = self._path.open("w")
        self._file.writelines(kept)
        self._lines = expected


@register_probe("checkpoint")
class CheckpointProbe(Probe):
    """Rolling run checkpoints: every ``every`` rounds, the whole run to disk.

    The probe is a run-level observer: :meth:`on_attach` hands it the
    driver's :class:`~repro.simulation.protocol.RunContext`, and each
    write snapshots the engine (``Engine.checkpoint()``), the driver's
    live counters and every sibling probe's ``state_dict()`` into one
    :class:`~repro.simulation.checkpoint.RunCheckpoint` — taken from
    :meth:`on_round_end`, after the full probe pipeline has observed the
    round, so the snapshot is resume-clean.  When the probe was built by
    the experiment layer, the originating spec rides along in the file and
    ``repro resume <path>`` (or
    :func:`~repro.simulation.checkpoint.resume_run`) needs nothing else.

    Files land in ``<directory>/<algorithm>-seed<seed>/`` as
    ``round-<NNNNNNNN>.json``, one file per checkpoint, written atomically
    and durably and carrying the SHA-256 of its own JSON
    (:meth:`RunCheckpoint.save`), so per-seed runs of a batch never collide.
    The run directory itself names "the most recent checkpoint that
    verifies" (``repro resume <directory>``).  A final checkpoint
    is written when the run completes (``final=False`` disables it), which
    makes every finished run resumable into exactly itself.

    ``generations`` bounds how many rolling ``round-*.json`` files are
    retained (oldest pruned first; 0 keeps everything).  Keeping more
    than one is what makes corruption survivable:
    :func:`~repro.simulation.checkpoint.load_newest_verified` falls back
    through the retained generations when the newest file fails its
    digest or does not parse.
    """

    name = "checkpoint"

    def __init__(
        self,
        every: int = 100,
        directory: str | pathlib.Path = "checkpoints",
        final: bool = True,
        publish: bool = True,
        generations: int = 0,
    ):
        if int(every) < 1:
            raise SpecificationError(
                f"checkpoint probe needs every >= 1, got {every!r}"
            )
        if int(generations) < 0:
            raise SpecificationError(
                f"checkpoint probe needs generations >= 0, got {generations!r}"
            )
        self.every = int(every)
        self.directory = pathlib.Path(str(directory))
        self.final = bool(final)
        self.publish = bool(publish)
        self.generations = int(generations)
        self._context: RunContext | None = None
        self._spec_data: dict | None = None
        self._run_dir: pathlib.Path | None = None
        self._written = 0
        self._last_round: int | None = None
        self._since = 0

    def attach_spec(self, spec) -> None:
        """Embed the originating experiment spec in every written file
        (called by :meth:`ExperimentSpec.build_probes`)."""
        self._spec_data = spec.to_dict()

    def on_attach(self, context: RunContext) -> None:
        self._context = context

    def on_start(self, engine: Engine) -> None:
        self._run_dir = self.directory / f"{engine.algorithm.name}-seed{engine.seed}"
        self._written = 0
        self._last_round = None
        self._since = 0

    def on_resume(self, engine: Engine, state: dict | None) -> None:
        self.on_start(engine)
        if state is not None:
            self._written = state["written"]
            self._last_round = state["last_round"]
            self._since = state["since"]

    def state_dict(self) -> dict:
        return {
            "written": self._written,
            "last_round": self._last_round,
            "since": self._since,
        }

    def on_round_end(self, record: RoundRecord) -> None:
        self._since += 1
        if self._since >= self.every:
            self._write(self._context.progress.rounds_executed)

    def on_stream_end(self) -> None:
        # The final checkpoint is taken when the round loop ends but
        # before any on_complete hook runs: completion effects (a stats
        # probe counting the run, a sink's closing line) are irreversible,
        # so a snapshot containing them would replay them on resume.
        if self.final and self._context is not None:
            rounds = self._context.progress.rounds_executed
            if self._last_round != rounds:
                self._write(rounds)

    def on_finish(self) -> dict | None:
        # ``publish=False`` keeps the run's result byte-identical to a
        # checkpoint-free run of the same spec (the payload necessarily
        # carries machine-local paths) — the experiment service relies on
        # that for its cache/offline parity guarantee.
        if not self.publish:
            return None
        return {
            "directory": str(self._run_dir),
            "every": self.every,
            "checkpoints_written": self._written,
            "last_checkpoint_round": self._last_round,
        }

    def checkpoint_now(self) -> None:
        """Write a rolling checkpoint at the current round boundary.

        Safe from any observer's ``on_round_end`` (the whole pipeline has
        observed the round there); the experiment service's graceful drain
        uses it to snapshot the in-flight run right before stopping it.
        """
        if self._context is not None and self._run_dir is not None:
            self._write(self._context.progress.rounds_executed)

    # -- internals --------------------------------------------------------------

    def _write(self, rounds_executed: int) -> None:
        # Advance the cadence counters *before* capturing: the snapshot
        # must record the state the uninterrupted run carries forward
        # (counted write, cadence restarted), or a resumed run would
        # immediately re-write and drift the payload.
        self._since = 0
        self._written += 1
        self._last_round = rounds_executed
        checkpoint = self._context.checkpoint()
        if self._spec_data is not None:
            checkpoint.spec = self._spec_data
        self._store(checkpoint, rounds_executed)

    def _store(self, checkpoint: RunCheckpoint, rounds_executed: int) -> None:
        """Persist one checkpoint (tests override this to capture in memory)."""
        checkpoint.save(self._run_dir / f"round-{rounds_executed:08d}.json")
        self._prune_generations()

    def _prune_generations(self) -> None:
        """Drop rolling round files beyond the retention budget, oldest
        first (quarantined files are never touched)."""
        if self.generations < 1:
            return
        rounds = sorted(self._run_dir.glob("round-*.json"))
        for stale in rounds[: -self.generations]:
            try:
                stale.unlink()
            except OSError:
                pass
