"""Durable runs: serializable engine checkpoints and byte-identical resume.

The paper's computations are unbounded streams of states; production runs
of them are long.  A 10M-round ``history="none"`` run or a 200-point sweep
that dies at 95% must not lose everything, so this module makes the whole
run state — engine, driver and observation pipeline — an explicit,
serializable value:

* :class:`RoundState` — the engine-side mutable run state (RNG, round
  index, maintained multiset, objective value, shared quiet-round tuples)
  pulled out of generator locals and loose attributes into one object that
  both engines own, checkpoint and restore;
* :class:`EngineCheckpoint` — the serialized form of one engine's state:
  agent states, ``random.Random.getstate()``, the exact maintained
  objective value and the environment's own mutable state
  (:meth:`~repro.environment.base.Environment.state_dict`);
* :class:`DriverState` — the shared run driver's accumulation state
  (:func:`~repro.simulation.protocol.run_engine`'s counters, convergence
  bookkeeping and stop reason), previously locals of the driver loop;
* :class:`RunCheckpoint` — one complete resumable run: engine checkpoint,
  driver state, the ``state_dict()`` of every attached probe, the stopping
  policy and (optionally) the originating
  :class:`~repro.experiment.ExperimentSpec` as plain data.

Checkpoints are JSON-round-trippable like experiment specs.  Agent states
are hashable values built from a small closed vocabulary (numbers, tuples,
frozensets, exact rationals, planar points); :func:`encode_state` maps
them to tagged JSON and :func:`decode_state` maps them back *exactly* —
floats survive via JSON's shortest-repr round trip, rationals as
numerator/denominator pairs — which is what makes the headline guarantee
possible: checkpoint at round ``k`` + restore produces a byte-identical
:class:`~repro.simulation.result.SimulationResult` (trace, objective
trajectory, probe payloads, metadata) to the uninterrupted run, for all
``k``.

What is deliberately *not* serialized: derived caches.  The maintained
multiset is rebuilt from the restored agent states, each environment
state labels its own components when first asked, and memo caches
(fingerprints, partition views, conservation triples) refill on demand.  None of it affects results, so
none of it needs to survive.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Hashable, Iterable, Mapping

from ..core.durable import atomic_write_text, quarantine, read_digested, with_digest
from ..core.errors import SpecificationError
from ..core.multiset import Multiset, MutableMultiset
from ..geometry.point import Point

__all__ = [
    "CHECKPOINT_FORMAT",
    "CODEC_SCALARS",
    "CODEC_TAGS",
    "codec_types",
    "encode_state",
    "decode_state",
    "encode_rng_state",
    "decode_rng_state",
    "RoundState",
    "EngineCheckpoint",
    "DriverState",
    "RunCheckpoint",
    "resume_run",
    "load_newest_verified",
]

#: Identifies run-checkpoint files (the ``format`` key of the JSON object).
CHECKPOINT_FORMAT = "repro-run-checkpoint"

#: Current checkpoint schema version.
CHECKPOINT_VERSION = 1


# -- the state codec ------------------------------------------------------------
#
# jsonify() in result.py is deliberately lossy (sets become sorted lists,
# unknown values become reprs) because serialized results only need to be
# *comparable*.  Checkpoints need the opposite: every agent state must come
# back as the exact same value, so the codec is tagged and closed — an
# unsupported type is an error at checkpoint time, not a silent corruption
# at resume time.

#: Scalar types JSON round-trips exactly without a tag.
CODEC_SCALARS: tuple[type, ...] = (type(None), bool, int, float, str)

#: The tagged-codec dispatch table: JSON tag -> container/exact type.
#: This is the closed vocabulary of checkpointable state shapes; the
#: static analyzer (rule C201 in :mod:`repro.analysis.rules_protocol`)
#: reads it through :func:`codec_types`, so growing the codec
#: automatically widens what the linter accepts.
CODEC_TAGS: dict[str, type] = {
    "t": tuple,
    "s": frozenset,
    "q": Fraction,
    "p": Point,
}


def codec_types() -> tuple[type, ...]:
    """Every type the tagged state codec can round-trip exactly."""
    return CODEC_SCALARS + tuple(CODEC_TAGS.values())


def encode_state(value: Hashable) -> Any:
    """Encode one agent state (or objective value) as tagged JSON data."""
    if value is None or isinstance(value, CODEC_SCALARS):
        return value
    if isinstance(value, tuple):
        return {"t": [encode_state(item) for item in value]}
    if isinstance(value, frozenset):
        return {"s": sorted((encode_state(item) for item in value), key=repr)}
    if isinstance(value, Fraction):
        return {"q": [value.numerator, value.denominator]}
    if isinstance(value, Point):
        return {"p": [value.x, value.y]}
    supported = ", ".join(
        "None" if t is type(None) else t.__name__ for t in codec_types()
    )
    raise SpecificationError(
        f"cannot checkpoint a state of type {type(value).__name__}: {value!r} "
        f"(supported: {supported})"
    )


def decode_state(value: Any) -> Hashable:
    """Decode :func:`encode_state` output back to the exact original value."""
    if isinstance(value, dict):
        if len(value) != 1:
            raise SpecificationError(f"malformed encoded state: {value!r}")
        tag, payload = next(iter(value.items()))
        if tag == "t":
            return tuple(decode_state(item) for item in payload)
        if tag == "s":
            return frozenset(decode_state(item) for item in payload)
        if tag == "q":
            return Fraction(payload[0], payload[1])
        if tag == "p":
            return Point(payload[0], payload[1])
        raise SpecificationError(f"unknown state tag {tag!r} in checkpoint")
    if isinstance(value, list):
        raise SpecificationError(f"malformed encoded state: {value!r}")
    return value


def encode_rng_state(state: tuple) -> list:
    """``random.Random.getstate()`` as JSON data (version, words, gauss)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data: Iterable) -> tuple:
    """Rebuild the exact ``random.Random.setstate()`` argument."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


# -- the engine-side explicit run state -----------------------------------------


class RoundState:
    """The mutable per-run state of an engine, as one explicit object.

    Both engines used to scatter this across loose attributes and
    generator locals; holding it in one place is what makes
    ``checkpoint()``/``restore()`` total — nothing a run needs to continue
    lives anywhere else.

    Attributes
    ----------
    rng:
        The run's random generator (drives the environment, the scheduler
        and any randomness in group steps / message losses).
    round_index:
        Index of the next round ``steps()`` will execute.
    maintained:
        The incrementally maintained agent-state multiset, or None for an
        engine that keeps none (the array engine, which folds ``h`` from
        its int64 deltas).
    objective_value:
        The maintained objective ``h`` (None until first priced; exact —
        including its float summation history — so it must be restored,
        not recomputed, for bit-identical trajectories).
    """

    __slots__ = (
        "rng",
        "round_index",
        "maintained",
        "objective_value",
    )

    def __init__(self, seed: int, initial_bag=None):
        self.reset(seed, initial_bag)

    def reset(self, seed: int, initial_bag=None) -> None:
        """Restore the pre-run condition."""
        self.rng = random.Random(seed)
        self.round_index = 0
        self.maintained = None if initial_bag is None else MutableMultiset(initial_bag)
        self.objective_value = None


# -- serialized state dataclasses -----------------------------------------------


@dataclass
class EngineCheckpoint:
    """Serialized mutable state of one engine at a round boundary.

    ``engine`` names the execution backend (``"simulator"`` /
    ``"messaging"`` / ``"array"``) so a checkpoint cannot be restored
    into the wrong engine kind; ``counters`` carries backend-specific
    totals (the messaging runtime's sent/delivered counts).  Files from
    older versions may also carry the reference engine's per-agent step
    counters; nothing reads them, so :meth:`from_dict` ignores that key.
    """

    engine: str
    seed: int
    round_index: int
    rng_state: list
    agent_states: list
    objective_value: Any = None
    environment: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "seed": self.seed,
            "round_index": self.round_index,
            "rng_state": self.rng_state,
            "agent_states": self.agent_states,
            "objective_value": self.objective_value,
            "environment": dict(self.environment),
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EngineCheckpoint":
        try:
            return cls(
                engine=data["engine"],
                seed=data["seed"],
                round_index=data["round_index"],
                rng_state=data["rng_state"],
                agent_states=data["agent_states"],
                objective_value=data.get("objective_value"),
                environment=dict(data.get("environment") or {}),
                counters=dict(data.get("counters") or {}),
            )
        except KeyError as error:
            raise SpecificationError(
                f"engine checkpoint is missing {error.args[0]!r}"
            ) from None


@dataclass
class DriverState:
    """The run driver's accumulation state (one instance per run).

    :func:`~repro.simulation.protocol.run_engine` mutates this in place
    while the run progresses; a checkpoint stores a copy.  The
    rounds-after-convergence counter is not stored — it is exactly
    ``rounds_executed - convergence_round`` whenever convergence happened,
    so resume re-derives it.
    """

    rounds_executed: int = 0
    group_steps: int = 0
    improving_steps: int = 0
    stutter_steps: int = 0
    invalid_steps: int = 0
    largest_group: int = 0
    convergence_round: int | None = None
    stopped_by_callback: bool = False

    def copy(self) -> "DriverState":
        return replace(self)

    def to_dict(self) -> dict:
        return {
            "rounds_executed": self.rounds_executed,
            "group_steps": self.group_steps,
            "improving_steps": self.improving_steps,
            "stutter_steps": self.stutter_steps,
            "invalid_steps": self.invalid_steps,
            "largest_group": self.largest_group,
            "convergence_round": self.convergence_round,
            "stopped_by_callback": self.stopped_by_callback,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriverState":
        return cls(
            rounds_executed=data.get("rounds_executed", 0),
            group_steps=data.get("group_steps", 0),
            improving_steps=data.get("improving_steps", 0),
            stutter_steps=data.get("stutter_steps", 0),
            invalid_steps=data.get("invalid_steps", 0),
            largest_group=data.get("largest_group", 0),
            convergence_round=data.get("convergence_round"),
            stopped_by_callback=data.get("stopped_by_callback", False),
        )


@dataclass
class RunCheckpoint:
    """One complete resumable run, as plain data.

    ``probe_states`` is aligned with the run's observer pipeline (the
    history probe first, then the declared probes in order); resume
    verifies the alignment by probe name, so a checkpoint can only be
    resumed under the observation pipeline it was taken under.  ``spec``
    carries the originating experiment spec when the run was launched from
    one, which is what lets ``repro resume <path>`` rebuild everything
    from the file alone.
    """

    engine: EngineCheckpoint
    driver: DriverState
    probe_states: list = field(default_factory=list)
    policy: dict = field(default_factory=dict)
    spec: dict | None = None

    @property
    def seed(self) -> int:
        """The run seed (recorded on the engine checkpoint)."""
        return self.engine.seed

    def to_dict(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "engine": self.engine.to_dict(),
            "driver": self.driver.to_dict(),
            "probes": list(self.probe_states),
            "policy": dict(self.policy),
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunCheckpoint":
        if data.get("format") != CHECKPOINT_FORMAT:
            raise SpecificationError(
                f"not a run checkpoint (format {data.get('format')!r}, "
                f"expected {CHECKPOINT_FORMAT!r})"
            )
        if data.get("version") != CHECKPOINT_VERSION:
            raise SpecificationError(
                f"unsupported checkpoint version {data.get('version')!r} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        if "engine" not in data or "driver" not in data:
            raise SpecificationError(
                "a run checkpoint needs 'engine' and 'driver' sections"
            )
        return cls(
            engine=EngineCheckpoint.from_dict(data["engine"]),
            driver=DriverState.from_dict(data["driver"]),
            probe_states=list(data.get("probes") or ()),
            policy=dict(data.get("policy") or {}),
            spec=data.get("spec"),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunCheckpoint":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecificationError(f"invalid checkpoint JSON: {error}") from error
        if not isinstance(data, dict):
            raise SpecificationError("a run checkpoint must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the checkpoint atomically and durably, in one file that
        carries the SHA-256 of its JSON (see
        :func:`~repro.core.durable.with_digest`)."""
        return atomic_write_text(path, with_digest(self.to_json()))

    @classmethod
    def load(cls, source: "RunCheckpoint | str | pathlib.Path") -> "RunCheckpoint":
        """Accept an in-memory checkpoint, a checkpoint file or a run
        directory.

        A file must pass :func:`~repro.core.durable.read_digested`.  A run
        directory (``<directory>/<algorithm>-seed<seed>``) yields its newest
        ``round-*.json`` that verifies, with the same fallback as
        :func:`load_newest_verified`.
        """
        if isinstance(source, RunCheckpoint):
            return source
        path = pathlib.Path(source)
        if path.is_dir():
            checkpoint = _newest_verified(path.glob("round-*.json"))
            if checkpoint is None:
                raise SpecificationError(f"no checkpoint in {path} verifies")
            return checkpoint
        return cls.from_json(read_digested(path))


def resume_run(source: RunCheckpoint | str | pathlib.Path):
    """Resume a run from its checkpoint, using the embedded experiment spec.

    Returns the completed
    :class:`~repro.simulation.result.SimulationResult`, byte-identical to
    what the uninterrupted run would have produced.  Checkpoints taken
    outside the experiment layer carry no spec; resume those through
    :meth:`ExperimentSpec.resume` or ``engine.run(resume_from=...)``
    against an identically-constructed engine.
    """
    checkpoint = RunCheckpoint.load(source)
    if checkpoint.spec is None:
        raise SpecificationError(
            "this checkpoint embeds no experiment spec; rebuild the engine "
            "yourself and call run(resume_from=checkpoint) on it"
        )
    from ..experiment import ExperimentSpec

    return ExperimentSpec.from_dict(checkpoint.spec).resume(checkpoint)


# -- checkpoint integrity: generation fallback -----------------------------------
#
# A checkpoint that parses is not necessarily the checkpoint that was
# written: truncation usually breaks the JSON, but a flipped bit in a
# number does not.  Every checkpoint file therefore carries the SHA-256 of
# its own JSON, and every read verifies it; resume falls back, newest
# first, through the retained generations — quarantining (never deleting)
# what fails, so one bad sector costs one generation of progress, not the
# run.


def load_newest_verified(
    directory: str | pathlib.Path, quarantine_corrupt: bool = True
) -> RunCheckpoint | None:
    """The newest checkpoint under a run directory tree that verifies.

    ``directory`` is a :class:`~repro.simulation.probes.CheckpointProbe`
    target (or the batch layer's ``<unit>/engine``): run subdirectories
    holding rolling ``round-NNNNNNNN.json`` generations.  Candidates are
    tried in descending round order; the first one that reads, verifies
    and parses wins.  Anything that fails is quarantined and the search
    falls back a generation.  Returns None when nothing verifies — the
    caller starts the run over.
    """
    return _newest_verified(
        pathlib.Path(directory).glob("*/round-*.json"), quarantine_corrupt
    )


def _newest_verified(
    paths: Iterable[pathlib.Path], quarantine_corrupt: bool = True
) -> RunCheckpoint | None:
    for path in sorted(paths, reverse=True):
        try:
            return RunCheckpoint.load(path)
        except (OSError, SpecificationError) as error:
            if quarantine_corrupt:
                quarantine(path, f"corrupt checkpoint: {error}")
    return None


def engine_checkpoint_of(data: Mapping[str, Any] | EngineCheckpoint) -> EngineCheckpoint:
    """Coerce plain data to an :class:`EngineCheckpoint` (idempotent)."""
    if isinstance(data, EngineCheckpoint):
        return data
    return EngineCheckpoint.from_dict(data)


def rebuilt_multiset(states: Iterable[Hashable]) -> MutableMultiset:
    """The maintained bag rebuilt from restored agent states.

    The bag is pure content (counts + fingerprint); rebuilding it from
    the states is byte-equivalent to having maintained it through every
    round, so checkpoints never persist it.
    """
    return MutableMultiset(Multiset(states))
