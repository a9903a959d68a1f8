"""The declarative experiment layer: experiments as data.

The paper's methodology describes an algorithm *once* and executes it
uniformly across any environment and any group schedule.  This module
gives the library the same property at the API level: an experiment is a
frozen, validated, JSON-round-trippable :class:`ExperimentSpec` naming its
parts through the registries of :mod:`repro.registry`, instead of a
hand-wired tangle of imported classes::

    spec = (Experiment.builder()
            .algorithm("minimum")
            .environment("churn", edge_up_probability=0.3)
            .topology("complete")
            .scheduler("maximal")
            .values(5, 3, 9, 1, 7, 2, 8, 4)
            .seeds(0, 1, 2)
            .max_rounds(500)
            .build())

    result = spec.run(seed=0)          # one Simulator run
    text = spec.to_json()              # persist / ship / diff
    same = ExperimentSpec.from_json(text)

Specs are what the CLI executes (``repro run spec.json``), what
:class:`~repro.simulation.batch.BatchRunner` distributes across worker
processes, and what parameter sweeps expand (:func:`expand_grid`).  A spec
built from JSON produces the same :class:`SimulationResult` as the
equivalent hand-wired :class:`~repro.simulation.engine.Simulator` call,
seed for seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

from .core.errors import SpecificationError
from .environment.dynamics import randint_draws
from .registry import (
    ALGORITHMS,
    ENGINES,
    ENVIRONMENTS,
    GRAPHS,
    PROBES,
    SCHEDULERS,
    VALUE_GENERATORS,
    register_value_generator,
)
from .simulation.checkpoint import RunCheckpoint
from .simulation.protocol import HISTORY_MODES, Engine, Probe, resolve_history
from .simulation.result import SimulationResult, readable_json

# Importing these packages populates the registries; without them a spec
# could not be validated when repro.experiment is imported on its own
# (e.g. inside a BatchRunner worker process).
from . import algorithms as _algorithms  # noqa: F401  (registration side effect)
from . import environment as _environment  # noqa: F401  (registration side effect)
from .agents import scheduler as _scheduler  # noqa: F401  (registration side effect)
from .simulation import array_engine as _array_engine  # noqa: F401  (registration side effect)
from .simulation import engine as _engine  # noqa: F401  (registration side effect)
from .simulation import probes as _probes  # noqa: F401  (registration side effect)

__all__ = [
    "ExperimentSpec",
    "Experiment",
    "ExperimentBuilder",
    "expand_grid",
]


# -- named value generators -----------------------------------------------------


def _check_count(generator: str, count: int) -> None:
    """Reject a negative instance size, naming the generator."""
    if count < 0:
        raise SpecificationError(f"{generator}: count must be non-negative, got {count}")


def _check_integer_range(generator: str, count: int, low: int, high: int) -> None:
    """Reject integer-generator parameters that describe no draw."""
    for name, value in (("count", count), ("low", low), ("high", high)):
        if not isinstance(value, int):
            raise SpecificationError(
                f"{generator}: {name} must be an integer, got {value!r}"
            )
    _check_count(generator, count)
    if high < low:
        raise SpecificationError(
            f"{generator}: high ({high}) is below low ({low}), so the range is empty"
        )


@register_value_generator("random-integers")
def random_integers(
    count: int, low: int = 0, high: int = 99, seed: int | None = None
) -> list[int]:
    """``count`` integers drawn uniformly from ``[low, high]`` (the
    ``randint`` stream of ``random.Random(seed)``, drawn in numpy batches
    when it can be; see :func:`~repro.environment.dynamics.randint_draws`)."""
    _check_integer_range("random-integers", count, low, high)
    return randint_draws(random.Random(seed), count, low, high)


@register_value_generator("random-distinct-integers")
def random_distinct_integers(
    count: int, low: int = 0, high: int = 999, seed: int | None = None
) -> list[int]:
    """``count`` pairwise-distinct integers from ``[low, high]`` (sorting
    and block-sorting instances require distinct values)."""
    _check_integer_range("random-distinct-integers", count, low, high)
    if count > high - low + 1:
        raise SpecificationError(
            f"random-distinct-integers: count ({count}) exceeds the "
            f"{high - low + 1} distinct integers in [{low}, {high}]"
        )
    rng = random.Random(seed)
    return rng.sample(range(low, high + 1), count)


@register_value_generator("random-points")
def random_points(
    count: int, arena_size: float = 100.0, seed: int | None = None
) -> list[tuple[float, float]]:
    """``count`` uniform positions in an ``arena_size`` × ``arena_size`` square
    (instances for the geometric algorithms)."""
    _check_count("random-points", count)
    rng = random.Random(seed)
    return [
        (rng.uniform(0, arena_size), rng.uniform(0, arena_size)) for _ in range(count)
    ]


# -- the spec -------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable description of one experiment.

    Every component is named through a registry and parameterized by a
    plain dictionary, so the spec round-trips through JSON and can be
    dispatched to worker processes.  The problem instance is either an
    explicit tuple of ``initial_values`` or a named ``value_generator``
    (exactly one of the two must be set).

    The ``environment_params`` may carry a declarative ``"topology"``
    entry — either a graph name (``"line"``) or a dictionary
    (``{"graph": "grid", "rows": 3, "cols": 4}``).  When omitted, the
    complete graph over the instance's agents is used.  Graph constructors
    that take ``num_agents`` receive the instance size automatically.

    ``probes`` declares the observation pipeline attached to every run:
    each entry is a registered probe name (``"temporal"``) or a dictionary
    with parameters (``{"probe": "jsonl", "path": "run-{seed}.jsonl"}``).
    ``history`` selects the run's retention mode
    (``"full"``/``"objective"``/``"none"``; None keeps the legacy
    ``record_trace`` semantics).  Both are plain data, so specs with
    probes still round-trip through JSON and fan out across worker
    processes — every worker constructs its own probe instances.

    ``engine`` selects the execution backend (``"reference"`` — the
    default, byte-identical object-per-agent simulator — or ``"array"``,
    the numpy int64 engine for the minimum/maximum/sum kernels at
    100k–1M agents); results are value-identical either way.  The array
    engine refuses, at build time, any workload its int64 kernels cannot
    run exactly, and the refusal names ``engine="reference"``.
    """

    algorithm: str
    environment: str = "static"
    scheduler: str = "maximal"
    algorithm_params: Mapping[str, Any] = field(default_factory=dict)
    environment_params: Mapping[str, Any] = field(default_factory=dict)
    scheduler_params: Mapping[str, Any] = field(default_factory=dict)
    initial_values: tuple | None = None
    value_generator: str | None = None
    generator_params: Mapping[str, Any] = field(default_factory=dict)
    seeds: tuple[int, ...] = (0,)
    max_rounds: int = 1000
    stop_at_convergence: bool = True
    extra_rounds_after_convergence: int = 0
    record_trace: bool = True
    probes: tuple = ()
    history: str | None = None
    engine: str = "reference"
    name: str | None = None

    def __post_init__(self):
        # Normalize the mutable-looking fields so that equal specs compare
        # equal and accidental aliasing cannot leak between specs.
        object.__setattr__(self, "algorithm_params", dict(self.algorithm_params))
        object.__setattr__(self, "environment_params", dict(self.environment_params))
        object.__setattr__(self, "scheduler_params", dict(self.scheduler_params))
        object.__setattr__(self, "generator_params", dict(self.generator_params))
        if self.initial_values is not None:
            object.__setattr__(
                self,
                "initial_values",
                tuple(
                    tuple(value) if isinstance(value, list) else value
                    for value in self.initial_values
                ),
            )
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(
            self,
            "probes",
            tuple(
                copy.deepcopy(dict(entry)) if isinstance(entry, Mapping) else entry
                for entry in self.probes
            ),
        )

    # -- validation ------------------------------------------------------------

    def validate(self) -> "ExperimentSpec":
        """Check the spec against the registries; return self for chaining."""
        ALGORITHMS.entry(self.algorithm)
        ENVIRONMENTS.entry(self.environment)
        SCHEDULERS.entry(self.scheduler)
        ENGINES.entry(self.engine)
        if (self.initial_values is None) == (self.value_generator is None):
            raise SpecificationError(
                "an experiment needs exactly one of initial_values or "
                "value_generator"
            )
        if self.value_generator is not None:
            VALUE_GENERATORS.entry(self.value_generator)
        topology = self.environment_params.get("topology")
        if topology is not None:
            graph, _ = _topology_request(topology)
            GRAPHS.entry(graph)
        if not self.seeds:
            raise SpecificationError("an experiment needs at least one seed")
        if not all(_is_integer(seed) for seed in self.seeds):
            raise SpecificationError(f"seeds must be integers, got {self.seeds!r}")
        # Specs arrive as JSON from outside the program (files, the
        # service): type-check the scalars before comparing them, and
        # refuse a bool where an integer belongs and a string where a
        # bool belongs ("false" is truthy).
        for name in ("max_rounds", "extra_rounds_after_convergence"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise SpecificationError(f"{name} must be an integer, got {value!r}")
        for name in ("stop_at_convergence", "record_trace"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise SpecificationError(
                    f"{name} must be true or false, got {value!r}"
                )
        if self.max_rounds < 1:
            raise SpecificationError("max_rounds must be at least 1")
        if self.extra_rounds_after_convergence < 0:
            raise SpecificationError("extra_rounds_after_convergence must be >= 0")
        for entry in self.probes:
            name, params = _probe_request(entry)
            PROBES.entry(name)
            # Probe constructors validate their own parameters eagerly
            # (history modes, temporal operators/predicates, ...), so
            # building a throwaway instance here surfaces a bad JSON spec
            # as one readable error before a batch fans out.
            PROBES.build(name, **params)
            if (
                name == "jsonl"
                and len(self.seeds) > 1
                and "{seed}" not in str(params.get("path", ""))
            ):
                # Every run opens the sink path for writing; without a
                # per-seed placeholder a multi-seed batch silently
                # clobbers all but one run's stream.
                raise SpecificationError(
                    f"jsonl probe path {params.get('path')!r} needs a "
                    f"{{seed}} placeholder when the spec declares "
                    f"{len(self.seeds)} seeds"
                )
            if (
                name == "history"
                and self.history is not None
                and params.get("history", self.history) != self.history
            ):
                # A declared history probe takes over retention, so a
                # conflicting mode would silently win over the spec field.
                raise SpecificationError(
                    f"probe entry {entry!r} pins history="
                    f"{params['history']!r} but the spec declares history="
                    f"{self.history!r}; drop one of the two"
                )
        if self.history is not None and self.history not in HISTORY_MODES:
            raise SpecificationError(
                f"history must be one of {HISTORY_MODES} (or null), "
                f"got {self.history!r}"
            )
        return self

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-data mirror of the spec (JSON-safe for JSON-safe params)."""
        data: dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = [
                    list(v)
                    if isinstance(v, tuple)
                    else copy.deepcopy(dict(v))
                    if isinstance(v, Mapping)
                    else v
                    for v in value
                ]
            elif isinstance(value, Mapping):
                value = copy.deepcopy(dict(value))
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written JSON)."""
        known = {spec_field.name for spec_field in cls.__dataclass_fields__.values()}
        unknown = set(data) - known
        if unknown:
            raise SpecificationError(
                f"unknown experiment spec fields {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        if "algorithm" not in data:
            raise SpecificationError("an experiment spec needs an 'algorithm'")
        return cls(**dict(data)).validate()

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize to JSON text."""
        return readable_json(self.to_dict(), indent=indent)

    def canonical_json(self) -> str:
        """The spec as canonical JSON: sorted keys, minimal separators.

        Two specs describing the same experiment — however their JSON was
        keyed, indented or whitespaced on the way in — canonicalize to the
        same text, which is what makes :meth:`fingerprint` a usable
        content address.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def fingerprint(self) -> str:
        """SHA-256 content address of the canonical spec JSON.

        Seeded specs are deterministic end to end, so the fingerprint
        identifies the *result* as well as the spec: it is the cache key
        of the experiment service's content-addressed result cache (two
        submissions with equal fingerprints are one simulation).  Any
        semantic field change — a seed, a parameter, the round cap —
        changes the digest; formatting choices never do.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from JSON text."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecificationError(f"invalid experiment spec JSON: {error}") from error
        if not isinstance(data, dict):
            raise SpecificationError("an experiment spec must be a JSON object")
        return cls.from_dict(data)

    def with_updates(self, updates: Mapping[str, Any]) -> "ExperimentSpec":
        """Return a copy with dotted-path overrides applied.

        Top-level fields are addressed by name (``"max_rounds"``); entries
        of the parameter dictionaries by dotted path
        (``"environment_params.edge_up_probability"``).
        """
        data = self.to_dict()
        for path, value in updates.items():
            head, _, rest = path.partition(".")
            if head not in data:
                raise SpecificationError(
                    f"cannot override unknown spec field {head!r} (from {path!r})"
                )
            if rest:
                target = data[head]
                if not isinstance(target, dict):
                    raise SpecificationError(
                        f"{head!r} is not a parameter dictionary (from {path!r})"
                    )
                *parents, leaf = rest.split(".")
                for parent in parents:
                    target = target.setdefault(parent, {})
                target[leaf] = value
            else:
                data[head] = value
        return type(self).from_dict(data)

    # -- execution -------------------------------------------------------------

    def resolve_values(self, seed: int | None = None) -> list:
        """The problem instance: explicit values, or the named generator's
        output (the generator receives the run seed unless its parameters
        pin one explicitly)."""
        if self.initial_values is not None:
            return list(self.initial_values)
        assert self.value_generator is not None  # validate() enforces this
        params = dict(self.generator_params)
        if (
            seed is not None
            and "seed" not in params
            and VALUE_GENERATORS.accepts(self.value_generator, "seed")
        ):
            params["seed"] = seed
        return list(VALUE_GENERATORS.build(self.value_generator, **params))

    def build(self, seed: int | None = None) -> Engine:
        """Materialize the spec into a ready-to-run engine.

        The ``engine`` field selects the execution backend through the
        engine registry: ``"reference"`` (the default) builds the classic
        object-per-agent :class:`~repro.simulation.engine.Simulator`,
        ``"array"`` the struct-of-arrays
        :class:`~repro.simulation.array_engine.ArrayEngine`.  Both are
        :class:`~repro.simulation.protocol.Engine` subclasses and produce
        value-identical results on every workload the array engine
        admits; it raises :class:`SpecificationError` for the rest
        (no numpy, a non-int64 kernel, non-int or out-of-range values).

        ``seed`` defaults to the spec's first seed.  Environments whose
        constructor accepts a ``seed`` receive the run seed unless the
        spec pins one, so each repeated run gets its own environment.
        """
        self.validate()
        if seed is None:
            seed = self.seeds[0]
        values = self.resolve_values(seed)

        entry = ALGORITHMS.entry(self.algorithm)
        algorithm_params = dict(self.algorithm_params)
        if entry.prepare is not None:
            algorithm_params = entry.prepare(algorithm_params, list(values))
        algorithm = ALGORITHMS.build(self.algorithm, **algorithm_params)
        if entry.adapt_values is not None:
            values = list(entry.adapt_values(algorithm, values))
        num_agents = len(values)

        environment_params = dict(self.environment_params)
        topology_request = environment_params.pop("topology", None)
        if ENVIRONMENTS.accepts(self.environment, "topology"):
            environment_params["topology"] = _build_topology(
                topology_request, num_agents, seed
            )
        elif topology_request is not None:
            raise SpecificationError(
                f"environment {self.environment!r} does not take a topology"
            )
        elif ENVIRONMENTS.accepts(self.environment, "num_agents"):
            environment_params.setdefault("num_agents", num_agents)
        if "seed" not in environment_params and ENVIRONMENTS.accepts(
            self.environment, "seed"
        ):
            environment_params["seed"] = seed
        environment = ENVIRONMENTS.build(self.environment, **environment_params)

        scheduler = SCHEDULERS.build(self.scheduler, **dict(self.scheduler_params))

        return ENGINES.build(
            self.engine,
            algorithm=algorithm,
            environment=environment,
            initial_values=values,
            scheduler=scheduler,
            seed=seed,
        )

    def build_probes(self) -> list[Probe]:
        """Construct fresh probe instances from the spec's declarations.

        Called once per run (and therefore once per batch worker), so
        stateful probes never leak observations between runs or across
        process boundaries.
        """
        instances = []
        for entry in self.probes:
            name, params = _probe_request(entry)
            if name == "history" and "history" not in params:
                # A declared history probe takes over retention in the
                # driver; it must honour the retention the spec selects —
                # the history field, or the legacy record_trace mapping —
                # rather than silently reverting to full retention.
                params["history"] = self.effective_history
            instance = PROBES.build(name, **params)
            attach_spec = getattr(instance, "attach_spec", None)
            if attach_spec is not None:
                # Checkpoint-writing probes embed the originating spec in
                # every file, so `repro resume <path>` can rebuild the
                # whole run from the checkpoint alone.
                attach_spec(self)
            instances.append(instance)
        return instances

    @property
    def effective_history(self) -> str:
        """The retention mode this spec's runs actually use.

        The one place a spec resolves its three retention knobs (see
        :func:`~repro.simulation.protocol.resolve_history`): a declared
        ``history`` probe's pinned mode wins, then the ``history`` field,
        then the legacy ``record_trace`` mapping (True → ``"full"``,
        False → ``"objective"``).  :meth:`run_kwargs` hands the driver
        this value.
        """
        pinned = None
        for entry in self.probes:
            name, params = _probe_request(entry)
            if name == "history":
                pinned = params.get("history")
                break
        return resolve_history(self.record_trace, self.history, pinned)

    def run_kwargs(self) -> dict:
        """The engine-driver keyword arguments this spec declares
        (stopping policy, fresh probes, retention mode)."""
        kwargs: dict[str, Any] = {
            "max_rounds": self.max_rounds,
            "stop_at_convergence": self.stop_at_convergence,
            "extra_rounds_after_convergence": self.extra_rounds_after_convergence,
            "history": self.effective_history,
        }
        if self.probes:
            kwargs["probes"] = self.build_probes()
        return kwargs

    def run(self, seed: int | None = None) -> SimulationResult:
        """Build and run one simulation (``seed`` defaults to the first seed).

        The result keeps the full trace its retention selects, for
        in-process temporal checks; :meth:`run_dict` is the cheaper call
        when only :meth:`SimulationResult.to_dict` is kept.
        """
        return self._drive(seed, None, count_trace=False)

    def resume(self, checkpoint) -> SimulationResult:
        """Resume a checkpointed run of this spec to completion.

        ``checkpoint`` is a
        :class:`~repro.simulation.checkpoint.RunCheckpoint` or a path to
        one.  The simulator is rebuilt for the checkpoint's seed, restored,
        and driven with this spec's stopping policy and a fresh instance of
        its probe pipeline (whose states the checkpoint restores) — the
        completed :class:`SimulationResult` is byte-identical to the
        uninterrupted run's.  Retention follows the checkpoint: one written
        by a dictionary-returning run (:meth:`run_dict`) resumes with a
        counted trace.
        """
        return self._drive(None, RunCheckpoint.load(checkpoint), count_trace=False)

    def run_dict(self, seed: int | None = None, resume_from=None) -> dict:
        """Run (or, with ``resume_from``, resume) one simulation and return
        its :meth:`SimulationResult.to_dict`.

        The entry point of every caller that keeps only the dictionary —
        batch and service units, ``repro resume``.  The dictionary equals
        ``self.run(seed).to_dict()`` byte for byte, but under ``"full"``
        retention the run keeps a counted trace
        (:class:`~repro.temporal.trace.CountedTrace`) instead of every
        round's multiset, so its rolling checkpoints carry a count rather
        than the whole history.
        """
        checkpoint = None if resume_from is None else RunCheckpoint.load(resume_from)
        return self._drive(seed, checkpoint, count_trace=True).to_dict()

    def _drive(
        self, seed: int | None, checkpoint: RunCheckpoint | None, count_trace: bool
    ) -> SimulationResult:
        """Build the engine (for the checkpoint's seed when resuming) and
        run it under this spec's driver arguments."""
        engine = self.build(seed if checkpoint is None else checkpoint.seed)
        return engine.run(
            **self.run_kwargs(), resume_from=checkpoint, count_trace=count_trace
        )

    def run_all(self) -> list[SimulationResult]:
        """Run the experiment once per declared seed, in order."""
        return [self.run(seed) for seed in self.seeds]

    @property
    def label(self) -> str:
        """The spec's name, or a synthesized ``algorithm@environment`` tag."""
        return self.name or f"{self.algorithm}@{self.environment}"


def _is_integer(value: Any) -> bool:
    """True for an ``int`` that is not a ``bool`` (JSON ``true`` is not 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _probe_request(entry: Any) -> tuple[str, dict]:
    """Normalize a declarative probe (name or dict) to (name, params)."""
    if isinstance(entry, str):
        return entry, {}
    if isinstance(entry, Mapping):
        params = dict(entry)
        name = params.pop("probe", None)
        if not isinstance(name, str):
            raise SpecificationError(
                f"a probe dictionary needs a 'probe' name, got {entry!r}"
            )
        return name, params
    raise SpecificationError(
        f"a probe must be a registered name or a dictionary, got {entry!r}"
    )


def _topology_request(topology: Any) -> tuple[str, dict]:
    """Normalize a declarative topology (name or dict) to (graph, params)."""
    if isinstance(topology, str):
        return topology, {}
    if isinstance(topology, Mapping):
        params = dict(topology)
        graph = params.pop("graph", None)
        if not isinstance(graph, str):
            raise SpecificationError(
                f"a topology dictionary needs a 'graph' name, got {topology!r}"
            )
        return graph, params
    raise SpecificationError(
        f"topology must be a graph name or a dictionary, got {topology!r}"
    )


def _build_topology(topology: Any, num_agents: int, seed: int | None = None):
    """Build the fixed communication graph for ``num_agents`` agents.

    Stochastic graph constructors (``random``, ``random-connected``)
    receive the run seed unless the spec pins one, so a seeded spec stays
    reproducible end to end."""
    if topology is None:
        topology = "complete"
    graph, params = _topology_request(topology)
    if "num_agents" not in params and GRAPHS.accepts(graph, "num_agents"):
        params["num_agents"] = num_agents
    if seed is not None and "seed" not in params and GRAPHS.accepts(graph, "seed"):
        params["seed"] = seed
    return GRAPHS.build(graph, **params)


def expand_grid(
    base: ExperimentSpec, grid: Mapping[str, Sequence[Any]]
) -> list[ExperimentSpec]:
    """Expand a parameter grid into one spec per combination.

    ``grid`` maps dotted override paths (see
    :meth:`ExperimentSpec.with_updates`) to the values to sweep; the
    cartesian product is taken in the grid's key order.  Each produced
    spec is named ``<base label>[k=v, ...]`` so batch reports stay
    readable.

    >>> specs = expand_grid(spec, {"environment_params.edge_up_probability":
    ...                            [0.1, 0.5, 1.0]})
    """
    specs = [base]
    for path, choices in grid.items():
        choices = list(choices)
        if not choices:
            raise SpecificationError(f"grid entry {path!r} has no values")
        specs = [
            spec.with_updates(
                {
                    path: choice,
                    "name": _grid_name(spec, path, choice),
                }
            )
            for spec in specs
            for choice in choices
        ]
    return specs


def _grid_name(spec: ExperimentSpec, path: str, choice: Any) -> str:
    leaf = path.rsplit(".", 1)[-1]
    base = spec.label
    if base.endswith("]"):
        return f"{base[:-1]}, {leaf}={choice}]"
    return f"{base}[{leaf}={choice}]"


# -- the fluent builder ---------------------------------------------------------


class Experiment:
    """A named experiment: a spec plus conveniences to run it.

    ``Experiment.builder()`` is the programmatic construction path; the
    JSON path is :meth:`from_json` / :meth:`ExperimentSpec.from_json`.
    """

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec.validate()

    @staticmethod
    def builder() -> "ExperimentBuilder":
        """Start a fluent experiment definition."""
        return ExperimentBuilder()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Experiment":
        return cls(ExperimentSpec.from_dict(data))

    @classmethod
    def from_json(cls, text: str) -> "Experiment":
        return cls(ExperimentSpec.from_json(text))

    def simulator(self, seed: int | None = None) -> Engine:
        """The materialized simulator for one run (see :meth:`ExperimentSpec.build`)."""
        return self.spec.build(seed)

    def run(self, seed: int | None = None) -> SimulationResult:
        return self.spec.run(seed)

    def run_all(self) -> list[SimulationResult]:
        return self.spec.run_all()

    def to_json(self, indent: int | None = 2) -> str:
        return self.spec.to_json(indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Experiment({self.spec.label!r})"


class ExperimentBuilder:
    """Fluent construction of an :class:`ExperimentSpec`.

    Every method returns the builder, so a spec reads as one chained
    sentence; :meth:`build` validates and freezes the result.
    """

    def __init__(self):
        self._fields: dict[str, Any] = {}

    def _set(self, **kwargs: Any) -> "ExperimentBuilder":
        self._fields.update(kwargs)
        return self

    def named(self, name: str) -> "ExperimentBuilder":
        """Name the experiment (used in batch reports and grid labels)."""
        return self._set(name=name)

    def algorithm(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Choose the registered algorithm and its factory parameters."""
        return self._set(algorithm=name, algorithm_params=params)

    def environment(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Choose the registered environment and its constructor parameters."""
        merged = dict(params)
        existing = self._fields.get("environment_params", {})
        if "topology" in existing and "topology" not in merged:
            merged["topology"] = existing["topology"]
        return self._set(environment=name, environment_params=merged)

    def topology(self, graph: str, **params: Any) -> "ExperimentBuilder":
        """Choose the fixed communication graph (a registered constructor)."""
        environment_params = dict(self._fields.get("environment_params", {}))
        environment_params["topology"] = {"graph": graph, **params} if params else graph
        return self._set(environment_params=environment_params)

    def scheduler(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Choose the registered group scheduler."""
        return self._set(scheduler=name, scheduler_params=params)

    def values(self, *values: Any) -> "ExperimentBuilder":
        """Set the problem instance explicitly (varargs or one iterable)."""
        if len(values) == 1 and isinstance(values[0], (list, tuple)):
            values = tuple(values[0])
        return self._set(initial_values=tuple(values), value_generator=None)

    def generator(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Draw the problem instance from a registered value generator."""
        return self._set(
            value_generator=name, generator_params=params, initial_values=None
        )

    def seeds(self, *seeds: int) -> "ExperimentBuilder":
        """Declare the seeds the experiment covers (one run per seed)."""
        if len(seeds) == 1 and isinstance(seeds[0], (list, tuple, range)):
            seeds = tuple(seeds[0])
        return self._set(seeds=tuple(seeds))

    def max_rounds(self, max_rounds: int) -> "ExperimentBuilder":
        """Cap the number of simulated rounds per run."""
        return self._set(max_rounds=max_rounds)

    def stop_at_convergence(self, stop: bool = True) -> "ExperimentBuilder":
        return self._set(stop_at_convergence=stop)

    def extra_rounds_after_convergence(self, rounds: int) -> "ExperimentBuilder":
        return self._set(extra_rounds_after_convergence=rounds)

    def record_trace(self, record: bool = True) -> "ExperimentBuilder":
        return self._set(record_trace=record)

    def probe(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Attach a registered observation probe to every run (repeatable)."""
        entry = {"probe": name, **params} if params else name
        return self._set(probes=(*self._fields.get("probes", ()), entry))

    def history(self, mode: str) -> "ExperimentBuilder":
        """Choose the run's retention mode (``full``/``objective``/``none``)."""
        return self._set(history=mode)

    def engine(self, name: str) -> "ExperimentBuilder":
        """Choose the execution backend (``reference``/``array``)."""
        return self._set(engine=name)

    def build(self) -> ExperimentSpec:
        """Validate and freeze the spec."""
        if "algorithm" not in self._fields:
            raise SpecificationError("an experiment needs an algorithm")
        return ExperimentSpec(**self._fields).validate()

    def experiment(self) -> Experiment:
        """Build and wrap in an :class:`Experiment`."""
        return Experiment(self.build())
