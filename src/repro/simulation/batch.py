"""Parallel execution of declarative experiments.

A :class:`BatchRunner` takes a list (or grid) of
:class:`~repro.experiment.ExperimentSpec` and executes every (spec, seed)
pair across a :mod:`concurrent.futures` pool.  Because specs and results
are plain serializable data, the work units cross process boundaries
untouched: each worker rebuilds its spec from a dictionary, runs the
simulator, and ships back :meth:`SimulationResult.to_dict` (through
:meth:`~repro.experiment.ExperimentSpec.run_dict`, so a unit counts its
trace instead of keeping it) — nothing in the hot path depends on shared
state, which is what lets one driver fan a parameter study out over every
core.

The produced :class:`BatchResult` aggregates per-experiment statistics
(via :func:`repro.simulation.metrics.aggregate_records`) and serializes to
JSON, so batch outputs can be persisted, diffed across runs, and fed to
downstream tooling::

    specs = expand_grid(base, {"environment_params.edge_up_probability":
                               [0.1, 0.3, 1.0]})
    batch = BatchRunner(max_workers=4).run(specs)
    path.write_text(batch.to_json())

Single runs inside each worker are byte-identical to calling
``spec.run(seed)`` in-process: the runner adds distribution, never
different semantics.
"""

from __future__ import annotations

import json
import os
import pathlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from ..core.durable import atomic_write_text, quarantine
from ..core.errors import SpecificationError
from .checkpoint import load_newest_verified
from .metrics import (
    RunStatistics,
    aggregate_records,
    format_table,
    statistics_from_payloads,
)
from .probes import StatsProbe
from .result import readable_json

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from ..experiment import ExperimentSpec

__all__ = ["BatchItem", "BatchResult", "BatchRunner"]

#: Executor backends the runner knows how to drive.
BACKENDS = ("process", "serial")

#: Name of the batch manifest written into a checkpoint directory.
MANIFEST_NAME = "manifest.json"

#: Identifies batch manifests (the ``format`` key of the JSON object).
MANIFEST_FORMAT = "repro-batch-manifest"

#: The directory that holds the ``repro`` package; recorded tracebacks
#: name the package's files relative to it.
_PACKAGE_PARENT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
)


def _execute_payload(payload: tuple[dict, int]) -> dict:
    """Run one (spec dict, seed) work unit — the function shipped to workers.

    Module-level so it pickles; imports lazily so a worker process only
    pays for what it runs (and so this module never participates in an
    import cycle with :mod:`repro.experiment`).
    """
    spec_data, seed = payload
    from ..experiment import ExperimentSpec

    return ExperimentSpec.from_dict(spec_data).run_dict(seed)


def _execute_durable_payload(payload: tuple[dict, int, str]) -> dict:
    """Run one fault-tolerant work unit (its spec carries a checkpoint probe).

    Idempotent by construction, which is the whole resume story:

    * a persisted ``result.json`` means the unit already completed — load
      and return it, byte for byte (resume skips completed units);
    * otherwise, the newest engine ``round-*.json`` that *verifies*
      (embedded digest + parse; see
      :func:`~repro.simulation.checkpoint.load_newest_verified`) means
      the unit was in flight when the batch died — restore and finish it
      (the result is byte-identical to an uninterrupted run of the
      unit), with anything corrupt quarantined along the way;
    * otherwise, run the unit from the start.

    The completed result is persisted atomically before it is returned,
    so a retry or a batch resume can always trust what it finds — and a
    result file that stopped parsing is quarantined and the unit re-run,
    never served.
    """
    spec_data, seed, unit_dir_text = payload
    from ..experiment import ExperimentSpec

    unit_dir = pathlib.Path(unit_dir_text)
    result_path = unit_dir / "result.json"
    if result_path.exists():
        try:
            return json.loads(result_path.read_text())
        except (OSError, ValueError) as error:
            quarantine(result_path, f"corrupt persisted unit result: {error}")

    spec = ExperimentSpec.from_dict(spec_data)
    checkpoint = load_newest_verified(unit_dir / "engine")
    data = spec.run_dict(seed, resume_from=checkpoint)
    atomic_write_text(result_path, json.dumps(data))
    return data


@dataclass(frozen=True)
class BatchItem:
    """Outcome of one (experiment, seed) work unit."""

    label: str
    seed: int
    spec: dict
    result: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the run completed (converged or not) without raising."""
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "spec": self.spec,
            "result": self.result,
            "error": self.error,
        }


class BatchResult:
    """All outcomes of one batch, with aggregation and serialization."""

    def __init__(self, items: Sequence[BatchItem]):
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def labels(self) -> list[str]:
        """Experiment labels in first-seen order."""
        seen: dict[str, None] = {}
        for item in self.items:
            seen.setdefault(item.label, None)
        return list(seen)

    def results_for(self, label: str) -> list[dict]:
        """The serialized results of every completed run of one experiment."""
        return [
            item.result
            for item in self.items
            if item.label == label and item.result is not None
        ]

    def failures(self) -> list[BatchItem]:
        """Work units that raised instead of completing."""
        return [item for item in self.items if not item.ok]

    def completed(self) -> list[BatchItem]:
        """Work units that finished (graceful degradation keeps these)."""
        return [item for item in self.items if item.ok]

    def failure_records(self) -> list[dict]:
        """Per-unit failure summaries — the degradation report a partial
        batch ships alongside its completed results."""
        return [
            {"label": item.label, "seed": item.seed, "error": item.error}
            for item in self.failures()
        ]

    def statistics(self) -> dict[str, RunStatistics]:
        """Per-experiment summary statistics over the completed runs."""
        return {
            label: aggregate_records(self.results_for(label))
            for label in self.labels()
        }

    def probe_payloads(self, label: str) -> dict[str, list]:
        """Probe payloads of one experiment's completed runs, merged by
        probe name (one payload per run, in item order).

        Workers construct their own probe instances and ship payloads back
        inside the serialized result, so this is how streaming
        observability crosses the process boundary: a fanned-out sweep's
        online temporal verdicts or running statistics are collected here
        without any shared state.
        """
        merged: dict[str, list] = {}
        for record in self.results_for(label):
            for name, payload in (record.get("probes") or {}).items():
                merged.setdefault(name, []).append(payload)
        return merged

    def probe_statistics(self, label: str) -> RunStatistics:
        """Merge ``stats``-probe payloads of one experiment into a single
        :class:`RunStatistics` (see
        :func:`~repro.simulation.metrics.statistics_from_payloads`)."""
        payloads = self.probe_payloads(label).get(StatsProbe.name, [])
        return statistics_from_payloads(payloads)

    def summary_table(self) -> str:
        """An aligned text table of per-experiment statistics."""
        rows = []
        for label, stats in self.statistics().items():
            rows.append(
                [
                    label,
                    stats.runs,
                    f"{stats.convergence_rate:.2f}",
                    stats.median_rounds,
                    f"{stats.correctness_rate:.2f}",
                ]
            )
        return format_table(
            ["experiment", "runs", "conv. rate", "median rounds", "correct"], rows
        )

    def to_dict(self) -> dict:
        return {"items": [item.to_dict() for item in self.items]}

    def to_json(self, indent: int | None = 2) -> str:
        return readable_json(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BatchResult":
        return cls([BatchItem(**item) for item in data["items"]])

    @classmethod
    def from_json(cls, text: str) -> "BatchResult":
        return cls.from_dict(json.loads(text))


class BatchRunner:
    """Execute many experiment specs across a worker pool.

    Parameters
    ----------
    max_workers:
        Pool size; None lets :mod:`concurrent.futures` pick (one worker
        per core for processes).
    backend:
        ``"process"`` (default — true parallelism, results cross process
        boundaries as dictionaries) or ``"serial"`` (in-process,
        deterministic ordering, no pool — the debugging mode).
    retries:
        How many times a failed work unit is re-attempted before its
        failure is recorded (default 0 — fail on first error, the classic
        behaviour).  With a checkpoint directory, a retried unit restores
        from its latest engine checkpoint instead of starting over.
    retry_backoff:
        Base delay (seconds) of the exponential per-unit backoff between
        retry attempts, with deterministic jitter (default 0.0 — retry
        immediately).  A transient failure shared by many units — a full
        disk, an overloaded host — deserves breathing room before the
        whole pool hammers it again.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        backend: str = "process",
        retries: int = 0,
        retry_backoff: float = 0.0,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.max_workers = max_workers
        self.backend = backend
        self.retries = retries
        self.retry_backoff = float(retry_backoff)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        specs: "ExperimentSpec | Iterable[ExperimentSpec]",
        checkpoint_dir: str | pathlib.Path | None = None,
        checkpoint_every: int = 100,
        durable_probes: Callable[
            ["ExperimentSpec", int, pathlib.Path], Sequence
        ] | None = None,
    ) -> BatchResult:
        """Run every (spec, seed) pair; one item per pair, in declaration order.

        A raising work unit records its traceback in the corresponding
        :class:`BatchItem` instead of aborting the batch — a 200-point
        sweep should not lose 199 results to one bad configuration.

        With ``checkpoint_dir`` the batch becomes *durable*: each unit
        gets a private subdirectory holding rolling engine checkpoints
        (written by an injected
        :class:`~repro.simulation.probes.CheckpointProbe` every
        ``checkpoint_every`` rounds) and its persisted result, and the
        directory gains a manifest describing the whole batch.  If the
        process dies mid-sweep, :meth:`resume` on the same directory
        completes the batch: finished units are loaded from their
        persisted results, in-flight units restore from their latest
        checkpoint, and the merged :class:`BatchResult` is identical to
        what the uninterrupted batch would have produced.

        ``durable_probes`` customizes what a durable unit's spec carries:
        called as ``(spec, seed, unit_dir)``, it returns the declarative
        probe entries appended to the spec (replacing the default single
        checkpoint-probe entry).  The experiment service uses it to add
        its live event stream and to silence the checkpoint payload; the
        returned entries are recorded in the manifest, so :meth:`resume`
        rebuilds the exact same pipeline.
        """
        from ..experiment import ExperimentSpec

        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        units: list[tuple[str, dict, int, str | None]] = []
        base = None if checkpoint_dir is None else pathlib.Path(checkpoint_dir)
        for spec in specs:
            spec.validate()
            if base is None:
                data = spec.to_dict()
                for seed in spec.seeds:
                    units.append((spec.label, data, seed, None))
                continue
            for seed in spec.seeds:
                unit_dir = base / f"unit-{len(units):04d}"
                if durable_probes is None:
                    entries: list = [
                        {
                            "probe": "checkpoint",
                            "every": checkpoint_every,
                            "directory": str(unit_dir / "engine"),
                        }
                    ]
                else:
                    entries = list(durable_probes(spec, seed, unit_dir))
                durable = spec.with_updates(
                    {"probes": list(spec.probes) + entries}
                )
                units.append((spec.label, durable.to_dict(), seed, str(unit_dir)))

        if base is not None:
            self._write_manifest(base, units, checkpoint_every)
        return self._execute_units(units)

    def resume(self, checkpoint_dir: str | pathlib.Path) -> BatchResult:
        """Finish an interrupted durable batch from its checkpoint directory.

        Re-executes the manifest's units through the same idempotent path
        as :meth:`run`: completed units return their persisted results
        untouched, interrupted units restore from their latest engine
        checkpoint (or start over if they died before the first one), and
        the merged result equals the uninterrupted batch's.
        """
        base = pathlib.Path(checkpoint_dir)
        manifest_path = base / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as error:
            raise SpecificationError(
                f"cannot resume batch from {base}: {error}"
            ) from error
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SpecificationError(
                f"{manifest_path} is not a batch manifest "
                f"(format {manifest.get('format')!r})"
            )
        units = [
            (unit["label"], unit["spec"], unit["seed"], unit["unit_dir"])
            for unit in manifest["units"]
        ]
        return self._execute_units(units)

    def run_grid(
        self,
        base: "ExperimentSpec",
        grid: Mapping[str, Sequence[Any]],
        checkpoint_dir: str | pathlib.Path | None = None,
        checkpoint_every: int = 100,
    ) -> BatchResult:
        """Expand ``grid`` against ``base`` (see
        :func:`repro.experiment.expand_grid`) and run the whole sweep."""
        from ..experiment import expand_grid

        return self.run(
            expand_grid(base, grid),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )

    # -- internals -------------------------------------------------------------

    def _execute_units(
        self, units: Sequence[tuple[str, dict, int, str | None]]
    ) -> BatchResult:
        payloads = []
        durable = False
        for _, data, seed, unit_dir in units:
            if unit_dir is None:
                payloads.append((data, seed))
            else:
                durable = True
                payloads.append((data, seed, unit_dir))
        fn = _execute_durable_payload if durable else _execute_payload
        outcomes = self._map(fn, payloads)

        items = []
        for (label, data, seed, _), (result, error) in zip(units, outcomes):
            items.append(
                BatchItem(label=label, seed=seed, spec=data, result=result, error=error)
            )
        return BatchResult(items)

    @staticmethod
    def _write_manifest(
        base: pathlib.Path,
        units: Sequence[tuple[str, dict, int, str | None]],
        checkpoint_every: int,
    ) -> None:
        base.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": MANIFEST_FORMAT,
            "checkpoint_every": checkpoint_every,
            "units": [
                {
                    "index": index,
                    "label": label,
                    "seed": seed,
                    "spec": data,
                    "unit_dir": unit_dir,
                }
                for index, (label, data, seed, unit_dir) in enumerate(units)
            ],
        }
        path = base / MANIFEST_NAME
        if path.exists():
            # The durable workers trust whatever persisted state they find
            # in their unit directories, so pointing a *different* batch
            # at a used directory would silently serve the old batch's
            # results.  The same batch is fine — run() on its own
            # directory is resume().
            existing = json.loads(path.read_text())
            if existing != manifest:
                raise SpecificationError(
                    f"{base} already holds a different batch (its manifest "
                    "does not match these specs); resume() that batch, or "
                    "use a fresh checkpoint directory"
                )
            return
        atomic_write_text(path, readable_json(manifest))

    def _map(
        self, fn: Callable[[Any], Any], payloads: Sequence[Any]
    ) -> list[tuple[Any, str | None]]:
        """Apply ``fn`` to every payload, capturing per-unit failures."""
        policy = self._retry_policy()
        if self.backend == "serial" or len(payloads) <= 1:
            return [_guard(fn, payload, self.retries, policy) for payload in payloads]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [
                pool.submit(_guard, fn, payload, self.retries, policy)
                for payload in payloads
            ]
            return [future.result() for future in futures]

    def _retry_policy(self):
        """The between-attempt backoff policy (None = classic immediate
        retry).  Imported lazily: the faults layer is optional machinery
        for the hot path, and a plain frozen dataclass, so it pickles to
        process workers like any other payload."""
        if self.retry_backoff <= 0.0:
            return None
        from ..faults.retry import RetryPolicy

        return RetryPolicy(
            retries=self.retries,
            base_delay=self.retry_backoff,
            max_delay=max(self.retry_backoff * 8, self.retry_backoff),
        )


def _guard(
    fn: Callable[[Any], Any], payload: Any, retries: int = 0, policy=None
) -> tuple[Any, str | None]:
    """Run one unit, converting an exception into a recorded traceback.

    ``retries`` extra attempts run before the failure is recorded; the
    traceback kept is the last attempt's.  ``policy`` (a
    :class:`~repro.faults.retry.RetryPolicy`) spaces the attempts with
    exponential, deterministically-jittered backoff, keyed per unit so
    concurrent retriers never thunder in step.
    """
    error = None
    for attempt in range(retries + 1):
        if attempt and policy is not None:
            policy.sleep_before(attempt, key=_payload_key(payload))
        try:
            return fn(payload), None
        except Exception as failure:  # noqa: BLE001 - any worker failure becomes data
            error = format_failure(failure)
    return None, error


def format_failure(error: BaseException) -> str:
    """``error``'s traceback as :func:`traceback.format_exc` writes it, except
    that frames inside the ``repro`` package name their file relative to the
    package's parent directory (``repro/simulation/batch.py``).

    A recorded failure therefore reads the same from every checkout.
    Chained exceptions get the same treatment; source lines and exception
    messages are kept as they are.
    """
    # The report reads every source line as it is built, so renaming a
    # frame's file afterwards keeps its line.  It is a tree: it wraps each
    # chained exception once.
    report = traceback.TracebackException.from_exception(error, compact=True)
    prefix = os.path.join(_PACKAGE_PARENT, "repro", "")
    pending = [report]
    while pending:
        current = pending.pop()
        for frame in current.stack:
            path = os.path.realpath(frame.filename)
            if path.startswith(prefix):
                frame.filename = os.path.relpath(path, _PACKAGE_PARENT).replace(
                    os.sep, "/"
                )
        pending.extend(
            chained
            for chained in (current.__cause__, current.__context__)
            if chained is not None
        )
        pending.extend(current.exceptions or ())
    return "".join(report.format())


def _payload_key(payload: Any) -> str:
    """A stable per-unit jitter key: the seed plus (when durable) the
    unit directory — unique within a batch, identical across replays."""
    if isinstance(payload, tuple) and len(payload) == 3:
        return f"{payload[1]}:{payload[2]}"
    if isinstance(payload, tuple) and len(payload) == 2:
        return str(payload[1])
    return ""

