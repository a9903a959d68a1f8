"""The durable job queue behind the experiment service.

A submitted spec (or sweep) becomes a :class:`Job`: a persisted record
plus a private directory in which the run executes as a *durable*
:class:`~repro.simulation.batch.BatchRunner` batch — per-unit checkpoint
directories, rolling engine checkpoints, idempotent persisted results.
That reuse is the whole fault-tolerance story:

* a worker crash loses nothing: on the next start the job is re-queued
  and ``BatchRunner.resume`` loads completed units from their persisted
  results and restores in-flight units from their latest
  :class:`~repro.simulation.checkpoint.EngineCheckpoint`;
* a graceful drain (SIGTERM on ``repro serve``) asks the in-flight run —
  through the injected :class:`~repro.service.streams.ServiceSinkProbe`
  — to write one more rolling checkpoint and raise
  :class:`JobInterrupted` at the next round boundary; the job goes back
  to ``queued`` and the worker stops;
* completed results are written behind the content-addressed
  :class:`~repro.service.cache.ResultCache`, so the *next* identical
  submission never reaches this module at all.

Everything on disk is plain JSON written atomically; the in-memory parts
(queue, broker channels) rebuild from it on start.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import queue
import threading
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from ..core.durable import atomic_write_text, quarantine
from ..core.errors import SpecificationError
from ..experiment import ExperimentSpec, expand_grid
from ..simulation.batch import MANIFEST_NAME, BatchRunner, format_failure
from ..simulation.result import readable_json
from .cache import ResultCache
from .streams import BROKER, EventBroker

__all__ = [
    "Job",
    "JobInterrupted",
    "JobQueue",
    "JobStore",
    "Submission",
    "JOB_STATUSES",
]

#: ``format`` key identifying a persisted job record.
JOB_FORMAT = "repro-service-job"

#: The job lifecycle.  ``queued`` → ``running`` → ``done``/``failed``;
#: a drained or crashed ``running`` job returns to ``queued``.
JOB_STATUSES = ("queued", "running", "done", "failed")


class JobInterrupted(BaseException):
    """Cooperative stop of an in-flight run (drain), raised at a round
    boundary right after a rolling checkpoint was written.

    A ``BaseException`` on purpose: the batch layer's per-unit failure
    capture and retry loop handle ``Exception`` — an interruption is not
    a failure and must pass straight through to the worker loop.
    """


@dataclass(frozen=True)
class Submission:
    """The ``POST /runs`` envelope, validated: one spec, optionally a grid.

    The wire format accepts either a bare :class:`ExperimentSpec` JSON
    object or ``{"spec": {...}, "grid": {...}, "force": bool}``; ``grid``
    maps dotted override paths to value lists and expands exactly like
    ``repro sweep`` (:func:`repro.experiment.expand_grid`).  ``force``
    bypasses the result cache and in-flight dedup (it never participates
    in the fingerprint — forcing a run must not change its identity).
    """

    spec: ExperimentSpec
    grid: Mapping[str, list] | None = None
    force: bool = False

    @classmethod
    def from_payload(cls, data: Any) -> "Submission":
        if not isinstance(data, Mapping):
            raise SpecificationError(
                "a submission must be a JSON object (an experiment spec, "
                "or {'spec': ..., 'grid': ..., 'force': ...})"
            )
        data = dict(data)
        if "spec" not in data:
            # A bare spec object.
            return cls(spec=ExperimentSpec.from_dict(data))
        spec_data = data.pop("spec")
        grid = data.pop("grid", None)
        force = bool(data.pop("force", False))
        if data:
            raise SpecificationError(
                f"unknown submission fields {sorted(data)}; known: "
                "spec, grid, force"
            )
        if grid is not None:
            if not isinstance(grid, Mapping) or not all(
                isinstance(choices, list) for choices in grid.values()
            ):
                raise SpecificationError(
                    "a submission grid must map dotted override paths to "
                    f"JSON lists of values, got {grid!r}"
                )
        spec = ExperimentSpec.from_dict(spec_data)
        submission = cls(spec=spec, grid=dict(grid) if grid else None, force=force)
        submission.expanded()  # fail fast on a bad grid path
        return submission

    def expanded(self) -> list[ExperimentSpec]:
        """The specs this submission runs (grid expansion, in grid order)."""
        if not self.grid:
            return [self.spec]
        return expand_grid(self.spec, self.grid)

    def unit_count(self) -> int:
        """How many (spec, seed) work units the submission fans out to."""
        return sum(len(spec.seeds) for spec in self.expanded())

    def fingerprint(self) -> str:
        """Content address of the submission (cache key).

        A bare spec fingerprints as itself — byte-equal to
        :meth:`ExperimentSpec.fingerprint` — so offline callers can
        predict the service's cache key; a sweep folds the canonical grid
        into the digest.
        """
        if not self.grid:
            return self.spec.fingerprint()
        canonical = json.dumps(
            {"grid": self.grid, "spec": self.spec.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        data: dict[str, Any] = {"spec": self.spec.to_dict()}
        if self.grid:
            data["grid"] = {path: list(choices) for path, choices in self.grid.items()}
        return data


@dataclass
class Job:
    """One submission's lifecycle record (persisted as ``job.json``)."""

    id: str
    fingerprint: str
    submission: dict
    status: str = "queued"
    cached: bool = False
    channels: tuple = ()
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "format": JOB_FORMAT,
            "id": self.id,
            "fingerprint": self.fingerprint,
            "submission": self.submission,
            "status": self.status,
            "cached": self.cached,
            "channels": list(self.channels),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        if data.get("format") != JOB_FORMAT:
            raise SpecificationError(
                f"not a service job record (format {data.get('format')!r})"
            )
        return cls(
            id=data["id"],
            fingerprint=data["fingerprint"],
            submission=dict(data["submission"]),
            status=data["status"],
            cached=bool(data.get("cached", False)),
            channels=tuple(data.get("channels", ())),
            error=data.get("error"),
        )

    def summary(self) -> dict:
        """The status JSON the HTTP API serves (results ride separately)."""
        return {
            "id": self.id,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "cached": self.cached,
            "units": len(self.channels),
            "error": self.error,
        }


class JobStore:
    """Persisted jobs under one directory; the single process-local index.

    Layout: ``<directory>/<job id>/job.json`` (the record),
    ``.../batch/`` (the durable BatchRunner directory the run executes
    in) and, once the job is terminal, ``.../events/unit-NNNN.jsonl``
    (each unit's finished event stream).  A finished job owns its
    results inside its ``job.json``: the record as readable JSON, then
    the per-seed results as one JSON line, written together in one
    atomic write — a cache hit's whole footprint.
    Records are loaded once at construction — the service owns its data
    directory exclusively — decoding only each file's leading record, and
    every mutation is saved back atomically and durably
    (:func:`~repro.core.durable.atomic_write_text`).  Directories written
    before results moved into ``job.json`` keep them in ``results.json``,
    which is still served.

    A record that no longer parses is quarantined (``.corrupt``) with a
    logged reason instead of aborting the whole service start: one
    damaged job must not hold every other job's results hostage.
    """

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Notified whenever a job's status changes in memory.
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        #: Byte offset of the results in each finished job's ``job.json``.
        self._results_at: dict[str, int] = {}
        #: In-flight (queued/running) job ids by fingerprint: dedup never
        #: walks the history.
        self._active: dict[str, set[str]] = {}
        #: Jobs per status: ``/healthz`` never walks the history either.
        self._status_counts: dict[str, int] = {}
        for record in sorted(self.directory.glob("*/job.json")):
            try:
                job, results_at = _read_job_file(record)
            except (OSError, ValueError, KeyError, SpecificationError) as error:
                quarantine(record, f"corrupt service job record: {error}")
                continue
            self._jobs[job.id] = job
            self._track(job)
            if results_at is not None:
                self._results_at[job.id] = results_at

    # -- paths -------------------------------------------------------------------

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.directory / job_id

    def batch_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "batch"

    def record_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    def results_path(self, job_id: str) -> pathlib.Path:
        """Where jobs finished before the single-file layout keep results."""
        return self.job_dir(job_id) / "results.json"

    def events_path(self, job_id: str, unit_index: int) -> pathlib.Path:
        """Where a finished job keeps one unit's event stream."""
        return self.job_dir(job_id) / "events" / f"unit-{unit_index:04d}.jsonl"

    # -- records -----------------------------------------------------------------

    def new_job(
        self,
        fingerprint: str,
        submission: dict,
        channels: tuple | Callable[[str], tuple] = (),
        status: str = "queued",
        cached: bool = False,
        results: list[dict] | None = None,
    ) -> Job:
        """Create, index and persist a job in one write.

        ``channels`` may be a function of the new job's id, so a record is
        never persisted without them.  ``results`` (a finished job, such
        as a cache hit) are written into the same ``job.json``.
        """
        with self._lock:
            index = len(self._jobs) + 1
            while f"run-{index:04d}" in self._jobs:
                index += 1
            job_id = f"run-{index:04d}"
            job = Job(
                id=job_id,
                fingerprint=fingerprint,
                submission=submission,
                status=status,
                cached=cached,
                channels=tuple(channels(job_id) if callable(channels) else channels),
            )
            self._jobs[job.id] = job
            self._track(job)
        results_at = self._write(job, results)
        if results_at is not None:
            with self._lock:
                self._results_at[job.id] = results_at
        return job

    def save(self, job: Job) -> None:
        """Persist the record alone; only :meth:`complete` and
        :meth:`new_job` write a finished job's results."""
        self._write(job, None)
        with self._lock:
            self._results_at.pop(job.id, None)

    def _write(self, job: Job, results: list[dict] | None) -> int | None:
        """Persist ``job``'s record, followed by ``results`` when given;
        returns the results' byte offset in the file."""
        if job.status not in JOB_STATUSES:
            raise SpecificationError(
                f"unknown job status {job.status!r}; known: {JOB_STATUSES}"
            )
        record = readable_json(job.to_dict())
        path = self.record_path(job.id)
        if results is None:
            atomic_write_text(path, record)
            return None
        atomic_write_text(path, f"{record}\n{json.dumps(results)}\n")
        return len(record.encode("utf-8")) + 1

    def update(self, job: Job, **changes: Any) -> Job:
        """Apply field changes under the store lock, then persist.

        The worker thread advances job lifecycles while HTTP handler
        threads serve ``job.summary()`` from the same records; funnelling
        every mutation through here keeps the record transition atomic
        with respect to those readers.
        """
        for name in changes:
            if not hasattr(job, name):
                raise SpecificationError(f"unknown job field {name!r}")
        with self._lock:
            self._untrack(job)
            for name, value in changes.items():
                setattr(job, name, value)
            self._track(job)
            self._changed.notify_all()
        self.save(job)
        return job

    def complete(self, job: Job, results: list[dict]) -> Job:
        """Persist ``job`` as done together with its results, in one write.

        The file lands before the record turns ``done`` in memory, so a
        reader that sees the status also finds the results.
        """
        results_at = self._write(replace(job, status="done", error=None), results)
        with self._lock:
            self._untrack(job)
            job.status, job.error = "done", None
            self._track(job)
            self._results_at[job.id] = results_at
            self._changed.notify_all()
        return job

    def wait_finished(
        self, job_id: str, stop: Callable[[], bool], poll_interval: float
    ) -> Job | None:
        """Block until the job leaves ``queued``/``running`` and return it.

        ``stop`` is polled every ``poll_interval`` seconds; None means it
        turned true first (or the job is unknown).
        """
        with self._changed:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.status not in ("queued", "running"):
                    return job
                if stop():
                    return None
                self._changed.wait(timeout=poll_interval)

    def _track(self, job: Job) -> None:
        """Count ``job`` under its status and index it if it is in flight
        (callers hold the lock)."""
        self._status_counts[job.status] = self._status_counts.get(job.status, 0) + 1
        if job.status in ("queued", "running"):
            self._active.setdefault(job.fingerprint, set()).add(job.id)

    def _untrack(self, job: Job) -> None:
        remaining = self._status_counts[job.status] - 1
        if remaining:
            self._status_counts[job.status] = remaining
        else:
            del self._status_counts[job.status]
        ids = self._active.get(job.fingerprint)
        if ids is not None:
            ids.discard(job.id)
            if not ids:
                del self._active[job.fingerprint]

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._jobs)

    def jobs(self) -> list[Job]:
        return [self.get(job_id) for job_id in self.ids()]

    def status_counts(self) -> dict[str, int]:
        """How many jobs hold each status (statuses with none are absent)."""
        with self._lock:
            return dict(self._status_counts)

    def find_active(self, fingerprint: str) -> Job | None:
        """A queued/running job with this fingerprint (in-flight dedup);
        the oldest when a forced submission runs beside it."""
        with self._lock:
            ids = self._active.get(fingerprint)
            return self._jobs[min(ids)] if ids else None

    # -- results -----------------------------------------------------------------

    def load_results(self, job_id: str) -> list[dict] | None:
        """The job's results, or None before they exist.

        Results that no longer parse are quarantined with their file and
        the record is saved back without them, as a job that never
        finished writing would read.
        """
        with self._lock:
            offset = self._results_at.get(job_id)
        if offset is None:
            path = self.results_path(job_id)
        else:
            path = self.record_path(job_id)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset or 0)
                return json.loads(handle.read())
        except OSError:
            return None
        except ValueError as error:
            quarantine(path, f"corrupt service job results: {error}")
            job = self.get(job_id)
            if offset is not None and job is not None:
                self.save(job)
            return None


_DECODER = json.JSONDecoder()


def _read_job_file(path: pathlib.Path) -> tuple[Job, int | None]:
    """A ``job.json``'s record, and the byte offset of the results that
    follow it (None when it holds only the record); the results are not
    parsed."""
    text = path.read_bytes().decode("utf-8")
    data, end = _DECODER.raw_decode(text)
    if not isinstance(data, Mapping):
        raise SpecificationError("a job record must be a JSON object")
    job = Job.from_dict(data)
    if not text[end:].strip():
        return job, None
    return job, len(text[:end].encode("utf-8")) + 1



class JobQueue:
    """The single-worker execution loop: jobs in order, durably, resumably.

    One worker thread executes jobs sequentially through a serial-backend
    :class:`BatchRunner` (``retries`` re-attempts per unit, restoring
    from the latest engine checkpoint).  Serial execution is what makes
    the live event stream faithful — units publish to their broker
    channels from the worker thread in round order — and repeat traffic
    is the cache's job, not the pool's.
    """

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        token: str,
        broker: EventBroker | None = None,
        checkpoint_every: int = 25,
        retries: int = 1,
        retry_backoff: float = 0.0,
    ):
        self.store = store
        self.cache = cache
        self.token = token
        self.broker = broker if broker is not None else BROKER
        self.checkpoint_every = int(checkpoint_every)
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._worker: threading.Thread | None = None
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._executed_jobs = 0

    @property
    def executed_jobs(self) -> int:
        """Jobs fully executed by the worker (read by health endpoints)."""
        with self._lock:
            return self._executed_jobs

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Re-queue unfinished jobs from disk and start the worker."""
        self._draining.clear()
        self.broker.end_drain(self.token)
        for job in self.store.jobs():
            if job.status in ("queued", "running"):
                self.store.update(job, status="queued")
                self._queue.put(job.id)
        self._worker = threading.Thread(
            target=self._run_worker, name="repro-service-worker", daemon=True
        )
        self._worker.start()

    def drain(self, timeout: float | None = 30.0) -> None:
        """Stop gracefully: no new jobs, in-flight run checkpoints and yields.

        The broker's drain flag makes the in-flight run's service sink
        write a rolling checkpoint and raise :class:`JobInterrupted` at
        the next round boundary; the interrupted job returns to
        ``queued`` and the next :meth:`start` on the same directory
        resumes it from that checkpoint.
        """
        self._draining.set()
        self.broker.begin_drain(self.token)
        self._queue.put(None)
        if self._worker is not None:
            self._worker.join(timeout=timeout)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- submission --------------------------------------------------------------

    def channel_name(self, job_id: str, unit_index: int) -> str:
        return f"{self.token}/{job_id}/unit-{unit_index:04d}"

    def submit(self, submission: Submission) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, created)``.

        Dedup order: an identical in-flight job is joined (no new job), a
        cache hit is answered as an immediately-``done`` job holding the
        cached results and zero engine rounds, and only then is a fresh
        job queued.  ``force`` skips both short-circuits.
        """
        if self.draining:
            raise SpecificationError(
                "the service is draining and accepts no new submissions"
            )
        fingerprint = submission.fingerprint()
        if not submission.force:
            active = self.store.find_active(fingerprint)
            if active is not None:
                return active, False
            entry = self.cache.get(fingerprint)
            if entry is not None:
                job = self.store.new_job(
                    fingerprint,
                    submission.to_dict(),
                    status="done",
                    cached=True,
                    results=entry["results"],
                )
                return job, True
        units = submission.unit_count()
        job = self.store.new_job(
            fingerprint,
            submission.to_dict(),
            channels=lambda job_id: tuple(
                self.channel_name(job_id, index) for index in range(units)
            ),
        )
        self._queue.put(job.id)
        return job, True

    # -- execution ---------------------------------------------------------------

    def _run_worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            try:
                self._process(job_id)
            except JobInterrupted:
                # Drain: the job already went back to "queued"; stop
                # pulling work — the queue resumes on the next start().
                return
            except Exception:  # pragma: no cover - defensive: _process records
                traceback.print_exc()

    def _durable_entries(self, job: Job):
        """The probe entries a durable unit carries: live stream first,
        then the (payload-silenced) checkpoint writer.

        The checkpoint directory must stay at ``<unit>/engine`` — that is
        where the batch layer's idempotent worker looks for the newest
        ``round-*.json`` that verifies when it restores an in-flight unit.
        """

        def entries(spec: ExperimentSpec, seed: int, unit_dir: pathlib.Path):
            index = int(unit_dir.name.rsplit("-", 1)[1])
            return [
                {"probe": "service-sink", "channel": job.channels[index]},
                {
                    "probe": "checkpoint",
                    "every": self.checkpoint_every,
                    "directory": str(unit_dir / "engine"),
                    "publish": False,
                },
            ]

        return entries

    def _process(self, job_id: str) -> None:
        job = self.store.get(job_id)
        if job is None or job.status not in ("queued", "running"):
            return
        self.store.update(job, status="running", error=None)

        try:
            submission = Submission.from_payload(job.submission)
            specs = submission.expanded()
        except SpecificationError as failure:
            self.finish_channels(job)
            self.store.update(job, status="failed", error=format_failure(failure))
            return

        batch_dir = self.store.batch_dir(job.id)
        # Units persisted before a restart never re-run, so their
        # channels will not be re-opened: close them or late subscribers
        # would wait forever on a stream that already ended.
        for index, channel in enumerate(job.channels):
            if (batch_dir / f"unit-{index:04d}" / "result.json").exists():
                self.broker.close(channel)

        runner = BatchRunner(
            backend="serial", retries=self.retries, retry_backoff=self.retry_backoff
        )
        try:
            if (batch_dir / MANIFEST_NAME).exists():
                batch = runner.resume(batch_dir)
            else:
                batch = runner.run(
                    specs,
                    checkpoint_dir=batch_dir,
                    checkpoint_every=self.checkpoint_every,
                    durable_probes=self._durable_entries(job),
                )
        except JobInterrupted:
            self.store.update(job, status="queued")
            raise
        except Exception as failure:
            self.finish_channels(job)
            self.store.update(job, status="failed", error=format_failure(failure))
            return

        with self._lock:
            self._executed_jobs += 1
        # Every unit has run: the streams move to the job's directory
        # before the job turns terminal, so a reader that sees it finished
        # finds its streams there.
        self.finish_channels(job)
        failures = batch.failures()
        if failures:
            self.store.update(job, status="failed", error=failures[0].error)
        else:
            # Served records carry the unit's spec as submitted, not the
            # durable spec with this service's channel and checkpoint path.
            unit_specs = [spec.to_dict() for spec in specs for _ in spec.seeds]
            results = [
                {**item.to_dict(), "spec": unit_spec}
                for item, unit_spec in zip(batch, unit_specs)
            ]
            self.cache.put(job.fingerprint, job.submission, results)
            self.store.complete(job, results)

    def finish_channels(self, job: Job) -> None:
        """Close a terminal job's channels for good: each unit's stream
        moves to (or, after a restart, is read back from) the job's
        directory."""
        for index, channel in enumerate(job.channels):
            self.broker.finish(channel, self.store.events_path(job.id, index))
