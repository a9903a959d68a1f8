"""Run one workload for a time budget and reduce it to metrics.

Specs (unit 0, 1, 2, ... of the workload) are submitted one at a time,
closed loop, until the budget is spent.  Each spec is resubmitted right
after its first answer: on the service that is a result-cache hit;
offline it is the same job again, since ``repro run`` keeps no cache.
Interleaving spreads both kinds of sample over the whole run, so neither
reads only one moment of the machine (a cache hit makes two fsync'd
writes, and the disk's latency drifts).

End-to-end runs install a :class:`~perfbench.tracing.Tracer` without
detail.  A traced run traces the first submissions in detail and keeps
the untraced comparison beside them: the offline resubmissions, and on
the service a forced (cache-skipping) rerun plus an offline run of every
spec.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import resource
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy
from repro.experiment import ExperimentSpec
from repro.service import ExperimentService, ServiceClient
from repro.simulation import array_engine
from repro.simulation.batch import BatchRunner

from .stats import Summary, percentile, summarize
from .tracing import Tracer, clock
from .workloads import DEFAULT_SEED, Workload, check_results, digest, load_golden

__all__ = ["Bench", "GuardError", "Outcome", "Unit", "end_to_end", "per_layer"]

#: Status poll interval for the moment between the end of a job's event
#: stream and its record turning "done" (the result and cache writes).
TAIL_POLL_S = 0.005

#: Longest a single service job may take before the unit fails.
JOB_TIMEOUT_S = 120.0

#: What :func:`calibrate` takes at the reference speed: end-to-end times
#: are reported as measured, scaled by ``CALIBRATION_REF_S`` over the
#: calibrations taken right before and right after the unit.
CALIBRATION_REF_S = 0.05


def calibrate() -> float:
    """Time a fixed mix of the work the workloads do: tuple-keyed dict
    churn, a keyed sort, JSON encoding and a numpy reduction.

    It touches nothing of the library, so a change to the library cannot
    move it; the garbage collector is off while it runs, so the size of
    the library's heap cannot move it either.  Taken between units, it
    brackets each unit, so a machine whose speed drifts while the
    benchmark runs (shared cores) moves the bracket and the unit alike,
    and the ratio of the two holds.
    """
    gc.disable()
    try:
        start = clock()
        table = {}
        for index in range(30_000):
            table[(index, index * 7919 % 1000)] = [index]
        ordered = sorted(table, key=lambda key: -key[1])
        json.dumps(ordered)
        numpy.unique(numpy.arange(300_000) % 977)
        return clock() - start
    finally:
        gc.enable()


class GuardError(Exception):
    """The workload did not take the code path it exists to measure."""


@dataclass
class Unit:
    """One submission of one spec: its timings, spans and verdict."""

    index: int
    kind: str  # "fresh", "repeat" or "compare"
    traced: bool
    job_s: float = 0.0
    parse_s: float = 0.0
    spans: dict = field(default_factory=dict)
    result_bytes: float = 0.0
    body_sha: str = ""
    results_digest: str = ""
    job_id: str = ""
    # calibrate() right before and right after the unit
    calibration_s: float = CALIBRATION_REF_S
    calibration_after_s: float = CALIBRATION_REF_S
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scale(self) -> float:
        """Factor from this unit's measured seconds to reference seconds."""
        return 2 * CALIBRATION_REF_S / (self.calibration_s + self.calibration_after_s)


@dataclass
class Outcome:
    workload: Workload
    units: list
    round_times: list
    peak_rss_mb: float
    extra: dict

    @property
    def failed(self) -> list:
        return [unit for unit in self.units if not unit.ok]


class Bench:
    """One workload, one seed, one time budget."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        work_dir: str | os.PathLike,
        agents: int | None = None,
    ):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.agents = agents or workload.agents
        self.work_dir = pathlib.Path(work_dir)
        self.golden: list[str] = []
        if seed == DEFAULT_SEED and self.agents == workload.agents:
            self.golden = load_golden().get(workload.name, [])
        self.detail = Tracer(detail=True)
        self.plain = Tracer(detail=False)
        self.units: list[Unit] = []
        self.extra: dict[str, list[float]] = defaultdict(list)

    def text(self, index: int) -> str:
        return self.workload.spec_text(self.seed, index, self.agents)

    # -- the run ---------------------------------------------------------------

    def run(self) -> Outcome:
        self.preflight()
        if self.workload.service:
            self.service = ExperimentService(self.work_dir / "service").start()
            try:
                self.client = ServiceClient(self.service.url, timeout=JOB_TIMEOUT_S)
                self._loop()
                stats = self.client.cache_stats()
                for key in ("hits", "misses", "corrupt"):
                    self.extra[f"cache.{key}"].append(stats[key])
            finally:
                self.service.stop()
        else:
            self._loop()
        if self.trace:
            for unit in self.units:
                if unit.traced and unit.ok:
                    self._check_advance(unit.spans.get("environment.advance_calls", 0))
        # The peak of the whole process: run.py gives every workload a
        # process of its own.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Outcome(
            workload=self.workload,
            units=self.units,
            round_times=list(self.detail.round_times),
            peak_rss_mb=peak_kb / 1024,
            extra=dict(self.extra),
        )

    def preflight(self) -> None:
        """Refuse to measure a workload that would silently take another path."""
        if self.workload.engine == "array" and not array_engine.HAVE_NUMPY:
            raise GuardError(
                f"{self.workload.name} measures the array engine's numpy "
                "path, but numpy is not importable"
            )
        if self.workload.advance is None:
            return
        tracer = Tracer(detail=True)
        spec = ExperimentSpec.from_json(self.text(0))
        with tracer.installed():
            tracer.begin_unit()
            engine = spec.build()
            for _ in zip(range(2), engine.steps()):
                pass
            spans = tracer.end_unit()
        self._check_advance(spans.get("environment.advance_calls", 0))

    def _check_advance(self, calls: float) -> None:
        name = self.workload.name
        if self.workload.advance == "bypassed" and calls:
            raise GuardError(
                f"{name}: {calls:.0f} public environment advance calls; the "
                "array engine's vectorized churn path is not engaged"
            )
        if self.workload.advance == "used" and not calls:
            raise GuardError(f"{name}: the environment was never advanced")

    def _loop(self) -> None:
        start = clock()
        index = 0
        while not index or clock() - start < self.seconds:
            before = self._disk_bytes()
            answer = first = self._unit(index, "fresh", traced=self.trace)
            if self.trace and self.workload.service:
                forced = self._compare_service(first, before)
                if forced.ok:  # the cache now holds the rerun's answer
                    answer = forced
            again = self._unit(index, "repeat", traced=False)
            if answer.ok and again.ok and again.body_sha != answer.body_sha:
                again.problems.append("resubmission is not byte-identical to the answer")
            index += 1
        gc.collect()
        self._calibrate()

    def _calibrate(self) -> float:
        """One calibration between two units: it opens the next unit's
        bracket and closes the last one's."""
        seconds = calibrate()
        if self.units:
            self.units[-1].calibration_after_s = seconds
        return seconds

    def _unit(self, index: int, kind: str, traced: bool) -> Unit:
        if self.workload.service:
            return self._service_unit(index, kind, traced)
        return self._offline_unit(index, kind, traced)

    def _disk_bytes(self) -> int:
        if self.trace and self.workload.service:
            return _tree_bytes(self.work_dir / "service")
        return 0

    def _compare_service(self, unit: Unit, before: int) -> Unit:
        """Traced-run companions of one first service submission: the disk
        bytes it added, then the same spec untraced through the service
        (forced past the cache) and offline.  Returns the forced rerun."""
        self.extra["service.disk_bytes"].append(self._disk_bytes() - before)
        batch_dir = self.service.store.batch_dir(unit.job_id)
        self.extra["checkpoint.files"].append(_checkpoint_files(batch_dir))
        forced = self._service_unit(unit.index, "compare", traced=False, force=True)
        offline = self._offline_unit(unit.index, "compare", traced=False)
        if unit.ok and offline.ok and offline.results_digest != unit.results_digest:
            offline.problems.append("offline results differ from the service's")
        if unit.ok and forced.ok and offline.ok:
            self.extra["service.overhead_s"].append(forced.job_s - offline.job_s)
            self.extra["trace.untraced_job_s"].append(forced.job_s)
            self.extra["trace.overhead"].append(unit.job_s / forced.job_s - 1)
        return forced

    # -- units -----------------------------------------------------------------

    def _offline_unit(self, index: int, kind: str, traced: bool) -> Unit:
        """``ExperimentSpec.from_json`` -> serial ``BatchRunner.run`` ->
        ``BatchResult.to_json``: the ``repro run --json`` path."""
        tracer = self.detail if traced else self.plain
        text = self.text(index)
        gc.collect()
        unit = Unit(index, kind, traced, calibration_s=self._calibrate())
        with tracer.installed():
            tracer.begin_unit()
            try:
                start = clock()
                spec = ExperimentSpec.from_json(text)
                parsed = clock()
                batch = BatchRunner(backend="serial").run(spec)
                body = batch.to_json()
                end = clock()
            except Exception:  # noqa: BLE001 - a raising unit is a failed unit
                unit.problems.append(traceback.format_exc())
                return self._record(unit, tracer.end_unit())
            spans = tracer.end_unit()
        unit.job_s = end - start
        unit.parse_s = parsed - start
        unit.problems += [f"unit raised:\n{item.error}" for item in batch.failures()]
        results = [item.result for item in batch.completed()]
        unit.result_bytes = len(body.encode("utf-8")) / max(len(batch), 1)
        unit.body_sha = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return self._finish(unit, results, spans)

    def _service_unit(self, index: int, kind: str, traced: bool, force: bool = False) -> Unit:
        """Submit one spec and wait for its results (closed loop), as
        ``repro submit --events --wait`` does: follow the job's event
        stream to its end, then fetch the finished record."""
        tracer = self.detail if traced else self.plain
        text = self.text(index)
        gc.collect()
        unit = Unit(index, kind, traced, calibration_s=self._calibrate())
        with tracer.installed():
            tracer.begin_unit()
            try:
                start = clock()
                spec = ExperimentSpec.from_json(text)
                parsed = clock()
                record = self.client.submit(spec, force=force)
                submitted = clock()
                if record["status"] not in ("done", "failed"):
                    for _ in self.client.events(record["id"]):
                        pass
                record = self.client.wait(
                    record["id"],
                    timeout=JOB_TIMEOUT_S,
                    poll=TAIL_POLL_S,
                    poll_cap=TAIL_POLL_S,
                )
                end = clock()
            except Exception:  # noqa: BLE001 - service errors fail the unit
                unit.problems.append(traceback.format_exc())
                return self._record(unit, tracer.end_unit())
            spans = tracer.end_unit()
        spans["service.submit_s"] = submitted - parsed
        unit.job_s = end - start
        unit.parse_s = parsed - start
        unit.job_id = record["id"]
        if record["status"] != "done":
            unit.problems.append(f"job {record['id']} {record['status']}: {record.get('error')}")
        items = record.get("results") or []
        unit.problems += [f"unit raised:\n{item['error']}" for item in items if item.get("error")]
        results = [item["result"] for item in items if item.get("result") is not None]
        body = json.dumps(items).encode("utf-8")
        unit.result_bytes = len(body) / max(len(items), 1)
        unit.body_sha = hashlib.sha256(body).hexdigest()
        return self._finish(unit, results, spans)

    def _finish(self, unit: Unit, results: list, spans: dict) -> Unit:
        if not results:
            unit.problems.append("no results")
        unit.problems += check_results(self.workload, results)
        unit.results_digest = digest(results)
        if unit.kind == "fresh" and unit.index < len(self.golden):
            if unit.results_digest != self.golden[unit.index]:
                unit.problems.append(
                    f"unit {unit.index}: result digest differs from golden.json"
                )
        return self._record(unit, spans)

    def _record(self, unit: Unit, spans: dict) -> Unit:
        unit.spans = spans
        self.units.append(unit)
        return unit


def _tree_bytes(path: pathlib.Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except FileNotFoundError:  # replaced by an atomic rename meanwhile
                pass
    return total


def _checkpoint_files(batch_dir: pathlib.Path) -> int:
    """Files the checkpoint probes left under a job's batch directory."""
    return sum(
        1
        for path in batch_dir.rglob("*")
        if path.is_file() and "engine" in path.relative_to(batch_dir).parts[:-1]
    )


# -- metrics ------------------------------------------------------------------------

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("rounds_per_s", "1/s"),
    ("result_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
    ("cache_hit_s", "s"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("experiment.parse_s", "s"),
    ("experiment.values_s", "s"),
    ("experiment.build_s", "s"),
    ("experiment.setup_share", "ratio"),
    ("engine.initial_snapshot_s", "s"),
    ("engine.rounds", "count"),
    ("engine.round_p50_s", "s"),
    ("engine.round_p90_s", "s"),
    ("engine.round_other_s", "s"),
    ("environment.advance_s", "s"),
    ("environment.advance_calls", "count"),
    ("environment.advance_share", "ratio"),
    ("scheduler.schedule_s", "s"),
    ("scheduler.schedule_calls", "count"),
    ("probes.on_round_s", "s"),
    ("result.serialize_s", "s"),
    ("service.submit_s", "s"),
    ("service.overhead_s", "s"),
    ("service.disk_bytes", "bytes"),
    ("checkpoint.files", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead", "ratio"),
    ("machine.calibration_s", "s"),
)

_EMPTY = Summary(value=0.0, q1=0.0, median=0.0, q3=0.0, count=0)


def _summary(values, value: float | None = None) -> Summary:
    return summarize(values, value) if values else _EMPTY


def end_to_end(outcome: Outcome, scaled: bool = True) -> dict[str, tuple[str, Summary]]:
    """The user-visible metrics of an untraced run (failed units excluded
    from the timings; they are reported as failures).

    Times and rates are in reference seconds (see :func:`calibrate`);
    ``scaled=False`` gives the wall-clock seconds as measured.
    """
    ok = [unit for unit in outcome.units if unit.ok]
    fresh = [unit for unit in ok if unit.kind == "fresh"]
    repeats = [unit for unit in ok if unit.kind == "repeat"]
    # Offline, a resubmission runs the whole job again, so every unit is
    # a job sample; on the service only the fresh submissions are.
    jobs = fresh if outcome.workload.service else ok

    def scale(unit: Unit) -> float:
        return unit.scale if scaled else 1.0

    setup = [
        (unit.parse_s + unit.spans["experiment.build_s"] / unit.spans["experiment.build_calls"])
        * scale(unit)
        for unit in ok
        if unit.spans.get("experiment.build_calls")
    ]
    ran = [unit for unit in ok if unit.spans.get("engine.run_s")]
    rounds = sum(unit.spans["engine.rounds"] for unit in ran)
    run_s = sum(unit.spans["engine.run_s"] * scale(unit) for unit in ran)
    values = {
        "setup_s": _summary(setup),
        "job_s": _summary([unit.job_s * scale(unit) for unit in jobs]),
        "rounds_per_s": _summary(
            [unit.spans["engine.rounds"] / (unit.spans["engine.run_s"] * scale(unit))
             for unit in ran],
            value=rounds / run_s if run_s else None,
        ),
        "result_bytes": _summary([unit.result_bytes for unit in fresh]),
        "peak_rss_mb": _summary([outcome.peak_rss_mb]),
        "cache_hit_s": _summary([unit.job_s * scale(unit) for unit in repeats]),
    }
    return {name: (unit, values[name]) for name, unit in END_TO_END}


def per_layer(outcome: Outcome) -> dict[str, tuple[str, Summary]]:
    """The traced run's layer metrics: per-unit span totals over the
    traced fresh units (medians), per-round percentiles, and the
    comparisons the traced run made beside them."""
    traced = [u for u in outcome.units if u.ok and u.traced and u.kind == "fresh"]

    def span(unit: Unit, name: str) -> float:
        return unit.spans.get(name, 0.0)

    def other(unit: Unit) -> float:
        return span(unit, "engine.rounds_s") - sum(
            span(unit, name)
            for name in ("environment.advance_s", "scheduler.schedule_s", "probes.on_round_s")
        )

    def setup_share(unit: Unit) -> float:
        setup = sum(
            span(unit, name)
            for name in ("experiment.parse_s", "experiment.values_s", "experiment.build_s")
        )
        return setup / unit.job_s

    values: dict[str, Summary] = {}
    for name, _ in PER_LAYER:
        # A layer no traced unit entered reports 0 over 0 samples.
        entered = any(name in unit.spans for unit in traced)
        values[name] = _summary([span(unit, name) for unit in traced] if entered else [])
    values["experiment.setup_share"] = _summary([setup_share(u) for u in traced])
    values["engine.round_other_s"] = _summary([other(u) for u in traced])
    rounds = outcome.round_times
    values["engine.round_p50_s"] = _summary(rounds, percentile(rounds, 50) if rounds else None)
    values["engine.round_p90_s"] = _summary(rounds, percentile(rounds, 90) if rounds else None)
    round_s = sum(span(u, "engine.rounds_s") for u in traced)
    advance_s = sum(span(u, "environment.advance_s") for u in traced)
    values["environment.advance_share"] = _summary(
        [span(u, "environment.advance_s") / span(u, "engine.rounds_s")
         for u in traced if span(u, "engine.rounds_s")],
        value=advance_s / round_s if round_s else None,
    )
    values["trace.job_s"] = _summary([unit.job_s for unit in traced])
    if not outcome.workload.service:
        untraced = {u.index: u for u in outcome.units if u.ok and u.kind == "repeat"}
        pairs = [(u, untraced[u.index]) for u in traced if u.index in untraced]
        values["trace.untraced_job_s"] = _summary([plain.job_s for _, plain in pairs])
        values["trace.overhead"] = _summary([u.job_s / plain.job_s - 1 for u, plain in pairs])
    for name, samples in outcome.extra.items():
        values[name] = _summary(samples)
    values["machine.calibration_s"] = _summary([u.calibration_s for u in outcome.units])
    return {name: (unit, values[name]) for name, unit in PER_LAYER}
