"""Chaos orchestration: drive a fault plan end to end, prove recovery.

``repro chaos <spec> --fault-seed S`` runs here.  For each requested
mode the orchestrator produces an *unfaulted reference*, executes the
same spec under the plan's injected faults, lets the self-healing
machinery recover, and then compares — the headline guarantee is that
the recovered results are **byte-identical** to the reference:

``batch``
    a durable :class:`~repro.simulation.batch.BatchRunner` sweep: the
    plan's crash probe kills a unit mid-run (graceful degradation keeps
    every other unit's result), its checkpoint files are corrupted on
    disk, and ``resume`` with retries + backoff must still reproduce
    the reference bytes — falling back to the newest checkpoint that
    verifies and quarantining what does not;
``service``
    a live :class:`~repro.service.server.ExperimentService` with the
    plan's HTTP fault hook installed: submission and polling ride out
    injected 503s/resets/delays through client retries, the SSE stream
    survives mid-stream disconnects via ``Last-Event-ID`` reconnection,
    a corrupted result-cache entry downgrades to a re-execution, and
    every answer matches the offline ``spec.run(seed)`` bytes.

Because every injected fault and every jittered delay is derived from
the plan's seed, a failing chaos run is *replayable*: the same spec and
``--fault-seed`` reproduce the same faults, in the same order, on any
machine.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from ..core.errors import SpecificationError
from ..experiment import ExperimentSpec
from ..simulation.batch import BatchResult, BatchRunner
from .corrupt import corrupt_file
from .plan import FaultPlan
from .probes import FaultCrashProbe, reset_crash_counters

__all__ = ["CHAOS_MODES", "run_chaos", "split_crash_probes"]

#: Chaos execution modes ``repro chaos --mode`` accepts.
CHAOS_MODES = ("batch", "service", "all")


def _stripped_result(result: dict) -> dict:
    """A run result minus the checkpoint probe's payload (its directory
    strings necessarily differ between batch directories)."""
    data = dict(result)
    probes = dict(data.get("probes") or {})
    probes.pop("checkpoint", None)
    if probes:
        data["probes"] = probes
    else:
        data.pop("probes", None)
    return data


def comparable_items(batch: BatchResult) -> list[tuple]:
    """What byte-identity means for a durable batch: every completed
    unit's (label, seed, result), checkpoint bookkeeping stripped."""
    return [
        (item.label, item.seed, _stripped_result(item.result))
        for item in batch
        if item.result is not None
    ]


def _is_crash_entry(entry: Any) -> bool:
    if entry == FaultCrashProbe.name:
        return True
    return isinstance(entry, dict) and entry.get("probe") == FaultCrashProbe.name


def split_crash_probes(
    spec: ExperimentSpec,
) -> tuple[ExperimentSpec, list[dict]]:
    """Separate a spec from any ``fault-crash`` probes it embeds.

    A spec may arm its own crashes (``examples/specs/minimum_chaos.json``
    does); the *reference* run must execute without them, while the
    faulted run keeps them alongside the plan's own crash entries.
    """
    embedded = [
        dict(entry) if isinstance(entry, dict) else {"probe": FaultCrashProbe.name}
        for entry in spec.probes
        if _is_crash_entry(entry)
    ]
    if not embedded:
        return spec, []
    clean = [entry for entry in spec.probes if not _is_crash_entry(entry)]
    return spec.with_updates({"probes": clean}), embedded


def _faulted(
    clean: ExperimentSpec, embedded: list[dict], plan: FaultPlan
) -> ExperimentSpec:
    """The spec with every crash probe attached — the spec's own plus the
    plan's (injection rides the declarative probe pipeline; recovery
    must strip every trace)."""
    entries = embedded + plan.crash_probe_entries()
    if not entries:
        return clean
    return clean.with_updates({"probes": list(clean.probes) + entries})


def _rearm(embedded: list[dict], plan: FaultPlan) -> int:
    """Reset every crash budget the run will draw on; returns the total
    number of crashes that may fire (bounds the retries needed)."""
    reset_crash_counters(plan.token)
    budget = plan.crash_budget()
    for entry in embedded:
        reset_crash_counters(str(entry.get("token", "fault")))
        budget += int(entry.get("times", 1))
    return budget


def _corrupt_checkpoints(
    chaos_dir: pathlib.Path, plan: FaultPlan
) -> list[dict]:
    """Damage on-disk checkpoints per the plan; returns what was done.

    Every unit's newest checkpoint (its last ``round-*.json``) is
    corrupted; with ``stale_fallback`` the second-newest generation is
    damaged too, so recovery must reach back two generations.  Corruption
    bytes come from a per-file seeded RNG — identical on every replay.
    """
    corruptions: list[dict] = []
    for entry in plan.entries_of("checkpoint-corrupt"):
        depth = 2 if entry.get("stale_fallback") else 1
        targets = []
        for run_dir in sorted(chaos_dir.glob("unit-*/engine/*")):
            targets += sorted(run_dir.glob("round-*.json"))[-depth:]
        for path in targets:
            label = str(path.relative_to(chaos_dir))
            detail = corrupt_file(path, entry["mode"], plan.corruption_rng(label))
            corruptions.append({"path": label, "detail": detail})
    return corruptions


def _quarantined(directory: pathlib.Path) -> list[str]:
    return sorted(
        str(path.relative_to(directory)) for path in directory.rglob("*.corrupt")
    )


def _chaos_batch(
    spec: ExperimentSpec,
    plan: FaultPlan,
    directory: pathlib.Path,
    checkpoint_every: int,
) -> dict:
    """Crash + checkpoint corruption against a durable batch sweep."""
    clean, embedded = split_crash_probes(spec)
    reference = BatchRunner(backend="serial").run(
        clean, checkpoint_dir=directory / "reference", checkpoint_every=checkpoint_every
    )
    if reference.failures():
        raise SpecificationError(
            "the unfaulted reference batch failed; fix the spec before "
            f"injecting faults:\n{reference.failures()[0].error}"
        )

    crash_budget = _rearm(embedded, plan)
    chaos_dir = directory / "faulted"
    first = BatchRunner(backend="serial").run(
        _faulted(clean, embedded, plan),
        checkpoint_dir=chaos_dir,
        checkpoint_every=checkpoint_every,
    )
    corruptions = _corrupt_checkpoints(chaos_dir, plan)
    recovered = BatchRunner(
        backend="serial",
        retries=max(1, crash_budget),
        retry_backoff=0.01,
    ).resume(chaos_dir)

    match = comparable_items(recovered) == comparable_items(reference)
    return {
        "mode": "batch",
        "match": match,
        "units": len(reference),
        "first_attempt_failures": first.failure_records(),
        "first_attempt_completed": len(first.completed()),
        "corrupted": corruptions,
        "recovered_failures": recovered.failure_records(),
        "quarantined": _quarantined(directory),
    }


def _chaos_service(
    spec: ExperimentSpec,
    plan: FaultPlan,
    directory: pathlib.Path,
    checkpoint_every: int,
) -> dict:
    """Crash + HTTP flakiness + SSE disconnects + cache corruption
    against a live service, compared to offline runs."""
    from ..service import ExperimentService, ServiceClient, ServiceError
    from .retry import RetryPolicy

    clean, embedded = split_crash_probes(spec)
    offline = [clean.run(seed).to_dict() for seed in clean.seeds]
    target = _faulted(clean, embedded, plan)
    crash_budget = _rearm(embedded, plan)
    hook = plan.server_hook()
    service = ExperimentService(
        directory / "service",
        checkpoint_every=checkpoint_every,
        retries=max(1, crash_budget),
        retry_backoff=0.01,
        fault_hook=hook,
    ).start()
    try:
        client = ServiceClient(
            service.url,
            retry=RetryPolicy(
                retries=4,
                base_delay=0.05,
                max_delay=0.5,
                namespace=f"repro-chaos:{plan.seed}",
            ),
        )
        job = client.submit(target)
        # Follow the stream live: injected disconnects force the client
        # through its Last-Event-ID reconnection path.
        events = list(client.events(job["id"]))
        record = client.wait(job["id"], timeout=600)
        if record["status"] != "done":
            raise SpecificationError(
                f"chaos service run failed:\n{record.get('error')}"
            )
        results = record["results"]
        results_match = [unit["result"] for unit in results] == offline
        # A clean end-to-end replay of the (now drained) stream must
        # equal what the interrupted live collection stitched together.
        stream_match = list(client.events(job["id"])) == events

        corruptions: list[dict] = []
        resubmit_matches: list[bool] = []
        for entry in plan.entries_of("cache-corrupt"):
            fingerprint = target.fingerprint()
            path = service.cache._path(fingerprint)
            if not path.exists():
                continue
            label = f"cache:{fingerprint}"
            detail = corrupt_file(path, entry["mode"], plan.corruption_rng(label))
            corruptions.append({"path": label, "detail": detail})
            second = client.wait(client.submit(target)["id"], timeout=600)
            resubmit_matches.append(
                second["status"] == "done"
                and json.dumps(second["results"], sort_keys=True)
                == json.dumps(results, sort_keys=True)
            )

        # Drain any scheduled HTTP faults that outlived the run, so the
        # report can assert the whole plan actually fired.
        for _ in range(10):
            if hook is None or hook.exhausted():
                break
            try:
                client.runs()
            except ServiceError:  # pragma: no cover - budget > retries
                pass

        match = results_match and stream_match and all(resubmit_matches)
        return {
            "mode": "service",
            "match": match,
            "units": len(results),
            "results_match_offline": results_match,
            "events_streamed": len(events),
            "stream_match": stream_match,
            "corrupted": corruptions,
            "resubmit_matches": resubmit_matches,
            "cache_stats": service.cache.stats(),
            "http_faults_drained": hook.exhausted() if hook is not None else True,
            "quarantined": _quarantined(directory),
        }
    finally:
        service.stop(drain=False, timeout=10.0)


def run_chaos(
    spec: ExperimentSpec,
    plan: FaultPlan,
    directory: str | pathlib.Path,
    mode: str = "all",
    checkpoint_every: int = 5,
) -> dict[str, Any]:
    """Execute ``plan`` against ``spec`` in ``mode``; returns the report.

    The report's top-level ``match`` is the headline guarantee: True iff
    every mode's recovered results were byte-identical to its unfaulted
    reference.  Everything in the report is a deterministic function of
    (spec, plan), so two runs with the same ``--fault-seed`` produce the
    same report — that is what makes a chaos failure debuggable.
    """
    if mode not in CHAOS_MODES:
        raise SpecificationError(
            f"unknown chaos mode {mode!r}; known: {CHAOS_MODES}"
        )
    spec.validate()
    base = pathlib.Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    modes: dict[str, dict] = {}
    if mode in ("batch", "all"):
        modes["batch"] = _chaos_batch(spec, plan, base / "batch", checkpoint_every)
    if mode in ("service", "all"):
        modes["service"] = _chaos_service(
            spec, plan, base / "service", checkpoint_every
        )
    return {
        "plan": plan.to_dict(),
        "spec": spec.label,
        "modes": modes,
        "match": all(report["match"] for report in modes.values()),
    }
