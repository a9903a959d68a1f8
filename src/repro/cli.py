"""Command-line interface: run declarative experiments from a shell.

The CLI is a front-end to the experiment layer (:mod:`repro.experiment`):
experiments are JSON specs, dispatched through the registries and the
:class:`~repro.simulation.batch.BatchRunner`::

    python -m repro list                       # everything registered
    python -m repro list algorithms
    python -m repro run examples/specs/minimum_churn.json
    python -m repro run spec.json --seed 3 --workers 4 --json
    python -m repro run spec.json --history none --jsonl rounds-{seed}.jsonl \
        --probe temporal
    python -m repro run spec.json --checkpoint-every 100 --checkpoint-dir ckpts
    python -m repro resume ckpts/minimum-seed0                # newest that verifies
    python -m repro resume ckpts/minimum-seed0/round-00000100.json
    python -m repro sweep spec.json --param environment_params.edge_up_probability \
        --values 0.1,0.3,1.0

The experiment service (see :mod:`repro.service`) rides the same specs::

    python -m repro serve --port 8765 --data-dir service-data
    python -m repro submit spec.json --wait --json
    python -m repro submit spec.json --events      # live probe payloads
    python -m repro status run-0001 --json

Fault injection (see :mod:`repro.faults`) verifies that recovery is
byte-identical to an unfaulted run, under a seeded, replayable plan::

    python -m repro chaos examples/specs/minimum_chaos.json --fault-seed 7
    python -m repro chaos spec.json --mode service --kinds http-flaky,sse-disconnect

The static determinism/protocol linter (see :mod:`repro.analysis`) ships
as a subcommand too, so CI and pre-commit hooks need no extra tooling::

    python -m repro lint src tests --baseline lint_baseline.json
    python -m repro lint src --format github      # ::error annotations
    python -m repro lint src tests --baseline lint_baseline.json \
        --update-baseline                         # deliberate suppressions

The exit status is 0 when every run converged to the correct answer and 1
otherwise, so the CLI slots into smoke-test scripts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from .core.errors import SpecificationError
from .experiment import ExperimentSpec
from .registry import available, load_plugins
from .simulation.batch import BatchItem, BatchResult, BatchRunner
from .simulation.result import readable_json
from .verification import check_specification

__all__ = ["main", "build_parser"]

#: ``repro list`` sections, in display order.
_LIST_KINDS = (
    "algorithms",
    "environments",
    "schedulers",
    "engines",
    "graphs",
    "value_generators",
    "probes",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative experiments over self-similar algorithms.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run an experiment spec (JSON file)")
    run.add_argument("spec", type=pathlib.Path, help="path to an ExperimentSpec JSON file")
    run.add_argument("--seed", type=int, action="append", default=None,
                     help="override the spec's seeds (repeatable)")
    run.add_argument("--max-rounds", type=int, default=None, help="override the round cap")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool size (default: in-process serial execution)")
    run.add_argument("--history", choices=("full", "objective", "none"), default=None,
                     help="override the run's retention mode (none = O(1) memory)")
    run.add_argument("--engine", choices=("reference", "array"), default=None,
                     help="override the spec's execution engine (array = "
                          "struct-of-arrays backend for large agent counts)")
    run.add_argument("--probe", action="append", dest="probes", default=None,
                     metavar="NAME[:JSON]",
                     help="attach a registered probe, e.g. temporal or "
                          "'jsonl:{\"path\": \"out.jsonl\"}' (repeatable)")
    run.add_argument("--jsonl", type=str, default=None, metavar="PATH",
                     help="stream per-round JSON lines to PATH "
                          "(shorthand for --probe jsonl; {seed} is substituted)")
    run.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                     help="write a resumable run checkpoint every N rounds "
                          "(shorthand for --probe checkpoint)")
    run.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                     help="directory for rolling checkpoints (default: "
                          "checkpoints/; implies --checkpoint-every 100)")
    run.add_argument("--json", action="store_true", help="print the batch result as JSON")
    run.add_argument("--verbose", action="store_true",
                     help="also print the trace-level specification check per run")

    listing = subparsers.add_parser("list", help="list registered building blocks")
    listing.add_argument("kind", nargs="?", choices=_LIST_KINDS,
                         help="one registry (default: all)")

    resume = subparsers.add_parser(
        "resume",
        help="resume a checkpointed run to completion (byte-identical to "
             "the uninterrupted run)",
    )
    resume.add_argument("checkpoint", type=pathlib.Path,
                        help="a run checkpoint written by --checkpoint-every "
                             "(.../round-00000100.json), or its run directory "
                             "to resume from the newest one that verifies")
    resume.add_argument("--json", action="store_true",
                        help="print the completed SimulationResult as JSON")

    sweep = subparsers.add_parser("sweep", help="run a parameter sweep of a spec")
    sweep.add_argument("spec", type=pathlib.Path, help="path to an ExperimentSpec JSON file")
    sweep.add_argument("--param", required=True, action="append", dest="params",
                       help="dotted override path, e.g. "
                            "environment_params.edge_up_probability (repeatable)")
    sweep.add_argument("--values", required=True, action="append", dest="value_lists",
                       help="comma-separated values for the matching --param")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: in-process serial execution)")
    sweep.add_argument("--json", action="store_true", help="print the batch result as JSON")

    serve = subparsers.add_parser(
        "serve",
        help="run the experiment service (HTTP submission, live event "
             "streams, content-addressed result cache)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--data-dir", type=pathlib.Path, default=pathlib.Path("service-data"),
                       help="durable state: jobs, checkpoints, result cache "
                            "(default: ./service-data)")
    serve.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                       help="rolling engine checkpoint cadence for queued runs")
    serve.add_argument("--retries", type=int, default=1,
                       help="per-unit retry budget (each retry resumes from "
                            "the latest checkpoint)")
    serve.add_argument("--verbose", action="store_true", help="log HTTP requests")

    submit = subparsers.add_parser(
        "submit", help="submit a spec to a running experiment service"
    )
    submit.add_argument("spec", type=pathlib.Path, help="path to an ExperimentSpec JSON file")
    submit.add_argument("--url", default="http://127.0.0.1:8765", help="service base URL")
    submit.add_argument("--param", action="append", dest="params", default=None,
                        help="sweep: dotted override path (repeatable, "
                             "pairs with --values)")
    submit.add_argument("--values", action="append", dest="value_lists", default=None,
                        help="sweep: comma-separated values for the matching --param")
    submit.add_argument("--force", action="store_true",
                        help="bypass the result cache and in-flight dedup")
    submit.add_argument("--wait", action="store_true",
                        help="block until the run finishes and print its results")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait timeout in seconds (default 300)")
    submit.add_argument("--events", action="store_true",
                        help="stream the run's probe payloads (JSON lines) "
                             "to stdout while waiting")
    submit.add_argument("--json", action="store_true",
                        help="print the job record / final status as JSON")

    lint = subparsers.add_parser(
        "lint",
        help="statically check determinism & checkpoint-protocol "
             "invariants (seeded RNG only, no unordered iteration into "
             "results, codec-coverage of checkpointed state, ...)",
    )
    lint.add_argument("paths", nargs="*", default=["src", "tests"],
                      help="files or directories to analyze (default: src tests)")
    lint.add_argument("--format", choices=("text", "json", "github", "sarif"),
                      default="text", dest="output_format",
                      help="finding output format (github emits ::error "
                           "workflow annotations; sarif emits a SARIF 2.1.0 "
                           "run for code-scanning upload)")
    lint.add_argument("--baseline", type=pathlib.Path, default=None,
                      metavar="FILE",
                      help="fingerprinted suppression baseline; findings "
                           "recorded there don't fail the run "
                           "(e.g. lint_baseline.json)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings "
                           "and exit 0 (the escape hatch — review the diff)")
    lint.add_argument("--prune", action="store_true",
                      help="with --baseline: drop stale fingerprints that no "
                           "longer match any finding, keep the rest")
    lint.add_argument("--explain", metavar="RULE", default=None,
                      help="print a rule's rationale and its golden "
                           "violating/clean fixture pair, then exit")

    chaos = subparsers.add_parser(
        "chaos",
        help="inject a seeded fault plan into a spec's execution and "
             "verify recovery is byte-identical to the unfaulted run",
    )
    chaos.add_argument("spec", type=pathlib.Path,
                       help="path to an ExperimentSpec JSON file")
    chaos.add_argument("--fault-seed", type=int, default=0, metavar="S",
                       help="seed of the generated fault plan (same seed = "
                            "same faults everywhere; default 0)")
    chaos.add_argument("--plan", type=pathlib.Path, default=None, metavar="FILE",
                       help="load an explicit fault-plan JSON file instead "
                            "of generating one from --fault-seed")
    chaos.add_argument("--kinds", type=str, default=None,
                       metavar="KIND[,KIND...]",
                       help="restrict the generated plan to these fault "
                            "kinds (crash, checkpoint-corrupt, cache-corrupt, "
                            "http-flaky, sse-disconnect)")
    chaos.add_argument("--mode", choices=("batch", "service", "all"),
                       default="all",
                       help="which seams to attack: a durable batch sweep, "
                            "a live service, or both (default)")
    chaos.add_argument("--dir", type=pathlib.Path, default=None, metavar="DIR",
                       help="working directory for the chaos run's state "
                            "(default: a fresh chaos-<fault seed>/ directory)")
    chaos.add_argument("--checkpoint-every", type=int, default=5, metavar="N",
                       help="rolling checkpoint cadence during the run "
                            "(default 5 — tight, so crashes land between "
                            "checkpoints)")
    chaos.add_argument("--plan-out", type=pathlib.Path, default=None,
                       metavar="FILE",
                       help="also write the effective fault plan JSON here")
    chaos.add_argument("--json", action="store_true",
                       help="print the full chaos report as JSON")

    status = subparsers.add_parser(
        "status", help="query a run (or the whole service) by URL"
    )
    status.add_argument("run_id", nargs="?", default=None,
                        help="run id (default: list every run and the health "
                             "summary)")
    status.add_argument("--url", default="http://127.0.0.1:8765", help="service base URL")
    status.add_argument("--json", action="store_true", help="print raw JSON")
    return parser


def _load_spec(path: pathlib.Path) -> ExperimentSpec:
    try:
        text = path.read_text()
    except OSError as error:
        raise SystemExit(f"cannot read spec {path}: {error}")
    try:
        return ExperimentSpec.from_json(text)
    except SpecificationError as error:
        raise SystemExit(f"invalid spec {path}: {error}")


def _runner(workers: int | None) -> BatchRunner:
    if workers is None:
        return BatchRunner(backend="serial")
    return BatchRunner(max_workers=workers, backend="process")


def _parse_sweep_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_probe_flag(text: str):
    """Parse a ``--probe`` value: ``name`` or ``name:{json params}``."""
    name, separator, params_text = text.partition(":")
    if not separator:
        return name
    try:
        params = json.loads(params_text)
    except json.JSONDecodeError as error:
        raise SystemExit(f"--probe {text!r}: invalid JSON parameters: {error}")
    if not isinstance(params, dict):
        raise SystemExit(f"--probe {text!r}: parameters must be a JSON object")
    return {"probe": name, **params}


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    overrides: dict = {}
    if args.seed:
        overrides["seeds"] = list(args.seed)
    if args.max_rounds is not None:
        overrides["max_rounds"] = args.max_rounds
    if args.history is not None:
        overrides["history"] = args.history
    if args.engine is not None:
        overrides["engine"] = args.engine
    probe_entries = [_parse_probe_flag(text) for text in (args.probes or [])]
    if args.jsonl is not None:
        probe_entries.append({"probe": "jsonl", "path": args.jsonl})
    if args.checkpoint_every is not None or args.checkpoint_dir is not None:
        checkpoint_entry: dict = {
            "probe": "checkpoint",
            "directory": args.checkpoint_dir or "checkpoints",
        }
        if args.checkpoint_every is not None:
            checkpoint_entry["every"] = args.checkpoint_every
        probe_entries.append(checkpoint_entry)
    if probe_entries:
        overrides["probes"] = list(spec.probes) + probe_entries
    if overrides:
        try:
            spec = spec.with_updates(overrides)
        except SpecificationError as error:
            raise SystemExit(str(error))

    specification_reports: list[tuple[int, str]] = []
    if args.verbose:
        # The specification check needs live traces, so verbose mode runs
        # in-process and reuses those runs for the batch report instead of
        # executing everything twice.
        if spec.effective_history != "full":
            raise SystemExit(
                "--verbose checks the recorded trace and needs full history "
                f"(spec's effective retention is {spec.effective_history!r}); "
                "drop --verbose or the history/record_trace override — or use "
                "'--probe temporal' for the online, trace-free check"
            )
        items = []
        for seed in spec.seeds:
            simulator = spec.build(seed)
            result = simulator.run(**spec.run_kwargs())
            items.append(
                BatchItem(
                    label=spec.label,
                    seed=seed,
                    spec=spec.to_dict(),
                    result=result.to_dict(),
                )
            )
            report = check_specification(simulator.algorithm, result.trace)
            specification_reports.append((seed, report.explain()))
        batch = BatchResult(items)
    else:
        batch = _runner(args.workers).run(spec)
    if args.json:
        print(batch.to_json())
    else:
        print(f"experiment:  {spec.label}")
        print(f"algorithm:   {spec.algorithm}  environment: {spec.environment}  "
              f"scheduler: {spec.scheduler}")
        for item in batch:
            if item.error is not None:
                print(f"  seed {item.seed}: ERROR\n{item.error}")
                continue
            outcome = item.result
            status = (
                f"converged at round {outcome['convergence_round']}"
                if outcome["converged"]
                else f"did not converge in {outcome['rounds_executed']} rounds"
            )
            print(f"  seed {item.seed}: {status}; output {outcome['output']!r} "
                  f"(expected {outcome['expected_output']!r})")
            for probe_name, payload in (outcome.get("probes") or {}).items():
                print(f"    probe {probe_name}: {json.dumps(payload)}")
        print(batch.summary_table())
        for seed, explanation in specification_reports:
            print(f"  seed {seed} specification: {explanation}")

    ok = all(
        item.error is None and item.result["converged"] and item.result["correct"]
        for item in batch
    )
    return 0 if ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    registries = available()
    kinds = (args.kind,) if args.kind else _LIST_KINDS
    for kind in kinds:
        print(f"{kind}: " + ", ".join(registries[kind]))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .simulation.checkpoint import RunCheckpoint

    try:
        checkpoint = RunCheckpoint.load(args.checkpoint)
    except OSError as error:
        raise SystemExit(f"cannot read checkpoint {args.checkpoint}: {error}")
    except SpecificationError as error:
        raise SystemExit(f"invalid checkpoint {args.checkpoint}: {error}")
    if checkpoint.spec is None:
        raise SystemExit(
            f"checkpoint {args.checkpoint} embeds no experiment spec; only "
            "checkpoints written by spec-driven runs (repro run "
            "--checkpoint-every) can be resumed from the command line"
        )
    try:
        spec = ExperimentSpec.from_dict(checkpoint.spec)
        result = spec.run_dict(resume_from=checkpoint)
    except SpecificationError as error:
        raise SystemExit(str(error))

    if args.json:
        print(readable_json(result))
    else:
        print(f"experiment:  {spec.label} (seed {checkpoint.seed}, resumed "
              f"from round {checkpoint.driver.rounds_executed})")
        status = (
            f"converged at round {result['convergence_round']}"
            if result["converged"]
            else f"did not converge in {result['rounds_executed']} rounds"
        )
        print(f"  {status}; output {result['output']!r} "
              f"(expected {result['expected_output']!r})")
        for probe_name, payload in (result.get("probes") or {}).items():
            print(f"    probe {probe_name}: {json.dumps(payload)}")
    return 0 if result["converged"] and result["correct"] else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    if len(args.params) != len(args.value_lists):
        raise SystemExit("each --param needs a matching --values list")
    grid = {
        param: [_parse_sweep_value(part) for part in values.split(",") if part.strip()]
        for param, values in zip(args.params, args.value_lists)
    }
    try:
        batch = _runner(args.workers).run_grid(spec, grid)
    except SpecificationError as error:
        raise SystemExit(str(error))
    if args.json:
        print(batch.to_json())
    else:
        print(batch.summary_table())
    for item in batch.failures():
        print(f"FAILED {item.label} seed {item.seed}:\n{item.error}", file=sys.stderr)
    return 0 if not batch.failures() else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import ExperimentService

    service = ExperimentService(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        checkpoint_every=args.checkpoint_every,
        retries=args.retries,
        verbose=args.verbose,
    )
    try:
        service.start()
    except (SpecificationError, OSError) as error:
        raise SystemExit(f"cannot start service: {error}")
    print(f"repro service listening on {service.url} (data: {args.data_dir})",
          flush=True)

    shutdown = threading.Event()

    def request_stop(signum, frame):  # pragma: no cover - signal path
        shutdown.set()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    shutdown.wait()
    print("repro service draining (checkpointing in-flight run)...", flush=True)
    service.stop(drain=True)
    print("repro service stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    spec = _load_spec(args.spec)
    grid = None
    if args.params or args.value_lists:
        if len(args.params or ()) != len(args.value_lists or ()):
            raise SystemExit("each --param needs a matching --values list")
        grid = {
            param: [_parse_sweep_value(part) for part in values.split(",") if part.strip()]
            for param, values in zip(args.params, args.value_lists)
        }
    client = ServiceClient(args.url)
    try:
        job = client.submit(spec, grid=grid, force=args.force)
        if args.events and job["status"] not in ("done", "failed"):
            for event in client.events(job["id"]):
                print(json.dumps(event["data"]), flush=True)
        if args.wait or args.events:
            record = client.wait(job["id"], timeout=args.timeout)
        else:
            record = job
    except ServiceError as error:
        raise SystemExit(str(error))

    if args.json:
        print(readable_json(record))
    elif record is job:
        dedup = " (joined in-flight run)" if job.get("deduplicated") else ""
        cached = " [cache hit: served without executing]" if job.get("cached") else ""
        print(f"run {job['id']}: {job['status']}{dedup}{cached}")
        print(f"  fingerprint {job['fingerprint']}")
        print(f"  follow: repro status {job['id']} --url {args.url}")
    else:
        print(f"run {record['id']}: {record['status']}"
              + (" [cache hit]" if record.get("cached") else ""))
        for unit in record.get("results") or []:
            outcome = unit["result"]
            status = (
                f"converged at round {outcome['convergence_round']}"
                if outcome["converged"]
                else f"did not converge in {outcome['rounds_executed']} rounds"
            )
            print(f"  {unit['label']} seed {unit['seed']}: {status}; "
                  f"output {outcome['output']!r} (expected {outcome['expected_output']!r})")
        if record.get("error"):
            print(record["error"], file=sys.stderr)

    if record is job and record["status"] not in ("done", "failed"):
        return 0
    if record["status"] != "done":
        return 1
    results = record.get("results") or []
    ok = all(
        unit["error"] is None
        and unit["result"]["converged"]
        and unit["result"]["correct"]
        for unit in results
    )
    return 0 if ok or not results else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import run_explain, run_lint

    if args.explain is not None:
        return run_explain(args.explain)
    return run_lint(
        args.paths,
        output_format=args.output_format,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
        prune_baseline=args.prune,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FAULT_KINDS, FaultPlan, run_chaos

    spec = _load_spec(args.spec)
    try:
        if args.plan is not None:
            plan = FaultPlan.load(args.plan)
        else:
            kinds = FAULT_KINDS
            if args.kinds:
                kinds = tuple(
                    part.strip() for part in args.kinds.split(",") if part.strip()
                )
            plan = FaultPlan.generate(args.fault_seed, kinds=kinds)
    except (OSError, SpecificationError) as error:
        raise SystemExit(f"cannot build fault plan: {error}")
    if args.plan_out is not None:
        args.plan_out.parent.mkdir(parents=True, exist_ok=True)
        args.plan_out.write_text(plan.to_json() + "\n")

    directory = args.dir if args.dir is not None else pathlib.Path(
        f"chaos-{plan.seed}"
    )
    try:
        report = run_chaos(
            spec,
            plan,
            directory,
            mode=args.mode,
            checkpoint_every=args.checkpoint_every,
        )
    except SpecificationError as error:
        raise SystemExit(str(error))

    if args.json:
        print(readable_json(report))
    else:
        print(f"chaos: {spec.label} under fault plan seed {plan.seed} "
              f"({len(plan.entries)} faults)")
        for mode_name, mode_report in report["modes"].items():
            verdict = "byte-identical" if mode_report["match"] else "DIVERGED"
            print(f"  {mode_name}: {verdict} "
                  f"({mode_report['units']} units, "
                  f"{len(mode_report['corrupted'])} corruptions, "
                  f"{len(mode_report['quarantined'])} quarantined)")
            for failure in mode_report.get("first_attempt_failures", []):
                summary = (failure["error"] or "").strip().splitlines()
                print(f"    crash: {failure['label']} seed {failure['seed']}: "
                      f"{summary[-1] if summary else 'failed'}")
        print("replay: repro chaos "
              f"{args.spec} --fault-seed {plan.seed} --mode {args.mode}")
    return 0 if report["match"] else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        if args.run_id is None:
            health = client.health()
            runs = client.runs()
            if args.json:
                print(readable_json({"health": health, "runs": runs}))
            else:
                jobs = ", ".join(f"{k}={v}" for k, v in sorted(health["jobs"].items()))
                cache = health["cache"]
                print(f"service {args.url}: {health['status']}"
                      + (" (draining)" if health["draining"] else ""))
                print(f"  jobs: {jobs or '(none)'}")
                print(f"  cache: {cache['entries']} entries, "
                      f"{cache['hits']} hits, {cache['misses']} misses, "
                      f"{cache.get('corrupt', 0)} corrupt")
                for job in runs:
                    print(f"  {job['id']}: {job['status']}"
                          + (" [cached]" if job["cached"] else ""))
            return 0
        record = client.status(args.run_id)
    except ServiceError as error:
        raise SystemExit(str(error))
    if args.json:
        print(readable_json(record))
    else:
        print(f"run {record['id']}: {record['status']}"
              + (" [cached]" if record.get("cached") else ""))
        print(f"  fingerprint {record['fingerprint']}")
        if record.get("error"):
            print(f"  error:\n{record['error']}")
        for unit in record.get("results") or []:
            outcome = unit["result"]
            print(f"  {unit['label']} seed {unit['seed']}: "
                  f"converged={outcome['converged']} output={outcome['output']!r}")
    return 0 if record["status"] != "failed" else 1


#: Subcommand name -> handler.
_COMMANDS = {
    "run": _cmd_run,
    "list": _cmd_list,
    "resume": _cmd_resume,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "lint": _cmd_lint,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    try:
        load_plugins()
    except SpecificationError as error:
        raise SystemExit(str(error))
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
