"""Spec-in -> result-out benchmark of the repro library and its service.

Usage (from the repository root)::

    python3 perfbench/run.py                                  # every workload
    python3 perfbench/run.py --workload service_sweep --seed 3 --seconds 30
    python3 perfbench/run.py --workload dense_markov_800 --trace 1

Each workload runs for ``--seconds`` on inputs derived from ``--seed``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A table of every metric (value, median,
quartiles, sample count) is printed per workload; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (metric names are prefixed with
``<workload>/`` when more than one workload runs).  Every workload runs in
a process of its own, so each reports its own peak RSS.

Exit status: 0 when every unit's results were correct, 1 when some were
not, 2 when the library sources are missing, 3 when a workload did not
take the code path it exists to measure (nothing is reported then).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Import the benchmark as a package from the repository root, and never
# let its module names shadow anything when run as a script.
if sys.path and pathlib.Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Where a run keeps the service's data directory; removed when it ends.
WORK_DIR = ROOT / ".perfbench-work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def library_found() -> bool:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return pathlib.Path(repro.__file__).resolve().is_relative_to(SRC)


def print_table(name: str, args, outcome, metrics, wall=None) -> None:
    attempted = len(outcome.units)
    failed = len(outcome.failed)
    print(
        f"== {name}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}  units={attempted}  failed={failed} =="
    )
    print(f"{'metric':<28}{'unit':<7}{'value':>14}{'median':>14}{'q1':>14}{'q3':>14}{'n':>7}")
    for metric, (unit, s) in metrics.items():
        print(
            f"{metric:<28}{unit:<7}{s.value:>14.6g}{s.median:>14.6g}"
            f"{s.q1:>14.6g}{s.q3:>14.6g}{s.count:>7}"
        )
    for metric, (unit, s) in (wall or {}).items():
        if unit in ("s", "1/s"):
            print(
                f"{metric + ' (wall)':<28}{unit:<7}{s.value:>14.6g}{s.median:>14.6g}"
                f"{s.q1:>14.6g}{s.q3:>14.6g}{s.count:>7}"
            )
    print(f"{'error_rate':<28}{'ratio':<7}{failed / max(attempted, 1):>14.6g}")
    for unit in outcome.failed:
        print(f"FAILED {unit.kind} unit {unit.index}:", *unit.problems, sep="\n  ", file=sys.stderr)


def merge_reports(reports: list[tuple[str, dict]]) -> dict:
    """One result line from several workloads' result lines; metric
    names get a ``<workload>/`` prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, report in reports:
        merged["correct"] = merged["correct"] and report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for metric, value in report["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def run_each(names: list[str], args) -> int:
    """Run every workload in a child process and merge their results."""
    reports = []
    for name in names:
        completed = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        if completed.returncode not in (0, 1) or not lines:
            return completed.returncode or 1
        for line in lines[:-1]:
            print(line)
        try:
            reports.append((name, json.loads(lines[-1])))
        except ValueError:
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            return 1
    merged = merge_reports(reports)
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not library_found():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    if len(names) > 1:
        return run_each(names, args)
    from perfbench.bench import Bench, GuardError, end_to_end, per_layer

    name = names[0]
    work_dir = WORK_DIR / str(os.getpid())
    try:
        bench = Bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work_dir)
        try:
            outcome = bench.run()
        except GuardError as error:
            print(f"perfbench: refusing to report {name}: {error}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it, or it never existed
            pass
    if args.trace:
        metrics, wall = per_layer(outcome), None
    else:
        metrics, wall = end_to_end(outcome), end_to_end(outcome, scaled=False)
    print_table(name, args, outcome, metrics, wall)
    failed = len(outcome.failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcome.units),
        "failed": failed,
        "metrics": {
            metric: {"value": summary.value, "unit": unit}
            for metric, (unit, summary) in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
