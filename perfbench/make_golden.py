"""Regenerate ``perfbench/golden.json``, the pinned result digests.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

Runs the first units of every workload at the default seed and full size
offline (``ExperimentSpec.from_json`` -> serial ``BatchRunner``), checks
each result, and writes one digest per unit.  The dense Markov workload
is run on both engines, whose digests must agree; the service workload's
digests are the offline results the service must reproduce byte for
byte.  Regenerate only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
if sys.path and pathlib.Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
sys.path[:0] = [str(HERE.parent), str(HERE.parent / "src")]

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    GOLDEN_PATH,
    WORKLOADS,
    check_results,
    digest,
)
from repro.experiment import ExperimentSpec  # noqa: E402
from repro.simulation.batch import BatchRunner  # noqa: E402

#: Units pinned per workload: more than a default-length run reaches.
UNITS = {"array_churn_100k": 24, "dense_markov_800": 20, "service_sweep": 128}

#: Workloads whose digests must not depend on the engine.
BOTH_ENGINES = ("dense_markov_800",)


def unit_digest(workload, spec: dict) -> str:
    batch = BatchRunner(backend="serial").run(ExperimentSpec.from_dict(spec))
    if batch.failures():
        raise SystemExit(f"{workload.name}: {batch.failures()[0].error}")
    results = [item.result for item in batch]
    problems = check_results(workload, results, engine=spec["engine"])
    if problems:
        raise SystemExit(f"{workload.name}: {problems}")
    return digest(results)


def main() -> int:
    digests: dict[str, list[str]] = {}
    for name, count in UNITS.items():
        workload = WORKLOADS[name]
        digests[name] = []
        for index in range(count):
            spec = workload.spec(DEFAULT_SEED, index)
            value = unit_digest(workload, spec)
            if name in BOTH_ENGINES:
                other = dict(spec, engine="reference" if spec["engine"] == "array" else "array")
                if unit_digest(workload, other) != value:
                    raise SystemExit(f"{name} unit {index}: the engines disagree")
            digests[name].append(value)
            print(f"{name} {index} {value}", flush=True)
    GOLDEN_PATH.write_text(
        json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
