"""The benchmark's workloads: spec generation, result checks, goldens.

Every input derives from the workload seed: unit ``i`` of a run gets its
run seeds and its value-generator seed from ``(seed, i)`` through
:func:`derive_seed`, so the same seed always submits the same specs, and
the program only ever sees spec text.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "Workload",
    "canonical_result",
    "check_results",
    "derive_seed",
    "digest",
    "load_golden",
]

#: The seed whose results are pinned by ``golden.json``.
DEFAULT_SEED = 0

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")

#: Result metadata that is not part of the computation: the engine stamp
#: (checked on its own, and absent from reference-engine results) and
#: timing sections, which must never change a digest.
VOLATILE_METADATA = ("engine", "profile", "timings")

#: Fixed round count of the dense Markov workload (it never stops early).
MARKOV_ROUNDS = 5


def derive_seed(seed: int, index: int, role: str) -> int:
    """A 31-bit seed for one role (``run``, ``values``) of unit ``index``."""
    text = f"{seed}/{index}/{role}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def _values(agents: int, seed: int, index: int) -> tuple[str, dict]:
    # Six-digit values, so a result's size does not depend on the seed.
    return "random-integers", {
        "count": agents,
        "low": 100000,
        "high": 999999,
        "seed": derive_seed(seed, index, "values"),
    }


def _array_churn_spec(agents: int, seed: int, index: int) -> dict:
    # examples/specs/minimum_array.json, with seeds derived per unit and
    # six-digit values.
    generator, params = _values(agents, seed, index)
    return {
        "name": "minimum-array-churn",
        "algorithm": "minimum",
        "engine": "array",
        "environment": "churn",
        "environment_params": {
            "topology": {"graph": "tree", "branching": 2},
            "edge_up_probability": 0.3,
        },
        "scheduler": "maximal",
        "value_generator": generator,
        "generator_params": params,
        "seeds": [derive_seed(seed, index, "run")],
        "max_rounds": 500,
        "history": "none",
        "probes": ["convergence"],
    }


def _dense_markov_spec(agents: int, seed: int, index: int) -> dict:
    generator, params = _values(agents, seed, index)
    return {
        "name": "minimum-dense-markov",
        "algorithm": "minimum",
        "engine": "array",
        "environment": "markov-churn",
        "environment_params": {
            "topology": "complete",
            "edge_failure_probability": 0.6,
            "edge_recovery_probability": 0.1,
        },
        "scheduler": "maximal",
        "value_generator": generator,
        "generator_params": params,
        "seeds": [derive_seed(seed, index, "run")],
        "max_rounds": MARKOV_ROUNDS,
        "stop_at_convergence": False,
        "history": "none",
        "probes": ["convergence"],
    }


def _service_spec(agents: int, seed: int, index: int) -> dict:
    generator, params = _values(agents, seed, index)
    return {
        "name": "minimum-service-churn",
        "algorithm": "minimum",
        "engine": "reference",
        "environment": "churn",
        "environment_params": {
            "topology": {"graph": "tree", "branching": 2},
            "edge_up_probability": 0.3,
        },
        "scheduler": "maximal",
        "value_generator": generator,
        "generator_params": params,
        "seeds": [derive_seed(seed, index, "run"), derive_seed(seed, index, "run2")],
        "max_rounds": 500,
        "probes": ["temporal"],
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``advance`` is the environment path the workload claims: ``"bypassed"``
    (the array engine's vectorized churn draws, zero public ``advance``
    calls), ``"used"`` (every round calls the environment) or None (not
    guarded).  ``tiny_agents`` is the instance size of the smoke tests.
    """

    name: str
    agents: int
    tiny_agents: int
    engine: str
    service: bool
    advance: str | None
    make_spec: Callable[[int, int, int], dict]

    def spec(self, seed: int, index: int, agents: int | None = None) -> dict:
        return self.make_spec(agents or self.agents, seed, index)

    def spec_text(self, seed: int, index: int, agents: int | None = None) -> str:
        return json.dumps(self.spec(seed, index, agents))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="array_churn_100k",
            agents=100_000,
            tiny_agents=3_000,
            engine="array",
            service=False,
            advance="bypassed",
            make_spec=_array_churn_spec,
        ),
        Workload(
            name="dense_markov_800",
            agents=800,
            tiny_agents=40,
            engine="array",
            service=False,
            advance="used",
            make_spec=_dense_markov_spec,
        ),
        Workload(
            name="service_sweep",
            agents=1_000,
            tiny_agents=60,
            engine="reference",
            service=True,
            advance=None,
            make_spec=_service_spec,
        ),
    )
}


# -- correctness ------------------------------------------------------------------


def canonical_result(result: Mapping[str, Any]) -> str:
    """A result's canonical JSON with the volatile metadata removed."""
    data = dict(result)
    metadata = dict(data.get("metadata") or {})
    for key in VOLATILE_METADATA:
        metadata.pop(key, None)
    data["metadata"] = metadata
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(results: Sequence[Mapping[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of one unit's results, in seed order."""
    text = "\n".join(canonical_result(result) for result in results)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_results(
    workload: Workload, results: Sequence[Mapping[str, Any]], engine: str | None = None
) -> list[str]:
    """What is wrong with one unit's results (empty when nothing is);
    ``engine`` overrides the engine the workload declares."""
    expected = engine or workload.engine
    problems = []
    for result in results:
        seed = (result.get("metadata") or {}).get("seed")
        if not result.get("converged"):
            problems.append(f"seed {seed}: did not converge")
        if result.get("output") != result.get("expected_output"):
            problems.append(
                f"seed {seed}: output {result.get('output')!r} != expected "
                f"{result.get('expected_output')!r}"
            )
        # The reference engine predates the engine stamp; its results
        # carry none.
        ran_on = (result.get("metadata") or {}).get("engine", "reference")
        if ran_on != expected:
            problems.append(f"seed {seed}: ran on engine {ran_on!r}, not {expected!r}")
    return problems


def load_golden() -> dict[str, list[str]]:
    """Per-workload unit digests at :data:`DEFAULT_SEED` and full size."""
    data = json.loads(GOLDEN_PATH.read_text())
    if data.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{GOLDEN_PATH} pins seed {data.get('seed')}, not {DEFAULT_SEED}")
    return data["digests"]
