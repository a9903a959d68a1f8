"""Tests of the benchmark's own helpers, plus a tiny-size smoke of each workload."""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys

import pytest

# The benchmark calibrates every unit with a numpy reduction (bench.calibrate).
pytest.importorskip("numpy")

from perfbench import bench as bench_module  # noqa: E402
from perfbench.bench import (  # noqa: E402
    CALIBRATION_REF_S,
    END_TO_END,
    PER_LAYER,
    Bench,
    GuardError,
    Outcome,
    Unit,
    calibrate,
    end_to_end,
    per_layer,
)
from perfbench.run import merge_reports  # noqa: E402
from perfbench.stats import percentile, quartiles, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, canonical_result, derive_seed, digest  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- order statistics ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 91) == 10.0
    assert percentile(values, 100) == 10.0
    assert percentile([4.0], 90) == 4.0


@pytest.mark.parametrize("q", [0, -1, 101])
def test_percentile_rejects_bad_q(q):
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], q)


def test_percentile_and_quartiles_reject_empty():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        quartiles([])


def test_quartiles_match_statistics_quantiles():
    values = [0.31, 0.29, 0.35, 0.30, 0.52, 0.33, 0.28, 0.34, 0.30, 0.32]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values)[1] == statistics.median(values)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_summarize_keeps_an_explicit_value():
    summary = summarize([1.0, 2.0, 3.0, 4.0], value=10.0)
    assert summary.value == 10.0
    assert summary.median == 2.5
    assert summary.count == 4
    assert summarize([1.0, 2.0, 3.0]).value == 2.0


# -- end-to-end reduction and reference seconds ---------------------------------------


def _offline_outcome(*units: Unit) -> Outcome:
    return Outcome(WORKLOADS["dense_markov_800"], list(units), [], 100.0, {})


def test_end_to_end_scales_times_by_the_calibration():
    spans = {"experiment.build_s": 0.3, "experiment.build_calls": 1,
             "engine.run_s": 2.0, "engine.rounds": 10}
    slow = Unit(0, "fresh", False, job_s=3.0, parse_s=0.1, spans=spans,
                calibration_s=1.5 * CALIBRATION_REF_S, calibration_after_s=2.5 * CALIBRATION_REF_S)
    again = Unit(0, "repeat", False, job_s=3.0, parse_s=0.1, spans=spans,
                 calibration_s=2.5 * CALIBRATION_REF_S, calibration_after_s=1.5 * CALIBRATION_REF_S)
    scaled = end_to_end(_offline_outcome(slow, again))
    wall = end_to_end(_offline_outcome(slow, again), scaled=False)
    assert wall["job_s"][1].value == 3.0
    assert scaled["job_s"][1].value == pytest.approx(1.5)
    assert scaled["setup_s"][1].value == pytest.approx(0.2)
    assert scaled["cache_hit_s"][1].value == pytest.approx(1.5)
    assert wall["rounds_per_s"][1].value == pytest.approx(5.0)
    assert scaled["rounds_per_s"][1].value == pytest.approx(10.0)
    assert scaled["peak_rss_mb"][1].value == wall["peak_rss_mb"][1].value == 100.0


def test_calibration_takes_measurable_time():
    assert calibrate() > 0


def test_failed_units_are_left_out_of_the_timings():
    good = Unit(0, "fresh", False, job_s=1.0, calibration_s=CALIBRATION_REF_S)
    bad = Unit(1, "fresh", False, job_s=9.0, problems=["output != expected"])
    assert end_to_end(_offline_outcome(good, bad))["job_s"][1].value == 1.0
    assert _offline_outcome(good, bad).failed == [bad]


def test_merged_reports_prefix_metrics_and_add_counts():
    metric = {"value": 1.5, "unit": "s"}
    merged = merge_reports([
        ("a", {"correct": True, "attempted": 4, "failed": 0, "metrics": {"job_s": metric}}),
        ("b", {"correct": False, "attempted": 6, "failed": 1, "metrics": {"job_s": metric}}),
    ])
    assert merged == {
        "correct": False,
        "attempted": 10,
        "failed": 1,
        "metrics": {"a/job_s": metric, "b/job_s": metric},
    }


# -- golden digests ---------------------------------------------------------------


def _result(**metadata) -> dict:
    return {
        "converged": True,
        "output": 3,
        "expected_output": 3,
        "final_states": [3, 3, 3],
        "metadata": {"algorithm": "minimum", "seed": 5, **metadata},
    }


def test_digest_ignores_timing_fields_and_engine_stamp():
    plain = digest([_result()])
    assert digest([_result(profile={"engine.run_s": 1.25})]) == plain
    assert digest([_result(timings={"build_s": 0.5}, engine="array")]) == plain


def test_digest_ignores_key_order_but_not_values():
    result = _result()
    reordered = dict(reversed(list(result.items())))
    assert canonical_result(reordered) == canonical_result(result)
    changed = _result()
    changed["output"] = 4
    assert digest([changed]) != digest([result])
    assert digest([result, result]) != digest([result])


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(0, 0, "run") == derive_seed(0, 0, "run")
    seeds = {derive_seed(seed, index, role)
             for seed in range(3) for index in range(20) for role in ("run", "values")}
    assert len(seeds) == 120
    assert all(0 <= seed < 2**31 for seed in seeds)


# -- the benchmark description ------------------------------------------------------


def test_benchmark_json_matches_the_code():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == dict(END_TO_END)
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == dict(PER_LAYER)


# -- workloads at tiny size ------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    workload = WORKLOADS[name]
    untraced = Bench(workload, 1, 0.2, False, tmp_path / "e2e", agents=workload.tiny_agents).run()
    assert not untraced.failed, [unit.problems for unit in untraced.failed]
    # Every unit is bracketed by two calibrations, the last one included.
    assert all(unit.calibration_after_s != CALIBRATION_REF_S for unit in untraced.units)
    metrics = end_to_end(untraced)
    assert list(metrics) == [metric for metric, _ in END_TO_END]
    assert all(summary.value > 0 for _, summary in metrics.values())

    traced = Bench(workload, 1, 0.2, True, tmp_path / "traced", agents=workload.tiny_agents).run()
    assert not traced.failed, [unit.problems for unit in traced.failed]
    layers = {metric: summary.value for metric, (_, summary) in per_layer(traced).items()}
    assert list(layers) == [metric for metric, _ in PER_LAYER]
    assert layers["engine.rounds"] > 0
    if workload.advance == "bypassed":
        assert layers["environment.advance_calls"] == 0
    if workload.advance == "used":
        assert layers["environment.advance_calls"] > 0
    if workload.service:
        fresh = sum(unit.kind == "fresh" for unit in traced.units)
        assert layers["cache.hits"] == fresh
        assert layers["checkpoint.files"] > 0


def test_guard_refuses_the_array_workloads_without_numpy(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_module.array_engine, "HAVE_NUMPY", False)
    workload = WORKLOADS["dense_markov_800"]
    with pytest.raises(GuardError, match="numpy"):
        Bench(workload, 1, 0.1, False, tmp_path, agents=workload.tiny_agents).preflight()


def test_guard_refuses_the_wrong_environment_path(tmp_path):
    bypassed = Bench(WORKLOADS["array_churn_100k"], 1, 0.1, False, tmp_path)
    with pytest.raises(GuardError, match="not engaged"):
        bypassed._check_advance(3)
    used = Bench(WORKLOADS["dense_markov_800"], 1, 0.1, False, tmp_path)
    with pytest.raises(GuardError, match="never advanced"):
        used._check_advance(0)


def test_run_refuses_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service_sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
