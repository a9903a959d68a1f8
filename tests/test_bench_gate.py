"""Tests for the perf-smoke regression gate in benchmarks/perf/bench_engine.py."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_SPEC = importlib.util.spec_from_file_location(
    "bench_engine",
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "perf"
    / "bench_engine.py",
)
bench_engine = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_engine)


def _report(rps, speedup, memory_none=1_000, memory_full=10_000):
    return {
        "results": [
            {
                "num_agents": 10_000,
                "rounds": 30,
                "incremental_rounds_per_sec": rps,
                "full_recompute_rounds_per_sec": rps / speedup,
                "speedup": speedup,
            }
        ],
        "memory": [
            {
                "num_agents": 10_000,
                "rounds": 60,
                "history_full_peak_bytes": memory_full,
                "history_none_peak_bytes": memory_none,
                "full_over_none": memory_full / memory_none,
            }
        ],
    }


class TestCheckRegression:
    def test_passes_at_parity(self):
        baseline = _report(100.0, 5.0)
        assert bench_engine.check_regression(_report(100.0, 5.0), baseline, 0.30) == []

    def test_slow_hardware_alone_does_not_fail(self):
        # Half the absolute throughput but the incremental/full ratio is
        # intact: that is a slower runner, not a code regression.
        baseline = _report(100.0, 5.0)
        assert bench_engine.check_regression(_report(50.0, 5.0), baseline, 0.30) == []

    def test_real_regression_fails(self):
        # Throughput and the speedup ratio both collapsed: the incremental
        # hot path itself regressed.
        baseline = _report(100.0, 5.0)
        failures = bench_engine.check_regression(_report(50.0, 2.0), baseline, 0.30)
        assert len(failures) == 1
        assert "n=10000" in failures[0]

    def test_ratio_regression_without_throughput_loss_passes(self):
        baseline = _report(100.0, 5.0)
        assert bench_engine.check_regression(_report(100.0, 2.0), baseline, 0.30) == []

    def test_check_min_n_skips_small_noisy_sizes(self):
        baseline = _report(100.0, 5.0)
        regressed = _report(50.0, 2.0)
        assert bench_engine.check_regression(
            regressed, baseline, 0.30, min_n=20_000
        ) == [
            "no overlapping sizes between this run and the baseline"
        ]
        assert bench_engine.check_regression(
            regressed, baseline, 0.30, min_n=10_000
        )

    def test_no_overlapping_sizes_fails(self):
        baseline = {"results": [
            {"num_agents": 77, "incremental_rounds_per_sec": 1.0, "speedup": 1.0}
        ]}
        failures = bench_engine.check_regression(_report(100.0, 5.0), baseline, 0.30)
        assert any("no overlapping sizes" in failure for failure in failures)

    def test_unbounded_memory_fails(self):
        baseline = _report(100.0, 5.0)
        report = _report(100.0, 5.0, memory_none=10_000, memory_full=10_000)
        failures = bench_engine.check_regression(report, baseline, 0.30)
        assert any("memory" in failure for failure in failures)

    def _with_workload(self, report, rps, speedup, num_agents=10_000,
                       name="sparse_churn_random_pair"):
        report["workloads"] = {
            name: {
                "num_agents": num_agents,
                "rounds": 30,
                "incremental_rounds_per_sec": rps,
                "full_recompute_rounds_per_sec": rps / speedup,
                "speedup": speedup,
            }
        }
        return report

    def test_workload_regression_fails(self):
        baseline = self._with_workload(_report(100.0, 5.0), 80.0, 3.0)
        regressed = self._with_workload(_report(100.0, 5.0), 30.0, 1.2)
        failures = bench_engine.check_regression(regressed, baseline, 0.30)
        assert len(failures) == 1
        assert "sparse_churn_random_pair" in failures[0]

    def test_workload_slow_hardware_alone_passes(self):
        baseline = self._with_workload(_report(100.0, 5.0), 80.0, 3.0)
        slower = self._with_workload(_report(100.0, 5.0), 40.0, 3.0)
        assert bench_engine.check_regression(slower, baseline, 0.30) == []

    def test_workloads_below_min_n_are_not_gated(self):
        baseline = self._with_workload(_report(100.0, 5.0), 80.0, 3.0,
                                       num_agents=300)
        regressed = self._with_workload(_report(100.0, 5.0), 10.0, 1.0,
                                        num_agents=300)
        assert bench_engine.check_regression(
            regressed, baseline, 0.30, min_n=10_000
        ) == []

    def test_dense_markov_row_is_gated_below_min_n(self):
        def report(rps, speedup):
            return self._with_workload(_report(100.0, 5.0), rps, speedup,
                                       num_agents=800,
                                       name="array_dense_markov_800")

        failures = bench_engine.check_regression(
            report(10.0, 1.0), report(40.0, 8.0), 0.30, min_n=10_000
        )
        assert len(failures) == 1
        assert "array_dense_markov_800" in failures[0]

    def test_same_out_and_check_path_gates_against_old_baseline(self, tmp_path):
        # Regenerating the baseline in place must still compare against
        # the *previous* contents, not the just-written report.
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_report(10_000_000.0, 1_000.0)))
        status = bench_engine.main(
            ["--sizes", "10000:2", "--repeats", "1", "--no-memory",
             "--no-workloads", "--out", str(path), "--check", str(path)]
        )
        assert status == 1  # nothing real reaches 10M rps; the old baseline won


class TestHarnessFlags:
    def test_no_memory_skips_the_memory_measurement(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = bench_engine.main(
            ["--sizes", "50:5", "--repeats", "1", "--no-memory",
             "--no-workloads", "--out", str(out)]
        )
        assert status == 0
        report = json.loads(out.read_text())
        assert report["memory"] == []
        assert report["workloads"] == {}
        assert report["results"][0]["num_agents"] == 50

    def test_memory_size_flag_controls_the_measurement(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        status = bench_engine.main(
            ["--sizes", "50:5", "--repeats", "1", "--no-workloads",
             "--memory-size", "60:4", "--out", str(out)]
        )
        assert status == 0
        memory = json.loads(out.read_text())["memory"]
        assert memory[0]["num_agents"] == 60 and memory[0]["rounds"] == 4
        assert memory[0]["history_none_peak_bytes"] > 0
