"""Tests for the command-line interface."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.simulation.checkpoint import RunCheckpoint

SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "specs"


class TestParser:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as raised:
            main([])
        assert raised.value.code == 2

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_list_exposes_every_algorithm_and_environment(self, capsys):
        assert main(["list", "algorithms"]) == 0
        assert main(["list", "environments"]) == 0
        output = capsys.readouterr().out
        assert "sorting" in output and "kth-smallest" in output
        assert "rotating-partition" in output and "mobility" in output


class TestRuns:
    """One spec per algorithm family, run through ``repro run``."""

    def _run(self, tmp_path, *flags, **fields):
        spec = {
            "environment": "static",
            "environment_params": {"topology": "complete"},
            "seeds": [1],
            **fields,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return main(["run", str(path), *flags])

    def test_minimum_with_explicit_values(self, tmp_path, capsys):
        status = self._run(tmp_path, algorithm="minimum", initial_values=[9, 4, 7, 1])
        output = capsys.readouterr().out
        assert status == 0
        assert "seed 1: converged at round" in output
        assert "output 1 (expected 1)" in output

    def test_sum_under_churn(self, tmp_path, capsys):
        status = self._run(
            tmp_path,
            algorithm="sum",
            environment="churn",
            environment_params={"topology": "complete", "edge_up_probability": 0.5},
            initial_values=[3, 5, 3, 7],
            seeds=[2],
        )
        assert status == 0
        assert "output 18" in capsys.readouterr().out

    def test_sorting_with_duplicates_deduplicated(self, tmp_path, capsys):
        status = self._run(tmp_path, algorithm="sorting", initial_values=[5, 2, 5, 1])
        assert status == 0
        assert "output [1, 2, 5]" in capsys.readouterr().out

    def test_kth_smallest(self, tmp_path, capsys):
        status = self._run(
            tmp_path,
            algorithm="kth-smallest",
            algorithm_params={"k": 2},
            initial_values=[9, 4, 7, 1, 6],
        )
        assert status == 0
        assert "output 4" in capsys.readouterr().out

    def test_hull_on_mobility(self, capsys):
        status = main(["run", str(SPECS_DIR / "hull_mobility.json"), "--seed", "3"])
        assert status == 0
        assert "seed 3: converged" in capsys.readouterr().out

    def test_verbose_prints_specification(self, tmp_path, capsys):
        status = self._run(
            tmp_path, "--verbose", algorithm="minimum", initial_values=[3, 1]
        )
        assert status == 0
        assert "seed 1 specification: [PASS]" in capsys.readouterr().out

    def test_bad_values_rejected(self, tmp_path, capsys):
        # The algorithm refuses a non-numeric value; the seed is reported
        # as an error and the run exits non-zero instead of crashing.
        status = self._run(tmp_path, algorithm="minimum", initial_values=[1, "two", 3])
        assert status == 1
        assert "seed 1: ERROR" in capsys.readouterr().out

    def test_failure_exit_status_when_not_converged(self, tmp_path, capsys):
        # Zero availability: nothing can ever happen.
        status = self._run(
            tmp_path,
            algorithm="minimum",
            environment="churn",
            environment_params={"topology": "complete", "edge_up_probability": 0.0},
            initial_values=[3, 1],
            max_rounds=20,
        )
        assert status == 1
        assert "seed 1: did not converge in 20 rounds" in capsys.readouterr().out

    def test_rotating_partition(self, tmp_path, capsys):
        status = self._run(
            tmp_path,
            algorithm="second-smallest",
            environment="rotating-partition",
            environment_params={
                "topology": "complete",
                "num_blocks": 2,
                "rotate_every": 3,
            },
            initial_values=[8, 3, 5, 9],
        )
        assert status == 0
        assert "output 5" in capsys.readouterr().out


class TestExamplesRun:
    """Smoke tests: the shipped examples must keep running end to end."""

    @pytest.mark.parametrize(
        "example",
        [
            "quickstart.py",
            "sensor_network.py",
            "mobile_agents_hull.py",
            "distributed_sorting.py",
            "adversarial_sum.py",
        ],
    )
    def test_example_runs(self, example, capsys):
        import runpy

        path = SPECS_DIR.parent / example
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out  # produced some report


class TestSpecSubcommands:
    """The spec-driven interface: repro run / list / sweep."""

    SPEC = {
        "name": "cli-minimum",
        "algorithm": "minimum",
        "environment": "churn",
        "environment_params": {"topology": "complete", "edge_up_probability": 0.3},
        "initial_values": [52, 17, 88, 5, 34, 71, 23, 9],
        "seeds": [0, 1],
        "max_rounds": 500,
    }

    def _spec_file(self, tmp_path, payload=None):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload or self.SPEC))
        return str(path)

    def test_run_spec_file(self, tmp_path, capsys):
        status = main(["run", self._spec_file(tmp_path)])
        output = capsys.readouterr().out
        assert status == 0
        assert "cli-minimum" in output
        assert "seed 0" in output and "seed 1" in output
        assert "output 5" in output

    def test_run_matches_hand_wired_simulator(self, tmp_path, capsys):
        from repro import Simulator, minimum_algorithm
        from repro.environment import RandomChurnEnvironment, complete_graph

        status = main(["run", self._spec_file(tmp_path), "--json"])
        assert status == 0
        batch = json.loads(capsys.readouterr().out)
        for item in batch["items"]:
            direct = Simulator(
                minimum_algorithm(),
                RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.3),
                self.SPEC["initial_values"],
                seed=item["seed"],
            ).run(max_rounds=500)
            assert item["result"]["output"] == direct.output
            assert item["result"]["convergence_round"] == direct.convergence_round

    def test_resume_json_is_the_run_dict(self, tmp_path, capsys, monkeypatch):
        from repro import ExperimentSpec

        monkeypatch.chdir(tmp_path)
        status = main([
            "run", self._spec_file(tmp_path), "--seed", "0",
            "--checkpoint-every", "2", "--checkpoint-dir", "ckpts",
        ])
        assert status == 0
        capsys.readouterr()
        checkpoint = tmp_path / "ckpts" / "minimum-seed0" / "round-00000002.json"
        assert main(["resume", str(checkpoint), "--json"]) == 0
        output = capsys.readouterr().out
        spec = ExperimentSpec.from_dict(RunCheckpoint.load(checkpoint).spec)
        assert json.loads(output) == spec.run_dict(resume_from=checkpoint)
        assert '"final_states": [' in output and output.count("\n") < 40

    def test_resume_refuses_a_damaged_checkpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = str(SPECS_DIR / "minimum_checkpoint.json")
        assert main(["run", spec, "--checkpoint-every", "25", "--checkpoint-dir",
                     "ckpts"]) == 0
        capsys.readouterr()
        run_dir = tmp_path / "ckpts" / "minimum-seed0"
        checkpoint = run_dir / "round-00000050.json"
        text = checkpoint.read_text()
        at = text.index('"agent_states": [') + len('"agent_states": [')
        while not text[at].isdigit():
            at += 1
        digit = str((int(text[at]) + 1) % 10)
        checkpoint.write_text(text[:at] + digit + text[at + 1:])

        with pytest.raises(SystemExit, match="integrity digest mismatch"):
            main(["resume", str(checkpoint), "--json"])
        assert capsys.readouterr().out == "", "no result is printed"
        # The damaged file does not poison its run directory: the newest
        # checkpoint still verifies and resumes.
        assert main(["resume", str(run_dir), "--json"]) == 0

    def test_run_seed_and_round_overrides(self, tmp_path, capsys):
        status = main(
            ["run", self._spec_file(tmp_path), "--seed", "7", "--max-rounds", "300"]
        )
        output = capsys.readouterr().out
        assert status == 0
        assert "seed 7" in output and "seed 0" not in output

    def test_run_with_worker_pool(self, tmp_path, capsys):
        status = main(["run", self._spec_file(tmp_path), "--workers", "2"])
        assert status == 0

    def test_run_failure_exit_status(self, tmp_path, capsys):
        payload = dict(self.SPEC)
        payload["environment_params"] = {"edge_up_probability": 0.0}
        payload["max_rounds"] = 10
        payload["seeds"] = [0]
        status = main(["run", self._spec_file(tmp_path, payload)])
        assert status == 1

    def test_run_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read spec"):
            main(["run", str(tmp_path / "nope.json")])

    def test_run_invalid_spec_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"algorithm": "frobnicate", "initial_values": [1]}')
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["run", str(path)])

    def test_list_everything(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for section in ("algorithms:", "environments:", "schedulers:", "graphs:"):
            assert section in output
        assert "minimum" in output and "mobility" in output and "maximal" in output

    def test_list_one_kind(self, capsys):
        assert main(["list", "schedulers"]) == 0
        output = capsys.readouterr().out
        assert "maximal" in output and "random-pair" in output
        assert "algorithms:" not in output

    def test_sweep(self, tmp_path, capsys):
        status = main(
            [
                "sweep",
                self._spec_file(tmp_path),
                "--param",
                "environment_params.edge_up_probability",
                "--values",
                "0.2,1.0",
            ]
        )
        output = capsys.readouterr().out
        assert status == 0
        assert "edge_up_probability=0.2" in output
        assert "edge_up_probability=1.0" in output

    def test_sweep_param_values_mismatch(self, tmp_path):
        with pytest.raises(SystemExit, match="matching --values"):
            main(
                [
                    "sweep",
                    self._spec_file(tmp_path),
                    "--param",
                    "max_rounds",
                    "--param",
                    "scheduler",
                    "--values",
                    "100,200",
                ]
            )

    def test_bundled_example_specs_run(self, capsys):
        status = main(["run", str(SPECS_DIR / "minimum_churn.json")])
        assert status == 0
        assert "minimum-under-churn" in capsys.readouterr().out
