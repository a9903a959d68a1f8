"""Tests for the parallel BatchRunner and batch-result serialization."""

from __future__ import annotations

import os
import pathlib
import traceback

import pytest

import repro
from repro import BatchRunner, ExperimentSpec, Simulator, minimum_algorithm
from repro.environment import RandomChurnEnvironment, complete_graph
from repro.registry import register_probe
from repro.simulation.batch import BatchResult, format_failure
from repro.simulation.protocol import Probe

VALUES = [5, 3, 9, 1, 7, 2, 8, 4]


def minimum_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="batch-minimum",
        algorithm="minimum",
        environment="churn",
        environment_params={"edge_up_probability": 0.3},
        initial_values=tuple(VALUES),
        seeds=(0, 1, 2),
        max_rounds=500,
    )
    base.update(overrides)
    return ExperimentSpec(**base).validate()


def hand_wired(seed: int):
    return Simulator(
        minimum_algorithm(),
        RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.3),
        VALUES,
        seed=seed,
    ).run(max_rounds=500)


class TestBackendParity:
    """Every backend produces exactly the in-process results."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_matches_hand_wired_runs(self, backend):
        batch = BatchRunner(max_workers=2, backend=backend).run(minimum_spec())
        assert len(batch) == 3
        assert not batch.failures()
        for item in batch:
            direct = hand_wired(item.seed)
            assert item.result["output"] == direct.output
            assert item.result["convergence_round"] == direct.convergence_round
            assert item.result["rounds_executed"] == direct.rounds_executed
            assert item.result["group_steps"] == direct.group_steps

    def test_backends_agree_with_each_other(self):
        spec = minimum_spec()
        outcomes = {
            backend: [
                item.result["final_states"]
                for item in BatchRunner(max_workers=2, backend=backend).run(spec)
            ]
            for backend in ("serial", "process")
        }
        assert outcomes["serial"] == outcomes["process"]


class TestBatchSemantics:
    def test_one_item_per_spec_seed_pair(self):
        specs = [minimum_spec(name="a", seeds=(0, 1)), minimum_spec(name="b", seeds=(7,))]
        batch = BatchRunner(backend="serial").run(specs)
        assert [(item.label, item.seed) for item in batch] == [
            ("a", 0),
            ("a", 1),
            ("b", 7),
        ]
        assert batch.labels() == ["a", "b"]

    def test_failure_is_data_not_exception(self):
        # k larger than the number of distinct values: the algorithm
        # factory raises inside the worker.
        bad = ExperimentSpec(
            name="bad",
            algorithm="kth-smallest",
            algorithm_params={"k": -1},
            environment="static",
            initial_values=(1, 2, 3),
        )
        batch = BatchRunner(backend="serial").run([bad, minimum_spec(seeds=(0,))])
        assert len(batch) == 2
        assert len(batch.failures()) == 1
        assert batch.failures()[0].label == "bad"
        assert batch.failures()[0].error is not None
        # the good spec still completed
        assert batch.results_for("batch-minimum")[0]["converged"]

    def test_failure_names_package_files_relative_to_the_package(self):
        bad = ExperimentSpec(
            name="bad",
            algorithm="kth-smallest",
            algorithm_params={"k": -1},
            environment="static",
            initial_values=(1, 2, 3),
        )
        with pytest.raises(Exception) as raised:
            bad.run(0)
        error = BatchRunner(backend="serial").run([bad]).failures()[0].error
        assert 'File "repro/simulation/batch.py"' in error
        assert str(pathlib.Path(repro.__file__).resolve().parent.parent) not in error
        assert error.endswith(traceback.format_exception_only(raised.value)[-1])

    def test_format_failure_rewrites_only_package_paths(self):
        package_parent = os.path.dirname(os.path.dirname(repro.__file__))
        try:
            try:
                minimum_spec(algorithm="no-such-algorithm")
            except Exception as inner:
                raise RuntimeError("wrapped failure") from inner
        except RuntimeError as outer:
            failure = outer
        formatted = format_failure(failure)
        assert "direct cause of the following exception" in formatted
        assert 'File "repro/experiment.py"' in formatted
        assert package_parent not in formatted
        # Frames outside the package keep their paths; source lines and
        # messages stay as they were.
        assert f'File "{__file__}"' in formatted
        assert formatted == "".join(traceback.format_exception(failure)).replace(
            f'File "{package_parent}{os.sep}', 'File "'
        )

    def test_statistics_per_label(self):
        batch = BatchRunner(backend="serial").run(minimum_spec())
        stats = batch.statistics()["batch-minimum"]
        assert stats.runs == 3
        assert stats.convergence_rate == 1.0
        assert stats.correctness_rate == 1.0

    def test_summary_table_lists_experiments(self):
        batch = BatchRunner(backend="serial").run(minimum_spec())
        table = batch.summary_table()
        assert "batch-minimum" in table and "conv. rate" in table

    def test_run_grid(self):
        batch = BatchRunner(backend="serial").run_grid(
            minimum_spec(seeds=(0,)),
            {"environment_params.edge_up_probability": [0.2, 1.0]},
        )
        assert len(batch) == 2
        assert not batch.failures()
        labels = batch.labels()
        assert labels == [
            "batch-minimum[edge_up_probability=0.2]",
            "batch-minimum[edge_up_probability=1.0]",
        ]

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            BatchRunner(backend="quantum")

    def test_thread_backend_is_not_offered(self):
        with pytest.raises(ValueError, match="backend"):
            BatchRunner(backend="thread")


class TestBatchSerialization:
    def test_json_round_trip(self):
        batch = BatchRunner(backend="serial").run(minimum_spec(seeds=(0, 1)))
        text = batch.to_json()
        restored = BatchResult.from_json(text)
        assert restored.to_dict() == batch.to_dict()
        assert [item.seed for item in restored] == [0, 1]

    def test_items_carry_their_spec(self):
        batch = BatchRunner(backend="serial").run(minimum_spec(seeds=(0,)))
        item = batch.items[0]
        rebuilt = ExperimentSpec.from_dict(item.spec)
        assert rebuilt.algorithm == "minimum"
        # a persisted batch item is re-runnable
        assert rebuilt.run(item.seed).to_dict()["output"] == item.result["output"]


# -- durable batches: checkpoints, retry, resume --------------------------------


#: Shared switch for the crash-injection probe: armed, it kills the worker
#: mid-run after the configured number of rounds (simulating a crash /
#: preemption); tests disarm it before resuming.
_CRASH = {"armed": False}


@register_probe("test-crash-after")
class CrashAfterProbe(Probe):
    """Raises inside the run loop after ``rounds`` rounds while armed."""

    name = "test-crash-after"

    def __init__(self, rounds: int = 5):
        self.rounds = rounds
        self._seen = 0

    def on_start(self, engine):
        self._seen = 0

    def on_round(self, record):
        self._seen += 1
        if _CRASH["armed"] and self._seen >= self.rounds:
            raise RuntimeError("injected worker crash")

    def state_dict(self):
        return {"seen": self._seen}

    def load_state(self, state):
        self._seen = state["seen"]


def _durable_specs():
    healthy = minimum_spec(name="healthy", seeds=(0, 1))
    sentinel = minimum_spec(
        name="sentinel",
        seeds=(3,),
        environment_params={"edge_up_probability": 0.1},
        probes=({"probe": "test-crash-after", "rounds": 7},),
    )
    return [healthy, sentinel]


def _comparable(item):
    """A batch item's result minus the checkpoint probe's payload (whose
    directory string necessarily differs between batch directories)."""
    result = dict(item.result)
    probes = dict(result.get("probes") or {})
    probes.pop("checkpoint", None)
    if probes:
        result["probes"] = probes
    else:
        result.pop("probes", None)
    return (item.label, item.seed, result)


def test_batch_resume_after_worker_crash(tmp_path):
    # Uninterrupted reference: same specs, crash probe disarmed.
    _CRASH["armed"] = False
    reference = BatchRunner(backend="serial").run(
        _durable_specs(), checkpoint_dir=tmp_path / "reference", checkpoint_every=5
    )
    assert not reference.failures()

    # Crashing sweep: the sentinel unit dies mid-run, after its engine
    # wrote at least one rolling checkpoint.
    _CRASH["armed"] = True
    try:
        crashed = BatchRunner(backend="serial").run(
            _durable_specs(), checkpoint_dir=tmp_path / "live", checkpoint_every=5
        )
    finally:
        _CRASH["armed"] = False
    assert [item.label for item in crashed.failures()] == ["sentinel"]
    assert "injected worker crash" in crashed.failures()[0].error
    completed = [item for item in crashed if item.ok]
    assert [item.label for item in completed] == ["healthy", "healthy"]

    sentinel_dir = tmp_path / "live" / "unit-0002"
    checkpoints = list((sentinel_dir / "engine").glob("*/round-*.json"))
    assert checkpoints, "the crashed unit should have left an engine checkpoint"
    assert not (sentinel_dir / "result.json").exists()

    # Resume: completed units come back from their persisted results,
    # the crashed unit restores from its latest checkpoint, and the
    # merged batch equals the uninterrupted one.
    resumed = BatchRunner(backend="serial").resume(tmp_path / "live")
    assert not resumed.failures()
    assert [item.result for item in resumed if item.label == "healthy"] == [
        item.result for item in crashed if item.label == "healthy"
    ]
    assert list(map(_comparable, resumed)) == list(map(_comparable, reference))


def test_retries_restore_from_latest_checkpoint(tmp_path):
    # First attempt crashes mid-run; the per-unit retry picks the unit
    # back up from its rolling checkpoint inside the same batch call.
    _CRASH["armed"] = True

    original = CrashAfterProbe.on_round

    def crash_once(self, record):
        self._seen += 1
        if _CRASH["armed"] and self._seen >= self.rounds:
            _CRASH["armed"] = False
            raise RuntimeError("injected worker crash")

    CrashAfterProbe.on_round = crash_once
    try:
        batch = BatchRunner(backend="serial", retries=1).run(
            _durable_specs(), checkpoint_dir=tmp_path / "retry", checkpoint_every=5
        )
    finally:
        CrashAfterProbe.on_round = original
        _CRASH["armed"] = False
    assert not batch.failures()

    reference = BatchRunner(backend="serial").run(
        _durable_specs(), checkpoint_dir=tmp_path / "reference", checkpoint_every=5
    )
    assert list(map(_comparable, batch)) == list(map(_comparable, reference))


def test_durable_batch_matches_plain_batch(tmp_path):
    specs = [minimum_spec(name="plain", seeds=(0, 1, 2))]
    plain = BatchRunner(backend="serial").run(specs)
    durable = BatchRunner(backend="serial").run(
        specs, checkpoint_dir=tmp_path / "durable", checkpoint_every=50
    )
    for a, b in zip(plain, durable):
        result = dict(b.result)
        result.pop("probes", None)
        assert a.result == result
        assert a.seed == b.seed and a.label == b.label


def test_resume_of_completed_batch_is_idempotent(tmp_path):
    specs = [minimum_spec(name="idem", seeds=(0, 1))]
    first = BatchRunner(backend="serial").run(
        specs, checkpoint_dir=tmp_path / "idem", checkpoint_every=20
    )
    again = BatchRunner(backend="serial").resume(tmp_path / "idem")
    assert [item.result for item in again] == [item.result for item in first]


def test_resume_of_completed_batch_executes_no_unit(tmp_path, monkeypatch):
    # Every unit of a finished durable batch has a persisted result.json,
    # so resuming it must re-merge those files without touching an engine:
    # with execution booby-trapped, resume still returns the equal batch.
    specs = [minimum_spec(name="noexec", seeds=(0, 1))]
    first = BatchRunner(backend="serial").run(
        specs, checkpoint_dir=tmp_path / "noexec", checkpoint_every=20
    )
    assert not first.failures()

    def boom(*args, **kwargs):
        raise AssertionError("a completed unit was re-executed")

    monkeypatch.setattr(ExperimentSpec, "run", boom)
    monkeypatch.setattr(ExperimentSpec, "resume", boom)
    again = BatchRunner(backend="serial").resume(tmp_path / "noexec")
    assert not again.failures()
    assert [item.to_dict() for item in again] == [item.to_dict() for item in first]


def test_resume_rejects_a_non_batch_directory(tmp_path):
    from repro import SpecificationError

    with pytest.raises(SpecificationError, match="cannot resume batch"):
        BatchRunner(backend="serial").resume(tmp_path / "nothing-here")


def test_run_refuses_a_directory_holding_a_different_batch(tmp_path):
    # Durable workers trust persisted unit results, so pointing a
    # *different* batch at a used directory must fail loudly instead of
    # silently serving the old batch's results.
    from repro import SpecificationError

    directory = tmp_path / "reused"
    BatchRunner(backend="serial").run(
        [minimum_spec(name="first", seeds=(0,))], checkpoint_dir=directory
    )
    other = minimum_spec(
        name="first", seeds=(0,),
        environment_params={"edge_up_probability": 0.9},
    )
    with pytest.raises(SpecificationError, match="different batch"):
        BatchRunner(backend="serial").run([other], checkpoint_dir=directory)
    # The *same* batch is fine: run() on its own directory is resume().
    again = BatchRunner(backend="serial").run(
        [minimum_spec(name="first", seeds=(0,))], checkpoint_dir=directory
    )
    assert not again.failures()


def test_negative_retries_rejected():
    with pytest.raises(ValueError, match="retries"):
        BatchRunner(retries=-1)
