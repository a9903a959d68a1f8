"""Counted traces: dictionary-returning runs keep a trace's length, not its states.

Batch and service units, ``repro run`` without ``--verbose`` and
``repro resume`` keep only :meth:`SimulationResult.to_dict`, which
summarizes the trace to ``{"length", "complete"}``.  They run through
:meth:`ExperimentSpec.run_dict`, whose history probe counts states
instead of retaining them, so rolling checkpoints carry a count.  These
tests pin the three promises of that design: the dictionaries are
byte-identical to the in-process ``spec.run(seed).to_dict()``; a counted
trace refuses, loudly, every question about its states; and checkpoints
written either way (including ones that recorded every state) resume to
identical results.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro import ExperimentSpec, SimulationResult
from repro.algorithms import minimum_algorithm
from repro.cli import main
from repro.core.errors import SpecificationError, VerificationError
from repro.faults.probes import InjectedFault, reset_crash_counters
from repro.simulation import array_engine as array_engine_module
from repro.simulation.array_engine import HAVE_NUMPY
from repro.simulation.batch import BatchRunner
from repro.simulation.checkpoint import RunCheckpoint, resume_run
from repro.simulation.result import readable_json
from repro.temporal import CountedTrace, Trace
from repro.verification import check_specification

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "examples" / "specs").glob("*.json"))
#: A durable unit written before traces were counted (reference engine,
#: n=30, history "full", a checkpoint every 5 rounds): its checkpoints
#: record every state.
FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "parent_full_history"
FIXTURE_RESULT = FIXTURE / "durable" / "unit-0000" / "result.json"
FIXTURE_MID = FIXTURE / "durable" / "unit-0000" / "engine" / "minimum-seed0" / "round-00000015.json"

needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the array engine runs only on numpy"
)


@pytest.fixture(autouse=True)
def _rearm_crash_budgets():
    # minimum_chaos.json declares a fault-crash probe whose budget is
    # per process; re-arm it so test order never matters.
    reset_crash_counters()
    yield
    reset_crash_counters()


def _load(path: pathlib.Path) -> ExperimentSpec:
    spec = ExperimentSpec.from_json(path.read_text())
    if spec.engine == "array" and not HAVE_NUMPY:
        pytest.skip("the array engine runs only on numpy")
    return spec


def _settled(run):
    """Call ``run()``, re-executing after an injected crash as a retried
    unit does (the fault-crash budget is spent by the first attempt)."""
    try:
        return run()
    except InjectedFault:
        return run()


# -- the counted trace refuses questions about states --------------------------


class TestCountedTrace:
    def test_length_completeness_and_truth(self):
        trace = CountedTrace(4, complete=True)
        assert len(trace) == 4
        assert trace.complete is True
        assert trace
        assert not CountedTrace(0)

    def test_equality(self):
        assert CountedTrace(4, complete=True) == CountedTrace(4, complete=True)
        assert CountedTrace(4, complete=True) != CountedTrace(3, complete=True)
        assert CountedTrace(4, complete=True) != CountedTrace(4, complete=False)
        recorded = Trace([1, 2, 3, 4], complete=True)
        # A count cannot vouch for states it never saw, in either order,
        # and answering must not read them.
        assert recorded != CountedTrace(4, complete=True)
        assert CountedTrace(4, complete=True) != recorded

    def test_negative_length_is_refused(self):
        with pytest.raises(ValueError):
            CountedTrace(-1)

    @pytest.mark.parametrize(
        "read",
        [
            list,
            lambda trace: trace[0],
            lambda trace: trace[1:],
            lambda trace: trace.initial,
            lambda trace: trace.final,
            lambda trace: trace.states,
            lambda trace: list(trace.pairs()),
            lambda trace: trace.stutter_free(),
        ],
        ids=["iter", "index", "slice", "initial", "final", "states", "pairs",
             "stutter_free"],
    )
    def test_reading_states_raises_and_says_why(self, read):
        with pytest.raises(VerificationError, match="counted, not recorded") as raised:
            read(CountedTrace(4, complete=True))
        assert "spec.run(seed)" in str(raised.value)

    def test_check_specification_raises_instead_of_degrading(self):
        with pytest.raises(VerificationError, match="spec.run"):
            check_specification(minimum_algorithm(), CountedTrace(4, complete=True))

    def test_counted_run_keeps_length_and_completeness(self):
        spec = _load(ROOT / "examples" / "specs" / "minimum_churn.json")
        recorded = spec.build(0).run(**spec.run_kwargs())
        counted = spec.build(0).run(**spec.run_kwargs(), count_trace=True)
        assert isinstance(counted.trace, CountedTrace)
        assert len(counted.trace) == len(recorded.trace) > 1
        assert counted.trace.complete == recorded.trace.complete
        assert counted.objective_trajectory == [
            recorded.objective_trajectory[0],
            recorded.objective_trajectory[-1],
        ]
        # In-process callers keep their states.
        assert check_specification(spec.build(0).algorithm, recorded.trace).all_hold


# -- dictionary units equal the in-process result --------------------------------


@pytest.mark.parametrize("path", SPECS, ids=[path.stem for path in SPECS])
def test_run_dict_equals_in_process_to_dict(path):
    spec = _load(path)
    seed = spec.seeds[0]
    in_process = _settled(lambda: spec.run(seed))
    assert json.dumps(spec.run_dict(seed)) == json.dumps(in_process.to_dict())


@pytest.mark.parametrize("path", SPECS, ids=[path.stem for path in SPECS])
def test_from_dict_round_trips_every_example(path):
    spec = _load(path)
    data = json.loads(json.dumps(_settled(lambda: spec.run_dict(spec.seeds[0]))))
    restored = SimulationResult.from_dict(data)
    assert restored.to_dict() == data
    if data["trace"]["length"] > 1:
        assert isinstance(restored.trace, CountedTrace)


def test_from_dict_keeps_the_full_history_trace_length():
    spec = _load(ROOT / "examples" / "specs" / "minimum_churn.json")
    data = spec.run(0).to_dict()
    assert data["trace"] == {"length": 4, "complete": True}
    assert SimulationResult.from_dict(data).to_dict()["trace"] == data["trace"]


#: Every way a spec selects retention: the legacy flag, the history field,
#: and a declared history probe with and without a pinned mode.
RETENTIONS = {
    "record_trace_false": {"record_trace": False},
    "history_full": {"history": "full"},
    "history_objective": {"history": "objective"},
    "history_none": {"history": "none"},
    "probe_unpinned": {"probes": ("history",)},
    "probe_unpinned_record_trace_false": {"probes": ("history",), "record_trace": False},
    "probe_pinned_objective": {"probes": ({"probe": "history", "history": "objective"},)},
    "probe_pinned_none": {"probes": ({"probe": "history", "history": "none"},)},
}


@pytest.mark.parametrize("engine", ["reference", "array"])
@pytest.mark.parametrize("retention", list(RETENTIONS))
def test_run_dict_matches_every_retention(engine, retention):
    if engine == "array" and not HAVE_NUMPY:
        pytest.skip("the array engine runs only on numpy")
    spec = ExperimentSpec(
        algorithm="minimum",
        environment="churn",
        environment_params={"topology": "ring", "edge_up_probability": 0.3},
        value_generator="random-integers",
        generator_params={"count": 40, "low": 0, "high": 999},
        seeds=(3,),
        max_rounds=300,
        engine=engine,
        **RETENTIONS[retention],
    ).validate()
    assert spec.run_kwargs()["history"] == spec.effective_history
    in_process = spec.run(3).to_dict()
    data = spec.run_dict(3)
    assert json.dumps(data) == json.dumps(in_process)
    assert data["rounds_executed"] > 1
    if "probes" in RETENTIONS[retention]:
        # The declared probe publishes its payload, counted or not.
        assert data["probes"]["history"]["history"] == spec.effective_history
        assert data["probes"]["history"]["rounds_observed"] == data["rounds_executed"]


@needs_numpy
def test_array_dict_unit_never_builds_a_round_bag(monkeypatch):
    # Modelled on test_default_run_builds_the_initial_bag_once: under the
    # default (full) retention an in-process run reads every round's bag,
    # a dictionary unit reads none after the initial snapshot.
    spec = ExperimentSpec(
        algorithm="minimum",
        engine="array",
        environment="churn",
        environment_params={"topology": "ring", "edge_up_probability": 0.3},
        value_generator="random-integers",
        generator_params={"count": 60, "low": 0, "high": 999},
        seeds=(5,),
        max_rounds=200,
    )
    assert spec.effective_history == "full"
    calls = {"snapshot_done": False, "after": 0}
    engine_class = array_engine_module.ArrayEngine
    initial_snapshot = engine_class.initial_snapshot
    current_multiset = engine_class.current_multiset

    def counting_snapshot(self):
        snapshot = initial_snapshot(self)
        calls["snapshot_done"] = True
        return snapshot

    def counting_multiset(self):
        if calls["snapshot_done"]:
            calls["after"] += 1
        return current_multiset(self)

    monkeypatch.setattr(engine_class, "initial_snapshot", counting_snapshot)
    monkeypatch.setattr(engine_class, "current_multiset", counting_multiset)

    data = spec.run_dict(5)
    assert data["rounds_executed"] > 1
    assert data["trace"]["length"] == data["rounds_executed"] + 1
    assert calls == {"snapshot_done": True, "after": 0}

    calls["snapshot_done"] = False
    spec.run(5)
    assert calls["after"] > 0, "the in-process run must still record states"


# -- checkpoints: counted ones are small, and every kind restores ----------------


def _history_state(path: pathlib.Path) -> dict:
    checkpoint = json.loads(path.read_text())
    entry = checkpoint["probes"][0]
    assert entry["name"] == "history"
    return entry["state"]


def _copy_fixture(tmp_path: pathlib.Path) -> pathlib.Path:
    shutil.copytree(FIXTURE / "durable", tmp_path / "durable")
    return tmp_path / "durable" / "unit-0000"


def test_parent_written_durable_unit_resumes_byte_identically(tmp_path, monkeypatch):
    # The fixture's manifest names the unit by a relative path, so the
    # batch resumes from the copy's directory.
    unit = _copy_fixture(tmp_path)
    expected = FIXTURE_RESULT.read_text()
    latest = unit / "engine" / "minimum-seed0" / "latest.json"
    assert "states" in _history_state(latest)
    # The parent's engine checkpoint carries the per-agent step counters
    # this version no longer writes: reading it proves they are ignored.
    assert "agent_counters" in json.loads(latest.read_text())["engine"]
    # Manifests are compared parsed: the parent's one-item-per-line
    # layout still matches this batch, and resuming does not rewrite it.
    manifest = tmp_path / "durable" / "manifest.json"
    written = manifest.read_text()
    assert readable_json(json.loads(written)) != written
    (unit / "result.json").unlink()
    monkeypatch.chdir(tmp_path)
    batch = BatchRunner(backend="serial").resume("durable")
    assert not batch.failures()
    assert json.dumps(batch.items[0].result) == expected
    assert (unit / "result.json").read_text() == expected
    assert manifest.read_text() == written


def test_parent_written_mid_run_checkpoint_resumes_byte_identically(
    tmp_path, monkeypatch
):
    unit = _copy_fixture(tmp_path)
    expected = FIXTURE_RESULT.read_text()
    run_dir = unit / "engine" / "minimum-seed0"
    (unit / "result.json").unlink()
    # Keep only the generations up to round 15: the unit resumes mid-run.
    for path in run_dir.iterdir():
        if path.name.startswith("latest") or path.name > "round-00000015.json.sha256":
            path.unlink()
    monkeypatch.chdir(tmp_path)
    batch = BatchRunner(backend="serial").resume("durable")
    assert json.dumps(batch.items[0].result) == expected
    # The finishing run counted: its own checkpoints carry a length.
    state = _history_state(run_dir / "latest.json")
    assert "states" not in state and state["length"] == 30


def test_in_process_resume_of_a_recorded_checkpoint_keeps_states(tmp_path, monkeypatch):
    # The embedded spec checkpoints to a relative directory.
    monkeypatch.chdir(tmp_path)
    result = resume_run(FIXTURE_MID)
    assert not isinstance(result.trace, CountedTrace)
    assert len(result.trace) == 30
    assert check_specification(minimum_algorithm(), result.trace).all_hold


def test_counted_checkpoint_refuses_inconsistent_recorded_history(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    checkpoint = RunCheckpoint.load(FIXTURE_MID)
    checkpoint.probe_states[0]["state"]["states"].pop()
    spec = ExperimentSpec.from_dict(checkpoint.spec)
    with pytest.raises(SpecificationError, match="15 states for 15 rounds"):
        spec.run_dict(resume_from=checkpoint)


def _without_checkpoint_payload(result: dict) -> dict:
    result = dict(result)
    result["probes"] = {
        name: payload
        for name, payload in result.get("probes", {}).items()
        if name != "checkpoint"
    }
    return result


def test_cli_run_and_resume_of_counted_checkpoints(tmp_path, capsys):
    spec_path = ROOT / "examples" / "specs" / "sorting_line_sweep.json"
    directory = tmp_path / "ckpts"
    assert main(["run", str(spec_path), "--seed", "0", "--json"]) == 0
    uninterrupted = json.loads(capsys.readouterr().out)["items"][0]["result"]
    assert main([
        "run", str(spec_path), "--seed", "0", "--checkpoint-every", "3",
        "--checkpoint-dir", str(directory), "--json",
    ]) == 0
    checkpointed = json.loads(capsys.readouterr().out)["items"][0]["result"]
    assert _without_checkpoint_payload(checkpointed) == _without_checkpoint_payload(
        uninterrupted
    )

    run_dir = directory / "sorting-seed0"
    latest = run_dir / "latest.json"
    state = _history_state(latest)
    assert state["history"] == "full"
    assert "states" not in state and "trajectory" not in state
    assert state["length"] == uninterrupted["trace"]["length"]

    mid = run_dir / "round-00000012.json"
    for checkpoint in (mid, latest):
        assert main(["resume", str(checkpoint), "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert _without_checkpoint_payload(resumed) == _without_checkpoint_payload(
            uninterrupted
        ), checkpoint.name

    # In-process, retention follows the checkpoint: a counted checkpoint
    # resumes counted, to the same dictionary.
    resumed = resume_run(mid)
    assert isinstance(resumed.trace, CountedTrace)
    assert _without_checkpoint_payload(resumed.to_dict()) == _without_checkpoint_payload(
        uninterrupted
    )
