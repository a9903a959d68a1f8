"""Resume parity suite: checkpoint-at-round-k + restore == uninterrupted run.

The durability subsystem's headline guarantee is byte-identity: for every
algorithm × scheduler × environment family × engine combination, a run
checkpointed at round ``k`` and resumed into a fresh, identically
constructed engine produces a :class:`SimulationResult` — trace, objective
trajectory (exact equality, not approximate), probe payloads, counters,
recorded seed — identical to the run that was never interrupted, for all
``k``.  These tests pin that guarantee the same way the incremental parity
suite pins the O(Δ) bookkeeping: two independent execution paths, one
identical result.

Checkpoints in these tests always round-trip through their JSON text form
(:meth:`RunCheckpoint.to_json` / :meth:`from_json`), so serialization is
part of every parity assertion, not a separate concern.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import SimulationError, SpecificationError
from repro.environment.adversary import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    RotatingPartitionAdversary,
    TargetedCrashAdversary,
)
from repro.environment.dynamics import (
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    StaticEnvironment,
)
from repro.environment.graphs import complete_graph, grid_graph, line_graph, ring_graph
from repro.environment.mobility import RandomWaypointEnvironment
from repro.experiment import ExperimentSpec
from repro.simulation.checkpoint import (
    RunCheckpoint,
    decode_rng_state,
    decode_state,
    encode_rng_state,
    encode_state,
)
from repro.simulation.array_engine import HAVE_NUMPY
from repro.simulation.engine import Simulator
from repro.simulation.probes import CheckpointProbe

from test_incremental_parity import (
    CASES,
    SCHEDULERS,
    VALUES,
    _assert_identical,
    _build_case_simulator,
    _build_messaging,
)


def _build_array_engine(seed):
    from repro.simulation.array_engine import ArrayEngine

    algorithm, values = CASES["minimum"]()
    return ArrayEngine(
        algorithm,
        RandomChurnEnvironment(
            ring_graph(len(values)), edge_up_probability=0.6, agent_up_probability=0.9
        ),
        initial_values=values,
        seed=seed,
    )


#: engine registry name (or "messaging") -> builder of a minimum run
#: under churn for a given seed; every engine shares the restore checks.
RESTORE_BUILDERS = {
    "reference": lambda seed: _build_case_simulator("minimum", "maximal", seed=seed),
    "array": _build_array_engine,
    "messaging": lambda seed: _build_messaging("minimum", seed=seed),
}

ENGINE_KINDS = [
    "reference",
    pytest.param(
        "array",
        marks=pytest.mark.skipif(
            not HAVE_NUMPY, reason="the array engine runs only on numpy"
        ),
    ),
    "messaging",
]


class RecordingCheckpointProbe(CheckpointProbe):
    """Captures every written checkpoint in memory as its JSON text.

    The probe still exercises the full production path — context
    snapshotting, cadence, payload bookkeeping, JSON serialization — only
    the final file write is replaced, so the parity matrix does not
    touch the filesystem thousands of times.
    """

    def __init__(self, every: int, final: bool = True):
        super().__init__(every=every, directory="unused", final=final)
        self.stored: list[tuple[int, str]] = []

    def _store(self, checkpoint, rounds_executed):
        self.stored.append((rounds_executed, checkpoint.to_json()))


def _checkpointed_run(build, every, **run_kwargs):
    """One uninterrupted run that also writes rolling checkpoints."""
    probe = RecordingCheckpointProbe(every=every)
    result = build().run(probes=[probe], **run_kwargs)
    return result, probe.stored


def _resume(build, checkpoint_text, every, **run_kwargs):
    """A fresh engine, restored from serialized state, run to completion."""
    checkpoint = RunCheckpoint.from_json(checkpoint_text)
    probe = RecordingCheckpointProbe(every=every)
    return build().run(probes=[probe], resume_from=checkpoint, **run_kwargs)


def _assert_resume_parity(build, every, **run_kwargs):
    full, stored = _checkpointed_run(build, every, **run_kwargs)
    assert stored, "run too short to checkpoint — adjust the workload"
    # Every k: the rolling checkpoints plus the final one (which resumes
    # into an immediately-complete run).
    for rounds_executed, text in stored:
        resumed = _resume(build, text, every, **run_kwargs)
        _assert_identical(resumed, full)
        assert resumed.probes == full.probes, (
            f"probe payloads diverged resuming at round {rounds_executed}"
        )
    return full, stored


# -- the full algorithm × scheduler matrix (synchronous engine) -----------------


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulator_resume_parity_matrix(case, scheduler_name):
    build = lambda: _build_case_simulator(case, scheduler_name, seed=7)  # noqa: E731
    _assert_resume_parity(
        build, every=7, max_rounds=60, extra_rounds_after_convergence=2
    )


@pytest.mark.parametrize("case", ["minimum", "sorting", "average", "hull", "sum"])
def test_resume_parity_at_every_round(case):
    # every=1: one checkpoint per executed round — "for all k", literally.
    build = lambda: _build_case_simulator(case, "maximal", seed=11)  # noqa: E731
    _assert_resume_parity(build, every=1, max_rounds=40)


# -- every environment family ---------------------------------------------------


ENVIRONMENTS = {
    "static": lambda: StaticEnvironment(ring_graph(8)),
    "churn": lambda: RandomChurnEnvironment(
        ring_graph(8), edge_up_probability=0.2, agent_up_probability=0.9
    ),
    "markov": lambda: MarkovChurnEnvironment(ring_graph(8), 0.3, 0.4, 0.15, 0.5),
    "duty": lambda: PeriodicDutyCycleEnvironment(
        line_graph(8), period=5, duty_cycle=0.5, seed=2
    ),
    "mobility": lambda: RandomWaypointEnvironment(
        8, arena_size=25.0, range_radius=10.0, speed=5.0,
        battery_capacity=4.0, seed=6,
    ),
    "rotating": lambda: RotatingPartitionAdversary(
        complete_graph(8), num_blocks=2, rotate_every=3, seed=1
    ),
    "crash": lambda: TargetedCrashAdversary(
        ring_graph(8), targets=[0, 3], period=5, down_rounds=3
    ),
    "blackout": lambda: BlackoutAdversary(
        grid_graph(2, 4), period=4, blackout_rounds=1
    ),
    "edge-budget": lambda: EdgeBudgetAdversary(ring_graph(8), budget=2),
}


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_resume_parity_across_environment_families(name):
    from repro.algorithms.minimum import minimum_algorithm

    build = lambda: Simulator(  # noqa: E731
        minimum_algorithm(),
        ENVIRONMENTS[name](),
        initial_values=[9, 4, 7, 1, 8, 3, 6, 2],
        seed=23,
    )
    # stop_at_convergence=False keeps every run long enough that several
    # mid-run checkpoints exist even in fast-converging environments, and
    # additionally exercises resume of already-converged state.
    _assert_resume_parity(
        build, every=9, max_rounds=60, stop_at_convergence=False
    )


# -- the message-passing engine --------------------------------------------------


@pytest.mark.parametrize("case", ["minimum", "maximum", "hull"])
@pytest.mark.parametrize("seed", [0, 3])
def test_messaging_resume_parity(case, seed):
    build = lambda: _build_messaging(case, seed)  # noqa: E731
    _assert_resume_parity(build, every=3, max_rounds=200)


def test_messaging_resume_parity_with_losses():
    build = lambda: _build_messaging("minimum", seed=3, loss=0.5)  # noqa: E731
    full, stored = _assert_resume_parity(build, every=5, max_rounds=400)
    # Send/delivery totals live in the engine checkpoint; the resumed
    # metadata (compared above) only matches if they were restored.
    assert full.metadata["messages_sent"] > 0


# -- the probe pipeline survives a resume ---------------------------------------


def _probe_spec(tmp_path, history):
    return ExperimentSpec(
        name="probe-pipeline",
        algorithm="minimum",
        environment="churn",
        environment_params={"topology": "ring", "edge_up_probability": 0.3},
        initial_values=tuple(VALUES),
        seeds=(4,),
        max_rounds=80,
        history=history,
        probes=(
            {"probe": "objective", "keep_trajectory": True},
            "convergence",
            "temporal",
            "stats",
            {"probe": "jsonl", "path": str(tmp_path / "rounds-{seed}.jsonl")},
            {
                "probe": "checkpoint",
                "every": 6,
                "directory": str(tmp_path / "ckpts"),
            },
        ),
    ).validate()


@pytest.mark.parametrize("history", ["full", "objective", "none"])
def test_full_probe_pipeline_resumes_byte_identically(tmp_path, history):
    spec = _probe_spec(tmp_path, history)
    full = spec.run(4)
    sink_path = tmp_path / "rounds-4.jsonl"
    full_stream = sink_path.read_bytes()
    checkpoints = sorted((tmp_path / "ckpts" / "minimum-seed4").glob("round-*.json"))
    assert checkpoints, "expected rolling checkpoints on disk"

    for path in checkpoints:
        resumed = spec.resume(path)
        _assert_identical(resumed, full)
        assert resumed.probes == full.probes
        # The JSONL sink resumed append-from-offset: the crashed run's
        # surplus lines (here: the full stream) were truncated and
        # re-emitted — the final file is byte-identical.
        assert sink_path.read_bytes() == full_stream


def test_resume_via_embedded_spec_and_run_directory(tmp_path):
    from repro.simulation.checkpoint import resume_run

    spec = _probe_spec(tmp_path, "none")
    full = spec.run(4)
    run_dir = tmp_path / "ckpts" / "minimum-seed4"
    resumed = resume_run(run_dir)
    _assert_identical(resumed, full)
    assert resumed.probes == full.probes


def test_resume_rejects_mismatched_probe_pipeline(tmp_path):
    spec = _probe_spec(tmp_path, "none")
    spec.run(4)
    checkpoint = RunCheckpoint.load(tmp_path / "ckpts" / "minimum-seed4")
    simulator = spec.build(4)
    with pytest.raises(SpecificationError, match="probe pipeline"):
        # No probes attached, but the checkpoint was taken under six.
        simulator.run(max_rounds=80, history="none", resume_from=checkpoint)


def test_resume_of_callback_stopped_run_executes_no_rounds():
    # A callback-stopped run already ended; resuming its final checkpoint
    # must re-assemble the finished result rather than execute the rounds
    # the callback declined.
    build = lambda: _build_case_simulator("minimum", "maximal", seed=1)  # noqa: E731
    stop = lambda record: record.round_index >= 3  # noqa: E731
    probe = RecordingCheckpointProbe(every=100)
    full = build().run(max_rounds=50, on_round=stop, probes=[probe])
    assert full.rounds_executed == 4
    final = RunCheckpoint.from_json(probe.stored[-1][1])
    assert final.driver.stopped_by_callback
    resumed = build().run(
        max_rounds=50,
        on_round=stop,
        probes=[RecordingCheckpointProbe(every=100)],
        resume_from=final,
    )
    _assert_identical(resumed, full)
    assert resumed.rounds_executed == 4


def test_resume_rejects_mismatched_stopping_policy():
    build = lambda: _build_case_simulator("minimum", "maximal", seed=1)  # noqa: E731
    probe = RecordingCheckpointProbe(every=2)
    build().run(max_rounds=50, probes=[probe])
    checkpoint = RunCheckpoint.from_json(probe.stored[0][1])
    with pytest.raises(SpecificationError, match="max_rounds"):
        build().run(
            max_rounds=200,
            probes=[RecordingCheckpointProbe(every=2)],
            resume_from=checkpoint,
        )


def test_jsonl_sink_is_durable_at_checkpoint_time(tmp_path):
    # The checkpointed line count must describe bytes already on disk: a
    # hard kill (no exception unwind, no close()) loses whatever sits in
    # the user-space buffer, and a checkpoint claiming more lines than
    # the file holds is unresumable.  state_dict() therefore flushes.
    from repro.simulation.probes import JSONLSink

    spec = ExperimentSpec(
        name="durable-sink",
        algorithm="minimum",
        environment="churn",
        environment_params={"topology": "ring", "edge_up_probability": 0.2},
        initial_values=tuple(VALUES),
        seeds=(4,),
        max_rounds=60,
        stop_at_convergence=False,
        probes=(
            {"probe": "jsonl", "path": str(tmp_path / "rounds.jsonl")},
            {
                "probe": "checkpoint",
                "every": 10,
                "directory": str(tmp_path / "ckpts"),
            },
        ),
    ).validate()
    simulator = spec.build(4)
    probes = spec.build_probes()
    stream_lines = {}

    original = JSONLSink.state_dict

    def checking_state_dict(self):
        state = original(self)
        # At capture time the file must already hold every counted line.
        on_disk = self._path.read_text().count("\n")
        stream_lines[self._lines] = on_disk
        return state

    JSONLSink.state_dict = checking_state_dict
    try:
        simulator.run(**spec.run_kwargs())
    finally:
        JSONLSink.state_dict = original
    assert stream_lines, "expected checkpoints to capture the sink"
    assert all(disk == counted for counted, disk in stream_lines.items()), (
        stream_lines
    )


def test_resume_rejects_mismatched_history_mode(tmp_path):
    spec = _probe_spec(tmp_path, "none")
    spec.run(4)
    run_dir = tmp_path / "ckpts" / "minimum-seed4"
    with pytest.raises(SpecificationError, match="history"):
        spec.with_updates({"history": "full"}).resume(run_dir)


# -- checkpoint integrity --------------------------------------------------------


class TestCheckpointFormat:
    def test_json_round_trip_is_exact(self):
        build = lambda: _build_case_simulator("average", "maximal", seed=2)  # noqa: E731
        simulator = build()
        next(simulator.steps(max_rounds=5))
        checkpoint = simulator.checkpoint()
        data = json.loads(json.dumps(checkpoint.to_dict()))
        from repro.simulation.checkpoint import EngineCheckpoint

        rebuilt = EngineCheckpoint.from_dict(data)
        assert rebuilt.to_dict() == checkpoint.to_dict()

    def test_state_codec_round_trips_every_state_shape(self):
        from fractions import Fraction

        from repro.geometry.point import Point

        values = [
            None,
            True,
            0,
            -17,
            2.0,
            0.1 + 0.2,
            float("inf"),
            "text",
            (1, (2.5, "x")),
            frozenset({(1, 2), (3, 4)}),
            Fraction(22, 7),
            Point(1.5, -2.25),
            (Point(0.0, 0.0), (Point(1.0, 1.0),)),
        ]
        for value in values:
            encoded = json.loads(json.dumps(encode_state(value)))
            decoded = decode_state(encoded)
            assert decoded == value
            assert type(decoded) is type(value)

    def test_state_codec_rejects_unsupported_types(self):
        with pytest.raises(SpecificationError, match="cannot checkpoint"):
            encode_state(object())

    def test_rng_state_round_trips(self):
        import random

        rng = random.Random(99)
        rng.random()
        state = rng.getstate()
        encoded = json.loads(json.dumps(encode_rng_state(state)))
        twin = random.Random(0)  # seed irrelevant: setstate overwrites it
        twin.setstate(decode_rng_state(encoded))
        assert [twin.random() for _ in range(5)] == [rng.random() for _ in range(5)]

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    def test_restore_rejects_wrong_engine_kind(self, engine):
        # Each engine refuses a checkpoint of another kind, naming it.
        foreign = "messaging" if engine == "reference" else "reference"
        checkpoint = RESTORE_BUILDERS[foreign](1).checkpoint()
        with pytest.raises(SimulationError, match=repr(checkpoint.engine)):
            RESTORE_BUILDERS[engine](1).restore(checkpoint)

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    def test_restore_rejects_wrong_seed(self, engine):
        checkpoint = RESTORE_BUILDERS[engine](1).checkpoint()
        with pytest.raises(SimulationError, match="seed"):
            RESTORE_BUILDERS[engine](2).restore(checkpoint)

    def test_load_rejects_non_checkpoint_json(self, tmp_path):
        path = tmp_path / "not-a-checkpoint.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SpecificationError, match="format"):
            RunCheckpoint.load(path)


# -- reset regression (satellite: reset() == fresh construction) ----------------


RESET_ENVIRONMENTS = {
    **ENVIRONMENTS,
    # The historic bug: an unseeded mobility environment re-rolled a
    # *different* world on reset(), so reset-and-rerun diverged from the
    # first run.  The environment now pins an explicit placement seed at
    # construction, exactly like the engines pin their run seed.
    "mobility-unseeded": lambda: RandomWaypointEnvironment(
        8, arena_size=25.0, range_radius=10.0, speed=5.0,
        battery_capacity=4.0, seed=None,
    ),
}


@pytest.mark.parametrize("name", sorted(RESET_ENVIRONMENTS))
def test_reset_then_run_is_byte_identical(name):
    from repro.algorithms.minimum import minimum_algorithm

    simulator = Simulator(
        minimum_algorithm(),
        RESET_ENVIRONMENTS[name](),
        initial_values=[9, 4, 7, 1, 8, 3, 6, 2],
        seed=31,
        cross_check=True,
    )
    first = simulator.run(max_rounds=60, stop_at_convergence=False)
    simulator.reset()
    second = simulator.run(max_rounds=60, stop_at_convergence=False)
    _assert_identical(first, second)


def test_messaging_reset_then_run_is_byte_identical():
    simulator = _build_messaging("minimum", seed=3, loss=0.3)
    first = simulator.run(max_rounds=200)
    simulator.reset()
    second = simulator.run(max_rounds=200)
    _assert_identical(first, second)


# -- CLI round trip --------------------------------------------------------------


def test_cli_checkpoint_and_resume_round_trip(tmp_path, capsys):
    from repro.cli import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        ExperimentSpec(
            name="cli-durable",
            algorithm="minimum",
            environment="churn",
            environment_params={"topology": "ring", "edge_up_probability": 0.4},
            initial_values=(9, 4, 7, 1, 8, 3, 6, 2),
            seeds=(0,),
            max_rounds=40,
            stop_at_convergence=False,
            history="none",
        ).to_json()
    )

    assert main(["run", str(spec_path), "--json"]) == 0
    full = json.loads(capsys.readouterr().out)["items"][0]["result"]

    checkpoint_dir = tmp_path / "ckpts"
    assert main([
        "run", str(spec_path),
        "--checkpoint-every", "10",
        "--checkpoint-dir", str(checkpoint_dir),
        "--json",
    ]) == 0
    capsys.readouterr()

    mid = checkpoint_dir / "minimum-seed0" / "round-00000020.json"
    assert mid.exists()
    assert main(["resume", str(mid), "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    resumed.get("probes", {}).pop("checkpoint", None)
    if not resumed.get("probes"):
        # With the injected checkpoint payload removed the resumed result
        # must equal the probe-less reference, which omits the key.
        resumed.pop("probes", None)
    assert resumed == full


def test_cli_resume_rejects_garbage(tmp_path):
    from repro.cli import main

    path = tmp_path / "bad.json"
    path.write_text("{}")
    with pytest.raises(SystemExit, match="invalid checkpoint"):
        main(["resume", str(path)])
