"""Tests for the Engine protocol, the probe pipeline and its wiring.

Covers the unified simulation surface introduced with
:mod:`repro.simulation.protocol`: protocol satisfaction by both engines,
the history retention modes, each built-in probe's payload, and the
end-to-end path through :class:`ExperimentSpec`, :class:`BatchRunner`
process pools and the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import minimum_algorithm, minimum_merge
from repro.core.errors import SpecificationError
from repro.core.multiset import Multiset
from repro.environment import (
    RandomChurnEnvironment,
    StaticEnvironment,
    complete_graph,
    ring_graph,
)
from repro.experiment import Experiment, ExperimentSpec
from repro.registry import ENGINES, PROBES
from repro.simulation import (
    ArrayEngine,
    BatchRunner,
    ConvergenceProbe,
    Engine,
    HistoryProbe,
    JSONLSink,
    MergeMessagePassingSimulator,
    ObjectiveProbe,
    Probe,
    Simulator,
    StatsProbe,
    statistics_from_payloads,
)

VALUES = [9, 4, 7, 1, 8, 3, 6, 2]


def _simulator(seed=0, **kwargs):
    return Simulator(
        minimum_algorithm(),
        RandomChurnEnvironment(ring_graph(8), edge_up_probability=0.5),
        initial_values=VALUES,
        seed=seed,
        **kwargs,
    )


def _messaging(seed=0):
    return MergeMessagePassingSimulator(
        minimum_algorithm(),
        merge=minimum_merge,
        environment=StaticEnvironment(complete_graph(8)),
        initial_values=VALUES,
        seed=seed,
    )


class TestEngineProtocol:
    def test_both_simulators_satisfy_the_protocol(self):
        assert isinstance(_simulator(), Engine)
        assert isinstance(_messaging(), Engine)

    def test_protocol_rejects_unrelated_objects(self):
        assert not isinstance(object(), Engine)

    def test_engines_share_one_lifecycle(self):
        # Each engine supplies its round; the base class owns streaming,
        # running, checkpointing and restoring, and the registry builds
        # the classes themselves.
        for engine_cls in (Simulator, ArrayEngine, MergeMessagePassingSimulator):
            assert issubclass(engine_cls, Engine)
            for name in ("run", "steps", "checkpoint", "restore"):
                assert getattr(engine_cls, name) is getattr(Engine, name), (
                    f"{engine_cls.__name__} overrides {name}"
                )
        assert ENGINES.get("reference") is Simulator
        assert ENGINES.get("array") is ArrayEngine
        # Agents are their states: the list-state engines keep a plain
        # ``states`` list and share the base class's state hooks.
        for engine_cls in (Simulator, MergeMessagePassingSimulator):
            for name in ("current_states", "has_converged"):
                assert name not in vars(engine_cls), (
                    f"{engine_cls.__name__} defines {name}"
                )
        import repro.agents

        assert not hasattr(repro.agents, "Agent")
        simulator = _simulator()
        assert type(simulator.states) is list
        assert simulator.current_states() == VALUES
        assert simulator.current_states() is not simulator.states

    def test_reference_checkpoints_carry_no_agent_counters(self):
        simulator = _simulator()
        simulator.run(max_rounds=5)
        data = simulator.checkpoint().to_dict()
        assert "agent_counters" not in data
        assert data["agent_states"] == simulator.current_states()

    def test_simulator_has_converged_sees_external_state_mutation(self):
        simulator = _simulator()
        simulator.run(max_rounds=60)
        assert simulator.has_converged()
        simulator.states[0] = 999
        assert not simulator.has_converged()

    def test_messaging_has_converged_tracks_stream(self):
        simulator = _messaging()
        assert not simulator.has_converged()
        simulator.run(max_rounds=50)
        assert simulator.has_converged()

    def test_messaging_has_converged_sees_external_state_mutation(self):
        # Like Simulator.has_converged, the public query rebuilds from the
        # states list so direct mutation (fault injection) is reflected.
        simulator = _messaging()
        simulator.run(max_rounds=50)
        assert simulator.has_converged()
        simulator.states[0] = 999
        assert not simulator.has_converged()


class TestHistoryModes:
    def test_full_is_the_default_and_keeps_everything(self):
        full = _simulator().run(max_rounds=60)
        assert len(full.trace) == full.rounds_executed + 1
        assert len(full.objective_trajectory) == full.rounds_executed + 1
        assert full.trace.complete

    def test_objective_mode_keeps_trajectory_only(self):
        reference = _simulator().run(max_rounds=60)
        reduced = _simulator().run(max_rounds=60, history="objective")
        assert reduced.objective_trajectory == reference.objective_trajectory
        assert len(reduced.trace) == 1
        assert not reduced.trace.complete
        assert list(reduced.trace) == [reduced.final_multiset]

    def test_none_mode_keeps_endpoints_and_counters(self):
        reference = _simulator().run(max_rounds=60)
        bounded = _simulator().run(max_rounds=60, history="none")
        assert bounded.converged == reference.converged
        assert bounded.convergence_round == reference.convergence_round
        assert bounded.rounds_executed == reference.rounds_executed
        assert bounded.group_steps == reference.group_steps
        assert bounded.improving_steps == reference.improving_steps
        assert bounded.final_states == reference.final_states
        assert bounded.objective_trajectory == [
            reference.objective_trajectory[0],
            reference.objective_trajectory[-1],
        ]
        assert len(bounded.trace) == 1

    def test_none_mode_on_zero_round_run(self):
        simulator = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[4, 4, 4],
            seed=0,
        )
        result = simulator.run(max_rounds=5, history="none")
        assert result.convergence_round == 0
        assert result.objective_trajectory == [12]

    def test_invalid_history_mode_rejected(self):
        with pytest.raises(SpecificationError):
            _simulator().run(max_rounds=5, history="sometimes")

    def test_objective_mode_keeps_the_trajectory_and_final_state(self):
        full = _simulator().run(max_rounds=60)
        objective = _simulator().run(max_rounds=60, history="objective")
        assert objective.objective_trajectory == full.objective_trajectory
        assert len(objective.trace) == 1
        assert objective.trace[-1] == full.trace[-1]

    def test_supplied_history_probe_takes_over_retention(self):
        probe = HistoryProbe("none")
        result = _simulator().run(max_rounds=60, probes=[probe])
        assert len(result.trace) == 1
        assert len(result.objective_trajectory) == 2
        assert result.probes["history"]["history"] == "none"
        assert result.probes["history"]["rounds_observed"] == result.rounds_executed

    def test_history_mode_works_on_messaging_engine(self):
        reference = _messaging().run(max_rounds=50)
        bounded = _messaging().run(max_rounds=50, history="none")
        assert bounded.convergence_round == reference.convergence_round
        assert bounded.objective_trajectory == [
            reference.objective_trajectory[0],
            reference.objective_trajectory[-1],
        ]


class TestBuiltinProbes:
    def test_objective_probe_summary(self):
        probe = ObjectiveProbe(keep_trajectory=True)
        result = _simulator().run(max_rounds=60, probes=[probe])
        payload = result.probes["objective"]
        assert payload["initial"] == result.objective_trajectory[0]
        assert payload["final"] == result.objective_trajectory[-1]
        assert payload["minimum"] == min(result.objective_trajectory)
        assert payload["maximum"] == max(result.objective_trajectory)
        assert payload["trajectory"] == result.objective_trajectory
        assert payload["rounds"] == result.rounds_executed

    def test_objective_probe_is_o1_by_default(self):
        probe = ObjectiveProbe()
        result = _simulator().run(max_rounds=60, probes=[probe])
        assert "trajectory" not in result.probes["objective"]

    def test_convergence_probe(self):
        probe = ConvergenceProbe()
        result = _simulator().run(
            max_rounds=60, extra_rounds_after_convergence=2, probes=[probe]
        )
        payload = result.probes["convergence"]
        assert payload["converged"] is True
        assert payload["convergence_round"] == result.convergence_round
        assert payload["stayed_at_target"] is True
        assert payload["at_target_at_end"] is True

    def test_convergence_probe_sees_initially_converged_run(self):
        simulator = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(4)),
            initial_values=[5, 5, 5, 5],
            seed=0,
        )
        result = simulator.run(max_rounds=5, probes=[ConvergenceProbe()])
        assert result.converged and result.convergence_round == 0
        payload = result.probes["convergence"]
        assert payload["converged"] is True
        assert payload["convergence_round"] == 0
        assert payload["at_target_at_end"] is True

    def test_convergence_probe_agrees_with_result_on_resumed_engine(self):
        # convergence_round is run-relative (the legacy run() semantics);
        # after consuming rounds via steps(), probe and result must still
        # report the same number.
        simulator = _simulator(seed=0)
        for _ in range(2):
            next(simulator.steps(max_rounds=1))
        probe = StatsProbe()
        result = simulator.run(
            max_rounds=200, probes=[ConvergenceProbe(), probe]
        )
        assert result.converged
        payload = result.probes["convergence"]
        assert payload["convergence_round"] == result.convergence_round
        assert payload["rounds_observed"] == result.rounds_executed
        assert result.probes["stats"]["convergence_rounds"] == [
            result.convergence_round
        ]

    def test_stats_probe_accumulates_across_runs(self):
        probe = StatsProbe()
        results = [
            _simulator(seed=seed).run(max_rounds=200, probes=[probe])
            for seed in (0, 1, 2)
        ]
        payload = results[-1].probes["stats"]
        assert payload["runs"] == 3
        assert payload["converged_runs"] == sum(1 for r in results if r.converged)
        assert payload["group_steps"] == sum(r.group_steps for r in results)
        stats = probe.statistics()
        assert stats.runs == 3
        assert stats.correctness_rate == 1.0

    def test_statistics_from_payloads_merges_workers(self):
        payloads = [
            {"runs": 2, "convergence_rounds": [3, 5], "group_steps": 10,
             "improving_steps": 4, "correct_runs": 2},
            {"runs": 1, "convergence_rounds": [], "group_steps": 6,
             "improving_steps": 1, "correct_runs": 0},
        ]
        stats = statistics_from_payloads(payloads)
        assert stats.runs == 3
        assert stats.converged_runs == 2
        assert stats.mean_rounds == 4.0
        assert stats.mean_group_steps == pytest.approx(16 / 3)
        assert stats.correctness_rate == pytest.approx(2 / 3)

    def test_jsonl_sink_streams_rounds(self, tmp_path):
        path = tmp_path / "run-{seed}.jsonl"
        probe = JSONLSink(path)
        result = _simulator(seed=4).run(max_rounds=60, probes=[probe])
        payload = result.probes["jsonl"]
        written = tmp_path / "run-4.jsonl"
        assert payload["path"] == str(written)
        lines = [json.loads(line) for line in written.read_text().splitlines()]
        assert payload["lines"] == len(lines)
        assert lines[0]["event"] == "start" and lines[0]["seed"] == 4
        assert lines[1]["event"] == "initial"
        rounds = [line for line in lines if line["event"] == "round"]
        assert len(rounds) == result.rounds_executed
        assert rounds[-1]["converged"] is True
        assert lines[-1] == {"event": "finish", "complete": True}

    def test_probe_payloads_survive_serialization(self):
        probe = ConvergenceProbe()
        result = _simulator().run(max_rounds=60, probes=[probe])
        restored = type(result).from_json(result.to_json())
        assert restored.probes["convergence"]["converged"] is True

    def test_duplicate_probe_names_do_not_collide(self):
        result = _simulator().run(
            max_rounds=60, probes=[ConvergenceProbe(), ConvergenceProbe()]
        )
        assert set(result.probes) == {"convergence", "convergence#2"}

    def test_custom_probe_observes_every_round(self):
        class CountingProbe(Probe):
            name = "counter"

            def __init__(self):
                self.rounds = 0
                self.saw_initial = False
                self.complete = None

            def on_initial(self, multiset, objective):
                self.saw_initial = True

            def on_round(self, record):
                self.rounds += 1

            def on_complete(self, complete):
                self.complete = complete

            def on_finish(self):
                return {"rounds": self.rounds}

        probe = CountingProbe()
        result = _simulator().run(max_rounds=60, probes=[probe])
        assert probe.saw_initial
        assert probe.rounds == result.rounds_executed
        assert probe.complete is True
        assert result.probes["counter"] == {"rounds": result.rounds_executed}

    def test_failing_run_still_releases_probe_resources(self, tmp_path):
        # A raising round must not leak the JSONL sink's open file: the
        # driver tears probes down best-effort before propagating, so the
        # streamed lines are flushed to disk.
        from repro.core.errors import SimulationError

        simulator = MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=lambda receiver, received: receiver + received,  # non-conserving
            environment=StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            seed=0,
        )
        probe = JSONLSink(tmp_path / "failing.jsonl")
        with pytest.raises(SimulationError):
            simulator.run(max_rounds=5, probes=[probe])
        assert probe._file is None  # closed by the teardown path
        lines = (tmp_path / "failing.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["event"] == "start"

    def test_failing_completion_still_releases_later_probes(self, tmp_path):
        # A probe raising during the completion phase must not leak the
        # resources of probes finishing after it.
        class ExplodingProbe(Probe):
            name = "exploding"

            def on_complete(self, complete):
                raise RuntimeError("boom")

        sink = JSONLSink(tmp_path / "completion-fail.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            _simulator().run(max_rounds=60, probes=[ExplodingProbe(), sink])
        assert sink._file is None
        lines = (tmp_path / "completion-fail.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["event"] == "start"

    def test_mid_round_merge_failure_keeps_messaging_state_in_sync(self):
        # A later delivery breaking conservation must leave the maintained
        # multiset reflecting the deliveries already applied, so
        # has_converged() and resumed streams stay truthful.
        from repro.core.errors import SimulationError

        def poisoned_merge(receiver, received):
            if receiver == 99:
                return received - 1  # changes the pair minimum
            return min(receiver, received)

        simulator = MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=poisoned_merge,
            environment=StaticEnvironment(complete_graph(3)),
            initial_values=[5, 3, 99],
            seed=0,
        )
        with pytest.raises(SimulationError):
            next(simulator.steps())
        # Agent 0 already absorbed 3 before agent 2's delivery raised.
        assert simulator.states[0] == 3
        assert simulator._state.maintained.snapshot() == Multiset(simulator.states)
        assert not simulator.has_converged()

    def test_failing_probe_setup_still_releases_earlier_probes(self, tmp_path):
        # A later probe raising in on_start must not leak resources a
        # probe earlier in the pipeline already acquired.
        class BadStart(Probe):
            name = "bad-start"

            def on_start(self, engine):
                raise RuntimeError("setup exploded")

        sink = JSONLSink(tmp_path / "setup-fail.jsonl")
        with pytest.raises(RuntimeError, match="setup exploded"):
            _simulator().run(max_rounds=5, probes=[sink, BadStart()])
        assert sink._file is None
        assert (tmp_path / "setup-fail.jsonl").exists()


class TestSpecIntegration:
    def _spec(self, **overrides):
        fields = dict(
            algorithm="minimum",
            environment="churn",
            environment_params={"edge_up_probability": 0.5, "topology": "ring"},
            initial_values=tuple(VALUES),
            seeds=(0, 1),
            max_rounds=200,
        )
        fields.update(overrides)
        return ExperimentSpec(**fields).validate()

    def test_probes_round_trip_through_json(self):
        spec = self._spec(
            probes=("temporal", {"probe": "jsonl", "path": "out-{seed}.jsonl"}),
            history="none",
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.probes == spec.probes
        assert restored.history == "none"

    def test_unknown_probe_rejected(self):
        with pytest.raises(SpecificationError, match="unknown probe"):
            self._spec(probes=("telemetry",))

    def test_bad_history_rejected(self):
        with pytest.raises(SpecificationError, match="history"):
            self._spec(history="everything")

    def test_bad_probe_entry_rejected(self):
        with pytest.raises(SpecificationError, match="probe"):
            self._spec(probes=({"path": "x"},))

    def test_bad_temporal_parameters_fail_at_validation(self):
        # A typo'd operator or predicate must fail the spec up front, not
        # as a runtime error in every batch worker.
        with pytest.raises(SpecificationError, match="eventualy"):
            self._spec(probes=({"probe": "temporal", "properties": [
                {"name": "x", "operator": "eventualy", "predicate": "at-target"}
            ]},))
        with pytest.raises(SpecificationError, match="no-such"):
            self._spec(probes=({"probe": "temporal", "properties": [
                {"name": "x", "operator": "eventually", "predicate": "no-such"}
            ]},))
        with pytest.raises(SpecificationError, match="predicate"):
            self._spec(probes=({"probe": "temporal", "properties": [
                {"name": "x", "operator": "leads_to", "predicate": "at-target"}
            ]},))
        with pytest.raises(SpecificationError, match="history"):
            self._spec(probes=({"probe": "history", "history": "bogus"},))

    def test_typoed_jsonl_placeholder_fails_at_validation(self):
        with pytest.raises(SpecificationError, match="placeholder"):
            self._spec(
                probes=({"probe": "jsonl", "path": "out-{sed}.jsonl"},),
                seeds=(0,),
            )

    def test_multi_seed_jsonl_path_needs_seed_placeholder(self):
        # Without {seed}, every run would open the same file with 'w' and
        # clobber the other seeds' streams.
        with pytest.raises(SpecificationError, match="seed"):
            self._spec(probes=({"probe": "jsonl", "path": "out.jsonl"},))
        spec = self._spec(probes=({"probe": "jsonl", "path": "out-{seed}.jsonl"},))
        assert spec.seeds == (0, 1)
        single = self._spec(
            probes=({"probe": "jsonl", "path": "out.jsonl"},), seeds=(0,)
        )
        assert single.seeds == (0,)

    def test_spec_history_field_flows_into_declared_history_probe(self):
        # Declaring the history probe must not silently override the
        # spec's history mode with full retention.
        spec = self._spec(probes=("history", "convergence"), history="none")
        result = spec.run(0)
        assert len(result.trace) == 1
        assert len(result.objective_trajectory) == 2
        assert result.probes["history"]["history"] == "none"

    def test_conflicting_history_probe_mode_rejected(self):
        with pytest.raises(SpecificationError, match="history"):
            self._spec(
                probes=({"probe": "history", "history": "full"},),
                history="none",
            )

    def test_matching_history_probe_mode_accepted(self):
        spec = self._spec(
            probes=({"probe": "history", "history": "none"},), history="none"
        )
        assert len(spec.run(0).trace) == 1

    def test_bare_history_probe_honours_record_trace_false(self):
        # record_trace=False means trajectory-only retention; declaring
        # the history probe must not silently revert to full retention.
        spec = self._spec(probes=("history",), record_trace=False)
        assert spec.effective_history == "objective"
        result = spec.run(0)
        assert len(result.trace) == 1
        assert result.probes["history"]["history"] == "objective"

    def test_spec_run_attaches_probes(self):
        spec = self._spec(probes=("convergence", "stats"), history="none")
        result = spec.run(0)
        assert result.probes["convergence"]["converged"] is True
        assert result.probes["stats"]["runs"] == 1
        assert len(result.trace) == 1

    def test_builder_probe_and_history(self):
        spec = (
            Experiment.builder()
            .algorithm("minimum")
            .environment("churn", edge_up_probability=0.5)
            .topology("ring")
            .values(*VALUES)
            .seeds(0)
            .max_rounds(200)
            .probe("temporal")
            .probe("jsonl", path="out-{seed}.jsonl")
            .history("objective")
            .build()
        )
        assert spec.probes == (
            "temporal",
            {"probe": "jsonl", "path": "out-{seed}.jsonl"},
        )
        assert spec.history == "objective"

    def test_batch_runner_constructs_probes_per_worker(self, tmp_path):
        spec = self._spec(
            probes=(
                "stats",
                "temporal",
                {"probe": "jsonl", "path": str(tmp_path / "b-{seed}.jsonl")},
            ),
            history="none",
        )
        batch = BatchRunner(max_workers=2, backend="process").run(spec)
        assert all(item.ok for item in batch)
        payloads = batch.probe_payloads(spec.label)
        assert len(payloads["stats"]) == 2
        assert all(p["verdicts"]["reaches-target"] for p in payloads["temporal"])
        stats = batch.probe_statistics(spec.label)
        assert stats.runs == 2
        assert (tmp_path / "b-0.jsonl").exists()
        assert (tmp_path / "b-1.jsonl").exists()

    def test_registry_exposes_probes(self):
        assert {"history", "objective", "convergence", "temporal", "stats",
                "jsonl"} <= set(PROBES.available())


class TestCLI:
    def test_run_with_history_probe_and_jsonl_flags(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "algorithm": "minimum",
                    "environment": "churn",
                    "environment_params": {
                        "edge_up_probability": 0.5,
                        "topology": "ring",
                    },
                    "initial_values": list(VALUES),
                    "seeds": [0],
                    "max_rounds": 200,
                }
            )
        )
        jsonl_path = tmp_path / "rounds-{seed}.jsonl"
        status = main(
            [
                "run",
                str(spec_path),
                "--history",
                "none",
                "--probe",
                "temporal",
                "--jsonl",
                str(jsonl_path),
            ]
        )
        captured = capsys.readouterr().out
        assert status == 0
        assert "probe temporal" in captured
        assert (tmp_path / "rounds-0.jsonl").exists()

    def test_probe_flag_with_json_parameters(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "algorithm": "minimum",
                    "initial_values": [3, 1, 2],
                    "seeds": [0],
                }
            )
        )
        status = main(
            ["run", str(spec_path), "--probe", 'objective:{"keep_trajectory": true}']
        )
        captured = capsys.readouterr().out
        assert status == 0
        assert '"trajectory"' in captured

    def test_list_includes_probes(self, capsys):
        from repro.cli import main

        assert main(["list", "probes"]) == 0
        captured = capsys.readouterr().out
        assert "temporal" in captured and "jsonl" in captured

    def test_verbose_refuses_reduced_history(self, tmp_path):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "algorithm": "minimum",
                    "initial_values": [3, 1, 2],
                    "seeds": [0],
                    "history": "none",
                }
            )
        )
        with pytest.raises(SystemExit, match="history"):
            main(["run", str(spec_path), "--verbose"])

    def test_verbose_refuses_history_probe_with_reduced_retention(self, tmp_path):
        # A declared history probe pinning reduced retention takes over in
        # the driver; --verbose must see through it.
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "algorithm": "minimum",
                    "initial_values": [3, 1, 2],
                    "seeds": [0],
                    "probes": [{"probe": "history", "history": "none"}],
                }
            )
        )
        with pytest.raises(SystemExit, match="retention"):
            main(["run", str(spec_path), "--verbose"])

    def test_verbose_refuses_record_trace_false(self, tmp_path):
        # record_trace=False maps to history="objective" (final-state-only
        # trace), on which the specification check would trivially pass.
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "algorithm": "minimum",
                    "initial_values": [3, 1, 2],
                    "seeds": [0],
                    "record_trace": False,
                }
            )
        )
        with pytest.raises(SystemExit, match="retention"):
            main(["run", str(spec_path), "--verbose"])
