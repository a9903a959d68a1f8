"""Tests for the round-based simulation engine."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Simulator, minimum_algorithm, summation_algorithm
from repro.agents import Group, RandomPairScheduler, Scheduler
from repro.algorithms import (
    block_sorting_algorithm,
    minimum_merge,
    second_smallest_direct_algorithm,
)
from repro.core import Multiset
from repro.core.errors import (
    ConservationViolation,
    ReproError,
    SimulationError,
    SpecificationError,
)
from repro.core.relation import StepKind
from repro.environment import (
    BlackoutAdversary,
    RandomChurnEnvironment,
    StaticEnvironment,
    complete_graph,
    line_graph,
    tree_graph,
)
from repro.simulation import MergeMessagePassingSimulator
from repro.temporal import always, stable
from repro.verification import TextbookReplay


class TestSimulatorConstruction:
    def test_value_count_must_match_agents(self):
        with pytest.raises(SimulationError):
            Simulator(
                minimum_algorithm(),
                StaticEnvironment(complete_graph(3)),
                initial_values=[1, 2],
            )

    def test_initial_state_and_target(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[4, 2, 9],
        )
        assert sim.current_states() == [4, 2, 9]
        assert sim.target == Multiset([2, 2, 2])
        assert not sim.has_converged()


class TestConvergence:
    def test_static_environment_converges_in_one_round(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(5)),
            initial_values=[5, 4, 3, 2, 1],
            seed=1,
        )
        result = sim.run(max_rounds=10)
        assert result.converged
        assert result.convergence_round == 1
        assert result.output == 1
        assert result.final_states == [1, 1, 1, 1, 1]

    def test_already_converged_input(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[2, 2, 2],
        )
        result = sim.run(max_rounds=10)
        assert result.converged
        assert result.convergence_round == 0
        assert result.rounds_executed == 0

    def test_churn_environment_converges_eventually(self):
        env = RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.2)
        sim = Simulator(
            minimum_algorithm(), env, initial_values=list(range(8, 0, -1)), seed=3
        )
        result = sim.run(max_rounds=500)
        assert result.converged
        assert result.output == 1

    def test_non_convergence_reported_honestly(self):
        # With no edges ever available, nothing can happen.
        env = RandomChurnEnvironment(complete_graph(4), edge_up_probability=0.0)
        sim = Simulator(minimum_algorithm(), env, initial_values=[4, 3, 2, 1], seed=0)
        result = sim.run(max_rounds=50)
        assert not result.converged
        assert result.convergence_round is None
        assert result.rounds_executed == 50
        assert result.final_states == [4, 3, 2, 1]

    def test_stop_at_convergence_false_keeps_running(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            seed=0,
        )
        result = sim.run(max_rounds=20, stop_at_convergence=False)
        assert result.converged
        assert result.rounds_executed == 20

    def test_extra_rounds_after_convergence(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            seed=0,
        )
        result = sim.run(max_rounds=50, extra_rounds_after_convergence=5)
        assert result.converged
        assert result.rounds_executed >= 6


class TestDeterminismAndReset:
    def test_same_seed_same_result(self):
        def run_once():
            env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.3)
            sim = Simulator(
                minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=42
            )
            return sim.run(max_rounds=200)

        first, second = run_once(), run_once()
        assert first.convergence_round == second.convergence_round
        assert first.objective_trajectory == second.objective_trajectory

    def test_different_seeds_usually_differ(self):
        def run_with(seed):
            env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.3)
            sim = Simulator(
                minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=seed
            )
            return sim.run(max_rounds=200).convergence_round

        rounds = {run_with(seed) for seed in range(8)}
        assert len(rounds) > 1

    def test_reset_restores_initial_configuration(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            seed=0,
        )
        sim.run(max_rounds=5)
        assert sim.has_converged()
        sim.reset()
        assert sim.current_states() == [3, 2, 1]
        assert not sim.has_converged()


class TestTraceAndMetrics:
    def test_trace_starts_at_initial_and_ends_at_final(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(4)),
            initial_values=[4, 3, 2, 1],
            seed=0,
        )
        result = sim.run(max_rounds=10)
        assert result.trace.initial == Multiset([4, 3, 2, 1])
        assert result.trace.final == Multiset([1, 1, 1, 1])
        assert result.trace.complete

    def test_objective_trajectory_is_non_increasing(self):
        env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.4)
        sim = Simulator(
            minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=5
        )
        result = sim.run(max_rounds=200)
        trajectory = result.objective_trajectory
        assert all(later <= earlier for earlier, later in zip(trajectory, trajectory[1:]))

    def test_conservation_law_holds_along_trace(self):
        algorithm = summation_algorithm()
        env = RandomChurnEnvironment(complete_graph(5), edge_up_probability=0.5)
        sim = Simulator(algorithm, env, initial_values=[3, 5, 3, 7, 2], seed=2)
        result = sim.run(max_rounds=200)
        target = algorithm.function(result.trace.initial)
        assert always(result.trace, lambda states: algorithm.function(states) == target)

    def test_goal_state_is_stable_along_trace(self):
        algorithm = minimum_algorithm()
        env = RandomChurnEnvironment(complete_graph(5), edge_up_probability=0.5)
        sim = Simulator(algorithm, env, initial_values=[4, 8, 1, 5, 9], seed=2)
        result = sim.run(max_rounds=200, extra_rounds_after_convergence=10)
        assert stable(result.trace, lambda states: algorithm.function(states) == states)

    def test_step_counters_are_consistent(self):
        env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.4)
        sim = Simulator(
            minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=5
        )
        result = sim.run(max_rounds=200)
        assert result.group_steps == (
            result.improving_steps + result.stutter_steps + result.invalid_steps
        )
        assert result.invalid_steps == 0
        assert result.largest_group >= 2

    def test_objective_history_keeps_only_final_state(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(4)),
            initial_values=[4, 3, 2, 1],
            seed=0,
        )
        result = sim.run(max_rounds=10, history="objective")
        assert len(result.trace) == 1
        assert result.converged

    def test_metadata_describes_run(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[1, 2, 3],
            seed=7,
        )
        result = sim.run(max_rounds=5)
        assert result.metadata["algorithm"] == "minimum"
        assert result.metadata["num_agents"] == 3
        assert result.metadata["seed"] == 7
        assert "summary" not in result.metadata
        assert "converged" in result.summary()

    def test_correct_property(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 1, 2],
            seed=0,
        )
        result = sim.run(max_rounds=5)
        assert result.correct
        assert result.final_multiset == Multiset([1, 1, 1])


class TestSchedulers:
    def test_pairwise_scheduler_still_converges(self):
        env = StaticEnvironment(complete_graph(6))
        sim = Simulator(
            minimum_algorithm(),
            env,
            initial_values=[6, 5, 4, 3, 2, 1],
            scheduler=RandomPairScheduler(),
            seed=1,
        )
        result = sim.run(max_rounds=100)
        assert result.converged
        assert result.largest_group == 2

    def test_blackout_rounds_do_no_work(self):
        env = BlackoutAdversary(complete_graph(4), period=4, blackout_rounds=2)
        sim = Simulator(minimum_algorithm(), env, initial_values=[4, 3, 2, 1], seed=0)
        result = sim.run(max_rounds=50)
        assert result.converged
        # Progress is only possible outside blackout rounds.
        assert result.convergence_round > 2

    def test_overlapping_scheduler_rejected(self):
        class BrokenScheduler(Scheduler):
            def schedule(self, environment_state, rng):
                return [Group.of([0, 1]), Group.of([1, 2])]

        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            scheduler=BrokenScheduler(),
        )
        with pytest.raises(SimulationError):
            sim.run(max_rounds=2)

    def test_out_of_range_scheduler_rejected(self):
        class OutOfRangeScheduler(Scheduler):
            def schedule(self, environment_state, rng):
                return [Group.of([0, 99])]

        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            scheduler=OutOfRangeScheduler(),
        )
        with pytest.raises(SimulationError):
            sim.run(max_rounds=2)


class TestStreamingSteps:
    """The steps() generator: one RoundRecord per round, pause/resume."""

    def _simulator(self, seed=3):
        env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.4)
        return Simulator(
            minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=seed
        )

    def test_records_mirror_run(self):
        streaming, driving = self._simulator(), self._simulator()
        records = []
        for record in streaming.steps():
            records.append(record)
            if record.converged:
                break
        result = driving.run(max_rounds=200)
        assert records[-1].round_index + 1 == result.convergence_round
        assert records[-1].multiset == result.final_multiset
        assert [r.objective for r in records] == result.objective_trajectory[1:]
        assert sum(r.group_steps for r in records) == result.group_steps
        assert sum(r.improving_steps for r in records) == result.improving_steps
        assert sum(r.stutter_steps for r in records) == result.stutter_steps
        assert max(r.largest_group for r in records) == result.largest_group

    def test_record_counters_are_consistent(self):
        sim = self._simulator()
        for record in sim.steps(max_rounds=20):
            assert record.group_steps == len(record.judgements) == len(record.groups)
            assert (
                record.improving_steps + record.stutter_steps + record.invalid_steps
                == record.group_steps
            )
            assert record.invalid_steps == 0  # enforcement is on

    def test_pause_and_resume_between_iterators(self):
        paused, continuous = self._simulator(), self._simulator()
        first_half = list(paused.steps(max_rounds=5))
        assert paused.round_index == 5
        second_half = list(paused.steps(max_rounds=5))
        whole = list(continuous.steps(max_rounds=10))
        assert [r.round_index for r in first_half + second_half] == list(range(10))
        assert [r.multiset for r in first_half + second_half] == [
            r.multiset for r in whole
        ]

    def test_abandoning_the_iterator_keeps_position(self):
        sim = self._simulator()
        iterator = sim.steps()
        next(iterator)
        next(iterator)
        iterator.close()
        assert sim.round_index == 2
        record = next(sim.steps())
        assert record.round_index == 2

    def test_reset_rewinds_the_stream(self):
        sim = self._simulator()
        first = [r.multiset for r in sim.steps(max_rounds=6)]
        sim.reset()
        again = [r.multiset for r in sim.steps(max_rounds=6)]
        assert first == again

    def test_on_round_callback_stops_early(self):
        sim = self._simulator()
        seen = []

        def stop_after_three(record):
            seen.append(record.round_index)
            return len(seen) >= 3

        result = sim.run(max_rounds=200, on_round=stop_after_three)
        assert seen == [0, 1, 2]
        assert result.rounds_executed == 3


def _counts(record):
    """A record's step counts, as the engine kept them."""
    return (
        record.group_steps,
        record.improving_steps,
        record.stutter_steps,
        record.invalid_steps,
        record.largest_group,
    )


def _rescanned_counts(record):
    """The same counts, rescanned from the record's judgements and groups."""
    kinds = [judgement.kind for judgement in record.judgements]
    improving = kinds.count(StepKind.IMPROVEMENT)
    stutter = kinds.count(StepKind.STUTTER)
    return (
        len(record.groups),
        improving,
        stutter,
        len(kinds) - improving - stutter,
        max((len(group) for group in record.groups), default=0),
    )


def _tree_churn_simulator(
    seed=5, edge_up_probability=0.5, engine=Simulator, **kwargs
):
    environment = RandomChurnEnvironment(
        tree_graph(15),
        edge_up_probability=edge_up_probability,
        agent_up_probability=0.9,
    )
    values = [(7 * agent) % 15 for agent in range(15)]
    return engine(minimum_algorithm(), environment, values, seed=seed, **kwargs)


class TestRoundCounts:
    """Every round's counts equal a rescan of its judgements and groups."""

    def _assert_counts_rescan(self, engine, rounds=40):
        records = list(engine.steps(max_rounds=rounds))
        assert records
        for record in records:
            assert _counts(record) == _rescanned_counts(record), record.round_index
        return records

    def _stepped_sizes(self, monkeypatch, engine):
        """The size of every group the engine runs the step rule on, in
        the order it runs them."""
        sizes = []
        algorithm = engine.algorithm
        group_step = algorithm.group_step

        def counted(states, rng):
            sizes.append(len(states))
            return group_step(states, rng)

        monkeypatch.setattr(algorithm, "group_step", counted)
        return sizes

    def test_maintained_loop(self, monkeypatch):
        # Sparse enough that some rounds leave every agent alone.
        engine = _tree_churn_simulator(edge_up_probability=0.15)
        stepped = self._stepped_sizes(monkeypatch, engine)
        records = self._assert_counts_rescan(engine)
        # Under the maximal scheduler only the groups of two or more run
        # the step rule; every lone agent's stutter is pre-filled.
        assert stepped == [
            len(group) for record in records for group in record.groups
            if len(group) > 1
        ]
        assert any(record.improving_steps for record in records)
        assert any(record.largest_group == 1 for record in records)

    def test_generic_loop(self, monkeypatch):
        engine = _tree_churn_simulator(scheduler=RandomPairScheduler())
        stepped = self._stepped_sizes(monkeypatch, engine)
        records = self._assert_counts_rescan(engine)
        # A plugin list is filtered by group size: every pair steps.
        assert stepped == [
            len(group) for record in records for group in record.groups
            if len(group) > 1
        ]
        assert stepped and set(stepped) == {2}
        assert any(record.improving_steps for record in records)

    def test_algorithm_without_singleton_stutters(self, monkeypatch):
        # Block sorting's lone agents sort their own blocks, so every
        # group, singletons included, runs the step rule.
        algorithm = block_sorting_algorithm(list(range(30, 0, -1)), num_agents=15)
        environment = RandomChurnEnvironment(
            tree_graph(15), edge_up_probability=0.3, agent_up_probability=0.9
        )
        engine = Simulator(
            algorithm, environment, algorithm.instance_blocks, seed=5
        )
        stepped = self._stepped_sizes(monkeypatch, engine)
        records = self._assert_counts_rescan(engine)
        assert stepped == [
            len(group) for record in records for group in record.groups
        ]
        assert 1 in stepped and any(size > 1 for size in stepped)

    def test_textbook_replay(self):
        records = self._assert_counts_rescan(
            _tree_churn_simulator(engine=TextbookReplay)
        )
        assert any(record.improving_steps for record in records)

    def test_messaging_engine(self):
        environment = RandomChurnEnvironment(
            tree_graph(15), edge_up_probability=0.5, agent_up_probability=0.9
        )
        engine = MergeMessagePassingSimulator(
            minimum_algorithm(),
            minimum_merge,
            environment,
            [(7 * agent) % 15 for agent in range(15)],
            loss_probability=0.2,
            seed=5,
        )
        records = self._assert_counts_rescan(engine)
        assert any(record.largest_group == 2 for record in records)
        assert any(record.largest_group == 0 for record in records)

    def test_invalid_steps_with_enforcement_off(self):
        # The direct second-smallest rule is not a D step (Figure 1), so
        # its algorithm runs with enforcement off and some steps are
        # recorded as invalid.
        environment = RandomChurnEnvironment(
            complete_graph(6), edge_up_probability=0.4
        )
        engine = Simulator(
            second_smallest_direct_algorithm(), environment, [1, 2, 3, 4, 5, 6], seed=0
        )
        records = self._assert_counts_rescan(engine)
        assert any(record.invalid_steps for record in records)

    @pytest.mark.parametrize("scheduler", [None, RandomPairScheduler])
    def test_default_and_textbook_replay_counts_agree(self, scheduler):
        def counts(engine):
            simulator = _tree_churn_simulator(
                scheduler=scheduler and scheduler(), engine=engine
            )
            return [_counts(record) for record in simulator.steps(max_rounds=40)]

        assert counts(Simulator) == counts(TextbookReplay)


def _tuple_step(states, rng):
    low = min(states)
    return tuple(low for _ in states)


def _in_place_step(states, rng):
    states[:] = [min(states)] * len(states)
    return states


def _short_step(states, rng):
    if len(states) <= 1:
        return list(states)
    return [min(states)] * (len(states) - 1)


def _nonconserving_step(states, rng):
    if len(states) <= 1:
        return list(states)
    return [state - 1 for state in states]


class TestStepRuleEdgeCases:
    """The round loop runs the step rule itself and judges only what is
    not a plain stutter, so what a step rule may return is pinned here:
    the default and the textbook replay, which judges every step in full,
    agree on every record, every state and every exception."""

    def _outcome(self, group_step, engine=Simulator, rounds=30):
        algorithm = dataclasses.replace(minimum_algorithm(), group_step=group_step)
        environment = RandomChurnEnvironment(
            tree_graph(15), edge_up_probability=0.5, agent_up_probability=0.9
        )
        values = [(7 * agent) % 15 for agent in range(15)]
        simulator = engine(algorithm, environment, values, seed=5)
        records = []
        error = None
        try:
            for record in simulator.steps(max_rounds=rounds):
                records.append(record)
        except ReproError as raised:
            error = raised
        return records, list(simulator.states), error

    def _both_modes(self, group_step):
        default = self._outcome(group_step)
        replayed = self._outcome(group_step, TextbookReplay)
        assert default[:2] == replayed[:2]
        default_error, replayed_error = default[2], replayed[2]
        assert type(default_error) is type(replayed_error)
        assert str(default_error) == str(replayed_error)
        assert vars(default_error or Exception()) == vars(
            replayed_error or Exception()
        )
        return default

    def test_a_tuple_result_is_judged_like_a_list(self):
        records, states, error = self._both_modes(_tuple_step)
        assert error is None
        assert any(record.improving_steps for record in records)
        assert records == self._outcome(minimum_algorithm().group_step)[0]

    def test_mutating_the_input_and_returning_it_is_a_stutter(self):
        records, states, error = self._both_modes(_in_place_step)
        assert error is None
        assert any(record.largest_group > 1 for record in records)
        assert all(record.improving_steps == 0 for record in records)
        assert states == [(7 * agent) % 15 for agent in range(15)]

    def test_a_result_of_the_wrong_length_is_a_specification_error(self):
        records, states, error = self._both_modes(_short_step)
        assert isinstance(error, SpecificationError)
        assert "returned" in str(error)

    def test_an_enforcement_violation_carries_the_step(self):
        records, states, error = self._both_modes(_nonconserving_step)
        assert isinstance(error, ConservationViolation)
        assert len(error.before) > 1
        assert error.after == [state - 1 for state in error.before]


class TestPartitionView:
    """The maximal scheduler's partition is a view over the state's
    labelling: the reference round reads its layout, not Group objects."""

    def _simulator(self, engine=Simulator):
        return _tree_churn_simulator(edge_up_probability=0.3, engine=engine)

    def test_no_group_is_built_until_the_record_is_read(self, monkeypatch):
        built = []
        init = Group.__init__

        def counting_init(self, members):
            built.append(members)
            init(self, members)

        monkeypatch.setattr(Group, "__init__", counting_init)
        records = list(self._simulator().steps(max_rounds=40))
        assert built == []
        assert any(record.improving_steps for record in records)
        # Once read, the records are those of the textbook replay, which
        # walks the components itself.
        assert records == list(self._simulator(TextbookReplay).steps(max_rounds=40))
        assert built

    def test_runs_leave_no_module_level_table_grown(self):
        from collections.abc import Sized

        from repro.environment import base

        def table_sizes():
            return {
                name: len(value)
                for name, value in vars(base).items()
                if isinstance(value, Sized) and not isinstance(value, str)
            }

        before = table_sizes()
        for num_agents in (5000, 10):
            Simulator(
                minimum_algorithm(),
                RandomChurnEnvironment(
                    tree_graph(num_agents, 2), edge_up_probability=0.3
                ),
                [(7 * agent) % 13 for agent in range(num_agents)],
                seed=1,
            ).run(max_rounds=5)
        after = table_sizes()
        assert {
            name: size for name, size in after.items() if size > before.get(name, 0)
        } == {}


class TestEffectiveSeed:
    def test_none_seed_is_drawn_and_recorded(self):
        sim = Simulator(
            minimum_algorithm(),
            StaticEnvironment(complete_graph(3)),
            initial_values=[3, 2, 1],
            seed=None,
        )
        assert isinstance(sim.seed, int)
        result = sim.run(max_rounds=10)
        assert result.metadata["seed"] == sim.seed

    def test_recorded_seed_reproduces_the_run(self):
        env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.3)
        first = Simulator(
            minimum_algorithm(), env, initial_values=[9, 5, 7, 3, 8, 1], seed=None
        ).run(max_rounds=200)
        replay_env = RandomChurnEnvironment(complete_graph(6), edge_up_probability=0.3)
        replay = Simulator(
            minimum_algorithm(),
            replay_env,
            initial_values=[9, 5, 7, 3, 8, 1],
            seed=first.metadata["seed"],
        ).run(max_rounds=200)
        assert replay.objective_trajectory == first.objective_trajectory
        assert replay.final_states == first.final_states
