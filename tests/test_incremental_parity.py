"""Parity suite: the reference engine's incremental round vs. the
textbook replay, and the shared engine driver vs. the pre-redesign
``run()`` monoliths.

The simulation engine maintains its round multiset and objective
incrementally (fold the ``(removed, added)`` delta of each round into
the maintained :class:`Multiset` with ``apply_delta``, update ``h`` in
O(|delta|), compare the bag with the target), reuses a quiet round's
environment views, reads the labeller's partition and skips the step
rule where a step can only stutter.  These tests pin the central
contract of those optimizations: for every seeded run, the engine must
produce a :class:`SimulationResult` *identical* to
:class:`~repro.verification.oracle.TextbookReplay`, which executes the
paper's round from its definitions — same trace, same objective
trajectory (exact equality, not approximate), same convergence round,
same counters.

The matrix covers every algorithm family in the library (including the
enforcement-off "unsound" ones, which exercise the full-recompute fallback
for rounds containing invalid steps), every scheduler, and a churn
environment so that rounds range from empty to busy.

A second parity axis pins the Engine/Probe redesign: ``run()`` — now the
shared driver of :mod:`repro.simulation.protocol` with its default
:class:`HistoryProbe` stack — must produce results identical to verbatim
ports of the pre-redesign accumulation loops, for every algorithm family
on *both* engines (the synchronous simulator and the message-passing
runtime), and :class:`TemporalProbe`'s online verdicts must equal
after-the-fact evaluation of :mod:`repro.temporal.formulas` on the
recorded trace.
"""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap

import pytest

from repro.agents.group import Group
from repro.agents.scheduler import (
    MaximalGroupsScheduler,
    RandomPairScheduler,
    RandomSubgroupScheduler,
    Scheduler,
    SingleGroupScheduler,
)
from repro.algorithms.average import average_algorithm
from repro.algorithms.block_sorting import block_sorting_algorithm
from repro.algorithms.circumscribing_circle import circumscribing_circle_algorithm
from repro.algorithms.convex_hull import convex_hull_algorithm
from repro.algorithms.kth_smallest import kth_smallest_algorithm
from repro.algorithms.maximum import maximum_algorithm
from repro.algorithms.minimum import minimum_algorithm
from repro.algorithms.second_smallest import (
    second_smallest_algorithm,
    second_smallest_direct_algorithm,
)
from repro.algorithms.sorting import sorting_algorithm
from repro.algorithms.summation import summation_algorithm
from repro.core.errors import SimulationError
from repro.environment.base import Environment, EnvironmentState
from repro.environment.dynamics import RandomChurnEnvironment, StaticEnvironment
from repro.environment.graphs import complete_graph, grid_graph, ring_graph
from repro.simulation.array_engine import HAVE_NUMPY
from repro.simulation.engine import Simulator
from repro.verification import TextbookReplay

VALUES = [9, 4, 7, 1, 8, 3, 6, 2]
POINTS = [(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0),
          (2.0, 1.0), (1.0, 2.0), (3.0, 2.0), (2.0, 2.5)]


def _sorting_case():
    algorithm = sorting_algorithm(VALUES)
    return algorithm, algorithm.instance_cells


def _block_sorting_case():
    algorithm = block_sorting_algorithm([9, 4, 7, 1, 8, 3, 6, 2, 5, 0,
                                         11, 10, 13, 12, 15, 14], num_agents=8)
    return algorithm, algorithm.instance_blocks


CASES = {
    "minimum": lambda: (minimum_algorithm(), VALUES),
    "minimum-partial": lambda: (minimum_algorithm(partial=True), VALUES),
    "maximum": lambda: (maximum_algorithm(upper_bound=20), VALUES),
    "sum": lambda: (summation_algorithm(), VALUES),
    "sum-partial": lambda: (summation_algorithm(partial=True), VALUES),
    "average": lambda: (average_algorithm(), VALUES),
    "kth-smallest": lambda: (kth_smallest_algorithm(k=2, value_bound=32), VALUES),
    "second-smallest": lambda: (second_smallest_algorithm(value_bound=32), VALUES),
    "second-smallest-direct": lambda: (second_smallest_direct_algorithm(), VALUES),
    "sorting": _sorting_case,
    "block-sorting": _block_sorting_case,
    "hull": lambda: (convex_hull_algorithm(POINTS), POINTS),
    "circle": lambda: (circumscribing_circle_algorithm(POINTS), POINTS),
}

SCHEDULERS = {
    "maximal": MaximalGroupsScheduler,
    "random-pair": RandomPairScheduler,
    "single-group": SingleGroupScheduler,
    "random-subgroup": RandomSubgroupScheduler,
}


def _run(
    case: str,
    scheduler_name: str,
    seed: int,
    edge_up_probability: float = 0.6,
    engine=Simulator,
    records: list | None = None,
    **simulator_kwargs,
):
    """One run of ``case`` under random churn on a ring; ``records``, when
    given, collects its round records."""
    algorithm, values = CASES[case]()
    environment = RandomChurnEnvironment(
        ring_graph(len(values)),
        edge_up_probability=edge_up_probability,
        agent_up_probability=0.9,
    )
    simulator = engine(
        algorithm,
        environment,
        initial_values=values,
        scheduler=SCHEDULERS[scheduler_name](),
        seed=seed,
        **simulator_kwargs,
    )
    return simulator.run(
        max_rounds=80,
        extra_rounds_after_convergence=2,
        on_round=None if records is None else records.append,
    )


def _assert_identical(default, reference):
    assert default.converged == reference.converged
    assert default.convergence_round == reference.convergence_round
    assert default.rounds_executed == reference.rounds_executed
    assert default.final_states == reference.final_states
    assert default.output == reference.output
    assert default.expected_output == reference.expected_output
    # Exact equality on purpose: incremental objective maintenance must be
    # bit-identical, not merely close.
    assert default.objective_trajectory == reference.objective_trajectory
    assert list(default.trace) == list(reference.trace)
    assert default.trace.complete == reference.trace.complete
    assert default.group_steps == reference.group_steps
    assert default.improving_steps == reference.improving_steps
    assert default.stutter_steps == reference.stutter_steps
    assert default.invalid_steps == reference.invalid_steps
    assert default.largest_group == reference.largest_group
    assert default.metadata == reference.metadata


@pytest.mark.parametrize("seed", [7, 13])
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_default_matches_textbook_replay(case, scheduler_name, seed):
    # The incremental engine (round state + environment layer) vs the
    # textbook replay: two independent code paths, one byte-identical
    # result, round records included.
    records, replayed = [], []
    default = _run(case, scheduler_name, seed=seed, records=records)
    reference = _run(
        case, scheduler_name, seed=seed, engine=TextbookReplay, records=replayed
    )
    _assert_identical(default, reference)
    assert records == replayed


@pytest.mark.parametrize("case", ["minimum", "block-sorting", "average"])
def test_cross_check_covers_maintained_components(case):
    # cross_check verifies the labelled communication groups against a
    # from-scratch walk every round.
    checked = _run(case, "maximal", seed=19, cross_check=True)
    reference = _run(case, "maximal", seed=19, engine=TextbookReplay)
    _assert_identical(checked, reference)


class _OnlyAdvance(Environment):
    """An unregistered environment with no delta code: it overrides only
    ``advance``, and its states are rebuilt every round, so the engine's
    own diff is all the incremental path has to go on."""

    def __init__(self):
        super().__init__(ring_graph(8))

    def advance(self, round_index, rng):
        draw = rng.random
        edges = [edge for edge in sorted(self.topology.edges) if draw() < 0.5]
        # Odd agents sleep every third round.
        enabled = [
            agent
            for agent in self.topology.agent_ids
            if round_index % 3 or agent % 2 == 0
        ]
        return EnvironmentState(frozenset(enabled), frozenset(edges), round_index)


def test_environment_parity_across_environment_families():
    # The incremental engine (both layers) must be byte-identical to the
    # textbook replay for every environment family, not just
    # churn, and cross_check must find nothing to object to — including
    # for an environment that has no delta code of its own.
    from repro.environment.adversary import (
        BlackoutAdversary,
        EdgeBudgetAdversary,
        RotatingPartitionAdversary,
        TargetedCrashAdversary,
    )
    from repro.environment.dynamics import (
        MarkovChurnEnvironment,
        PeriodicDutyCycleEnvironment,
    )
    from repro.environment.graphs import complete_graph, grid_graph, line_graph
    from repro.environment.mobility import RandomWaypointEnvironment

    environments = {
        "static": lambda: StaticEnvironment(ring_graph(8)),
        "markov": lambda: MarkovChurnEnvironment(
            ring_graph(8), 0.3, 0.4, 0.15, 0.5
        ),
        "duty": lambda: PeriodicDutyCycleEnvironment(
            line_graph(8), period=5, duty_cycle=0.5, seed=2
        ),
        "duty-dense": lambda: PeriodicDutyCycleEnvironment(
            complete_graph(8), period=4, duty_cycle=0.6, seed=4
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
        "only-advance": _OnlyAdvance,
    }
    for name, build in environments.items():
        def run(engine=Simulator, **modes):
            return engine(
                minimum_algorithm(),
                build(),
                initial_values=[9, 4, 7, 1, 8, 3, 6, 2],
                seed=23,
                **modes,
            ).run(max_rounds=120)
        reference = run(engine=TextbookReplay)
        _assert_identical(run(), reference)
        _assert_identical(run(cross_check=True), reference)


class _NoAdapter(RandomChurnEnvironment):
    """Random churn whose ``advance_with_delta`` adapter refuses to run."""

    def advance_with_delta(self, round_index, rng):
        raise AssertionError("the engines advance through advance alone")


@pytest.mark.parametrize(
    "engine, modes",
    [(Simulator, {}), (Simulator, {"cross_check": True}), (TextbookReplay, {})],
)
def test_engines_never_call_advance_with_delta(engine, modes):
    # The engines compare consecutive ``advance`` states themselves
    # (``EnvironmentState.unchanged_from``), and the textbook replay takes
    # ``advance`` as is; the adapter is for outside callers.
    def run(environment_type):
        return engine(
            minimum_algorithm(),
            environment_type(ring_graph(8), edge_up_probability=0.5),
            initial_values=VALUES,
            seed=5,
            **modes,
        ).run(max_rounds=80)

    _assert_identical(run(_NoAdapter), run(RandomChurnEnvironment))


def test_messaging_never_calls_advance_with_delta():
    from repro.algorithms import minimum_merge
    from repro.simulation import MergeMessagePassingSimulator

    def run(environment_type):
        return MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=minimum_merge,
            environment=environment_type(ring_graph(8), edge_up_probability=0.5),
            initial_values=VALUES,
            seed=5,
        ).run(max_rounds=80)

    _assert_identical(run(_NoAdapter), run(RandomChurnEnvironment))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cross_check_accepts_honest_runs(case):
    # The debug cross-check recomputes everything per round; it must stay
    # silent on every algorithm family, including the fallback paths.
    checked = _run(case, "maximal", seed=11, cross_check=True)
    reference = _run(case, "maximal", seed=11, engine=TextbookReplay)
    _assert_identical(checked, reference)


def test_parity_across_seeds_and_churn_levels():
    for seed in (0, 1, 2, 3):
        for edge_up in (0.05, 0.3, 1.0):
            algorithm = minimum_algorithm()
            def build(engine):
                return engine(
                    algorithm,
                    RandomChurnEnvironment(
                        ring_graph(12), edge_up_probability=edge_up
                    ),
                    initial_values=list(range(12, 0, -1)),
                    seed=seed,
                ).run(max_rounds=60)
            _assert_identical(build(Simulator), build(TextbookReplay))


def test_streaming_steps_parity():
    algorithm, values = CASES["sorting"]()
    def records(engine):
        simulator = engine(
            algorithm,
            RandomChurnEnvironment(ring_graph(len(values)), edge_up_probability=0.5),
            initial_values=values,
            seed=3,
        )
        return list(simulator.steps(max_rounds=40))
    assert records(Simulator) == records(TextbookReplay)


class _PaddedComponentScheduler(Scheduler):
    """The state's own partition, copied, with an empty group inserted:
    not the state's list, so the engine validates it, drops the empty
    group and finds the groups that step itself."""

    def schedule(self, environment_state, rng):
        groups = list(environment_state.component_groups())
        groups.insert(len(groups) // 2, Group(()))
        return groups


@pytest.mark.parametrize("case", ["minimum", "block-sorting"])
def test_records_equal_across_sources_of_positions(case):
    # The round loop visits the positions the state's partition knows,
    # the positions it filters from a plugin's list, or every position
    # (block sorting, whose lone agents step); the textbook replay steps
    # every component: the records must not tell them apart.
    def records(scheduler, engine=Simulator):
        algorithm, values = CASES[case]()
        simulator = engine(
            algorithm,
            RandomChurnEnvironment(
                grid_graph(2, 4), edge_up_probability=0.3, agent_up_probability=0.9
            ),
            initial_values=values,
            scheduler=scheduler,
            seed=5,
        )
        return [
            (record.groups, record.judgements, record.improving_steps,
             record.stutter_steps, record.invalid_steps, record.largest_group)
            for record in simulator.steps(max_rounds=40)
        ]

    maximal = records(MaximalGroupsScheduler())
    assert records(_PaddedComponentScheduler()) == maximal
    assert records(MaximalGroupsScheduler(), TextbookReplay) == maximal
    groups = [group for record in maximal for group in record[0]]
    assert any(len(group) == 1 for group in groups)
    assert any(record[2] for record in maximal)


def test_cross_check_detects_external_state_mutation():
    simulator = Simulator(
        minimum_algorithm(),
        StaticEnvironment(complete_graph(4)),
        initial_values=[5, 6, 7, 8],
        seed=1,
        cross_check=True,
    )
    stream = simulator.steps()
    next(stream)
    # Mutating agent state behind the engine's back desynchronises the
    # maintained multiset; the debug flag must catch it on the next round.
    simulator.states[0] = 2
    with pytest.raises(SimulationError):
        next(stream)


def test_cross_check_detects_mutation_on_fallback_objectives():
    # The hull objective has no exact delta, so rounds rebuild the
    # multiset from the agent states; the cross-check must still compare
    # the *maintained* bag against them, or external mutation would go
    # unnoticed on this path.
    algorithm = convex_hull_algorithm(POINTS)
    simulator = Simulator(
        algorithm,
        RandomChurnEnvironment(complete_graph(len(POINTS)), edge_up_probability=0.0),
        initial_values=POINTS,
        seed=1,
        cross_check=True,
    )
    stream = simulator.steps()
    next(stream)
    simulator.states[0] = simulator.states[1]
    with pytest.raises(SimulationError):
        next(stream)


def test_cross_check_detects_a_corrupt_maintained_bag():
    # A maintained bag that has drifted from the agent states, but still
    # absorbs every delta, shows in the per-round comparison.
    from repro.core.multiset import Multiset

    simulator = Simulator(
        minimum_algorithm(),
        StaticEnvironment(complete_graph(4)),
        initial_values=[5, 6, 7, 8],
        seed=1,
        cross_check=True,
    )
    simulator._state.maintained = Multiset([5, 6, 7, 8, 8])
    with pytest.raises(SimulationError, match="diverged"):
        next(simulator.steps())


def test_delta_the_maintained_bag_cannot_absorb_is_a_simulation_error():
    # Without the cross-check, a round removing a state the maintained bag
    # never held still fails as a SimulationError, not a bare KeyError.
    from repro.core.multiset import Multiset

    simulator = Simulator(
        minimum_algorithm(),
        StaticEnvironment(complete_graph(4)),
        initial_values=[5, 6, 7, 8],
        seed=1,
    )
    simulator._state.maintained = Multiset([5, 6, 7, 9])
    with pytest.raises(SimulationError, match="out of sync"):
        next(simulator.steps())


def test_mid_round_enforcement_error_keeps_maintained_state_in_sync():
    # A round where one group installs an improvement and a *later* group
    # raises an enforcement violation must leave the maintained multiset
    # reflecting the installed delta, so resuming the stream stays sound.
    from repro.core.errors import ConservationViolation
    from repro.core.multiset import Multiset

    poisoned = {"armed": True}

    def group_step(states, rng):
        if len(states) <= 1:
            return list(states)
        if 99 in states and poisoned["armed"]:
            poisoned["armed"] = False
            return [state + 1 for state in states]  # breaks conservation
        smallest = min(states)
        return [smallest] * len(states)

    algorithm = minimum_algorithm()
    algorithm.group_step = group_step

    class FixedPairs(Scheduler):
        def schedule(self, environment_state, rng):
            return [Group.of([0, 1]), Group.of([2, 3])]

    simulator = Simulator(
        algorithm,
        StaticEnvironment(complete_graph(4)),
        initial_values=[5, 3, 7, 99],
        scheduler=FixedPairs(),
        seed=0,
        cross_check=True,
    )
    stream = simulator.steps()
    with pytest.raises(ConservationViolation):
        next(stream)
    # Group (0, 1) installed [3, 3] before group (2, 3) raised.
    assert simulator.current_states() == [3, 3, 7, 99]
    assert simulator._state.maintained == Multiset([3, 3, 7, 99])

    # Resuming must execute cleanly and pass the per-round cross-check
    # (which would raise SimulationError on any maintained-state drift).
    record = next(simulator.steps())
    assert record.multiset == Multiset([3, 3, 7, 7])
    assert record.objective == 3 + 3 + 7 + 7


def test_reset_resynchronises_maintained_state():
    simulator = Simulator(
        minimum_algorithm(),
        RandomChurnEnvironment(ring_graph(8), edge_up_probability=0.5),
        initial_values=VALUES,
        seed=9,
        cross_check=True,
    )
    first = simulator.run(max_rounds=60)
    simulator.reset()
    second = simulator.run(max_rounds=60)
    _assert_identical(first, second)


@pytest.mark.parametrize("engine", ["reference", "messaging"])
def test_quiet_rounds_share_one_maintained_bag(engine):
    # A round that changes no state folds no delta, so the maintained bag
    # — and with it the round's record.multiset — stays the same object.
    from repro.algorithms import minimum_merge
    from repro.core.multiset import Multiset
    from repro.simulation import MergeMessagePassingSimulator

    environment = StaticEnvironment(complete_graph(4))
    if engine == "reference":
        simulator = Simulator(
            minimum_algorithm(), environment, initial_values=[5, 6, 7, 8], seed=1
        )
    else:
        simulator = MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=minimum_merge,
            environment=environment,
            initial_values=[5, 6, 7, 8],
            seed=1,
        )
    initial, _ = simulator.initial_snapshot()
    stream = simulator.steps()
    first = next(stream)
    assert first.converged and first.multiset is not initial
    stutters = [next(stream) for _ in range(3)]
    assert all(record.multiset is first.multiset for record in stutters)
    assert all(record.converged for record in stutters)
    assert initial == Multiset([5, 6, 7, 8])  # earlier bags are untouched


# -- Engine/Probe redesign parity: run() vs. the pre-redesign monoliths --------


def _legacy_simulator_run(
    simulator,
    max_rounds,
    stop_at_convergence=True,
    extra_rounds_after_convergence=0,
    on_round=None,
    history="full",
):
    """Verbatim port of the pre-redesign ``Simulator.run`` accumulation.

    Kept as an independent reference: the production ``run()`` is now the
    shared engine driver plus the default :class:`HistoryProbe`, and this
    function proves that stack byte-identical to what the old monolith
    built from the same ``steps()`` stream.  ``history="objective"``
    keeps what the monolith kept without a trace: the trajectory and the
    final state.
    """
    record_trace = history == "full"
    from repro.core.multiset import Multiset
    from repro.simulation.result import SimulationResult
    from repro.temporal.trace import Trace

    state = simulator._state
    initial_multiset = state.maintained
    if state.objective_value is None:
        state.objective_value = simulator.algorithm.objective(initial_multiset)
    initial_objective = state.objective_value
    trace = Trace([initial_multiset])
    objective_trajectory = [initial_objective]

    group_steps = improving_steps = stutter_steps = invalid_steps = 0
    largest_group = 0
    convergence_round = 0 if initial_multiset == simulator.target else None
    rounds_after_convergence = 0
    rounds_executed = 0
    stopped_by_callback = False

    records = simulator.steps()
    for round_index in range(max_rounds):
        if convergence_round is not None and stop_at_convergence:
            if rounds_after_convergence >= extra_rounds_after_convergence:
                break
            rounds_after_convergence += 1
        record = next(records)
        rounds_executed += 1
        group_steps += record.group_steps
        improving_steps += record.improving_steps
        stutter_steps += record.stutter_steps
        invalid_steps += record.invalid_steps
        largest_group = max(largest_group, record.largest_group)
        if record_trace:
            trace.append(record.multiset)
        objective_trajectory.append(record.objective)
        if convergence_round is None and record.converged:
            convergence_round = round_index + 1
        if on_round is not None and on_round(record):
            stopped_by_callback = True
            break
    records.close()

    converged = convergence_round is not None
    if converged and simulator.algorithm.enforce and not stopped_by_callback:
        trace.mark_complete()
    final_states = simulator.current_states()
    return SimulationResult(
        converged=converged,
        convergence_round=convergence_round,
        rounds_executed=rounds_executed,
        final_states=final_states,
        output=simulator.algorithm.result(Multiset(final_states)),
        expected_output=simulator.algorithm.result(simulator.target),
        trace=trace if record_trace else Trace([Multiset(final_states)]),
        objective_trajectory=objective_trajectory,
        group_steps=group_steps,
        improving_steps=improving_steps,
        stutter_steps=stutter_steps,
        invalid_steps=invalid_steps,
        largest_group=largest_group,
        metadata={
            "algorithm": simulator.algorithm.name,
            "environment": simulator.environment.describe(),
            "scheduler": simulator.scheduler.describe(),
            "num_agents": simulator.environment.num_agents,
            "seed": simulator.seed,
        },
    )


def _legacy_messaging_run(simulator, max_rounds):
    """Verbatim port of the pre-redesign ``MergeMessagePassingSimulator.run``
    monolith (its own send/deliver loop — independent of ``steps()``)."""
    from repro.core.errors import SimulationError
    from repro.core.multiset import Multiset
    from repro.simulation.result import SimulationResult
    from repro.temporal.trace import Trace

    current = Multiset(simulator.states)
    supports_delta = (
        simulator.algorithm.objective.supports_delta and simulator.algorithm.enforce
    )
    objective_value = simulator.algorithm.objective(current)
    trace = Trace([current])
    objective_trajectory = [objective_value]
    convergence_round = 0 if current == simulator.target else None
    rounds_executed = 0
    improving_steps = 0
    enforce = simulator.algorithm.enforce
    conserves = simulator.algorithm.function.conserves
    conservation_ok = set()
    states = simulator.states

    for round_index in range(max_rounds):
        if convergence_round is not None:
            break
        rounds_executed += 1
        rng = simulator._state.rng
        environment_state = simulator.environment.advance(round_index, rng)

        inboxes = {agent: [] for agent in range(simulator.environment.num_agents)}
        for a, b in environment_state.effective_edges():
            for sender, receiver in ((a, b), (b, a)):
                simulator.messages_sent += 1
                if rng.random() < simulator.loss_probability:
                    continue
                simulator.messages_delivered += 1
                inboxes[receiver].append(states[sender])

        removed = []
        added = []
        for agent, received in inboxes.items():
            if agent not in environment_state.enabled_agents or not received:
                continue
            for message in received:
                old_state = states[agent]
                merged = simulator.merge(old_state, message)
                if merged == old_state:
                    continue
                if enforce:
                    triple = (old_state, message, merged)
                    if triple not in conservation_ok:
                        before = Multiset([old_state, message])
                        after = Multiset([merged, message])
                        if not conserves(before, after):
                            raise SimulationError("broken pairwise conservation")
                        conservation_ok.add(triple)
                states[agent] = merged
                removed.append(old_state)
                added.append(merged)
                improving_steps += 1

        if removed or added:
            current = current.apply_delta(removed, added)
        trace.append(current)
        if supports_delta:
            objective_value = simulator.algorithm.objective_delta(
                objective_value, current, removed, added
            )
        else:
            objective_value = simulator.algorithm.objective(Multiset(states))
        objective_trajectory.append(objective_value)
        if convergence_round is None and current == simulator.target:
            convergence_round = round_index + 1

    converged = convergence_round is not None
    if converged:
        trace.mark_complete()
    final = Multiset(simulator.states)
    return SimulationResult(
        converged=converged,
        convergence_round=convergence_round,
        rounds_executed=rounds_executed,
        final_states=list(simulator.states),
        output=simulator.algorithm.result(final),
        expected_output=simulator.algorithm.result(simulator.target),
        trace=trace,
        objective_trajectory=objective_trajectory,
        group_steps=improving_steps,
        improving_steps=improving_steps,
        stutter_steps=0,
        invalid_steps=0,
        largest_group=2,
        metadata={
            "algorithm": simulator.algorithm.name,
            "environment": simulator.environment.describe(),
            "scheduler": "asynchronous message passing (one-sided merges)",
            "messages_sent": simulator.messages_sent,
            "messages_delivered": simulator.messages_delivered,
            "seed": simulator.seed,
        },
    )


def _build_case_simulator(case, scheduler_name, seed, **simulator_kwargs):
    algorithm, values = CASES[case]()
    environment = RandomChurnEnvironment(
        ring_graph(len(values)), edge_up_probability=0.6, agent_up_probability=0.9
    )
    return Simulator(
        algorithm,
        environment,
        initial_values=values,
        scheduler=SCHEDULERS[scheduler_name](),
        seed=seed,
        **simulator_kwargs,
    )


class TestDriverMatchesLegacyRun:
    """The default probe stack must be byte-identical to the old ``run()``."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_simulator_default_run_identical(self, case):
        driven = _build_case_simulator(case, "maximal", seed=7).run(
            max_rounds=80, extra_rounds_after_convergence=2
        )
        reference = _legacy_simulator_run(
            _build_case_simulator(case, "maximal", seed=7),
            max_rounds=80,
            extra_rounds_after_convergence=2,
        )
        _assert_identical(driven, reference)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_simulator_objective_history_identical(self, case):
        driven = _build_case_simulator(case, "random-pair", seed=5).run(
            max_rounds=60, history="objective"
        )
        reference = _legacy_simulator_run(
            _build_case_simulator(case, "random-pair", seed=5),
            max_rounds=60,
            history="objective",
        )
        _assert_identical(driven, reference)

    def test_simulator_on_round_stop_identical(self):
        stop = lambda record: record.round_index >= 3  # noqa: E731
        driven = _build_case_simulator("minimum", "maximal", seed=1).run(
            max_rounds=50, on_round=stop
        )
        reference = _legacy_simulator_run(
            _build_case_simulator("minimum", "maximal", seed=1),
            max_rounds=50,
            on_round=stop,
        )
        _assert_identical(driven, reference)


#: Environments for the messaging runtime.  On the static ring every
#: environment delta is empty, so the runtime adopts the previous state's
#: memoized view every round; the legacy loop's plain ``advance`` is the
#: from-scratch reference for that path.
MESSAGING_ENVIRONMENTS = {
    "churn": lambda num_agents: RandomChurnEnvironment(
        ring_graph(num_agents), edge_up_probability=0.6, agent_up_probability=0.9
    ),
    "static": lambda num_agents: StaticEnvironment(ring_graph(num_agents)),
}


def _build_messaging(case, seed, loss=0.0, environment="churn"):
    from repro.algorithms import (
        convex_hull_algorithm,
        hull_merge,
        maximum_algorithm,
        maximum_merge,
        minimum_merge,
    )
    from repro.simulation import MergeMessagePassingSimulator

    if case == "minimum":
        algorithm, merge, values = minimum_algorithm(), minimum_merge, VALUES
    elif case == "maximum":
        algorithm, merge, values = (
            maximum_algorithm(upper_bound=20),
            maximum_merge,
            VALUES,
        )
    else:
        algorithm, merge, values = (
            convex_hull_algorithm(POINTS),
            hull_merge,
            POINTS,
        )
    return MergeMessagePassingSimulator(
        algorithm,
        merge=merge,
        environment=MESSAGING_ENVIRONMENTS[environment](len(values)),
        initial_values=values,
        loss_probability=loss,
        seed=seed,
    )


class TestMessagingDriverMatchesLegacyRun:
    @pytest.mark.parametrize("environment", sorted(MESSAGING_ENVIRONMENTS))
    @pytest.mark.parametrize("case", ["minimum", "maximum", "hull"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_default_run_identical(self, case, seed, environment):
        driven = _build_messaging(case, seed, environment=environment).run(
            max_rounds=200
        )
        reference = _legacy_messaging_run(
            _build_messaging(case, seed, environment=environment), max_rounds=200
        )
        _assert_identical(driven, reference)

    def test_lossy_run_identical(self):
        driven = _build_messaging("minimum", seed=3, loss=0.5).run(max_rounds=400)
        reference = _legacy_messaging_run(
            _build_messaging("minimum", seed=3, loss=0.5), max_rounds=400
        )
        _assert_identical(driven, reference)

    def test_messaging_steps_is_lazily_resumable(self):
        simulator = _build_messaging("minimum", seed=2)
        stream = simulator.steps(max_rounds=3)
        first = [next(stream), next(stream)]
        stream.close()  # abandon mid-iteration
        assert simulator.round_index == 2
        resumed = next(simulator.steps())
        assert resumed.round_index == 2
        assert [r.round_index for r in first] == [0, 1]

    def test_messaging_supports_full_stopping_policy(self):
        # The satellite API-consistency fix: the shared driver gives the
        # messaging runtime the same stopping policy as Simulator.run.
        converged = _build_messaging("minimum", seed=0).run(max_rounds=200)
        assert converged.converged

        extra = _build_messaging("minimum", seed=0).run(
            max_rounds=200, extra_rounds_after_convergence=3
        )
        assert extra.convergence_round == converged.convergence_round
        assert extra.rounds_executed == converged.rounds_executed + 3
        assert len(extra.trace) == len(converged.trace) + 3

        free_running = _build_messaging("minimum", seed=0).run(
            max_rounds=25, stop_at_convergence=False
        )
        assert free_running.rounds_executed == 25

        stopped = _build_messaging("minimum", seed=0).run(
            max_rounds=200, on_round=lambda record: record.round_index >= 1
        )
        assert stopped.rounds_executed == 2
        assert not stopped.trace.complete


class TestTemporalProbeParity:
    """Online temporal verdicts must equal after-the-fact trace evaluation."""

    OPERATOR_CASES = [
        ("always", 1),
        ("invariant", 1),
        ("never", 1),
        ("eventually", 1),
        ("stable", 1),
        ("infinitely_often", 1),
        ("eventually_always", 1),
        ("holds_at_end", 1),
        ("leads_to", 2),
        ("until", 2),
    ]

    def _predicates(self, simulator):
        from repro.core.multiset import Multiset

        target = simulator.target
        objective = simulator.algorithm.objective
        threshold = objective(target) + 5
        return {
            "at-target": lambda bag: bag == target,
            "objective-below": lambda bag: objective(bag) <= threshold,
            "few-distinct": lambda bag: len(bag.distinct()) <= len(bag) // 2,
        }

    @pytest.mark.parametrize(
        "scenario",
        [
            ("minimum", 7, 80),   # converges: complete trace
            ("minimum", 7, 2),    # cut short: incomplete trace
            ("sorting", 3, 120),
            ("hull", 4, 90),
        ],
    )
    def test_online_verdicts_match_offline_evaluation(self, scenario):
        from repro.simulation import TemporalProbe, TemporalProperty
        from repro.temporal import formulas

        case, seed, max_rounds = scenario
        simulator = _build_case_simulator(case, "maximal", seed=seed)
        predicates = self._predicates(simulator)
        properties = []
        for operator, arity in self.OPERATOR_CASES:
            if arity == 1:
                for pred_name in ("at-target", "objective-below", "few-distinct"):
                    properties.append(
                        TemporalProperty(
                            f"{operator}/{pred_name}",
                            operator,
                            (predicates[pred_name],),
                        )
                    )
            else:
                properties.append(
                    TemporalProperty(
                        f"{operator}/small-target",
                        operator,
                        (predicates["few-distinct"], predicates["at-target"]),
                    )
                )
        probe = TemporalProbe(properties)
        result = simulator.run(max_rounds=max_rounds, probes=[probe])
        verdicts = result.probes["temporal"]["verdicts"]
        assert result.probes["temporal"]["complete"] == result.trace.complete

        for prop in properties:
            offline = getattr(formulas, prop.operator)(
                result.trace, *prop.predicates
            )
            assert verdicts[prop.name] == offline, (
                f"{prop.name}: online {verdicts[prop.name]} != offline {offline}"
            )

    def test_online_verdicts_match_on_messaging_engine(self):
        from repro.simulation import TemporalProbe, TemporalProperty
        from repro.temporal import formulas

        simulator = _build_messaging("minimum", seed=3, loss=0.5)
        target = simulator.target
        at_target = lambda bag: bag == target  # noqa: E731
        properties = [
            TemporalProperty("reaches", "eventually", (at_target,)),
            TemporalProperty("stable", "stable", (at_target,)),
            TemporalProperty("settles", "eventually_always", (at_target,)),
        ]
        probe = TemporalProbe(properties)
        result = simulator.run(max_rounds=400, probes=[probe])
        assert result.converged
        verdicts = result.probes["temporal"]["verdicts"]
        for prop in properties:
            offline = getattr(formulas, prop.operator)(
                result.trace, *prop.predicates
            )
            assert verdicts[prop.name] == offline


# -- the checks catch seeded mutations of the maintained paths --------------------


def _recompile(monkeypatch, owner, name, original, replacement):
    """Replace ``owner.name`` with its own source, ``original`` → ``replacement``.

    The fragment must occur exactly once, so a refactor that moves the
    code fails here instead of silently seeding nothing.
    """
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(original) == 1, (
        f"{owner.__name__}.{name} no longer contains {original!r} exactly once"
    )
    # Padding keeps the recompiled lines at their place in the file, for
    # tracebacks and for the next recompile's getsource.
    padding = "\n" * (function.__code__.co_firstlineno - 1)
    code = compile(
        padding + source.replace(original, replacement),
        inspect.getsourcefile(function),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, vars(sys.modules[function.__module__]), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def _caught_by_cross_check(scheduler_name):
    """A ``cross_check=True`` run raises a divergence, on the usual churn
    or on a sparse one, where whole rounds leave every agent alone."""
    try:
        for edge_up_probability in (0.6, 0.1):
            _run(
                "minimum", scheduler_name, seed=7,
                edge_up_probability=edge_up_probability, cross_check=True,
            )
    except SimulationError as error:
        assert "diverged" in str(error)
        return True
    return False


def _caught_by_array_cross_check():
    """A ``cross_check=True`` array-engine run raises a divergence, on the
    same two churn levels as :func:`_caught_by_cross_check`."""
    from repro.simulation.array_engine import ArrayEngine

    algorithm, values = CASES["minimum"]()
    try:
        for edge_up_probability in (0.6, 0.1):
            ArrayEngine(
                algorithm,
                RandomChurnEnvironment(
                    ring_graph(len(values)),
                    edge_up_probability=edge_up_probability,
                    agent_up_probability=0.9,
                ),
                initial_values=values,
                seed=7,
                cross_check=True,
            ).run(max_rounds=80, extra_rounds_after_convergence=2)
    except SimulationError as error:
        assert "diverged" in str(error)
        return True
    return False


def _caught_by_both_cross_checks(scheduler_name):
    """Both engines read the state's one labelling, so ``cross_check``
    must catch a labeller fault on the reference and the array engine."""
    reference = _caught_by_cross_check(scheduler_name)
    array = _caught_by_array_cross_check()
    assert reference == array, (
        f"reference cross_check caught: {reference}, array: {array}"
    )
    return reference


def _caught_by_oracle(scheduler_name):
    """The default run's round records or result diverge from the
    textbook replay's, on the usual churn or on a sparse one, where most
    groups are pairs.  The records are compared round by round: a result
    keeps only the largest group of the whole run, for one."""
    for edge_up_probability in (0.6, 0.1):
        records, replayed = [], []
        default = _run(
            "minimum", scheduler_name, seed=7,
            edge_up_probability=edge_up_probability, records=records,
        )
        reference = _run(
            "minimum", scheduler_name, seed=7,
            edge_up_probability=edge_up_probability,
            engine=TextbookReplay, records=replayed,
        )
        try:
            _assert_identical(default, reference)
        except AssertionError:
            return True
        if records != replayed:
            return True
    return False


def _caught_by_oracle_and_cross_check(scheduler_name):
    """A fault the maintained round's checks see shows in both: the
    default run diverges from the textbook replay, and ``cross_check``
    re-derives the same thing from scratch every round."""
    oracle = _caught_by_oracle(scheduler_name)
    checked = _caught_by_cross_check(scheduler_name)
    assert oracle == checked, f"oracle caught: {oracle}, cross_check: {checked}"
    return oracle


def _caught_by_oracle_and_both_cross_checks(scheduler_name):
    """Both engines read the state's one labelling, which the textbook
    replay does not: a labeller fault shows in the oracle and in both
    engines' ``cross_check``."""
    oracle = _caught_by_oracle(scheduler_name)
    checked = _caught_by_both_cross_checks(scheduler_name)
    assert oracle == checked, f"oracle caught: {oracle}, cross_checks: {checked}"
    return oracle


def _caught_by_legacy_loop(_scheduler_name):
    """The messaging run diverges from the legacy send/deliver loop, whose
    plain ``advance`` recomputes every view from scratch."""
    driven = _build_messaging("minimum", seed=3).run(max_rounds=200)
    reference = _legacy_messaging_run(_build_messaging("minimum", seed=3), 200)
    try:
        _assert_identical(driven, reference)
    except AssertionError:
        return True
    return False


def _seeded_mutations():
    from repro.environment import base
    from repro.simulation.protocol import Engine

    # mutation -> (owner, method, original, mutated, scheduler, the check
    # that catches it)
    return {
        "labeller-accepts-one-sweep": (
            base, "label_components",
            "while not np.array_equal(labels.take(u), labels.take(v)):",
            "while False:",
            "maximal", _caught_by_oracle_and_both_cross_checks,
        ),
        "fold-round-objective-off-by-one": (
            Simulator, "_fold_round",
            "state.objective_value, multiset, removed, added",
            "state.objective_value + 1, multiset, removed, added",
            "maximal", _caught_by_cross_check,
        ),
        "maintained-round-drops-singleton-floor": (
            Simulator, "_execute_round",
            "largest = 1 if scheduled else 0", "largest = 0",
            "maximal", _caught_by_oracle_and_cross_check,
        ),
        "memo-adoption-on-nonempty-delta": (
            Engine, "_advance_environment",
            " and environment_state.unchanged_from(previous):", ":",
            "random-pair", _caught_by_oracle,
        ),
        "singleton-skip-widened-to-pairs": (
            Simulator, "_execute_round",
            "for position, start, stop in zip(positions, bounds, bounds[1:]):",
            "for position, start, stop in ("
            "(p, a, b) for p, a, b in zip(positions, bounds, bounds[1:])"
            " if b - a > 2):",
            "maximal", _caught_by_oracle,
        ),
        "inline-stutter-skips-changed-groups": (
            Simulator, "_execute_round",
            "type(after) is list and after == before",
            "type(after) is list and len(after) == len(before)",
            "maximal", _caught_by_oracle_and_cross_check,
        ),
        "messaging-memo-adoption-on-nonempty-delta": (
            Engine, "_advance_environment",
            " and environment_state.unchanged_from(previous):", ":",
            None, _caught_by_legacy_loop,
        ),
    }


@pytest.mark.parametrize("mutation", sorted(_seeded_mutations()))
def test_checks_catch_seeded_mutations(monkeypatch, mutation):
    owner, name, original, mutated, scheduler_name, caught = (
        _seeded_mutations()[mutation]
    )
    if caught is _caught_by_oracle_and_both_cross_checks and not HAVE_NUMPY:
        pytest.skip("the labeller and the array engine need numpy")
    # The unmutated recompile passes the check, so what the mutated one
    # trips over is the mutation, not the recompile.
    _recompile(monkeypatch, owner, name, original, original)
    assert not caught(scheduler_name)
    _recompile(monkeypatch, owner, name, original, mutated)
    assert caught(scheduler_name), f"{mutation} slipped past {caught.__name__}"
