"""Parity suite: the struct-of-arrays ``ArrayEngine`` vs. the reference
``Simulator``.

The array engine promises *value-identical* results — not "statistically
equivalent", identical — for every workload it admits (the int64 kernels
minimum, maximum and sum over int values that fit int64), on every
scheduler and environment family, because the run's only random draws
(the environment's and the scheduler's) are made exactly as the
reference engine makes them.  These tests pin that promise the same way
:mod:`tests.test_incremental_parity` pins the incremental round state:
two independent code paths, one byte-identical :class:`SimulationResult`.

Axes covered:

* every kernel algorithm (minimum, maximum, sum) × every scheduler (the
  maximal-bypass fast path and the run-for-real randomized schedulers)
  × every environment family;
* the int64 admission boundaries: min/max values at the ±2**63 limits
  and a sum whose absolute values total exactly ``INT64_MAX``;
* ``cross_check=True``, which runs the same paths and checks every round
  against from-scratch oracles (the step rule through the full relation
  judge, the component walk, the public ``advance``, the multiset of the
  states), and catches seeded mutations of the fold, the churn draws
  and the convergence verdict;
* engine-level checkpoint/restore and spec-level resume, byte-identical
  to the uninterrupted run;
* the refusals: every workload the int64 kernels cannot run exactly (no
  numpy, no kernel or a non-int64 kernel, non-int states, values outside
  the int64 range proof) raises ``SpecificationError`` at construction,
  pointing at ``engine="reference"``;
* the guard rails: randomness-drawing "kernels" caught at the first
  draw, a step rule raising mid-round leaving the pre-round state
  intact, stale lazy round records refused.

Without numpy only the refusal tests run: the engine refuses to build.
"""

from __future__ import annotations

import pytest

from repro.agents.scheduler import (
    MaximalGroupsScheduler,
    RandomPairScheduler,
    RandomSubgroupScheduler,
    SingleGroupScheduler,
)
from repro.algorithms.average import average_algorithm
from repro.algorithms.maximum import maximum_algorithm
from repro.algorithms.minimum import minimum_algorithm, minimum_merge
from repro.algorithms.summation import summation_algorithm
from repro.core.algorithm import SelfSimilarAlgorithm
from repro.core.errors import SimulationError, SpecificationError
from repro.core.multiset import Multiset
from repro.core.objective import ObjectiveFunction
from repro.environment import base as environment_base
from repro.environment import dynamics
from repro.environment.adversary import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    RotatingPartitionAdversary,
    TargetedCrashAdversary,
)
from repro.environment.base import EnvironmentState
from repro.environment.dynamics import (
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    StaticEnvironment,
)
from repro.environment.graphs import complete_graph, ring_graph
from repro.environment.mobility import RandomWaypointEnvironment
from repro.simulation import array_engine as array_engine_module
from repro.simulation.array_engine import HAVE_NUMPY, INT64_MAX, ArrayEngine
from repro.simulation.engine import Simulator
from repro.simulation.messaging import MergeMessagePassingSimulator

#: Marks every test that builds an ArrayEngine: without numpy it refuses.
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the array engine runs only on numpy"
)

VALUES = [9, 4, 7, 1, 8, 3, 6, 2]

#: Initial values for the dense Markov case: 80 agents on a complete graph
#: make 3160 + 80 draws a round, past the environment's vectorized-draw
#: threshold (pinned by test_dense_markov_labels_the_state_arrays).
DENSE_VALUES = [(7 * index) % 19 for index in range(80)]

#: Every algorithm family whose kernel the array engine executes.
KERNEL_CASES = {
    "minimum": lambda: minimum_algorithm(),
    "maximum": lambda: maximum_algorithm(upper_bound=20),
    "sum": lambda: summation_algorithm(),
}

SCHEDULERS = {
    "maximal": MaximalGroupsScheduler,
    "random-pair": RandomPairScheduler,
    "single-group": SingleGroupScheduler,
    "random-subgroup": RandomSubgroupScheduler,
}

ENVIRONMENTS = {
    "churn": lambda n: RandomChurnEnvironment(
        ring_graph(n), edge_up_probability=0.6, agent_up_probability=0.9
    ),
    # No edge ever comes up: every round is all singletons.
    "isolated": lambda n: RandomChurnEnvironment(
        ring_graph(n), edge_up_probability=0.0, agent_up_probability=0.9
    ),
    "markov": lambda n: MarkovChurnEnvironment(ring_graph(n), 0.3, 0.4, 0.15, 0.5),
    "dense-markov": lambda n: MarkovChurnEnvironment(
        complete_graph(n), 0.6, 0.1, 0.05, 0.5
    ),
    "duty": lambda n: PeriodicDutyCycleEnvironment(
        complete_graph(n), period=5, duty_cycle=0.5, seed=2
    ),
    "static": lambda n: StaticEnvironment(ring_graph(n)),
    "mobility": lambda n: RandomWaypointEnvironment(
        n, arena_size=60.0, range_radius=25.0, speed=8.0, seed=3
    ),
    "blackout": lambda n: BlackoutAdversary(
        ring_graph(n), period=6, blackout_rounds=3
    ),
    "edge-budget": lambda n: EdgeBudgetAdversary(ring_graph(n), budget=2),
    "rotating-partition": lambda n: RotatingPartitionAdversary(
        complete_graph(n), num_blocks=2, rotate_every=3, seed=1
    ),
    "targeted-crash": lambda n: TargetedCrashAdversary(
        ring_graph(n), targets=[0, 3], period=6, down_rounds=3
    ),
}


def _build(
    engine_cls,
    case: str,
    scheduler_name: str = "maximal",
    environment_name: str = "churn",
    seed: int = 7,
    values=None,
    **engine_kwargs,
):
    if values is None:
        values = DENSE_VALUES if environment_name == "dense-markov" else VALUES
    return engine_cls(
        KERNEL_CASES[case](),
        ENVIRONMENTS[environment_name](len(values)),
        initial_values=values,
        scheduler=SCHEDULERS[scheduler_name](),
        seed=seed,
        **engine_kwargs,
    )


def _run_pair(case, scheduler_name="maximal", environment_name="churn", seed=7,
              values=None, array_kwargs=None, **run_kwargs):
    run_kwargs.setdefault("max_rounds", 80)
    run_kwargs.setdefault("extra_rounds_after_convergence", 2)
    array_result = _build(
        ArrayEngine, case, scheduler_name, environment_name, seed,
        values=values, **(array_kwargs or {}),
    ).run(**run_kwargs)
    reference_result = _build(
        Simulator, case, scheduler_name, environment_name, seed, values=values
    ).run(**run_kwargs)
    return array_result, reference_result


def _assert_identical(array_result, reference_result):
    assert array_result.converged == reference_result.converged
    assert array_result.convergence_round == reference_result.convergence_round
    assert array_result.rounds_executed == reference_result.rounds_executed
    assert array_result.final_states == reference_result.final_states
    assert array_result.output == reference_result.output
    assert array_result.expected_output == reference_result.expected_output
    # Exact equality on purpose: the vectorized kernels and the delta
    # pricing must be value-identical, not merely close.
    assert array_result.objective_trajectory == reference_result.objective_trajectory
    assert list(array_result.trace) == list(reference_result.trace)
    assert array_result.trace.complete == reference_result.trace.complete
    assert array_result.group_steps == reference_result.group_steps
    assert array_result.improving_steps == reference_result.improving_steps
    assert array_result.stutter_steps == reference_result.stutter_steps
    assert array_result.invalid_steps == reference_result.invalid_steps
    assert array_result.largest_group == reference_result.largest_group
    # The array engine stamps its metadata with engine="array"; everything
    # else must match the reference verbatim.  (When comparing two array
    # runs, both carry the stamp.)
    array_metadata = dict(array_result.metadata)
    assert array_metadata.pop("engine") == "array"
    reference_metadata = dict(reference_result.metadata)
    reference_metadata.pop("engine", None)
    assert array_metadata == reference_metadata


def _count_built_sets(monkeypatch) -> list:
    """Record every frozenset an array-form state builds from here on, as
    ``(round_index, attribute)`` pairs (eager states build none)."""
    built = []
    lookup = EnvironmentState.__getattr__

    def counting_lookup(state, name):
        if name in ("enabled_agents", "available_edges"):
            built.append((state.round_index, name))
        return lookup(state, name)

    monkeypatch.setattr(EnvironmentState, "__getattr__", counting_lookup)
    return built


def _unbuilt(state) -> bool:
    """True for an array-form state that has built neither frozenset."""
    own = state.__dict__
    return (
        "_up_edges" in own
        and "available_edges" not in own
        and not ("_enabled_ids" in own and "enabled_agents" in own)
    )


# -- the core parity matrix -----------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_array_matches_reference(case, scheduler_name):
    _assert_identical(*_run_pair(case, scheduler_name))


@needs_numpy
@pytest.mark.parametrize("scheduler_name", ["maximal", "random-pair"])
@pytest.mark.parametrize("environment_name", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_array_matches_reference_across_environments(
    case, environment_name, scheduler_name
):
    # The maximal fast path and the run-for-real random pairs, on every
    # environment family.
    _assert_identical(
        *_run_pair(case, scheduler_name, environment_name=environment_name, seed=11)
    )


@needs_numpy
def test_parity_across_seeds_and_churn_levels():
    for seed in (0, 1, 2, 3):
        for edge_up in (0.05, 0.3, 1.0):
            def build(engine_cls):
                return engine_cls(
                    minimum_algorithm(),
                    RandomChurnEnvironment(
                        ring_graph(12), edge_up_probability=edge_up
                    ),
                    initial_values=list(range(12, 0, -1)),
                    seed=seed,
                )
            _assert_identical(
                build(ArrayEngine).run(max_rounds=60),
                build(Simulator).run(max_rounds=60),
            )


@needs_numpy
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_cross_check_accepts_honest_runs(case):
    # cross_check re-derives every vectorized round from the algorithm's
    # own step rule and re-verifies the maintained bag from scratch; it
    # must stay silent on every kernel family and change nothing.
    _assert_identical(
        *_run_pair(case, seed=19, array_kwargs={"cross_check": True})
    )


@needs_numpy
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_cross_check_on_randomized_schedulers(scheduler_name):
    _assert_identical(
        *_run_pair("sum", scheduler_name, seed=5,
                   array_kwargs={"cross_check": True})
    )


@needs_numpy
@pytest.mark.parametrize("returns_list", [False, True])
def test_maximal_scheduler_subclass_runs_for_real(monkeypatch, returns_list):
    # The engine calls every scheduler every round.  A subclass that
    # hands back the state's own partition view takes the labelled path
    # (and the view never builds its layout); one that copies it into a
    # list is validated and stepped by position.  Both are
    # value-identical, since the base partition is deterministic.
    class AuditingMaximal(MaximalGroupsScheduler):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def schedule(self, environment_state, rng):
            self.calls += 1
            partition = super().schedule(environment_state, rng)
            return list(partition) if returns_list else partition

    layouts = []
    labelled_layout = environment_base._labelled_layout

    def counting_layout(*args):
        layouts.append(args)
        return labelled_layout(*args)

    monkeypatch.setattr(environment_base, "_labelled_layout", counting_layout)
    scheduler = AuditingMaximal()
    engine = ArrayEngine(
        minimum_algorithm(),
        ENVIRONMENTS["churn"](len(VALUES)),
        initial_values=VALUES,
        scheduler=scheduler,
        seed=7,
    )
    result = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
    assert scheduler.calls == result.rounds_executed
    assert bool(layouts) == returns_list
    reference = _build(Simulator, "minimum").run(
        max_rounds=80, extra_rounds_after_convergence=2
    )
    _assert_identical(result, reference)


# -- admission: the int64 range proof and its boundaries --------------------------


@needs_numpy
@pytest.mark.parametrize(
    "case, values",
    [
        # minimum assumes non-negative inputs, so its low end is 0.
        ("minimum", [INT64_MAX, 4, 7, 0, 8, INT64_MAX, 6, 2]),
        ("maximum", [-(2**63), 4, 7, INT64_MAX, 8, -(2**63), 6, 2]),
        # Σ|v| == INT64_MAX exactly: the largest admissible sum.
        ("sum", [2**62, 2**62 - 11, 3, 2, 1, 4, 0, 0]),
    ],
    ids=["minimum", "maximum", "sum"],
)
@pytest.mark.parametrize("scheduler_name", ["maximal", "random-pair"])
def test_int64_boundary_values_are_admitted_and_match(
    case, values, scheduler_name, monkeypatch
):
    monkeypatch.setitem(
        KERNEL_CASES, "maximum", lambda: maximum_algorithm(upper_bound=INT64_MAX)
    )
    if case == "sum":
        assert sum(values) == INT64_MAX
    _assert_identical(*_run_pair(case, scheduler_name, values=values))


# -- refusals: everything the int64 kernels cannot run exactly --------------------


def _non_int64_kernel():
    # average's step rule is exact over Fractions, not machine words; an
    # algorithm declaring it as a kernel still names no int64 kernel.
    algorithm = average_algorithm()
    algorithm.kernel = "average"
    return algorithm


def _no_array_delta():
    # A kernel whose objective cannot price int64 deltas exactly: the
    # array engine folds h only in int64, so it refuses.
    algorithm = minimum_algorithm()
    algorithm.objective.array_delta_fn = None
    return algorithm


#: reason -> (algorithm factory, initial values, refusal message fragment)
REFUSALS = {
    "no-kernel": (
        lambda: minimum_algorithm(partial=True), VALUES, "no vectorizable kernel"
    ),
    "non-int64-kernel": (_non_int64_kernel, VALUES, "'average' kernel"),
    "no-array-delta": (_no_array_delta, VALUES, "no exact int64 array delta"),
    "non-int-state": (
        lambda: minimum_algorithm(), [9.5, 4, 7, 1, 8, 3, 6, 2], "not ints"
    ),
    "bool-state": (
        lambda: minimum_algorithm(), [True, 4, 7, 1, 8, 3, 6, 2], "not ints"
    ),
    "above-int64": (
        lambda: minimum_algorithm(), [2**63, 4, 7, 1, 8, 3, 6, 2],
        "outside the int64 range",
    ),
    "below-int64": (
        lambda: maximum_algorithm(upper_bound=20),
        [-(2**63) - 1, 4, 7, 1, 8, 3, 6, 2],
        "outside the int64 range",
    ),
    "sum-overflow": (
        lambda: summation_algorithm(), [2**62, 2**62 - 10, 3, 2, 1, 4, 0, 0],
        "sum of absolute values",
    ),
}


@pytest.mark.parametrize("reason", sorted(REFUSALS))
def test_unrunnable_workloads_are_refused_at_construction(reason):
    make_algorithm, values, fragment = REFUSALS[reason]
    with pytest.raises(SpecificationError, match=fragment) as refusal:
        ArrayEngine(
            make_algorithm(),
            ENVIRONMENTS["churn"](len(values)),
            initial_values=values,
        )
    assert 'engine="reference"' in str(refusal.value)


def test_missing_numpy_is_refused_at_construction(monkeypatch):
    # Runs on both CI legs: forcing the flag off is what a container
    # without numpy looks like to the engine.
    monkeypatch.setattr(array_engine_module, "HAVE_NUMPY", False)
    with pytest.raises(SpecificationError, match="numpy is not importable") as refusal:
        _build(ArrayEngine, "minimum")
    assert 'engine="reference"' in str(refusal.value)


def test_int64_overflow_is_refused():
    # A sum whose total could overflow int64 has no exact machine-word
    # representation; the reference engine (Python ints) runs it.
    huge = [2**62, 2**62, 5, 3, 1, 0, 2, 4]
    with pytest.raises(SpecificationError, match='engine="reference"'):
        _build(ArrayEngine, "sum", values=huge)
    reference = _build(Simulator, "sum", values=huge).run(max_rounds=80)
    assert reference.output == sum(huge)


@pytest.mark.parametrize(
    "algorithm, params", [("average", {}), ("kth-smallest", {"k": 2})]
)
def test_builtin_object_kernels_are_refused_through_a_spec(algorithm, params):
    from repro.experiment import ExperimentSpec

    spec = ExperimentSpec.from_dict({
        "name": "array-refusal",
        "algorithm": algorithm,
        "algorithm_params": params,
        "engine": "array",
        "environment": "static",
        "environment_params": {"topology": "complete"},
        "initial_values": list(VALUES),
        "seeds": [0],
        "max_rounds": 20,
    })
    with pytest.raises(SpecificationError, match='engine="reference"'):
        spec.run(seed=0)
    reference = ExperimentSpec.from_dict(
        {**spec.to_dict(), "engine": "reference"}
    ).run(seed=0)
    assert reference.converged


# -- checkpoint / restore / resume -------------------------------------------------


@needs_numpy
def test_engine_checkpoint_restore_is_identical():
    uninterrupted = _build(ArrayEngine, "minimum", "random-pair", seed=3)
    stream = uninterrupted.steps()
    for _ in range(4):
        next(stream)
    checkpoint = uninterrupted.checkpoint()
    assert checkpoint.engine == "array"

    restored = _build(ArrayEngine, "minimum", "random-pair", seed=3)
    restored.restore(checkpoint)
    assert restored.round_index == uninterrupted.round_index
    assert restored.current_states() == uninterrupted.current_states()
    for left, right in zip(restored.steps(max_rounds=20),
                           uninterrupted.steps(max_rounds=20)):
        assert left.objective == right.objective
        assert left.converged == right.converged
        assert (left.group_steps, left.improving_steps) == (
            right.group_steps, right.improving_steps
        )
    assert restored.current_states() == uninterrupted.current_states()


def _checked_verdicts(engine, directory, **run_kwargs):
    """Run ``engine`` with rolling checkpoints under ``directory``; every
    round, ``has_converged()`` must equal the comparison of all agents
    with the uniform target."""
    from repro.simulation.probes import CheckpointProbe

    (target,) = set(engine.target)

    def on_round(record):
        expected = all(state == target for state in engine.current_states())
        assert engine.has_converged() == record.converged == expected

    return engine.run(
        max_rounds=80,
        extra_rounds_after_convergence=2,
        on_round=on_round,
        probes=[CheckpointProbe(every=3, directory=directory)],
        **run_kwargs,
    )


def _same_run(left, right):
    assert left.final_states == right.final_states
    assert left.objective_trajectory == right.objective_trajectory
    assert (left.converged, left.convergence_round, left.rounds_executed) == (
        right.converged, right.convergence_round, right.rounds_executed
    )


@needs_numpy
@pytest.mark.parametrize("case", ["minimum", "maximum"])
def test_off_target_count_is_rebuilt_on_restore_and_reset(tmp_path, case):
    # Under a uniform target the verdict reads a count of the agents off
    # it, moved by each round's delta; a restore or a reset replaces the
    # states, so the count must be rebuilt with them.
    from repro.simulation.checkpoint import RunCheckpoint

    values = [(7 * index) % 19 for index in range(40)]
    uninterrupted = _checked_verdicts(
        _build(ArrayEngine, case, values=values), tmp_path / "full"
    )
    assert uninterrupted.converged and uninterrupted.convergence_round > 3
    checkpoint = RunCheckpoint.load(
        tmp_path / "full" / f"{case}-seed7" / "round-00000003.json"
    )
    restored = _build(ArrayEngine, case, values=values)
    restored.restore(checkpoint)
    assert not restored.has_converged()
    resumed = _checked_verdicts(
        restored, tmp_path / "resumed", resume_from=checkpoint
    )
    _same_run(resumed, uninterrupted)

    assert restored.has_converged()
    restored.reset()
    assert not restored.has_converged()
    _same_run(_checked_verdicts(restored, tmp_path / "reset"), uninterrupted)


def _build_any(engine_cls, seed=3, values=VALUES):
    """A minimum run under churn on any of the three engines."""
    if engine_cls is MergeMessagePassingSimulator:
        return MergeMessagePassingSimulator(
            minimum_algorithm(),
            merge=minimum_merge,
            environment=ENVIRONMENTS["churn"](len(values)),
            initial_values=values,
            seed=seed,
        )
    return _build(engine_cls, "minimum", seed=seed, values=values)


ENGINE_CLASSES = [Simulator, ArrayEngine, MergeMessagePassingSimulator]


@needs_numpy
@pytest.mark.parametrize("engine_cls", ENGINE_CLASSES, ids=lambda cls: cls.__name__)
def test_restore_rejects_foreign_checkpoints(engine_cls):
    # The identity checks are the Engine base class's: every engine
    # refuses each other engine's kind, another seed and another agent
    # count.
    engine = _build_any(engine_cls)
    for other_cls in ENGINE_CLASSES:
        if other_cls is engine_cls:
            continue
        foreign = _build_any(other_cls)
        next(foreign.steps())
        with pytest.raises(SimulationError, match=repr(other_cls.checkpoint_kind)):
            engine.restore(foreign.checkpoint())
    with pytest.raises(SimulationError, match="seed"):
        _build_any(engine_cls, seed=4).restore(engine.checkpoint())
    with pytest.raises(SimulationError, match="6 agent states for 8 agents"):
        engine.restore(_build_any(engine_cls, values=VALUES[:6]).checkpoint())


@needs_numpy
def test_spec_resume_is_byte_identical(tmp_path):
    from repro.experiment import ExperimentSpec
    from repro.simulation.checkpoint import resume_run

    spec_data = {
        "name": "array-resume",
        "algorithm": "minimum",
        "engine": "array",
        "environment": "churn",
        "environment_params": {"topology": "ring", "edge_up_probability": 0.4},
        "scheduler": "maximal",
        "initial_values": [52, 17, 88, 5, 34, 71, 23, 9],
        "seeds": [0],
        "max_rounds": 60,
        "stop_at_convergence": False,
        "probes": [
            {"probe": "checkpoint", "directory": str(tmp_path), "every": 3}
        ],
    }
    spec = ExperimentSpec.from_dict(spec_data)
    uninterrupted = spec.run(seed=0)

    resumed = resume_run(tmp_path / "minimum-seed0" / "round-00000006.json")
    assert resumed.final_states == uninterrupted.final_states
    assert resumed.objective_trajectory == uninterrupted.objective_trajectory
    assert resumed.rounds_executed == uninterrupted.rounds_executed
    assert list(resumed.trace) == list(uninterrupted.trace)
    assert resumed.metadata["engine"] == "array"


# -- spec / builder engine selection ------------------------------------------------


@needs_numpy
def test_spec_engine_selection_builds_each_engine():
    from repro.experiment import ExperimentSpec

    base = {
        "name": "engine-select",
        "algorithm": "minimum",
        "environment": "static",
        "environment_params": {"topology": "complete"},
        "initial_values": list(VALUES),
        "seeds": [1],
        "max_rounds": 20,
    }
    default_engine = ExperimentSpec.from_dict(base).build(seed=1)
    assert isinstance(default_engine, Simulator)
    array = ExperimentSpec.from_dict({**base, "engine": "array"}).build(seed=1)
    assert isinstance(array, ArrayEngine)
    with pytest.raises(SpecificationError):
        ExperimentSpec.from_dict({**base, "engine": "warp-drive"}).validate()


@needs_numpy
def test_builder_engine_selection_runs_identically():
    from repro.experiment import Experiment

    def build(engine_name):
        return (
            Experiment.builder()
            .algorithm("minimum")
            .environment("churn", topology="ring", edge_up_probability=0.5)
            .values(VALUES)
            .engine(engine_name)
            .max_rounds(60)
            .build()
        )

    _assert_identical(build("array").run(seed=5), build("reference").run(seed=5))


# -- guard rails ---------------------------------------------------------------------


def test_kernel_less_algorithm_rejected_at_construction():
    # minimum(partial=True) draws randomness, hence declares no kernel.
    with pytest.raises(SpecificationError, match="no vectorizable"):
        ArrayEngine(
            minimum_algorithm(partial=True),
            ENVIRONMENTS["churn"](len(VALUES)),
            initial_values=VALUES,
        )


def test_partial_variants_declare_no_kernel():
    assert minimum_algorithm(partial=True).kernel is None
    assert summation_algorithm(partial=True).kernel is None
    with pytest.raises(SpecificationError, match='engine="reference"'):
        ArrayEngine(
            summation_algorithm(partial=True),
            ENVIRONMENTS["churn"](len(VALUES)),
            initial_values=VALUES,
        )


@needs_numpy
def test_randomness_drawing_kernel_caught_at_first_draw():
    # An algorithm that *claims* the kernel contract but draws from the
    # RNG must fail loudly, not silently desynchronise the run stream.
    # The numpy kernel never calls the step rule; cross_check re-derives
    # every group through it, on the guard RNG.
    algorithm = minimum_algorithm()

    def drawing_step(states, rng):
        rng.random()
        return [min(states)] * len(states)

    algorithm.group_step = drawing_step
    engine = ArrayEngine(
        algorithm,
        StaticEnvironment(complete_graph(4)),
        initial_values=[4, 3, 2, 1],
        seed=0,
        cross_check=True,
    )
    with pytest.raises(SimulationError, match="drew randomness"):
        next(engine.steps())


@needs_numpy
def test_stale_lazy_round_record_refuses_to_snapshot():
    engine = _build(ArrayEngine, "minimum", seed=1)
    record = next(engine.steps())
    _ = record.multiset  # current: fine
    engine.reset()  # any maintained-bag mutation invalidates the record
    with pytest.raises(SimulationError, match="no longer reflects"):
        _ = record.multiset


@needs_numpy
def test_cross_check_exception_leaves_the_pre_round_state():
    # A later group's step rule raising during the cross-check
    # re-derivation must leave the flat states and the maintained bag at
    # their pre-round values: the kernel's results are verified before
    # any of them is installed or folded.
    from repro.agents.group import Group
    from repro.agents.scheduler import Scheduler
    from repro.core.multiset import Multiset

    algorithm = minimum_algorithm()
    real_step = algorithm.group_step

    def poisoned_step(states, rng):
        if 99 in states:
            raise RuntimeError("injected fault")
        return real_step(states, rng)

    algorithm.group_step = poisoned_step

    class FixedPairs(Scheduler):
        def schedule(self, environment_state, rng):
            return [Group.of([0, 1]), Group.of([2, 3])]

    engine = ArrayEngine(
        algorithm,
        StaticEnvironment(complete_graph(4)),
        initial_values=[5, 3, 7, 99],
        scheduler=FixedPairs(),
        seed=0,
        cross_check=True,
    )
    with pytest.raises(RuntimeError, match="injected fault"):
        next(engine.steps())
    # Group (0, 1) re-derived fine before group (2, 3) raised; nothing
    # was installed.
    assert engine.current_states() == [5, 3, 7, 99]
    assert engine.current_multiset() == Multiset([5, 3, 7, 99])


# -- history retention ------------------------------------------------------------


@needs_numpy
def test_history_none_run_matches_reference_summary():
    array_result = _build(ArrayEngine, "minimum", seed=2).run(
        max_rounds=80, history="none"
    )
    reference_result = _build(Simulator, "minimum", seed=2).run(
        max_rounds=80, history="none"
    )
    assert array_result.converged == reference_result.converged
    assert array_result.final_states == reference_result.final_states
    assert (
        array_result.objective_trajectory == reference_result.objective_trajectory
    )
    assert list(array_result.trace) == list(reference_result.trace)


def _counting_builds(monkeypatch) -> list:
    """Log the elements of every bag the array engine builds."""
    builds = []

    class CountingMultiset(array_engine_module.Multiset):
        __slots__ = ()

        def __init__(self, elements=()):
            super().__init__(elements)
            builds.append(list(elements))

    monkeypatch.setattr(array_engine_module, "Multiset", CountingMultiset)
    return builds


@needs_numpy
def test_history_none_never_snapshots_the_bag(monkeypatch):
    # The lazy record is the point of the design: under history="none"
    # nothing may read record.multiset, so no bag of the agent states is
    # built during the round loop.
    builds = _counting_builds(monkeypatch)
    engine = _build(ArrayEngine, "minimum", seed=2)
    # Construction builds the initial bag (the target is f of it).
    assert builds == [VALUES]
    result = engine.run(max_rounds=80, history="none")
    assert result.rounds_executed > 1
    # initial_snapshot() reuses that bag, and the per-round loop builds
    # none (run_engine builds the result's single-element trace from
    # current_states(), not from the bag).
    assert builds == [VALUES]


@needs_numpy
@pytest.mark.parametrize("case", ["minimum", "maximum", "sum"])
def test_default_run_builds_the_initial_bag_once(monkeypatch, case):
    # Construction, initial_snapshot() and the history's round-0 entry
    # share one initial bag; the default (full-history) run builds a bag
    # per round that changed the states, never the initial one again.
    builds = _counting_builds(monkeypatch)
    engine = _build(ArrayEngine, case, seed=3)
    initial = engine.current_states()
    snapshot, objective = engine.initial_snapshot()
    assert snapshot is engine.current_multiset()
    assert objective == engine.algorithm.objective(Multiset(initial))
    result = engine.run(max_rounds=80)
    assert result.rounds_executed > 1
    assert builds.count(initial) == 1
    assert result.objective_trajectory[0] == objective


# -- the numpy-only fast paths ----------------------------------------------------


@needs_numpy
class TestVectorizedFastPaths:
    """The numpy-only shortcuts — the environment's array transition (the
    state-shared MT19937 churn draws), the vectorized component labelling
    and the int64 fold with its vectorized convergence verdict — are the
    one path every run takes, ``cross_check`` included.  These tests pin
    the capability gate and the equivalences directly (the parity matrix
    above covers them end to end against the reference engine)."""

    @staticmethod
    def _engaged_paths(monkeypatch, engine, rounds=6) -> dict:
        """Run ``rounds`` rounds of ``engine`` and count the calls to the
        environment's public advance, its array transition, the int64
        fold and the vectorized convergence verdict."""
        calls = {"advance": 0, "array": 0, "fold": 0, "verdict": 0}

        def counting(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        environment = engine.environment
        monkeypatch.setattr(
            environment, "advance", counting("advance", environment.advance)
        )
        monkeypatch.setattr(
            engine, "_array_advance", counting("array", engine._array_advance)
        )
        monkeypatch.setattr(
            engine.algorithm,
            "objective_array_delta",
            counting("fold", engine.algorithm.objective_array_delta),
        )
        monkeypatch.setattr(
            engine,
            "_vectorized_converged",
            counting("verdict", engine._vectorized_converged),
        )
        for _ in engine.steps(rounds):
            pass
        return calls

    def test_fast_paths_engage_on_the_flagship_configuration(self, monkeypatch):
        engine = _build(ArrayEngine, "minimum")
        calls = self._engaged_paths(monkeypatch, engine)
        assert calls["advance"] == 0
        assert calls["array"] == calls["verdict"] == 6
        assert calls["fold"] > 0

    def test_fast_paths_engage_under_cross_check(self, monkeypatch):
        # cross_check runs the same program: the array transition, the
        # int64 fold and the vectorized verdict, each checked against its
        # oracle — the public advance runs too, on a copy of the run RNG.
        engine = _build(ArrayEngine, "minimum", cross_check=True)
        calls = self._engaged_paths(monkeypatch, engine)
        assert calls["advance"] == calls["array"] == calls["verdict"] == 6
        assert calls["fold"] > 0

    def _paired_engines(self, seed=7):
        """One engine on the churn environment's array transition, one on
        a *subclass* that overrides the transition (and so loses the array
        form and runs the real advance), on the identical workload and
        seed."""

        class SubclassedChurn(RandomChurnEnvironment):
            def advance(self, round_index, rng):
                return super().advance(round_index, rng)

        def build(environment_cls):
            return ArrayEngine(
                minimum_algorithm(),
                environment_cls(
                    ring_graph(len(VALUES)),
                    edge_up_probability=0.6,
                    agent_up_probability=0.9,
                ),
                initial_values=VALUES,
                scheduler=MaximalGroupsScheduler(),
                seed=seed,
            )

        fast = build(RandomChurnEnvironment)
        slow = build(SubclassedChurn)
        assert fast._array_advance is not None
        assert slow._array_advance is None
        return fast, slow

    def test_churn_subclass_disables_the_bypass_but_changes_nothing(self):
        fast, slow = self._paired_engines()
        _assert_identical(
            fast.run(max_rounds=80, extra_rounds_after_convergence=2),
            slow.run(max_rounds=80, extra_rounds_after_convergence=2),
        )

    def test_bypass_writes_the_rng_state_back_exactly(self):
        # The vectorized advance draws on a numpy MT19937 seeded from the
        # run RNG's state; after every round the Python RNG must hold the
        # exact state the reference draw loop would have left.
        fast, slow = self._paired_engines(seed=19)
        fast_stream = fast.steps()
        slow_stream = slow.steps()
        for _ in range(6):
            next(fast_stream)
            next(slow_stream)
            assert fast._state.rng.getstate() == slow._state.rng.getstate()

    def test_labelling_serves_environments_without_vectorized_draws(
        self, monkeypatch
    ):
        # Markov churn advances through the environment itself, but its
        # maximal partition is still labelled as arrays, once per round,
        # from the state's effective edges.
        engine = _build(ArrayEngine, "minimum", environment_name="markov")
        assert engine._array_advance is None
        label = environment_base.label_components
        calls = []

        def counting_label(u, v, num_agents):
            calls.append(num_agents)
            return label(u, v, num_agents)

        monkeypatch.setattr(environment_base, "label_components", counting_label)
        result = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
        assert len(calls) == result.rounds_executed
        reference = _build(Simulator, "minimum", environment_name="markov").run(
            max_rounds=80, extra_rounds_after_convergence=2
        )
        _assert_identical(result, reference)

    def test_dense_markov_labels_the_state_arrays(self, monkeypatch):
        # Above the threshold the Markov environment hands over the array
        # form of its state; the engine labels its int64 edge arrays,
        # never falls back to the frozenset conversion and never builds
        # either of the state's frozensets.  It still calls the public
        # advance once per round.
        engine = _build(ArrayEngine, "minimum", environment_name="dense-markov")
        environment = engine.environment
        advance = environment.advance
        received = []

        def recording_advance(round_index, rng):
            state = advance(round_index, rng)
            u, v = state.effective_edge_arrays
            received.append((state, u.copy(), v.copy()))
            return state

        monkeypatch.setattr(environment, "advance", recording_advance)
        conversions = []
        effective_edges = EnvironmentState.effective_edges

        def counting_effective_edges(state):
            conversions.append(state.round_index)
            return effective_edges(state)

        monkeypatch.setattr(
            EnvironmentState, "effective_edges", counting_effective_edges
        )
        built = _count_built_sets(monkeypatch)
        result = engine.run(max_rounds=12, stop_at_convergence=False)
        assert conversions == [] and built == []
        assert len(received) == result.rounds_executed == 12
        assert all(_unbuilt(state) for state, _, _ in received)
        monkeypatch.undo()
        # The arrays equal each state's effective edges (agent failures
        # make those differ from the available edges), and later advances
        # never changed them.
        assert any(s.effective_edges() != s.available_edges for s, _, _ in received)
        for state, u_then, v_then in received:
            u, v = state.effective_edge_arrays
            assert u.tolist() == u_then.tolist() and v.tolist() == v_then.tolist()
            pairs = list(zip(u.tolist(), v.tolist()))
            assert len(pairs) == len(state.effective_edges())
            assert set(pairs) == state.effective_edges()
        reference = _build(Simulator, "minimum", environment_name="dense-markov").run(
            max_rounds=12, stop_at_convergence=False
        )
        _assert_identical(result, reference)

    def test_churn_bypass_builds_no_sets(self, monkeypatch):
        # The churn twin: the array transition's vectorized draws become
        # the array form of the state the reference advance builds, and
        # under the maximal scheduler no round builds its frozensets
        # either.
        engine = _build(ArrayEngine, "minimum", environment_name="churn")
        array_advance = engine._array_advance
        assert array_advance is not None
        received = []

        def recording_array_advance(round_index, rng):
            state = array_advance(round_index, rng)
            received.append(state)
            return state

        monkeypatch.setattr(engine, "_array_advance", recording_array_advance)
        built = _count_built_sets(monkeypatch)
        result = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
        assert built == []
        assert len(received) == result.rounds_executed
        assert all(_unbuilt(state) for state in received)
        monkeypatch.undo()
        # Agent failures make some rounds' enabled set a lazy id array.
        assert any(state.enabled_count < len(VALUES) for state in received)
        for state in received:
            u, v = state.effective_edge_arrays
            assert set(zip(u.tolist(), v.tolist())) == state.effective_edges()
            assert state.enabled_count == len(state.enabled_agents)
        reference = _build(Simulator, "minimum", environment_name="churn").run(
            max_rounds=80, extra_rounds_after_convergence=2
        )
        _assert_identical(result, reference)

    @pytest.mark.parametrize(
        "environment_name, scheduler_name, cross_check, reads_sets",
        [
            ("churn", "random-pair", False, True),
            ("dense-markov", "random-pair", False, True),
            # Components come from the state's labelling, which reads
            # only the arrays.
            ("churn", "random-subgroup", False, False),
            ("dense-markov", "random-subgroup", False, False),
            # (The cross-check compares each state with its oracle's,
            # which reads the sets.)
            ("churn", "maximal", True, True),
            ("dense-markov", "maximal", True, True),
        ],
    )
    def test_sets_are_built_on_demand(
        self, monkeypatch, environment_name, scheduler_name, cross_check, reads_sets
    ):
        # A scheduler that runs for real on the effective edge set, or the
        # cross-check, reads the array-form state's sets: they are built
        # then, and only then; the run still matches the reference engine.
        built = _count_built_sets(monkeypatch)
        result, reference = _run_pair(
            "minimum",
            scheduler_name,
            environment_name,
            array_kwargs={"cross_check": cross_check},
            max_rounds=12,
        )
        assert bool(built) == reads_sets
        _assert_identical(result, reference)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_cross_check_on_dense_markov(self, case):
        _assert_identical(
            *_run_pair(
                case,
                environment_name="dense-markov",
                seed=23,
                array_kwargs={"cross_check": True},
            )
        )

    def test_cross_check_catches_a_diverging_labelling(self, monkeypatch):
        label = environment_base.label_components

        def miscounting_label(u, v, num_agents):
            # Split one agent off its component: one group too many.
            ids, labels = label(u, v, num_agents)
            split = ids[labels[ids] != ids]
            if split.shape[0]:
                labels = labels.copy()
                labels[split[0]] = split[0]
            return ids, labels

        monkeypatch.setattr(environment_base, "label_components", miscounting_label)
        engine = _build(
            ArrayEngine, "minimum", environment_name="markov", cross_check=True
        )
        with pytest.raises(SimulationError, match="labelling diverged"):
            engine.run(max_rounds=20)

    @pytest.mark.parametrize("case", ["minimum", "maximum", "sum"])
    def test_vectorized_convergence_equals_multiset_equality(self, case):
        # minimum/maximum exercise the uniform-target comparison, sum the
        # gated sorted comparison; each round the vectorized verdict must
        # equal multiset equality with S* exactly.
        engine = _build(ArrayEngine, case)
        for record in engine.steps(40):
            expected = engine.current_multiset() == engine.target
            assert engine._vectorized_converged() == expected
            assert engine.has_converged() == expected
            assert record.converged == expected


# -- cross_check catches seeded mutations of the paths every run takes -----------


def _off_by_one_fold(monkeypatch):
    fold = SelfSimilarAlgorithm.objective_array_delta
    monkeypatch.setattr(
        SelfSimilarAlgorithm,
        "objective_array_delta",
        lambda self, before, removed, added: fold(self, before, removed, added) + 1,
    )


def _dropped_up_edge(monkeypatch):
    # The array transition, and not the public advance it is checked
    # against, loses its first up edge.
    advance_arrays = RandomChurnEnvironment._advance_arrays

    def dropping(self, round_index, rng):
        state = advance_arrays(self, round_index, rng)
        own = state.__dict__
        return EnvironmentState.from_arrays(
            own.get("_enabled_ids", own.get("enabled_agents")),
            own["_edge_sequence"],
            own["_up_edges"][1:],
            round_index,
            state.effective_edge_arrays,
        )

    monkeypatch.setattr(RandomChurnEnvironment, "_advance_arrays", dropping)


def _extra_draw(monkeypatch):
    uniform_draws = dynamics.uniform_draws
    monkeypatch.setattr(
        dynamics,
        "uniform_draws",
        lambda rng, count: uniform_draws(rng, count + 1)[:count],
    )


def _off_by_one_initial_price(monkeypatch):
    price = ObjectiveFunction.array_value
    monkeypatch.setattr(
        ObjectiveFunction,
        "array_value",
        lambda self, states: price(self, states) + 1,
    )


def _negated_verdict(monkeypatch):
    verdict = ArrayEngine._vectorized_converged
    monkeypatch.setattr(
        ArrayEngine, "_vectorized_converged", lambda self: not verdict(self)
    )


def _miscounted_off_target(monkeypatch):
    install = ArrayEngine._install_states

    def miscounting(self, states):
        install(self, states)
        self._off_target += 1

    monkeypatch.setattr(ArrayEngine, "_install_states", miscounting)


#: mutation -> (seeds it, fragment of the SimulationError cross_check raises)
MUTATIONS = {
    "fold-off-by-one": (_off_by_one_fold, "array-engine objective diverged"),
    "churn-drops-an-up-edge": (_dropped_up_edge, "transition diverged"),
    "churn-extra-draw": (_extra_draw, "run RNG"),
    "negated-convergence-verdict": (_negated_verdict, "verdict diverged"),
    "off-target-count-off-by-one": (_miscounted_off_target, "verdict diverged"),
    "initial-price-off-by-one": (_off_by_one_initial_price, "initial objective diverged"),
}


@needs_numpy
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_cross_check_catches_seeded_mutations(monkeypatch, mutation):
    seed_mutation, fragment = MUTATIONS[mutation]
    seed_mutation(monkeypatch)
    engine = _build(ArrayEngine, "minimum", cross_check=True)
    with pytest.raises(SimulationError, match=fragment):
        engine.run(max_rounds=80)
