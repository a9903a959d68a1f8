"""Parity suite: the struct-of-arrays ``ArrayEngine`` vs. the reference
``Simulator``.

The array engine promises *value-identical* results — not "statistically
equivalent", identical — for every algorithm that declares a vectorizable
kernel, on every scheduler and environment family, because the run's only
random draws (the environment's and the scheduler's) are made exactly as
the reference engine makes them.  These tests pin that promise the same
way :mod:`tests.test_incremental_parity` pins the incremental round
state: two independent code paths, one byte-identical
:class:`SimulationResult`.

Axes covered:

* every kernel algorithm (minimum, maximum, sum, average, kth-smallest)
  × every scheduler (the maximal-bypass fast path and the run-for-real
  randomized schedulers) × churn / markov / duty-cycle environments;
* the numpy backend against the pure-Python ``array('q')`` fallback
  (``HAVE_NUMPY`` monkeypatched off) — the flag changes *how* rounds are
  priced, never what they compute;
* ``cross_check=True``, which re-derives every vectorized round from the
  algorithm's own step rule through the full relation judge;
* engine-level checkpoint/restore and spec-level resume, byte-identical
  to the uninterrupted run;
* the guard rails: kernel-less algorithms rejected at construction,
  randomness-drawing "kernels" caught at the first draw, stale lazy
  round records refused.
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
from repro.algorithms.kth_smallest import kth_smallest_algorithm
from repro.algorithms.maximum import maximum_algorithm
from repro.algorithms.minimum import minimum_algorithm
from repro.algorithms.summation import summation_algorithm
from repro.core.errors import SimulationError, SpecificationError
from repro.environment.dynamics import (
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    StaticEnvironment,
)
from repro.environment.graphs import complete_graph, ring_graph
from repro.simulation import array_engine as array_engine_module
from repro.simulation.array_engine import HAVE_NUMPY, ArrayEngine
from repro.simulation.engine import Simulator

VALUES = [9, 4, 7, 1, 8, 3, 6, 2]

#: Every algorithm family that declares a vectorizable kernel.  minimum,
#: maximum and sum ride the flat int64 backends; average (Fractions) and
#: kth-smallest (tuples) exercise the object-path round loop.
KERNEL_CASES = {
    "minimum": lambda: minimum_algorithm(),
    "maximum": lambda: maximum_algorithm(upper_bound=20),
    "sum": lambda: summation_algorithm(),
    "average": lambda: average_algorithm(),
    "kth-smallest": lambda: kth_smallest_algorithm(k=2, value_bound=32),
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
    "markov": lambda n: MarkovChurnEnvironment(ring_graph(n), 0.3, 0.4, 0.15, 0.5),
    "duty": lambda n: PeriodicDutyCycleEnvironment(
        complete_graph(n), period=5, duty_cycle=0.5, seed=2
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
    values = VALUES if values is None else values
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
    # runs — fallback vs numpy — both carry the stamp.)
    array_metadata = dict(array_result.metadata)
    assert array_metadata.pop("engine") == "array"
    reference_metadata = dict(reference_result.metadata)
    reference_metadata.pop("engine", None)
    assert array_metadata == reference_metadata


# -- the core parity matrix -----------------------------------------------------


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_array_matches_reference(case, scheduler_name):
    _assert_identical(*_run_pair(case, scheduler_name))


@pytest.mark.parametrize("environment_name", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_array_matches_reference_across_environments(case, environment_name):
    _assert_identical(*_run_pair(case, environment_name=environment_name, seed=11))


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


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_cross_check_accepts_honest_runs(case):
    # cross_check re-derives every vectorized round from the algorithm's
    # own step rule and re-verifies the maintained bag from scratch; it
    # must stay silent on every kernel family and change nothing.
    _assert_identical(
        *_run_pair(case, seed=19, array_kwargs={"cross_check": True})
    )


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_cross_check_on_randomized_schedulers(scheduler_name):
    _assert_identical(
        *_run_pair("sum", scheduler_name, seed=5,
                   array_kwargs={"cross_check": True})
    )


def test_maximal_scheduler_subclass_runs_for_real():
    # The component-walk bypass applies to MaximalGroupsScheduler exactly;
    # a subclass (which may override schedule()) must run for real — and
    # still be value-identical, since the base partition is deterministic.
    class AuditingMaximal(MaximalGroupsScheduler):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def schedule(self, environment_state, rng):
            self.calls += 1
            return super().schedule(environment_state, rng)

    scheduler = AuditingMaximal()
    engine = ArrayEngine(
        minimum_algorithm(),
        ENVIRONMENTS["churn"](len(VALUES)),
        initial_values=VALUES,
        scheduler=scheduler,
        seed=7,
    )
    assert not engine._maximal_bypass
    result = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
    assert scheduler.calls == result.rounds_executed
    reference = _build(Simulator, "minimum").run(
        max_rounds=80, extra_rounds_after_convergence=2
    )
    _assert_identical(result, reference)


# -- backend selection and the pure-Python fallback -------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_numpy_backend_selected_for_int_kernels():
    assert _build(ArrayEngine, "minimum")._backend == "numpy"
    assert _build(ArrayEngine, "sum")._backend == "numpy"


def test_object_backend_selected_for_object_kernels():
    # Fractions and tuples never ride the int64 arrays.
    assert _build(ArrayEngine, "average")._backend == "list"
    assert _build(ArrayEngine, "kth-smallest")._backend == "list"


def test_int64_overflow_falls_back_to_objects():
    # A sum whose total could overflow int64 must take the object path —
    # and still match the reference engine exactly (Python ints don't
    # overflow, so this is purely a representation decision).
    huge = [2**62, 2**62, 5, 3, 1, 0, 2, 4]
    engine = _build(ArrayEngine, "sum", values=huge)
    assert engine._backend == "list"
    _assert_identical(*_run_pair("sum", values=huge))


@pytest.mark.parametrize("case", ["minimum", "maximum", "sum"])
def test_pure_python_fallback_is_identical(case, monkeypatch):
    _assert_fallback_identical(case, "random-pair", monkeypatch)


@pytest.mark.parametrize("case", ["minimum", "maximum", "sum"])
def test_pure_python_fallback_is_identical_under_maximal(case, monkeypatch):
    # The object backends group through edge_components, not the numpy
    # labelling.
    _assert_fallback_identical(case, "maximal", monkeypatch)


def _assert_fallback_identical(case, scheduler_name, monkeypatch):
    # Forcing HAVE_NUMPY off selects the array('q') backend; results must
    # be value-identical to both the reference engine and (when numpy is
    # actually present) the numpy backend.
    with_numpy = None
    if HAVE_NUMPY:
        with_numpy = _build(ArrayEngine, case, scheduler_name, seed=13).run(
            max_rounds=80, extra_rounds_after_convergence=2
        )
    monkeypatch.setattr(array_engine_module, "HAVE_NUMPY", False)
    engine = _build(ArrayEngine, case, scheduler_name, seed=13)
    assert engine._backend == "int-array"
    fallback = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
    reference = _build(Simulator, case, scheduler_name, seed=13).run(
        max_rounds=80, extra_rounds_after_convergence=2
    )
    _assert_identical(fallback, reference)
    if with_numpy is not None:
        _assert_identical(fallback, with_numpy)


# -- checkpoint / restore / resume -------------------------------------------------


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


def test_restore_rejects_foreign_checkpoints():
    reference = _build(Simulator, "minimum", seed=3)
    next(reference.steps())
    engine = _build(ArrayEngine, "minimum", seed=3)
    with pytest.raises(SimulationError, match="simulator"):
        engine.restore(reference.checkpoint())
    other_seed = _build(ArrayEngine, "minimum", seed=4)
    with pytest.raises(SimulationError, match="seed"):
        other_seed.restore(engine.checkpoint())


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


def test_randomness_drawing_kernel_caught_at_first_draw():
    # An algorithm that *claims* the kernel contract but draws from the
    # RNG must fail loudly, not silently desynchronise the run stream.
    algorithm = minimum_algorithm()

    def drawing_step(states, rng):
        rng.random()
        return [min(states)] * len(states)

    algorithm.group_step = drawing_step
    algorithm.kernel = "average"  # any non-int kernel takes the python path
    engine = ArrayEngine(
        algorithm,
        StaticEnvironment(complete_graph(4)),
        initial_values=[4, 3, 2, 1],
        seed=0,
    )
    with pytest.raises(SimulationError, match="drew randomness"):
        next(engine.steps())


def test_stale_lazy_round_record_refuses_to_snapshot():
    engine = _build(ArrayEngine, "minimum", seed=1)
    record = next(engine.steps())
    _ = record.multiset  # current: fine
    engine.reset()  # any maintained-bag mutation invalidates the record
    with pytest.raises(SimulationError, match="no longer reflects"):
        _ = record.multiset


def test_mid_round_exception_keeps_maintained_state_in_sync(monkeypatch):
    # A later group raising mid-round must leave the maintained bag
    # reflecting the states earlier groups already installed (the same
    # contract the reference engine pins in test_incremental_parity).
    # Forcing the python path: the numpy kernel never calls group_step,
    # so only the object path can hit a mid-round exception.
    from repro.agents.group import Group
    from repro.agents.scheduler import Scheduler
    from repro.core.multiset import Multiset

    monkeypatch.setattr(array_engine_module, "HAVE_NUMPY", False)

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
    )
    with pytest.raises(RuntimeError, match="injected fault"):
        next(engine.steps())
    # Group (0, 1) installed [3, 3] before group (2, 3) raised.
    assert engine.current_states() == [3, 3, 7, 99]
    assert engine.current_multiset() == Multiset([3, 3, 7, 99])


# -- history retention ------------------------------------------------------------


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


def test_history_none_never_snapshots_the_bag(monkeypatch):
    # The lazy record is the point of the design: under history="none"
    # nothing may read record.multiset, so the maintained bag is never
    # snapshotted during the round loop.
    engine = _build(ArrayEngine, "minimum", seed=2)
    snapshots = {"count": 0}
    original = type(engine._maintained).snapshot

    def counting_snapshot(self):
        snapshots["count"] += 1
        return original(self)

    monkeypatch.setattr(type(engine._maintained), "snapshot", counting_snapshot)
    engine.run(max_rounds=80, history="none")
    # initial_snapshot() takes one; the per-round loop must take none
    # (the driver builds the result's single-element trace from
    # current_states(), not from the bag).
    assert snapshots["count"] <= 2


# -- the numpy-only fast paths ----------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMPY, reason="requires numpy")
class TestVectorizedFastPaths:
    """The numpy-only shortcuts — the state-shared MT19937 churn advance,
    the vectorized component labelling and the deferred bag maintenance —
    are gated on exact types and flags.  These tests pin the gates and
    the equivalences directly (the parity matrix above covers them end to
    end against the reference engine)."""

    def test_fast_paths_engage_on_the_flagship_configuration(self):
        engine = _build(ArrayEngine, "minimum")
        assert engine._backend == "numpy"
        assert engine._churn_bypass
        assert engine._fast_fold

    def test_fast_paths_disengage_under_cross_check(self):
        engine = _build(ArrayEngine, "minimum", cross_check=True)
        assert not engine._churn_bypass
        assert not engine._fast_fold

    def _paired_engines(self, seed=7):
        """One engine with the churn bypass, one with it gated off by an
        environment *subclass* (which must run the real advance), on the
        identical workload and seed."""

        class SubclassedChurn(RandomChurnEnvironment):
            pass

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
        assert fast._churn_bypass
        assert not slow._churn_bypass
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
            assert fast._rng.getstate() == slow._rng.getstate()

    def test_labelling_serves_environments_without_vectorized_draws(
        self, monkeypatch
    ):
        # Markov churn advances through the environment itself, but its
        # maximal partition is still labelled as arrays, once per round,
        # from the state's effective edges.
        engine = _build(ArrayEngine, "minimum", environment_name="markov")
        assert engine._maximal_bypass and not engine._churn_bypass
        label = array_engine_module._label_components
        calls = []

        def counting_label(u, v, enabled_count):
            calls.append(enabled_count)
            return label(u, v, enabled_count)

        monkeypatch.setattr(array_engine_module, "_label_components", counting_label)
        result = engine.run(max_rounds=80, extra_rounds_after_convergence=2)
        assert len(calls) == result.rounds_executed
        reference = _build(Simulator, "minimum", environment_name="markov").run(
            max_rounds=80, extra_rounds_after_convergence=2
        )
        _assert_identical(result, reference)

    def test_cross_check_catches_a_diverging_labelling(self, monkeypatch):
        label = array_engine_module._label_components

        def miscounting_label(u, v, enabled_count):
            flat, offsets, sizes, group_steps, largest = label(u, v, enabled_count)
            return flat, offsets, sizes, group_steps + 1, largest

        monkeypatch.setattr(
            array_engine_module, "_label_components", miscounting_label
        )
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
        assert engine._fast_fold
        for record in engine.steps(40):
            expected = engine.current_multiset() == engine.target
            assert engine._vectorized_converged() == expected
            assert record.converged == expected
