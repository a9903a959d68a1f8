"""The textbook replay against the reference engine, over the registries.

:class:`~repro.verification.oracle.TextbookReplay` executes the paper's
round from its definitions; the reference
:class:`~repro.simulation.engine.Simulator` executes the same round
through its maintained state, the labeller's partition view, the
singleton and stutter shortcuts and quiet-round view reuse.  For every
registered algorithm × scheduler × environment, at eight agents and two
seeds, the two engines must produce equal round records (bag,
objective, convergence, groups, judgements, the four counts and the
largest group, round by round) and equal results — or raise the same
error.

Every combination builds: the registries' defaults serve, except for
the parameters below, which the factories require or the inputs must
satisfy.  The array engine is not in the matrix: it is compared with the
reference engine by its own parity suite.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ReproError
from repro.environment import base
from repro.environment.base import EnvironmentState
from repro.experiment import ExperimentSpec
from repro.registry import ALGORITHMS, ENGINES, ENVIRONMENTS, SCHEDULERS
from repro.simulation.engine import Simulator
from repro.verification import TextbookReplay

#: Parameters an algorithm's factory requires (block sorting's block
#: count, the order statistic).
ALGORITHM_PARAMS = {
    "block-sorting": {"num_agents": 4},
    "kth-smallest": {"k": 2},
}

#: Parameters an environment's factory requires (the crashed agents).
ENVIRONMENT_PARAMS = {"targeted-crash": {"targets": [0, 3]}}

#: Inputs other than random integers: points for the geometric
#: algorithms, and distinct values for block sorting, whose objective
#: assumes them.
VALUE_GENERATORS = {
    "hull": "random-points",
    "circumscribing-circle": "random-points",
    "block-sorting": "random-distinct-integers",
}

SEEDS = (0, 1)


def _spec(algorithm: str, environment: str, scheduler: str) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=algorithm,
        algorithm_params=ALGORITHM_PARAMS.get(algorithm, {}),
        environment=environment,
        environment_params=ENVIRONMENT_PARAMS.get(environment, {}),
        scheduler=scheduler,
        value_generator=VALUE_GENERATORS.get(algorithm, "random-integers"),
        generator_params={"count": 8},
        seeds=SEEDS,
        max_rounds=40,
    )


def _outcome(spec: ExperimentSpec, seed: int, engine) -> tuple:
    """The run's result, its round records and the error it raised."""
    built = spec.build(seed)
    simulator = engine(
        built.algorithm,
        built.environment,
        built.initial_values,
        scheduler=built.scheduler,
        seed=built.seed,
    )
    records: list = []
    try:
        result = simulator.run(
            max_rounds=spec.max_rounds,
            extra_rounds_after_convergence=2,
            on_round=records.append,
        )
    except ReproError as error:
        return None, records, (type(error), str(error))
    return result.to_dict(True), records, None


@pytest.mark.parametrize("scheduler", SCHEDULERS.available())
@pytest.mark.parametrize("environment", ENVIRONMENTS.available())
@pytest.mark.parametrize("algorithm", ALGORITHMS.available())
def test_replay_equals_the_reference_engine(algorithm, environment, scheduler):
    spec = _spec(algorithm, environment, scheduler)
    for seed in SEEDS:
        result, records, error = _outcome(spec, seed, Simulator)
        replayed = _outcome(spec, seed, TextbookReplay)
        assert records, f"seed {seed}: no round ran"
        assert replayed[1] == records, f"seed {seed}: round records diverged"
        assert replayed[2] == error, f"seed {seed}: errors diverged"
        assert replayed[0] == result, f"seed {seed}: results diverged"


def test_replay_reads_no_labelling_and_adopts_no_views(monkeypatch):
    # The replay walks each state's components itself and takes every
    # state as it comes, so a fault in the labeller, the partition view
    # or quiet-round adoption cannot reach it.
    def refuse(*args, **kwargs):
        raise AssertionError("the textbook replay must not call this")

    spec = _spec("minimum", "churn", "maximal")
    expected = _outcome(spec, 0, TextbookReplay)
    monkeypatch.setattr(base, "label_components", refuse)
    monkeypatch.setattr(EnvironmentState, "component_partition", refuse)
    monkeypatch.setattr(EnvironmentState, "unchanged_from", refuse)
    monkeypatch.setattr(EnvironmentState, "_adopt_view_memos", refuse)
    assert _outcome(spec, 0, TextbookReplay) == expected


def test_replay_is_not_an_engine_a_spec_can_select():
    assert all(
        ENGINES.get(name) is not TextbookReplay for name in ENGINES.available()
    )
