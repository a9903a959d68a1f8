"""Tests for the declarative experiment layer (specs, builder, JSON)."""

from __future__ import annotations

import pytest

from repro import (
    Experiment,
    ExperimentSpec,
    Simulator,
    expand_grid,
    minimum_algorithm,
    sorting_algorithm,
    summation_algorithm,
)
from repro.agents import RandomPairScheduler
from repro.core.errors import SpecificationError
from repro.environment import (
    RandomChurnEnvironment,
    RandomWaypointEnvironment,
    RotatingPartitionAdversary,
    StaticEnvironment,
    complete_graph,
    line_graph,
)

VALUES = [5, 3, 9, 1, 7, 2, 8, 4]


def minimum_spec(**overrides) -> ExperimentSpec:
    base = dict(
        algorithm="minimum",
        environment="churn",
        environment_params={"topology": "complete", "edge_up_probability": 0.3},
        initial_values=tuple(VALUES),
        seeds=(0, 1, 2),
        max_rounds=500,
    )
    base.update(overrides)
    return ExperimentSpec(**base).validate()


class TestValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SpecificationError, match="unknown algorithm"):
            minimum_spec(algorithm="frobnicate")

    def test_unknown_environment_rejected(self):
        with pytest.raises(SpecificationError, match="unknown environment"):
            minimum_spec(environment="frobnicate")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SpecificationError, match="unknown scheduler"):
            minimum_spec(scheduler="frobnicate")

    def test_unknown_topology_rejected(self):
        with pytest.raises(SpecificationError, match="unknown graph"):
            minimum_spec(environment_params={"topology": "moebius"})

    def test_values_and_generator_are_exclusive(self):
        with pytest.raises(SpecificationError, match="exactly one"):
            minimum_spec(value_generator="random-integers")
        with pytest.raises(SpecificationError, match="exactly one"):
            minimum_spec(initial_values=None)

    def test_seeds_must_be_integers(self):
        with pytest.raises(SpecificationError, match="seeds"):
            minimum_spec(seeds=("zero",))

    def test_max_rounds_positive(self):
        with pytest.raises(SpecificationError, match="max_rounds"):
            minimum_spec(max_rounds=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"max_rounds": "10"}, "max_rounds must be an integer, got '10'"),
            ({"max_rounds": 2.5}, "max_rounds must be an integer, got 2.5"),
            ({"max_rounds": True}, "max_rounds must be an integer, got True"),
            (
                {"extra_rounds_after_convergence": "2"},
                "extra_rounds_after_convergence must be an integer",
            ),
            ({"seeds": (True,)}, "seeds must be integers"),
            (
                {"stop_at_convergence": "false"},
                "stop_at_convergence must be true or false, got 'false'",
            ),
            ({"record_trace": 0}, "record_trace must be true or false, got 0"),
        ],
    )
    def test_scalar_fields_are_type_checked(self, overrides, message):
        # JSON from outside the program: a wrong type is a
        # SpecificationError, never a TypeError or a truthy string.
        with pytest.raises(SpecificationError, match=message):
            minimum_spec(**overrides)


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        spec = minimum_spec(name="round-trip")
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_is_exact(self):
        spec = minimum_spec(scheduler="random-pair", scheduler_params={})
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecificationError, match="unknown experiment spec fields"):
            ExperimentSpec.from_dict({"algorithm": "minimum", "wat": 1})

    def test_missing_algorithm_rejected(self):
        with pytest.raises(SpecificationError, match="algorithm"):
            ExperimentSpec.from_dict({"environment": "static"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecificationError, match="invalid experiment spec JSON"):
            ExperimentSpec.from_json("{nope")

    def test_tuples_become_lists_in_dict_form(self):
        data = minimum_spec().to_dict()
        assert data["initial_values"] == list(VALUES)
        assert data["seeds"] == [0, 1, 2]

    def test_with_updates_dotted_path(self):
        spec = minimum_spec()
        updated = spec.with_updates(
            {"environment_params.edge_up_probability": 0.9, "max_rounds": 7}
        )
        assert updated.environment_params["edge_up_probability"] == 0.9
        assert updated.max_rounds == 7
        # the original is untouched (specs are frozen values)
        assert spec.environment_params["edge_up_probability"] == 0.3

    def test_with_updates_unknown_field_rejected(self):
        with pytest.raises(SpecificationError, match="unknown spec field"):
            minimum_spec().with_updates({"nope.thing": 1})


class TestHandWiredParity:
    """A spec must reproduce the hand-wired Simulator call, seed for seed."""

    def test_minimum_under_churn(self):
        spec = minimum_spec()
        for seed in spec.seeds:
            from_spec = spec.run(seed)
            hand_wired = Simulator(
                minimum_algorithm(),
                RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.3),
                VALUES,
                seed=seed,
            ).run(max_rounds=500)
            assert from_spec.output == hand_wired.output
            assert from_spec.convergence_round == hand_wired.convergence_round
            assert from_spec.final_states == hand_wired.final_states
            assert list(from_spec.trace) == list(hand_wired.trace)
            assert from_spec.objective_trajectory == hand_wired.objective_trajectory

    def test_sum_under_seeded_adversary(self):
        spec = ExperimentSpec(
            algorithm="sum",
            environment="rotating-partition",
            environment_params={"num_blocks": 2, "rotate_every": 3},
            initial_values=tuple(VALUES),
            max_rounds=2000,
        )
        # The environment takes a seed; the spec injects the run seed, the
        # hand-wired call passes it explicitly.
        for seed in (0, 5):
            from_spec = spec.run(seed)
            hand_wired = Simulator(
                summation_algorithm(),
                RotatingPartitionAdversary(
                    complete_graph(8), num_blocks=2, rotate_every=3, seed=seed
                ),
                VALUES,
                seed=seed,
            ).run(max_rounds=2000)
            assert from_spec.final_states == hand_wired.final_states
            assert from_spec.convergence_round == hand_wired.convergence_round

    def test_sorting_with_scheduler(self):
        spec = ExperimentSpec(
            algorithm="sorting",
            environment="static",
            environment_params={"topology": "line"},
            scheduler="random-pair",
            initial_values=(9, 2, 7, 1, 5),
            max_rounds=5000,
        )
        algorithm = sorting_algorithm([9, 2, 7, 1, 5])
        hand_wired = Simulator(
            algorithm,
            StaticEnvironment(line_graph(5)),
            algorithm.instance_cells,
            scheduler=RandomPairScheduler(),
            seed=3,
        ).run(max_rounds=5000)
        from_spec = spec.run(3)
        assert from_spec.output == hand_wired.output == [1, 2, 5, 7, 9]
        assert from_spec.convergence_round == hand_wired.convergence_round


class TestInstanceBoundAlgorithms:
    def test_sorting_deduplicates_and_adapts_values(self):
        spec = ExperimentSpec(
            algorithm="sorting",
            environment="static",
            environment_params={"topology": "line"},
            initial_values=(5, 2, 5, 1),
        )
        result = spec.run(0)
        assert result.converged and result.output == [1, 2, 5]

    def test_maximum_derives_upper_bound(self):
        spec = ExperimentSpec(
            algorithm="maximum", environment="static", initial_values=(4, 9, 2)
        )
        result = spec.run(0)
        assert result.converged and result.output == 9

    def test_hull_accepts_json_style_points(self):
        spec = ExperimentSpec.from_dict(
            {
                "algorithm": "hull",
                "environment": "static",
                "initial_values": [[0.0, 0.0], [4.0, 0.0], [2.0, 3.0], [2.0, 1.0]],
            }
        )
        result = spec.run(0)
        assert result.converged
        assert len(result.output) == 3  # the interior point is not a vertex

    def test_mobility_receives_num_agents(self):
        spec = ExperimentSpec(
            algorithm="minimum",
            environment="mobility",
            environment_params={"range_radius": 40.0},
            initial_values=(3, 1, 2),
            max_rounds=2000,
        )
        simulator = spec.build(0)
        assert isinstance(simulator.environment, RandomWaypointEnvironment)
        assert simulator.environment.num_agents == 3

    def test_topology_rejected_for_mobility(self):
        spec = ExperimentSpec(
            algorithm="minimum",
            environment="mobility",
            environment_params={"topology": "line"},
            initial_values=(3, 1, 2),
        )
        with pytest.raises(SpecificationError, match="topology"):
            spec.build(0)


class TestStochasticTopologies:
    def _spec(self, **topology):
        return ExperimentSpec(
            algorithm="minimum",
            environment="churn",
            environment_params={
                "topology": {"graph": "random-connected", **topology},
                "edge_up_probability": 0.5,
            },
            initial_values=(9, 5, 7, 3, 8, 1),
            max_rounds=500,
        )

    def test_random_graph_follows_run_seed(self):
        spec = self._spec(extra_edge_probability=0.3)
        # same run seed -> same topology -> same whole run
        assert spec.build(0).environment.topology.edges == spec.build(0).environment.topology.edges
        assert spec.run(0).objective_trajectory == spec.run(0).objective_trajectory

    def test_pinned_graph_seed_wins_over_run_seed(self):
        spec = self._spec(extra_edge_probability=0.3, seed=123)
        assert (
            spec.build(0).environment.topology.edges
            == spec.build(5).environment.topology.edges
        )


class TestValueGenerators:
    def test_generator_draws_instance(self):
        spec = ExperimentSpec(
            algorithm="minimum",
            environment="static",
            value_generator="random-integers",
            generator_params={"count": 6, "seed": 5},
        )
        values = spec.resolve_values(0)
        assert len(values) == 6 and all(0 <= v <= 99 for v in values)
        # pinned generator seed: the instance ignores the run seed
        assert spec.resolve_values(1) == values

    def test_unpinned_generator_follows_run_seed(self):
        spec = ExperimentSpec(
            algorithm="minimum",
            environment="static",
            value_generator="random-integers",
            generator_params={"count": 6},
        )
        assert spec.resolve_values(0) != spec.resolve_values(1)
        assert spec.resolve_values(2) == spec.resolve_values(2)

    @pytest.mark.parametrize(
        "generator, params, message",
        [
            (
                "random-integers",
                {"count": 5, "low": 9, "high": 4},
                r"random-integers: high \(4\) is below low \(9\)",
            ),
            (
                "random-integers",
                {"count": -3},
                "random-integers: count must be non-negative, got -3",
            ),
            (
                "random-integers",
                {"count": 5, "high": 9.5},
                "random-integers: high must be an integer, got 9.5",
            ),
            (
                "random-distinct-integers",
                {"count": 11, "low": 0, "high": 9},
                r"random-distinct-integers: count \(11\) exceeds the 10 "
                r"distinct integers in \[0, 9\]",
            ),
            (
                "random-distinct-integers",
                {"count": -1},
                "random-distinct-integers: count must be non-negative",
            ),
            (
                "random-points",
                {"count": -2},
                "random-points: count must be non-negative",
            ),
        ],
    )
    def test_bad_generator_parameters_are_specification_errors(
        self, generator, params, message
    ):
        # Each names the generator, from inside build(), instead of a bare
        # ValueError from random or an empty instance that fails later.
        spec = ExperimentSpec(
            algorithm="minimum",
            environment="static",
            value_generator=generator,
            generator_params=params,
        )
        with pytest.raises(SpecificationError, match=message):
            spec.build(0)


class TestBuilder:
    def test_fluent_chain_builds_valid_spec(self):
        spec = (
            Experiment.builder()
            .named("fluent")
            .algorithm("kth-smallest", k=2)
            .environment("churn", edge_up_probability=0.5)
            .topology("ring")
            .scheduler("random-subgroup", min_size=2, max_size=3)
            .values(4, 7, 1, 9, 3)
            .seeds(0, 1)
            .max_rounds(800)
            .build()
        )
        assert spec.name == "fluent"
        assert spec.algorithm_params == {"k": 2}
        assert spec.environment_params["topology"] == "ring"
        assert spec.scheduler_params == {"min_size": 2, "max_size": 3}
        assert spec.seeds == (0, 1)
        result = spec.run(0)
        assert result.converged and result.output == 3

    def test_topology_survives_environment_call(self):
        spec = (
            Experiment.builder()
            .algorithm("minimum")
            .topology("line")
            .environment("churn", edge_up_probability=0.6)
            .values(3, 1, 2)
            .build()
        )
        assert spec.environment_params["topology"] == "line"

    def test_builder_requires_algorithm(self):
        with pytest.raises(SpecificationError, match="algorithm"):
            Experiment.builder().values(1, 2).build()

    def test_experiment_wrapper_runs(self):
        experiment = (
            Experiment.builder()
            .algorithm("minimum")
            .environment("static")
            .values(4, 2, 6)
            .seeds(0, 1)
            .experiment()
        )
        results = experiment.run_all()
        assert [r.output for r in results] == [2, 2]


class TestExpandGrid:
    def test_cartesian_product_and_labels(self):
        base = minimum_spec(name="base")
        specs = expand_grid(
            base,
            {
                "environment_params.edge_up_probability": [0.1, 0.9],
                "scheduler": ["maximal", "random-pair"],
            },
        )
        assert len(specs) == 4
        assert specs[0].label == "base[edge_up_probability=0.1, scheduler=maximal]"
        assert {s.environment_params["edge_up_probability"] for s in specs} == {0.1, 0.9}
        assert {s.scheduler for s in specs} == {"maximal", "random-pair"}

    def test_empty_grid_entry_rejected(self):
        with pytest.raises(SpecificationError, match="no values"):
            expand_grid(minimum_spec(), {"max_rounds": []})
