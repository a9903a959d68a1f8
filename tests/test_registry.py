"""Tests for the string-keyed registries behind the declarative API."""

from __future__ import annotations

import pytest

import repro  # noqa: F401 - importing the package populates the registries
from repro.agents import MaximalGroupsScheduler
from repro.core.errors import SpecificationError
from repro.environment import RandomChurnEnvironment, StaticEnvironment, Topology
from repro.registry import (
    ALGORITHMS,
    ENVIRONMENTS,
    GRAPHS,
    SCHEDULERS,
    VALUE_GENERATORS,
    Registry,
    available,
)


class TestPopulation:
    """The concrete modules register everything the paper implements."""

    def test_all_algorithm_factories_registered(self):
        assert set(ALGORITHMS.available()) >= {
            "minimum",
            "maximum",
            "sum",
            "average",
            "second-smallest",
            "second-smallest-direct",
            "kth-smallest",
            "sorting",
            "block-sorting",
            "hull",
            "circumscribing-circle",
        }

    def test_all_environment_classes_registered(self):
        assert set(ENVIRONMENTS.available()) >= {
            "static",
            "churn",
            "markov-churn",
            "duty-cycle",
            "rotating-partition",
            "targeted-crash",
            "blackout",
            "edge-budget",
            "mobility",
        }

    def test_all_schedulers_registered(self):
        assert SCHEDULERS.available() == [
            "maximal",
            "random-pair",
            "random-subgroup",
            "single-group",
        ]

    def test_graph_constructors_registered(self):
        assert set(GRAPHS.available()) >= {"complete", "line", "ring", "grid", "tree"}

    def test_value_generators_registered(self):
        assert set(VALUE_GENERATORS.available()) >= {
            "random-integers",
            "random-distinct-integers",
            "random-points",
        }

    def test_available_reports_every_kind(self):
        report = available()
        assert set(report) == {
            "algorithms",
            "environments",
            "schedulers",
            "engines",
            "graphs",
            "value_generators",
            "probes",
        }
        assert all(names == sorted(names) for names in report.values())


class TestBuild:
    def test_build_algorithm_with_params(self):
        algorithm = ALGORITHMS.build("kth-smallest", k=2)
        assert "2" in algorithm.name or "second" in algorithm.name.lower()

    def test_build_scheduler(self):
        scheduler = SCHEDULERS.build("maximal")
        assert isinstance(scheduler, MaximalGroupsScheduler)

    def test_build_environment_with_topology(self):
        topology = GRAPHS.build("complete", num_agents=5)
        assert isinstance(topology, Topology)
        environment = ENVIRONMENTS.build(
            "churn", topology=topology, edge_up_probability=0.4
        )
        assert isinstance(environment, RandomChurnEnvironment)
        assert environment.num_agents == 5

    def test_registered_factory_is_unwrapped(self):
        # Registration must not alter direct imports: the registered
        # object IS the class / function call sites use.
        assert ENVIRONMENTS.get("static") is StaticEnvironment

    def test_unknown_name_reports_available(self):
        with pytest.raises(SpecificationError, match="maximal"):
            SCHEDULERS.build("frobnicate")

    def test_bad_parameters_report_entry(self):
        with pytest.raises(SpecificationError, match="kth-smallest"):
            ALGORITHMS.build("kth-smallest", nonsense=1)

    def test_rejected_parameter_value_reports_entry(self):
        # A factory's ValueError is a bad spec, reported like a TypeError.
        with pytest.raises(SpecificationError, match="'random-subgroup'.*min_size"):
            SCHEDULERS.build("random-subgroup", min_size=0)

    def test_accepts_inspects_signature(self):
        assert ENVIRONMENTS.accepts("rotating-partition", "seed")
        assert not ENVIRONMENTS.accepts("static", "seed")


class TestRegistryMechanics:
    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a")(lambda: 1)
        with pytest.raises(SpecificationError, match="duplicate"):
            registry.register("a")(lambda: 2)

    def test_empty_name_rejected(self):
        registry = Registry("thing")
        with pytest.raises(SpecificationError):
            registry.register("")

    def test_contains_iter_len(self):
        registry = Registry("thing")
        registry.register("b")(lambda: 2)
        registry.register("a")(lambda: 1)
        assert "a" in registry and "missing" not in registry
        assert list(registry) == ["a", "b"]
        assert len(registry) == 2

    def test_entry_summary_is_docstring_first_line(self):
        entry = ALGORITHMS.entry("minimum")
        assert entry.summary.startswith("Build the self-similar minimum")
