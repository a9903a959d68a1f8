"""repro — self-similar algorithms for dynamic distributed systems.

A reproduction of K. Mani Chandy and Michel Charpentier, *Self-Similar
Algorithms for Dynamic Distributed Systems* (ICDCS 2007).

The library has five layers:

* :mod:`repro.core` — the mathematical machinery: multisets, distributed
  functions ``f`` (idempotence, super-idempotence), objective functions
  ``h``, the constrained-optimization relation ``D`` and the
  :class:`SelfSimilarAlgorithm` bundle;
* :mod:`repro.environment` / :mod:`repro.agents` — the system model:
  topologies, dynamic/adversarial/mobile environments, agents, groups and
  group schedulers;
* :mod:`repro.simulation` — the round-based simulator (and an asynchronous
  message-passing runtime) that executes the paper's transition relation
  and records traces;
* :mod:`repro.algorithms` — the paper's worked examples: minimum, sum,
  average, second smallest, k-th smallest, sorting, convex hull and the
  (unsound) direct circumscribing circle;
* :mod:`repro.verification` / :mod:`repro.baselines` — executable checks
  of the paper's proof obligations, and the classical baselines
  (snapshots, gossip, spanning trees) the paper contrasts itself with;
* :mod:`repro.registry` / :mod:`repro.experiment` — the declarative
  experiment layer: string-keyed registries of every algorithm,
  environment, scheduler and topology, and the frozen JSON-round-trippable
  :class:`ExperimentSpec` that names them, executed one run at a time or
  fanned out across a process pool by
  :class:`~repro.simulation.batch.BatchRunner`;
* :mod:`repro.faults` — deterministic fault injection (seeded
  :class:`FaultPlan` crash/corruption/flaky-transport schedules) and the
  self-healing it proves out: self-verifying checkpoints with
  generation fallback, retry policies with deterministic jitter, and the
  ``repro chaos`` byte-identical-recovery harness.

Quickstart (declarative — experiments as data)::

    from repro import Experiment

    spec = (Experiment.builder()
            .algorithm("minimum")
            .environment("churn", edge_up_probability=0.3)
            .values(5, 3, 9, 1, 7, 2, 8, 4)
            .seeds(0, 1, 2)
            .max_rounds(500)
            .build())
    result = spec.run(seed=0)
    assert result.converged and result.output == 1
    spec_json = spec.to_json()        # persist; later: repro run spec.json

Quickstart (hand-wired — direct object construction)::

    from repro import Simulator, minimum_algorithm
    from repro.environment import RandomChurnEnvironment, complete_graph

    algorithm = minimum_algorithm()
    environment = RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.3)
    simulator = Simulator(algorithm, environment,
                          initial_values=[5, 3, 9, 1, 7, 2, 8, 4], seed=42)
    result = simulator.run(max_rounds=500)
    assert result.converged and result.output == 1
"""

from .core import (
    ConservationViolation,
    DistributedFunction,
    ImprovementViolation,
    Multiset,
    ObjectiveFunction,
    OptimizationRelation,
    ReproError,
    SelfSimilarAlgorithm,
    SpecificationError,
    StepJudgement,
    StepKind,
    SummationObjective,
)
from .algorithms import (
    average_algorithm,
    circumscribing_circle_algorithm,
    convex_hull_algorithm,
    kth_smallest_algorithm,
    maximum_algorithm,
    minimum_algorithm,
    second_smallest_algorithm,
    sorting_algorithm,
    summation_algorithm,
)
from .simulation import (
    BatchResult,
    BatchRunner,
    CheckpointProbe,
    ConvergenceProbe,
    Engine,
    HistoryProbe,
    JSONLSink,
    MergeMessagePassingSimulator,
    ObjectiveProbe,
    Probe,
    RoundRecord,
    RunCheckpoint,
    SimulationResult,
    Simulator,
    StatsProbe,
    TemporalProbe,
    TemporalProperty,
    aggregate,
    resume_run,
    run_engine,
)
from .experiment import Experiment, ExperimentBuilder, ExperimentSpec, expand_grid
from .faults import (
    FaultCrashProbe,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    run_chaos,
)
from .registry import (
    ALGORITHMS as ALGORITHM_REGISTRY,
    ENVIRONMENTS as ENVIRONMENT_REGISTRY,
    GRAPHS as GRAPH_REGISTRY,
    PROBES as PROBE_REGISTRY,
    SCHEDULERS as SCHEDULER_REGISTRY,
    VALUE_GENERATORS as VALUE_GENERATOR_REGISTRY,
    available,
)

__version__ = "1.0.0"

__all__ = [
    "ConservationViolation",
    "DistributedFunction",
    "ImprovementViolation",
    "Multiset",
    "ObjectiveFunction",
    "OptimizationRelation",
    "ReproError",
    "SelfSimilarAlgorithm",
    "SpecificationError",
    "StepJudgement",
    "StepKind",
    "SummationObjective",
    "average_algorithm",
    "circumscribing_circle_algorithm",
    "convex_hull_algorithm",
    "kth_smallest_algorithm",
    "maximum_algorithm",
    "minimum_algorithm",
    "second_smallest_algorithm",
    "sorting_algorithm",
    "summation_algorithm",
    "MergeMessagePassingSimulator",
    "SimulationResult",
    "Simulator",
    "aggregate",
    "BatchResult",
    "BatchRunner",
    "RoundRecord",
    "Engine",
    "Probe",
    "HistoryProbe",
    "ObjectiveProbe",
    "ConvergenceProbe",
    "TemporalProbe",
    "TemporalProperty",
    "StatsProbe",
    "JSONLSink",
    "CheckpointProbe",
    "RunCheckpoint",
    "resume_run",
    "run_engine",
    "Experiment",
    "ExperimentBuilder",
    "ExperimentSpec",
    "expand_grid",
    "FaultCrashProbe",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "run_chaos",
    "ALGORITHM_REGISTRY",
    "ENVIRONMENT_REGISTRY",
    "GRAPH_REGISTRY",
    "PROBE_REGISTRY",
    "SCHEDULER_REGISTRY",
    "VALUE_GENERATOR_REGISTRY",
    "available",
    "__version__",
]
