"""Core abstractions of the self-similar methodology.

This package contains the paper's mathematical machinery, independent of
any particular environment or simulator:

* :mod:`repro.core.multiset` — the bag algebra agent states live in;
* :mod:`repro.core.functions` — distributed functions ``f`` and the
  idempotence / super-idempotence properties;
* :mod:`repro.core.objective` — variant (objective) functions ``h``;
* :mod:`repro.core.relation` — the constrained-optimization relations
  ``B`` and ``D``;
* :mod:`repro.core.algorithm` — the :class:`SelfSimilarAlgorithm` bundle;
* :mod:`repro.core.errors` — the library's exception hierarchy.
"""

from .algorithm import GroupStepRule, SelfSimilarAlgorithm
from .errors import (
    ConservationViolation,
    ImprovementViolation,
    NotSuperIdempotentError,
    ReproError,
    SimulationError,
    SpecificationError,
    VerificationError,
)
from .functions import (
    DistributedFunction,
    check_idempotent,
    check_single_element_super_idempotence,
    check_super_idempotent,
    find_idempotence_counterexample,
    find_super_idempotence_counterexample,
    from_commutative_operator,
    random_multisets,
)
from .multiset import Multiset
from .objective import ObjectiveFunction, SummationObjective
from .relation import OptimizationRelation, StepJudgement, StepKind

__all__ = [
    "GroupStepRule",
    "SelfSimilarAlgorithm",
    "ConservationViolation",
    "ImprovementViolation",
    "NotSuperIdempotentError",
    "ReproError",
    "SimulationError",
    "SpecificationError",
    "VerificationError",
    "DistributedFunction",
    "check_idempotent",
    "check_single_element_super_idempotence",
    "check_super_idempotent",
    "find_idempotence_counterexample",
    "find_super_idempotence_counterexample",
    "from_commutative_operator",
    "random_multisets",
    "Multiset",
    "ObjectiveFunction",
    "SummationObjective",
    "OptimizationRelation",
    "StepJudgement",
    "StepKind",
]
