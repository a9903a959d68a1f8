"""Average of a set — the sensor-fusion example from the problem statement.

The paper's problem specification (§3.1) uses averaging of sensor values
as its motivating instance: "If ``f`` computes the average of sensor
values then the specification requires that in a finite number of steps
``S`` becomes and remains the average of the initial values".  This module
provides that algorithm.

* **Distributed function** ``f``: replace every value by the multiset's
  mean.  It is super-idempotent: the mean (and cardinality) of
  ``f(X) ∪ Y`` equals that of ``X ∪ Y`` because replacing ``X`` by
  ``|X|`` copies of its mean preserves both the sum and the count.
* **Objective** ``h(S) = Σ_a x_a²`` — summation form and non-negative.
  Group steps conserve the group sum, and among states with a fixed sum
  the sum of squares is uniquely minimized when all values are equal
  (strict convexity), so ``h`` reaches its minimum exactly at the goal
  state.  Replacing a group's values by their common mean strictly
  decreases ``h`` unless the group already agrees.
* **Arithmetic**: values are :class:`fractions.Fraction` internally so
  that means are exact and the fixpoint test ``S = f(S)`` is a genuine
  equality, not a floating-point approximation.
* **Environment assumption** ``Q``: any connected graph suffices — means
  of overlapping groups mix information across the whole system, exactly
  like the minimum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from numbers import Rational
from typing import Hashable, Sequence

from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SpecificationError
from ..core.functions import DistributedFunction
from ..core.multiset import Multiset
from ..core.objective import SummationObjective
from ..registry import register_algorithm

__all__ = ["average_function", "average_objective", "average_algorithm"]


def average_function() -> DistributedFunction:
    """Replace every element of the multiset by the multiset's (exact) mean."""

    def transform(states: Multiset) -> Multiset:
        if not states:
            return Multiset.empty()
        total = Fraction(0)
        for value in states:
            total += Fraction(value)
        mean = total / len(states)
        return Multiset({mean: len(states)})

    return DistributedFunction(
        name="average",
        transform=transform,
        description="replace every value by the exact mean of the multiset",
    )


def average_objective() -> SummationObjective:
    """``h(S) = Σ_a x_a²``: minimized, for a fixed sum, when all values agree."""
    return SummationObjective(
        name="sum of squares",
        per_agent=lambda value: Fraction(value) * Fraction(value),
        lower_bound=0.0,
        exact_delta=True,
        description="h(S) = Σ x²; strictly convex, so equal values are optimal",
    )


@register_algorithm("average")
def average_algorithm() -> SelfSimilarAlgorithm:
    """Build the averaging-consensus algorithm (exact rational arithmetic)."""

    def make_initial_state(value) -> Fraction:
        if isinstance(value, float):
            if not value.is_integer():
                raise SpecificationError(
                    "pass exact inputs (int or Fraction) to the averaging algorithm; "
                    f"got the float {value!r} which cannot be averaged exactly"
                )
            return Fraction(int(value))
        if not isinstance(value, Rational):
            raise SpecificationError(
                f"averaging needs rational inputs, got {type(value).__name__}"
            )
        return Fraction(value)

    def group_step(
        states: Sequence[Hashable], rng: random.Random
    ) -> Sequence[Hashable]:
        if len(states) <= 1:
            return list(states)
        total = sum(states, Fraction(0))
        mean = total / len(states)
        return [mean] * len(states)

    return SelfSimilarAlgorithm(
        name="average",
        function=average_function(),
        objective=average_objective(),
        group_step=group_step,
        make_initial_state=make_initial_state,
        read_output=lambda states: (
            sum((Fraction(v) for v in states), Fraction(0)) / len(states)
            if len(states)
            else Fraction(0)
        ),
        super_idempotent=True,
        environment_requirement="connected",
        singleton_stutters=True,
        description="consensus on the exact average of the initial values (§3.1)",
    )
