"""Sum of a set (§4.2) — the paper's non-consensus example.

Computing the sum cannot be phrased as a consensus ("every agent adopts
the sum") because that function is not idempotent: if each agent replaces
its value by the global sum, the sum itself changes.  The paper instead
requires that *one* agent end up holding the sum while every other agent
holds zero:

* **Distributed function** ``f``: ``f({3, 5, 3, 7}) = {18, 0, 0, 0}`` —
  the sum with multiplicity one and zero with multiplicity ``N − 1``.
  Defined by the commutative, associative operator "add the two values
  into one slot and keep a zero in the other", hence super-idempotent.
* **Objective** ``h(S) = (Σ_a x_a)² − Σ_a x_a²``.  Because group steps
  conserve the group sum, decreasing ``h`` is the same as *increasing*
  ``Σ x_a²`` — values move away from each other (small ones shrink, large
  ones grow), which drives all the mass into a single agent.  ``h`` is
  non-negative (Cauchy–Schwarz for non-negative values) and integer
  valued, hence well-founded.
* **Step rule** ``R``: a group pours every member's value into one member
  (the one currently holding the largest value; ties broken by agent
  order) and zeroes the others.  Partial transfers are also valid
  refinements; :func:`summation_algorithm` exposes them via ``partial``.
* **Environment assumption** ``Q``: a complete graph — zero agents carry
  no information, so the eventual collector must meet every other
  non-zero agent directly; the weakest value-independent assumption is
  that every pair of agents communicates infinitely often.  Experiment E2
  measures what actually happens on sparser graphs.

The objective ``h`` is *not* literally of the summation form (8) — the
``(Σ x)²`` term couples the agents — but on the states that matter it
behaves like one: group steps conserve the group sum, so within any group
``h`` decreases exactly when the summation-form quantity ``Σ x²``
increases, and disjoint-group improvements therefore still compose
(property (7)).  The implementation uses the paper's ``h`` verbatim and
relies on the conservation law (enforced at run time) for this argument
to apply.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SpecificationError
from ..core.functions import DistributedFunction
from ..core.multiset import Multiset
from ..core.objective import ObjectiveFunction, exact_int64_sum
from ..registry import register_algorithm

__all__ = ["sum_function", "sum_objective", "summation_algorithm"]

#: ``isqrt(2**63 - 1)``: the largest magnitude whose square fits int64.
_INT64_SQUARE_LIMIT = 3_037_000_499


def sum_function() -> DistributedFunction:
    """The paper's ``f``: one agent gets the sum, the rest get zero."""

    def transform(states: Multiset) -> Multiset:
        if not states:
            return Multiset.empty()
        total = states.sum()
        return Multiset([total] + [0] * (len(states) - 1))

    return DistributedFunction(
        name="sum",
        transform=transform,
        description="concentrate the total in one agent, zero elsewhere",
    )


def sum_objective() -> ObjectiveFunction:
    """The paper's ``h(S) = (Σ x)² − Σ x²`` objective."""

    def evaluate(states: Multiset) -> float:
        total = states.sum()
        squares = sum(value * value for value in states)
        return total * total - squares

    def delta(removed, added) -> int:
        # The conservation law fixes Σx, so only the Σx² term moves:
        # Δh = −Δ(Σx²) = Σ removed² − Σ added².  Exact (integers).  The
        # engine applies deltas only on rounds whose every step stayed in
        # ``D`` (conservation held), which is exactly when this is valid.
        return sum(value * value for value in removed) - sum(
            value * value for value in added
        )

    def array_delta(removed, added) -> int:
        return _sum_of_squares(removed) - _sum_of_squares(added)

    return ObjectiveFunction(
        name="(sum)^2 - sum of squares",
        evaluate=evaluate,
        lower_bound=0.0,
        summation_form=False,
        delta_fn=delta,
        description=(
            "h(S) = (Σ x)² − Σ x²; with group sums conserved, decreasing h is "
            "equivalent to increasing the summation-form Σ x²"
        ),
        array_delta_fn=array_delta,
    )


def _sum_of_squares(values) -> int:
    """``Σ x²`` of an ``int64`` array, exactly: squared in int64 when every
    square fits, as Python ints otherwise."""
    if not len(values):
        return 0
    if -_INT64_SQUARE_LIMIT <= values.min() and values.max() <= _INT64_SQUARE_LIMIT:
        return exact_int64_sum(values * values)
    return sum(value * value for value in values.tolist())


@register_algorithm("sum")
def summation_algorithm(partial: bool = False) -> SelfSimilarAlgorithm:
    """Build the self-similar sum algorithm.

    Parameters
    ----------
    partial:
        When False (default) a group concentrates all of its value into a
        single member per step.  When True, the group instead transfers
        the *smallest* non-zero member's value to the *largest* member —
        a slower refinement that exercises the "values move away from each
        other" strategy the paper describes.
    """

    def make_initial_state(value: int) -> int:
        if value < 0:
            raise SpecificationError(
                f"the sum example assumes non-negative initial values (got {value})"
            )
        return value

    def concentrate(states: Sequence[Hashable]) -> list[Hashable]:
        collector = max(range(len(states)), key=lambda i: (states[i], -i))
        new_states = [0] * len(states)
        new_states[collector] = sum(states)
        return new_states

    def transfer(states: Sequence[Hashable]) -> list[Hashable]:
        non_zero = [i for i, value in enumerate(states) if value > 0]
        if len(non_zero) <= 1:
            return list(states)
        donor = min(non_zero, key=lambda i: (states[i], i))
        collector = max(
            (i for i in non_zero if i != donor), key=lambda i: (states[i], -i)
        )
        new_states = list(states)
        new_states[collector] += new_states[donor]
        new_states[donor] = 0
        return new_states

    def group_step(
        states: Sequence[Hashable], rng: random.Random
    ) -> Sequence[Hashable]:
        if len(states) <= 1:
            return list(states)
        non_zero = sum(1 for value in states if value > 0)
        if non_zero <= 1:
            return list(states)
        return transfer(states) if partial else concentrate(states)

    return SelfSimilarAlgorithm(
        name="sum (pairwise transfers)" if partial else "sum",
        function=sum_function(),
        objective=sum_objective(),
        group_step=group_step,
        make_initial_state=make_initial_state,
        read_output=lambda states: states.max() if len(states) else 0,
        super_idempotent=True,
        environment_requirement="complete",
        singleton_stutters=True,
        description="concentrate the sum of the initial values in one agent (§4.2)",
        # Only the concentrate step ships as a vectorized kernel; the
        # pairwise-transfer variant stays a reference-engine exercise.
        kernel=None if partial else "sum",
    )
