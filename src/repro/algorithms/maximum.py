"""Maximum of a set — the dual of the paper's minimum example.

The paper develops the minimum example in detail; the maximum is the
obvious dual and is included both because the examples and tests use it
and because it illustrates how the choice of objective depends on which
bound of the value range is known:

* ``f`` replaces every value by the multiset maximum (super-idempotent,
  same argument as the minimum);
* the natural objective ``h(S) = Σ_a (C − x_a)`` needs an upper bound
  ``C`` on the values to stay non-negative (well-founded); the factory
  takes that bound explicitly, mirroring how the paper's sorting and hull
  objectives use per-instance constants (``ord`` and the global
  perimeter ``P``).
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SpecificationError
from ..core.functions import DistributedFunction
from ..core.multiset import Multiset
from ..core.objective import SummationObjective, exact_int64_sum
from ..registry import register_algorithm


def _derive_upper_bound(params: dict, values: list) -> dict:
    """Default the declared upper bound to the largest initial value."""
    if "upper_bound" not in params and values:
        params = {"upper_bound": max(values), **params}
    return params

__all__ = ["maximum_function", "maximum_objective", "maximum_algorithm", "maximum_merge"]


def maximum_function() -> DistributedFunction:
    """Replace every element of the multiset by the multiset's maximum."""

    def transform(states: Multiset) -> Multiset:
        if not states:
            return Multiset.empty()
        largest = states.max()
        return Multiset({largest: len(states)})

    return DistributedFunction(
        name="maximum",
        transform=transform,
        description="replace every value by the multiset maximum",
    )


def maximum_objective(upper_bound: int) -> SummationObjective:
    """``h(S) = Σ_a (upper_bound − x_a)``, well-founded for values ≤ upper_bound."""
    return SummationObjective(
        name=f"slack below {upper_bound}",
        per_agent=lambda value: upper_bound - value,
        lower_bound=0.0,
        exact_delta=True,
        description="h(S) = total distance of values below the declared upper bound",
        # Σ(C − added) − Σ(C − removed), with the C terms counted once.
        array_delta_fn=lambda removed, added: (
            (len(added) - len(removed)) * upper_bound
            + exact_int64_sum(removed)
            - exact_int64_sum(added)
        ),
    )


@register_algorithm("maximum", prepare=_derive_upper_bound)
def maximum_algorithm(upper_bound: int) -> SelfSimilarAlgorithm:
    """Build the maximum-consensus algorithm.

    Parameters
    ----------
    upper_bound:
        A value no initial input exceeds.  Violations are caught either at
        initialisation (negative slack) or by the run-time objective guard.
    """

    def make_initial_state(value: int) -> int:
        if value > upper_bound:
            raise SpecificationError(
                f"initial value {value} exceeds the declared upper bound {upper_bound}"
            )
        return value

    def group_step(
        states: Sequence[Hashable], rng: random.Random
    ) -> Sequence[Hashable]:
        if len(states) <= 1:
            return list(states)
        return [max(states)] * len(states)

    return SelfSimilarAlgorithm(
        name="maximum",
        function=maximum_function(),
        objective=maximum_objective(upper_bound),
        group_step=group_step,
        make_initial_state=make_initial_state,
        read_output=lambda states: states.max(),
        super_idempotent=True,
        environment_requirement="connected",
        singleton_stutters=True,
        description="consensus on the maximum of the initial values (dual of §4.1)",
        kernel="maximum",
    )


def maximum_merge(receiver: int, received: int) -> int:
    """One-sided merge for asynchronous message passing: keep the larger value."""
    return received if received > receiver else receiver
