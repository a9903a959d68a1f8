"""k-th smallest value — the generalisation the paper sketches in §4.3.

The paper notes that the pair trick used for the second smallest value
extends to the k-th smallest "with a drawback that will be even worse":
each agent must remember more values.  This module implements that
generalisation with a small change of representation that keeps the
bookkeeping clean and the super-idempotence argument one line:

* every agent holds the (sorted) tuple of the **k smallest distinct
  values it knows about**, initially the 1-tuple of its own value (the
  state may hold fewer than ``k`` values while fewer are known);
* ``f`` maps a multiset of such tuples to the multiset in which every
  tuple equals the k smallest distinct values appearing anywhere — a
  knowledge merge, hence super-idempotent for the same reason as the
  convex hull: merging already-merged knowledge with more knowledge gives
  the same result as merging everything at once;
* the objective pads each tuple to length ``k`` with a sentinel ``P``
  larger than any input and sums the entries,
  ``h_a(v) = Σ_i v_i + (k − |v|)·P``.  A merge can only improve each
  order statistic of an agent's knowledge, so ``h`` decreases on every
  state-changing step; it is summation form and non-negative.

For ``k = 2`` this is the paper's pair generalisation up to
representation (a freshly initialised agent holds ``(v,)`` rather than
``(v, v)``); the answer read out — the k-th smallest distinct value when
it exists, otherwise the largest known — matches §4.3's definition.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SpecificationError
from ..core.functions import DistributedFunction
from ..core.multiset import Multiset
from ..core.objective import SummationObjective
from ..registry import register_algorithm

__all__ = [
    "kth_smallest_of",
    "kth_smallest_function",
    "kth_smallest_objective",
    "kth_smallest_algorithm",
]

from .second_smallest import DEFAULT_VALUE_BOUND


def kth_smallest_of(values: Sequence[int] | Multiset, k: int) -> int:
    """The k-th smallest *distinct* value, or the largest distinct value when
    fewer than ``k`` distinct values exist (generalising §4.3's convention)."""
    distinct = sorted(set(values))
    if not distinct:
        raise SpecificationError("k-th smallest of an empty collection")
    return distinct[min(k, len(distinct)) - 1]


def _k_smallest_distinct(values, k: int) -> tuple[int, ...]:
    return tuple(sorted(set(values))[:k])


def kth_smallest_function(k: int) -> DistributedFunction:
    """Every tuple becomes the k smallest distinct values known anywhere."""

    def transform(states: Multiset) -> Multiset:
        if not states:
            return Multiset.empty()
        values: set[int] = set()
        for tuple_state in states:
            values.update(tuple_state)
        target = _k_smallest_distinct(values, k)
        return Multiset({target: len(states)})

    return DistributedFunction(
        name=f"{k} smallest distinct values",
        transform=transform,
        description="knowledge merge of the k smallest distinct values",
    )


def kth_smallest_objective(k: int, value_bound: int = DEFAULT_VALUE_BOUND) -> SummationObjective:
    """``h_a(v) = Σ_i v_i + (k − |v|)·P`` with ``P`` above the value range."""
    sentinel = value_bound + 1

    def per_agent(state: tuple[int, ...]) -> int:
        return sum(state) + (k - len(state)) * sentinel

    return SummationObjective(
        name=f"padded sum of {k} known values",
        per_agent=per_agent,
        lower_bound=0.0,
        exact_delta=True,
        description="missing knowledge counts as the sentinel; merges only improve it",
    )


@register_algorithm("kth-smallest")
def kth_smallest_algorithm(
    k: int, value_bound: int = DEFAULT_VALUE_BOUND
) -> SelfSimilarAlgorithm:
    """Build the k-th-smallest algorithm.

    Parameters
    ----------
    k:
        Which order statistic (by distinct values) to compute; ``k = 1`` is
        the minimum, ``k = 2`` the paper's second smallest.
    value_bound:
        Upper bound on input values (sizes the objective's sentinel).
    """
    if k < 1:
        raise SpecificationError(f"k must be at least 1, got {k}")

    def make_initial_state(value: int) -> tuple[int, ...]:
        if value < 0 or value > value_bound:
            raise SpecificationError(
                f"initial value {value} outside the supported range "
                f"0..{value_bound} (adjust value_bound if needed)"
            )
        return (value,)

    def group_step(
        states: Sequence[Hashable], rng: random.Random
    ) -> Sequence[Hashable]:
        if len(states) <= 1:
            return list(states)
        values: set[int] = set()
        for tuple_state in states:
            values.update(tuple_state)
        target = _k_smallest_distinct(values, k)
        return [target] * len(states)

    def read_output(states: Multiset):
        values: set[int] = set()
        for tuple_state in states:
            values.update(tuple_state)
        if not values:
            return None
        return kth_smallest_of(sorted(values), k)

    return SelfSimilarAlgorithm(
        name=f"{k}-th smallest",
        function=kth_smallest_function(k),
        objective=kth_smallest_objective(k, value_bound),
        group_step=group_step,
        make_initial_state=make_initial_state,
        read_output=read_output,
        super_idempotent=True,
        environment_requirement="connected",
        singleton_stutters=True,
        description="generalisation of §4.3 to the k-th smallest distinct value",
    )
