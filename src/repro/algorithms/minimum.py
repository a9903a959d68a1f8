"""Minimum of a set (§4.1) — the paper's introductory consensus example.

Every agent ``a`` holds a single non-negative integer ``x_a``; the goal is
for every agent to end up holding the minimum of the initial values.

* **Distributed function** ``f``: replace every element of the multiset by
  the multiset's minimum, e.g. ``f({3, 5, 3, 7}) = {3, 3, 3, 3}``.  It is
  of the form ``◦X`` for the commutative, associative "both take the min"
  operator, hence super-idempotent.
* **Objective** ``h(S) = Σ_a x_a`` — summation form, integer valued,
  non-negative (the paper assumes ``x_a ≥ 0``), hence well-founded.
* **Step rule** ``R``: all agents of a group adopt the group's minimum
  (the paper allows adopting any value between the current value and the
  group minimum; :func:`minimum_algorithm` exposes that laxer rule through
  the ``partial`` flag).
* **Environment assumption** ``Q``: any connected graph ``E`` suffices.
"""

from __future__ import annotations

import random
from typing import Hashable, Sequence

from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SpecificationError
from ..core.functions import DistributedFunction
from ..core.multiset import Multiset
from ..core.objective import SummationObjective, exact_int64_sum
from ..core.relation import STUTTER_JUDGEMENT, StepJudgement, StepKind
from ..registry import register_algorithm

__all__ = ["minimum_function", "minimum_objective", "minimum_algorithm", "minimum_merge"]


def minimum_function() -> DistributedFunction:
    """The paper's ``f`` for the minimum problem."""

    def transform(states: Multiset) -> Multiset:
        if not states:
            return Multiset.empty()
        smallest = states.min()
        return Multiset({smallest: len(states)})

    return DistributedFunction(
        name="minimum",
        transform=transform,
        description="replace every value by the multiset minimum",
    )


def minimum_objective() -> SummationObjective:
    """The paper's ``h(S) = Σ_a x_a`` objective (summation form)."""
    return SummationObjective(
        name="sum of values",
        per_agent=lambda value: value,
        lower_bound=0.0,
        exact_delta=True,
        description="h(S) = sum of agent values; minimized when all hold the minimum",
        array_delta_fn=lambda removed, added: (
            exact_int64_sum(added) - exact_int64_sum(removed)
        ),
    )


def _minimum_fast_judge(states_before, states_after):
    """Exact hot-path judge for the minimum relation (see ``fast_judge``).

    ``f`` maps a bag to ``{min}^{|bag|}`` and ``h`` is the plain sum, so
    for integer states the full judgement is reproducible from three C
    builtins.  Non-integer states (or a conservation violation, which the
    full judge should diagnose with its proper error detail) fall back by
    returning None.  Integer-only matters for exactness: the objective
    sums the *bag* (equal values grouped), and float addition would be
    order-sensitive.
    """
    if len(states_before) == 2 and len(states_after) == 2:
        # Pair steps dominate sparse rounds; everything below is a
        # branch-for-branch unrolling of the generic path.
        before_0, before_1 = states_before
        after_0, after_1 = states_after
        if (
            type(before_0) is not int
            or type(before_1) is not int
            or type(after_0) is not int
            or type(after_1) is not int
        ):
            return None
        if after_0 == before_1 and after_1 == before_0:
            # Element-wise equality was ruled out by the caller; the only
            # other bag-equal layout is the swap.
            return STUTTER_JUDGEMENT
        minimum_before = before_0 if before_0 < before_1 else before_1
        minimum_after = after_0 if after_0 < after_1 else after_1
        if minimum_before != minimum_after:
            return None
        h_before = before_0 + before_1
        h_after = after_0 + after_1
        if h_after < h_before:
            return StepJudgement(StepKind.IMPROVEMENT, h_before, h_after)
        return StepJudgement(StepKind.NOT_AN_IMPROVEMENT, h_before, h_after)
    for value in states_before:
        if type(value) is not int:
            return None
    for value in states_after:
        if type(value) is not int:
            return None
    if sorted(states_before) == sorted(states_after):
        return STUTTER_JUDGEMENT
    if min(states_before) != min(states_after):
        return None
    h_before = sum(states_before)
    h_after = sum(states_after)
    if h_after < h_before:
        return StepJudgement(StepKind.IMPROVEMENT, h_before, h_after)
    return StepJudgement(StepKind.NOT_AN_IMPROVEMENT, h_before, h_after)


def _check_non_negative(value: int) -> int:
    if value < 0:
        raise SpecificationError(
            "the minimum example assumes non-negative initial values "
            f"(got {value}); shift the inputs or use a different objective"
        )
    return value


@register_algorithm("minimum")
def minimum_algorithm(partial: bool = False) -> SelfSimilarAlgorithm:
    """Build the self-similar minimum-consensus algorithm.

    Parameters
    ----------
    partial:
        When False (default), every group step makes all members adopt the
        group minimum — the fastest refinement of ``D``.  When True, each
        member adopts a uniformly random value between the group minimum
        and its current value — a slower but equally correct refinement,
        used in tests to demonstrate that the whole class of refinements
        converges.
    """

    def group_step(
        states: Sequence[Hashable], rng: random.Random
    ) -> Sequence[Hashable]:
        if len(states) <= 1:
            return list(states)
        group_minimum = min(states)
        if partial:
            new_states = []
            for value in states:
                if value == group_minimum:
                    new_states.append(value)
                else:
                    new_states.append(rng.randint(group_minimum, value))
            # Guarantee progress: at least one non-minimal member must move,
            # otherwise the step would change nothing while work remains.
            if new_states == list(states) and any(v != group_minimum for v in states):
                index = max(range(len(states)), key=lambda i: states[i])
                new_states[index] = group_minimum
            return new_states
        return [group_minimum] * len(states)

    return SelfSimilarAlgorithm(
        name="minimum (partial updates)" if partial else "minimum",
        function=minimum_function(),
        objective=minimum_objective(),
        group_step=group_step,
        make_initial_state=_check_non_negative,
        read_output=lambda states: states.min(),
        super_idempotent=True,
        environment_requirement="connected",
        singleton_stutters=True,
        fast_judge=_minimum_fast_judge,
        description="consensus on the minimum of the initial values (§4.1)",
        # The partial variant draws randomness in its step rule, so only
        # the full-adoption step is a vectorizable kernel.
        kernel=None if partial else "minimum",
    )


def minimum_merge(receiver: int, received: int) -> int:
    """One-sided merge for asynchronous message passing: keep the smaller value."""
    return received if received < receiver else receiver
