"""Objective (variant) functions.

The methodology pairs the distributed function ``f`` with a *variant
function* ``h`` over agent states whose range is well-founded and which
every state-changing group step strictly decreases.  The combination —
conserve ``f``, decrease ``h`` — is the constrained-optimization relation
``D`` of §3.6.

Two properties of ``h`` matter:

* **well-foundedness** — there is no infinite strictly-decreasing chain, so
  agents cannot improve forever; in this library objective values are
  numbers bounded below (non-negative by default), which suffices for the
  integer-valued objectives of the paper's examples and is checked at run
  time for the real-valued hull objective via a minimum-decrease quantum;
* **local-to-global improvement** (property (7)) — improvements by disjoint
  groups compose into an improvement of the union.  The paper's Lemma (8)
  gives a simple sufficient condition: ``h`` has *summation form*,
  ``h(S_B) = Σ_{a ∈ B} h_a(S_a)``.  :class:`SummationObjective` implements
  exactly that form; :class:`ObjectiveFunction` is the general interface
  used by the verification layer to exhibit Figure 1's counterexample (an
  objective *without* summation form that violates (7)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from .errors import SpecificationError
from .multiset import Multiset

__all__ = ["ObjectiveFunction", "SummationObjective", "exact_int64_sum"]


def exact_int64_sum(values: Any) -> int:
    """``Σ values`` of a numpy ``int64`` array, exactly, as a Python int.

    Summing the array directly wraps around once the total leaves the
    int64 range.  Summing the high and low 32-bit halves separately
    cannot: the high halves lie in ``[-2**31, 2**31)`` and the low
    halves in ``[0, 2**32)``, so for any array shorter than ``2**31``
    elements both partial sums stay inside int64, and recombining them as
    Python ints is exact.  Only array methods are used, so this module
    never imports numpy.
    """
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


@dataclass
class ObjectiveFunction:
    """A variant function ``h`` from multisets of agent states to numbers.

    Parameters
    ----------
    name:
        Human-readable name for logs and benchmark output.
    evaluate:
        The underlying function from a multiset of agent states to a number.
    lower_bound:
        A value that ``h`` can never go below.  Used as a cheap run-time
        guard for well-foundedness; the paper's integer objectives use 0.
    minimum_decrease:
        The smallest decrease that counts as an improvement.  Integer
        objectives use 1 (any strict decrease is at least 1); real-valued
        objectives (the hull perimeter objective) use a small positive
        quantum so that infinite chains of vanishing improvements — which
        would defeat well-foundedness — are rejected.
    summation_form:
        True when ``h`` is known to have the paper's summation form (8),
        hence satisfies the local-to-global improvement property.
    delta_fn:
        Optional incremental evaluator ``(removed, added) -> Δh``: given
        the states removed from and added to the bag, return the exact
        change of ``h``.  Only supply one when the arithmetic is exact
        (integers, Fractions, integer-valued floats), so that
        ``h_before + Δh`` is bit-identical to a full recomputation — the
        simulation engine relies on this to keep its runs byte-identical
        to the textbook replay, which recomputes ``h`` every round.
    array_delta_fn:
        Optional array form of ``delta_fn`` for the array engine:
        ``(removed, added) -> Δh`` over numpy ``int64`` arrays, returning
        exactly ``delta_fn(removed.tolist(), added.tolist())`` as a
        Python int (see :func:`exact_int64_sum`).
    """

    name: str
    evaluate: Callable[[Multiset], float]
    lower_bound: float = 0.0
    minimum_decrease: float = 0.0
    summation_form: bool = False
    delta_fn: Callable[[list, list], float] | None = None
    description: str = ""
    array_delta_fn: Callable[[Any, Any], int] | None = None

    def __call__(self, states: Multiset | Iterable) -> float:
        bag = states if isinstance(states, Multiset) else Multiset(states)
        return self.bounded(self.evaluate(bag))

    def bounded(self, value: float) -> float:
        """``value``, or a :class:`SpecificationError` when it is below
        :attr:`lower_bound` (the well-foundedness guard on every value of
        ``h``, evaluated or maintained incrementally)."""
        if value < self.lower_bound - 1e-12:
            raise SpecificationError(
                f"objective {self.name!r} reached {value}, below its declared "
                f"lower bound {self.lower_bound}"
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectiveFunction({self.name!r})"

    @property
    def supports_delta(self) -> bool:
        """True when :meth:`delta` can evaluate changes in O(|delta|)."""
        return self.delta_fn is not None

    def delta(self, removed: list, added: list) -> float | None:
        """Exact change of ``h`` for a state delta, or None when unsupported.

        When supported, ``h(after) == h(before) + delta(removed, added)``
        holds *exactly* (not merely approximately): callers use this to
        maintain the objective incrementally without ever diverging from
        what a full recomputation would produce.
        """
        if self.delta_fn is None:
            return None
        return self.delta_fn(removed, added)

    @property
    def supports_array_delta(self) -> bool:
        """True when :meth:`array_delta` prices ``int64`` array deltas."""
        return self.array_delta_fn is not None

    def array_delta(self, removed: Any, added: Any) -> int:
        """Exact change of ``h`` for a state delta given as ``int64`` arrays.

        Same value as ``delta(removed.tolist(), added.tolist())``, without
        leaving the arrays; only call it when :attr:`supports_array_delta`.
        """
        return self.array_delta_fn(removed, added)

    def array_value(self, states: Any) -> float | None:
        """``h`` of the bag of an ``int64`` array's values, priced on the
        array, or None when the array delta cannot price it.

        A summation-form objective ``h(S) = Σ h_a(S_a)`` prices every
        delta exactly, the one from the empty bag included, so ``h(S) =
        h(∅) + array_delta(∅, S)``, checked against :attr:`lower_bound`
        as :meth:`__call__` checks.  Any other objective's array delta may
        assume a conserved quantity (the sum objective's assumes a fixed
        total), so it gets None.
        """
        if not (self.summation_form and self.supports_array_delta):
            return None
        return self.bounded(
            self.evaluate(Multiset.empty()) + self.array_delta(states[:0], states)
        )

    def is_improvement(
        self, before: Multiset | Iterable, after: Multiset | Iterable
    ) -> bool:
        """Return True when moving from ``before`` to ``after`` strictly
        decreases the objective (by at least ``minimum_decrease``)."""
        h_before = self(before)
        h_after = self(after)
        if self.minimum_decrease > 0:
            return h_after <= h_before - self.minimum_decrease
        return h_after < h_before


class SummationObjective(ObjectiveFunction):
    """An objective of the paper's summation form ``h(S_B) = Σ h_a(S_a)``.

    Because the per-agent contributions add, improvements by disjoint groups
    always compose: this is the paper's Lemma (8) sufficient condition for
    the local-to-global improvement property, and the form used by every
    example in §4 (minimum, sum, second-smallest, sorting, convex hull).

    Parameters
    ----------
    name:
        Human-readable name.
    per_agent:
        The per-agent contribution ``h_a``.  It receives one agent state.
    offset:
        A constant added to the sum.  The hull objective
        ``|A|·P − Σ perimeter(V_a)`` is expressed with ``per_agent`` equal to
        ``P − perimeter(V_a)`` and offset 0, but an explicit offset is also
        supported for objectives stated with a global constant.
    exact_delta:
        True when the per-agent contributions add exactly (integers,
        Fractions, integer-valued floats below 2**53), so the objective
        may be maintained incrementally as ``h += Σh_a(added) −
        Σh_a(removed)`` with a result bit-identical to full recomputation.
        Leave False for genuinely real-valued contributions (the hull's
        perimeter slack), where floating-point addition is
        order-sensitive and incremental maintenance would drift.
    array_delta_fn:
        Optional exact array form of the delta (see
        :class:`ObjectiveFunction`).
    """

    def __init__(
        self,
        name: str,
        per_agent: Callable[[Hashable], float],
        lower_bound: float = 0.0,
        minimum_decrease: float = 0.0,
        offset=0,
        exact_delta: bool = False,
        description: str = "",
        array_delta_fn: Callable[[Any, Any], int] | None = None,
    ):
        self.per_agent = per_agent
        self.offset = offset
        self.exact_delta = exact_delta

        def evaluate(states: Multiset) -> float:
            # Start the sum from the integer 0 (not 0.0) so that exact
            # per-agent contributions — e.g. the averaging algorithm's
            # Fraction squares — are not silently coerced to floats, which
            # would make tiny-but-real improvements look like ties.
            return sum((per_agent(state) for state in states), offset)

        # The int-0 start matters for exactness here too: the delta must
        # use the same arithmetic as the full evaluation above.
        delta_fn = None
        if exact_delta:
            delta_fn = lambda removed, added: (
                sum((per_agent(state) for state in added), 0)
                - sum((per_agent(state) for state in removed), 0)
            )

        super().__init__(
            name=name,
            evaluate=evaluate,
            lower_bound=lower_bound,
            minimum_decrease=minimum_decrease,
            summation_form=True,
            delta_fn=delta_fn,
            description=description,
            array_delta_fn=array_delta_fn,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SummationObjective({self.name!r})"
