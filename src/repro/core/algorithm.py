"""The self-similar algorithm abstraction.

A *self-similar algorithm* is described once and executed by every group of
communicating agents, regardless of the group's size or the identities of
its members.  In the paper an algorithm is specified by:

* the distributed function ``f`` it computes (which every group step must
  conserve — the *group conservation law*);
* a well-founded objective ``h`` that every state-changing group step must
  strictly decrease;
* a concrete group step rule ``R`` refining the optimization relation ``D``.

:class:`SelfSimilarAlgorithm` bundles these together with the glue a
simulator needs: how to build an agent's initial state from an input value,
and how to read the computed answer back out of final states.  When
``enforce`` is on (the default) every group step is checked against ``D``
and violations raise immediately, so a buggy step rule cannot silently
corrupt an experiment — this mirrors the paper's proof obligation PO-1 as a
run-time contract.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from .errors import ConservationViolation, ImprovementViolation, SpecificationError
from .functions import DistributedFunction
from .multiset import Multiset
from .objective import ObjectiveFunction
from .relation import (
    STUTTER_JUDGEMENT,
    OptimizationRelation,
    StepJudgement,
    StepKind,
)

__all__ = ["GroupStepRule", "SelfSimilarAlgorithm"]


#: A group step rule receives the ordered list of states of the agents in a
#: group together with a random generator, and returns the new list of
#: states (same length, same order).  Returning the input unchanged is the
#: always-allowed stutter step.
GroupStepRule = Callable[[Sequence[Hashable], random.Random], Sequence[Hashable]]


@dataclass
class SelfSimilarAlgorithm:
    """A complete self-similar algorithm: ``f``, ``h`` and a step rule ``R``.

    Parameters
    ----------
    name:
        Human-readable name (used by benchmarks and error messages).
    function:
        The distributed function ``f`` the agents must compute.
    objective:
        The variant function ``h`` decreased by every state-changing step.
    group_step:
        The concrete step rule ``R``.  It is invoked on the states of the
        agents of one group (a list, preserving agent order within the
        group) and must return the group's new states.
    make_initial_state:
        Maps a problem input value (e.g. a sensor reading, an ``(index,
        value)`` pair, a coordinate) to the corresponding initial agent
        state.
    read_output:
        Maps a final multiset of agent states to the answer the problem
        asks for (e.g. the common minimum, the sum, the sorted array, the
        hull).  Used by tests, examples and benchmarks.
    super_idempotent:
        Whether ``f`` is (declared) super-idempotent.  Algorithms built on
        a non-super-idempotent ``f`` (the paper's "direct" second-smallest
        and circumscribing-circle formulations) set this to False; the
        verification layer and benchmarks use the flag to know that the
        local-to-global obligation is expected to fail.
    environment_requirement:
        A short machine-readable tag describing the weakest environment
        assumption ``Q`` under which the paper proves progress:
        ``"connected"`` (any connected graph suffices — minimum, hull),
        ``"complete"`` (every pair must meet infinitely often — sum) or
        ``"line"`` (adjacent ranks must meet — sorting).
    enforce:
        When True (default), every group step is validated against ``D``
        and violations raise :class:`ConservationViolation` or
        :class:`ImprovementViolation`.  Benchmarks that intentionally run
        broken algorithms (Figure 1, Figure 2, §4.3's direct formulation)
        switch this off and observe the judgements instead.
    singleton_stutters:
        Opt-in declaration that the step rule, applied to a group of one
        agent, always returns the state unchanged *and* draws no
        randomness.  The reference simulation engine uses it to skip
        the step-rule call for singleton groups, which dominate sparse
        rounds.  Most of this library's examples declare it (they all
        carry the usual ``if len(states) <= 1: return list(states)``
        guard); block sorting does not, because a lone agent can make
        progress by sorting its own multi-cell block.  The default is
        False so that algorithms defined outside this library are always
        executed faithfully — only declare it when the guard above is the
        first thing your step rule does.
    fast_judge:
        Optional exact shortcut for the relation check on the hot path.
        A callable ``(before, after) -> StepJudgement | None`` receiving
        the group's state lists (``after`` already length-checked and
        element-wise different from ``before``); it must return exactly
        the judgement ``relation.judge(Multiset(before), Multiset(after))``
        would produce — same kind, same ``h`` values bit for bit — or
        None to fall back to the full judge (always safe, and the right
        answer for any case the shortcut cannot price exactly, e.g. a
        conservation violation that the full judge should diagnose).
        Judging draws no randomness, so the shortcut never affects the
        random stream; the textbook replay and the engines' cross-checks
        judge without it, which is how the parity suites pin the equivalence.
    kernel:
        Optional name of the int64 kernel this algorithm's step rule
        implements: ``"minimum"``, ``"maximum"`` or ``"sum"``, the only
        kernels the struct-of-arrays engine executes.  Declaring a kernel
        is a three-part contract that engine
        (:class:`repro.simulation.array_engine.ArrayEngine`) relies on:
        the step rule (a) draws no randomness at any group size, (b) is a
        deterministic pure function of the ordered state list, and (c)
        changes at least one element *iff* the step is an improvement
        (so the engine can classify steps without running the relation
        judge).  Leave it None (the default) for step rules that draw
        randomness, depend on instance data beyond the states, or can
        produce non-improving changes — those run on the reference
        engine only.
    """

    name: str
    function: DistributedFunction
    objective: ObjectiveFunction
    group_step: GroupStepRule
    make_initial_state: Callable[[Any], Hashable] = lambda value: value
    read_output: Callable[[Multiset], Any] | None = None
    super_idempotent: bool = True
    environment_requirement: str = "connected"
    enforce: bool = True
    singleton_stutters: bool = False
    fast_judge: Callable[[Sequence[Hashable], Sequence[Hashable]], StepJudgement | None] | None = None
    description: str = ""
    kernel: str | None = None
    relation: OptimizationRelation = field(init=False)

    def __post_init__(self) -> None:
        self.relation = OptimizationRelation(self.function, self.objective)

    # -- setup ----------------------------------------------------------------

    def initial_states(self, values: Sequence[Any]) -> list[Hashable]:
        """Build the initial agent states from a sequence of input values."""
        return [self.make_initial_state(value) for value in values]

    def target(self, initial_states: Sequence[Hashable]) -> Multiset:
        """Return ``S* = f(S(0))`` — the multiset the system must reach and keep."""
        return self.function(Multiset(initial_states))

    # -- execution ------------------------------------------------------------

    def apply_group_step(
        self,
        states: Sequence[Hashable],
        rng: random.Random,
        fast_stutter: bool = True,
    ) -> tuple[list[Hashable], StepJudgement]:
        """Run the step rule on one group and validate the result against ``D``.

        Returns the (possibly unchanged) new states together with the
        :class:`StepJudgement` explaining how the step was classified.
        The step rule receives a fresh list of ``states``, and its result
        is judged against that list by :meth:`judge_step`, whose
        ``fast_stutter`` this passes on and whose exceptions it raises.
        """
        before = list(states)
        return self.judge_step(before, self.group_step(before, rng), fast_stutter)

    def judge_step(
        self,
        before: list[Hashable],
        after: Sequence[Hashable],
        fast_stutter: bool = True,
    ) -> tuple[list[Hashable], StepJudgement]:
        """Validate one group step, ``before -> after``, against ``D``.

        ``before`` is the list the step rule ran on and ``after`` what it
        returned.  Returns ``after`` as a list together with the
        :class:`StepJudgement` explaining how the step was classified.
        The reference engine's round loop runs the step rule itself and
        calls this directly; every other caller reaches it through
        :meth:`apply_group_step`, so one code path judges every step.

        ``fast_stutter`` short-circuits the common case in which the step
        rule returns the states unchanged: element-wise equality already
        implies multiset equality, i.e. a stutter step, so the multiset
        construction and relation check are skipped.  The same flag gates
        the algorithm's :attr:`fast_judge` shortcut (exact by contract).
        The verdict is identical either way; the flag exists so the
        cross-checks and the textbook replay can judge a step in full.

        Raises
        ------
        ConservationViolation
            If enforcement is on and the step changed ``f`` of the group.
        ImprovementViolation
            If enforcement is on and the step changed the state without
            decreasing ``h``.
        SpecificationError
            If the step rule returned a different number of states.
        """
        if type(after) is not list:
            after = list(after)
        if len(after) != len(before):
            raise SpecificationError(
                f"group step of {self.name!r} returned {len(after)} states "
                f"for a group of {len(before)} agents"
            )
        if fast_stutter and after == before:
            return after, STUTTER_JUDGEMENT
        judgement = None
        if fast_stutter and self.fast_judge is not None:
            judgement = self.fast_judge(before, after)
        if judgement is None:
            judgement = self.relation.judge(Multiset(before), Multiset(after))
        if self.enforce:
            if judgement.kind is StepKind.BREAKS_CONSERVATION:
                raise ConservationViolation(
                    f"group step of {self.name!r} violated the conservation law",
                    before=before,
                    after=after,
                )
            if judgement.kind is StepKind.NOT_AN_IMPROVEMENT:
                raise ImprovementViolation(
                    f"group step of {self.name!r} changed the state without "
                    f"decreasing the objective "
                    f"({judgement.h_before} -> {judgement.h_after})",
                    before=before,
                    after=after,
                )
        return after, judgement

    # -- incremental objective maintenance ------------------------------------

    def objective_delta(
        self,
        before: float,
        after: Multiset,
        removed: Sequence[Hashable],
        added: Sequence[Hashable],
    ) -> float:
        """Return ``h(after)`` given ``h(before) = before`` and a state delta.

        ``removed``/``added`` are the agent states that left and entered
        the collective bag (aligned with :meth:`repro.agents.group.Group.install`'s
        report).  When the objective supports exact incremental evaluation
        (every decomposable objective in this library: minimum, maximum,
        summation, average, kth-smallest, sorting displacement), the
        result is computed in O(|removed| + |added|) and is bit-identical
        to a full recomputation.  Otherwise — the real-valued hull and
        circle objectives, whose float sums are order-sensitive — it falls
        back to evaluating ``h`` on ``after`` in full.
        """
        if not removed and not added:
            return before
        delta = self.objective.delta(removed, added)
        if delta is None:
            return self.objective(after)
        return self.objective.bounded(before + delta)

    def objective_array_delta(self, before: float, removed: Any, added: Any) -> float:
        """:meth:`objective_delta` for a delta given as ``int64`` arrays.

        Prices the delta with the objective's exact
        :meth:`~repro.core.objective.ObjectiveFunction.array_delta` (only
        call it when the objective supports one) and applies the same
        lower-bound guard.
        """
        return self.objective.bounded(
            before + self.objective.array_delta(removed, added)
        )

    # -- convergence ----------------------------------------------------------

    def is_fixpoint(self, states: Sequence[Hashable] | Multiset) -> bool:
        """Return True when ``S = f(S)`` — no further improvement is possible."""
        return self.function.is_fixpoint(
            states if isinstance(states, Multiset) else Multiset(states)
        )

    def has_converged(
        self,
        states: Sequence[Hashable] | Multiset,
        initial_states: Sequence[Hashable] | Multiset,
    ) -> bool:
        """Return True when the agents have reached ``S* = f(S(0))``."""
        current = states if isinstance(states, Multiset) else Multiset(states)
        initial = (
            initial_states
            if isinstance(initial_states, Multiset)
            else Multiset(initial_states)
        )
        return current == self.function(initial)

    def result(self, states: Sequence[Hashable] | Multiset) -> Any:
        """Extract the problem's answer from a multiset of agent states."""
        bag = states if isinstance(states, Multiset) else Multiset(states)
        if self.read_output is None:
            return bag
        return self.read_output(bag)

    def expected_result(self, values: Sequence[Any]) -> Any:
        """Return the answer the algorithm should produce for ``values``.

        Computed by applying ``f`` to the initial states and reading the
        output from the resulting target multiset, which is exactly what a
        converged run yields.
        """
        initial = Multiset(self.initial_states(values))
        return self.result(self.function(initial))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SelfSimilarAlgorithm({self.name!r})"
