"""Asynchronous message-passing execution.

The paper notes (for the convex-hull example) that the group step relation
``R`` "can be easily implemented by asynchronous message passing: an agent
``a`` can update ``V_a`` upon receiving a message without requiring that
the sender of the message changes its own estimate of the hull".

This module provides that execution style for *merge-style* algorithms —
algorithms whose group step amounts to every member absorbing information
from the others (minimum, maximum, convex hull, and in general any
``f(X) = ◦X`` consensus built from an idempotent merge).  Each round:

1. the environment produces the available edges;
2. every enabled agent sends its current state over each available
   incident edge (messages may additionally be dropped with a configurable
   probability, modelling lossy radio);
3. every enabled agent folds the received states into its own state with a
   two-state merge function.

A one-sided update of agent ``a`` with the state of agent ``b`` is the
group step of the pair ``{a, b}`` in which only ``a`` changes, so the
resulting computation is a legitimate computation of the paper's model —
it simply never uses groups larger than two and never requires sender and
receiver to move in lock step.

Not every algorithm can be run this way: the sum and sorting examples need
two-sided exchanges (value mass or array slots must move *between* agents
atomically).  The :class:`Simulator` covers those; this runtime exists to
reproduce the asynchronous claim for the algorithms it applies to.

The simulator is an :class:`~repro.simulation.protocol.Engine`: its
inherited ``steps`` streams one
:class:`~repro.simulation.protocol.RoundRecord` per round, lazily and
resumably, and its inherited ``run`` is the shared engine driver — same
stopping policy, same probe pipeline, same checkpoint and resume, same
:class:`SimulationResult` shape as the synchronous engine.

Round bookkeeping is incremental: one maintained multiset absorbs the
round's delivered merges as one ``(old, new)`` state delta
(:meth:`Multiset.apply_delta`), the objective is updated from the same
delta when it supports exact increments, and convergence is bag equality
with the target — instead of rebuilding multisets per delivered message
and three more per round.  A quiet round — an environment state
unchanged from the last (:meth:`EnvironmentState.unchanged_from`) —
adopts the previous state's memoized effective-edge view.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from ..agents.group import Group
from ..core.errors import SimulationError
from ..core.multiset import Multiset
from ..core.algorithm import SelfSimilarAlgorithm
from ..core.relation import StepJudgement, StepKind
from ..environment.base import Environment
from .checkpoint import EngineCheckpoint, RoundState
from .protocol import Engine, RoundRecord

__all__ = ["MergeMessagePassingSimulator"]


#: A two-state merge: returns the state ``receiver`` adopts after absorbing
#: ``received``.  It must conserve ``f`` of the pair and never increase the
#: receiver's objective contribution (idempotent merges like min or hull
#: union satisfy this by construction).
MergeFunction = Callable[[Hashable, Hashable], Hashable]

#: Every applied one-sided merge is an improving pair step; the shared
#: verdict keeps the per-delivery hot path allocation-free.
_MERGE_JUDGEMENT = StepJudgement(kind=StepKind.IMPROVEMENT)


class MergeMessagePassingSimulator(Engine):
    """Asynchronous (one-sided) execution of a merge-style algorithm.

    The runtime has one mode.  The engine compares each environment state
    with the last (:meth:`EnvironmentState.unchanged_from`), and unchanged
    rounds reuse the previous state's memoized effective-edge view
    instead of re-filtering the edge set; the random stream and all
    results are identical to a from-scratch filter, which the parity
    suite's legacy send/deliver loop pins.

    Parameters
    ----------
    algorithm:
        The algorithm being executed; used for initial states, the target
        multiset, objective tracking and output extraction.
    merge:
        The two-state merge applied on message receipt.
    environment:
        Environment model supplying per-round edge availability.
    initial_values:
        Problem inputs, one per agent.
    loss_probability:
        Probability that an individual message is lost in transit.  The
        closed range ``[0, 1]`` is accepted: a loss-1.0 run is a
        legitimate worst-case scenario in which no message is ever
        delivered and the computation simply never converges.
    seed:
        Seed for reproducibility.  When None, an explicit seed is drawn
        once and recorded as :attr:`seed` (and in the result metadata), so
        every run — including "unseeded" ones — is reproducible.
    """

    #: One-sided merges are pair steps by construction: the result's
    #: ``largest_group`` reports 2 even in merge-free runs (the historic
    #: convention of this runtime).
    largest_group_floor = 2

    checkpoint_kind = "messaging"

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        merge: MergeFunction,
        environment: Environment,
        initial_values: Sequence[Any],
        loss_probability: float = 0.0,
        seed: int | None = None,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise SimulationError("loss_probability must be in [0, 1]")
        super().__init__(algorithm, environment, initial_values, seed)
        self.merge = merge
        self.loss_probability = loss_probability
        self.states: list[Hashable] = algorithm.initial_states(self.initial_values)
        self._initial_states = list(self.states)
        self._target = algorithm.target(self.states)
        self.messages_sent = 0
        self.messages_delivered = 0
        # The mutable run state — RNG, round index, maintained multiset,
        # maintained objective — as one explicit object, shared shape
        # with the synchronous engine; checkpoint()/restore() serialize
        # it.  (The objective stays lazily initialised so that building a
        # simulator never evaluates it.)
        self._state = RoundState(self.seed, self.states)
        # Incremental objective maintenance requires that every applied
        # merge respected the conservation law; that is only guaranteed
        # when enforcement checks each delivery (Simulator's equivalent is
        # its per-round ``clean`` guard).  With enforcement off, fall back
        # to full recomputation so unchecked, possibly non-conserving
        # merges still report the true objective trajectory.
        self._supports_delta = (
            self.algorithm.objective.supports_delta and self.algorithm.enforce
        )
        # Pairwise-conservation verdicts already proven for a concrete
        # (receiver, message, merged) triple.  Merges over small discrete
        # state spaces (minimum, maximum) repeat the same handful of
        # pairs over and over; memoising the successful checks keeps the
        # inner loop O(1) per repeated delivery.  Failed checks raise
        # immediately and are never cached.  Rich state spaces (hulls)
        # produce mostly-unique triples, so the memo is capped: once
        # full, further checks simply run uncached instead of growing
        # memory without bound.
        self._conservation_ok: set[tuple] = set()
        self._conservation_memo_cap = 4096
        # Groups are value objects keyed by their member tuple, and the
        # same (receiver, sender) pairs deliver round after round on a
        # fixed topology — share one Group per pair instead of allocating
        # per delivery.  Capped like the conservation memo so unbounded
        # topologies cannot grow memory without bound.
        self._pair_groups: dict[tuple[int, int], Group] = {}
        self._pair_group_cap = 65536

    # -- Engine hooks -------------------------------------------------------------

    def initial_snapshot(self) -> tuple[Multiset, float]:
        """The pre-run ``(multiset, objective)`` pair."""
        state = self._state
        if state.objective_value is None:
            state.objective_value = self.algorithm.objective(state.maintained)
        return state.maintained, state.objective_value

    def trace_complete(self, converged: bool, stopped_by_callback: bool) -> bool:
        """An idempotent merge at ``S*`` can only stutter, so a converged,
        uninterrupted run's prefix determines the whole computation."""
        return converged and not stopped_by_callback

    def finish_metadata(self) -> dict:
        """Run metadata recorded on the result."""
        return {
            "algorithm": self.algorithm.name,
            "environment": self.environment.describe(),
            "scheduler": "asynchronous message passing (one-sided merges)",
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "seed": self.seed,
        }

    # -- reset, checkpoint and restore: the message counters ---------------------

    def reset(self) -> None:
        """Restore the initial configuration, message counters included."""
        super().reset()
        self.messages_sent = 0
        self.messages_delivered = 0

    def _checkpoint_agents(self) -> dict:
        """Agent states plus the send/delivery totals (result metadata).
        The conservation and pair-group memos are pure caches and refill
        on demand after restore."""
        return {
            **super()._checkpoint_agents(),
            "counters": {
                "messages_sent": self.messages_sent,
                "messages_delivered": self.messages_delivered,
            },
        }

    def _restore_agents(self, checkpoint: EngineCheckpoint) -> None:
        super()._restore_agents(checkpoint)
        self.messages_sent = checkpoint.counters.get("messages_sent", 0)
        self.messages_delivered = checkpoint.counters.get("messages_delivered", 0)

    # -- execution --------------------------------------------------------------

    def _execute_round(self, round_index: int) -> RoundRecord:
        """Execute one round — sends, losses, one-sided merge deliveries —
        and record what happened.

        Bookkeeping is O(|delta|) past one copy of the bag's counts: the
        applied merges' ``(old, new)`` pairs are folded into the
        maintained multiset, the objective is updated from the same delta
        when exact increments are available, and convergence is bag
        equality with the target.
        """
        state = self._state
        if state.objective_value is None:
            state.objective_value = self.algorithm.objective(state.maintained)
        environment_state = self._advance_environment(round_index)
        random_draw = state.rng.random
        loss_probability = self.loss_probability
        states = self.states
        enforce = self.algorithm.enforce
        conserves = self.algorithm.function.conserves
        conservation_ok = self._conservation_ok
        pair_groups = self._pair_groups

        # Collect messages first (all sends see the same snapshot), then
        # deliver: the classic synchronous-round abstraction of an
        # asynchronous message-passing system.
        inboxes: dict[int, list[tuple[int, Hashable]]] = {
            agent: [] for agent in range(self.environment.num_agents)
        }
        for a, b in environment_state.effective_edges():
            for sender, receiver in ((a, b), (b, a)):
                self.messages_sent += 1
                if random_draw() < loss_probability:
                    continue
                self.messages_delivered += 1
                inboxes[receiver].append((sender, states[sender]))

        groups: list[Group] = []
        judgements: list[StepJudgement] = []
        removed: list[Hashable] = []
        added: list[Hashable] = []
        try:
            for agent, received in inboxes.items():
                if agent not in environment_state.enabled_agents or not received:
                    continue
                for sender, message in received:
                    old_state = states[agent]
                    merged = self.merge(old_state, message)
                    if merged == old_state:
                        continue
                    # One-sided pair step: receiver changes, sender does not.
                    if enforce:
                        triple = (old_state, message, merged)
                        if triple not in conservation_ok:
                            before = Multiset([old_state, message])
                            after = Multiset([merged, message])
                            if not conserves(before, after):
                                raise SimulationError(
                                    f"merge for {self.algorithm.name!r} broke "
                                    f"the pairwise conservation law"
                                )
                            if len(conservation_ok) < self._conservation_memo_cap:
                                conservation_ok.add(triple)
                    states[agent] = merged
                    removed.append(old_state)
                    added.append(merged)
                    pair = (agent, sender) if agent < sender else (sender, agent)
                    group = pair_groups.get(pair)
                    if group is None:
                        group = Group(pair)
                        if len(pair_groups) < self._pair_group_cap:
                            pair_groups[pair] = group
                    groups.append(group)
                    judgements.append(_MERGE_JUDGEMENT)
        except BaseException:
            # A mid-round failure (a later delivery breaking conservation,
            # a raising merge) must not desynchronise the persistent round
            # state: earlier deliveries already wrote their merged states.
            # Fold what was applied and drop the cached objective — it
            # describes the pre-round bag and is recomputed lazily if the
            # caller resumes or queries has_converged().
            if removed or added:
                state.maintained = state.maintained.apply_delta(removed, added)
                state.objective_value = None
            raise

        if removed or added:
            state.maintained = state.maintained.apply_delta(removed, added)
        multiset = state.maintained
        if self._supports_delta:
            objective = self.algorithm.objective_delta(
                state.objective_value, multiset, removed, added
            )
        else:
            # Order-sensitive float objectives (hull): recompute on a
            # freshly built multiset so values match the historic,
            # full-recompute behaviour bit for bit.
            objective = self.algorithm.objective(Multiset(states))
        state.objective_value = objective
        return RoundRecord(
            round_index=round_index,
            multiset=multiset,
            objective=objective,
            converged=multiset == self._target,
            groups=tuple(groups),
            judgements=tuple(judgements),
            # Every applied merge is an improving pair step.
            improving_steps=len(judgements),
            stutter_steps=0,
            invalid_steps=0,
            largest_group=2 if groups else 0,
        )
