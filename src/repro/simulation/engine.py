"""The round-based simulation engine.

The engine executes the paper's transition relation directly:

* at the start of every round the **environment** takes a transition — the
  concrete :class:`~repro.environment.base.Environment` produces the next
  environment state ``G`` (which agents are enabled, which links are
  available);
* then the **agents** take a transition — a
  :class:`~repro.agents.scheduler.Scheduler` picks a partition of the
  enabled agents into groups compatible with ``G``, and every scheduled
  group executes the algorithm's group step.  Unscheduled agents and
  disabled agents stutter, which the reflexivity of ``R`` always allows.

Every group step is validated against the optimization relation ``D``
(conserve ``f``, decrease ``h``), so the conservation law
``f(S) = f(S(0))`` is an enforced run-time invariant, not an assumption.
The engine records a full trace of agent-state multisets so that the
temporal-logic specifications (3)–(5) can be checked after the fact.

The simulator is an :class:`~repro.simulation.protocol.Engine`: the base
class streams its rounds (:meth:`Engine.steps` yields one
:class:`RoundRecord` per simulated round; streaming consumers iterate it
directly and can pause between rounds), and :meth:`Engine.run` is the
shared engine driver (:func:`repro.simulation.protocol.run_engine`), which
carries the stopping policy and the probe pipeline for every execution
backend and accumulates the classic :class:`SimulationResult`.  This
module supplies how one round executes.

A round is one loop over the groups that can change.  A lone agent of
an algorithm that declares ``singleton_stutters`` can only stutter, so
by default the loop visits the groups of two or more agents and records
a stutter for every other; ``incremental=False`` visits every group.
Under the maximal scheduler the schedule is the state's own partition
view (:meth:`EnvironmentState.component_partition`), read from its
``int64`` labelling: the loop walks the view's bounds and gathers each
group's states from a slice of its members, so no round builds a
:class:`Group` — the round's :class:`RoundRecord` builds its ``groups``
and ``judgements`` tuples only if something reads them.  A plugin
scheduler's list takes the validated path instead.

Bookkeeping is *incremental* by default.  Instead of rebuilding the
agent-state multiset and recomputing the objective ``h`` from scratch
every round, the engine folds each round's ``(removed, added)`` state
delta into the maintained :class:`Multiset`
(:meth:`Multiset.apply_delta`), updates ``h`` in O(|delta|) for
objectives that support exact increments, and compares the bag with the
target by plain equality.  Quiet rounds — a
state :meth:`~EnvironmentState.unchanged_from` the previous one — adopt
the previous state's memoized views, its labelling and partition view
included.  A round in which two agents moved
therefore costs O(2) bookkeeping, not O(n) — matching the paper's
"speed up or slow down depending on the resources available" story.
``incremental=False`` selects the from-scratch reference mode, the
oracle the parity test suite compares the default against byte for
byte; ``cross_check=True`` validates the maintained state and the
labelled components against a full recomputation every round.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Sequence

from ..agents.group import Group, install_states
from ..agents.scheduler import MaximalGroupsScheduler, Scheduler
from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SimulationError
from ..core.multiset import Multiset
from ..core.relation import STUTTER_JUDGEMENT, StepJudgement, StepKind
from ..environment.base import Environment, EnvironmentState, check_components
from ..registry import register_engine
from .checkpoint import RoundState
from .protocol import Engine, RoundRecord

__all__ = ["RoundRecord", "Simulator"]

_group_members = attrgetter("members")


@register_engine("reference")
class Simulator(Engine):
    """The byte-identical reference engine.

    Simulates one self-similar algorithm under one environment.

    Parameters
    ----------
    algorithm:
        The :class:`SelfSimilarAlgorithm` to execute.
    environment:
        The environment model producing per-round availability.
    initial_values:
        The problem inputs, one per agent (sensor readings, array entries,
        coordinates, ...).  The number of agents is taken from the
        environment's topology and must match.
    scheduler:
        How groups are formed each round; defaults to
        :class:`MaximalGroupsScheduler`.
    seed:
        Seed of the run's random generator (drives the environment, the
        scheduler and any randomness in the group step rule).  When None,
        an explicit seed is drawn once and recorded as :attr:`seed`, so
        every run — including "unseeded" ones — is reproducible from its
        result metadata.
    incremental:
        The engine's single mode switch.  When True (default), the
        simulator maintains both layers of the round incrementally.  The
        round state: each round folds the ``(removed, added)`` state delta
        reported by the executed group steps into the maintained
        :class:`Multiset`, updates the objective in O(|delta|) for
        objectives that support exact deltas, checks convergence by bag
        equality with the target, and the round's one
        loop visits only the groups that can change: lone agents of
        algorithms that declare ``singleton_stutters`` stutter without
        running the step rule.  The environment layer: the engine
        compares each environment state with the last
        (:meth:`EnvironmentState.unchanged_from`), and quiet rounds adopt
        the previous state's memoized views.  When False, every round
        recomputes from scratch — plain ``advance``, the step rule on
        every group, a freshly built multiset and objective — the
        reference behaviour the incremental path is measured and
        cross-checked against.  The random draws and the results are
        byte-identical either way.
        Note: the incremental path assumes agent states change only
        through executed group steps; code that mutates :attr:`states`
        directly between rounds must use ``incremental=False`` (or will
        be caught by ``cross_check``).
    cross_check:
        Debug flag for the incremental path.  When True, every round the
        maintained multiset and objective are verified
        against a full recomputation from the agent states — and the
        labelled communication groups against a from-scratch component
        walk — raising :class:`SimulationError` on any divergence.  With
        ``incremental=False`` there is no maintained state to verify, so
        the combination is refused at construction.
    """

    checkpoint_kind = "simulator"

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        environment: Environment,
        initial_values: Sequence[Any],
        scheduler: Scheduler | None = None,
        seed: int | None = None,
        incremental: bool = True,
        cross_check: bool = False,
    ):
        if cross_check and not incremental:
            raise SimulationError(
                "cross_check verifies the incremental path against a full "
                "recomputation; with incremental=False every round already "
                "recomputes from scratch, so there is nothing to check"
            )
        super().__init__(algorithm, environment, initial_values, seed)
        self.scheduler = scheduler or MaximalGroupsScheduler()
        self.incremental = incremental
        self.cross_check = cross_check

        #: The agent states, indexed by agent id.
        self.states: list = algorithm.initial_states(self.initial_values)
        self._initial_states = list(self.states)
        self._target = algorithm.target(self.states)
        # The entire mutable run state — RNG, round index, maintained
        # multiset, maintained objective — lives in one explicit object,
        # which is what checkpoint()/restore() serialize.  (The objective
        # stays lazily initialised so that building a simulator never
        # evaluates it.)
        self._state = RoundState(self.seed, self.states)

    # -- state access ----------------------------------------------------------

    def current_multiset(self) -> Multiset:
        """Return the current agent states as a multiset."""
        return Multiset(self.states)

    def _advance_environment(self, round_index: int) -> EnvironmentState:
        """One environment transition; in incremental mode a quiet round
        adopts the last state's views (:meth:`Engine._advance_environment`)."""
        if self.incremental:
            return super()._advance_environment(round_index)
        return self.environment.advance(round_index, self._state.rng)

    def _execute_round(self, round_index: int) -> RoundRecord:
        """Execute one round — one environment transition, one scheduled
        agent transition per group — and record what happened.

        The loop visits ``steps``, the ``(position, members)`` of the
        groups that run the step rule; every other group stutters.  When
        the schedule is the state's own :class:`ComponentPartition` and
        lone agents stutter, those are the view's non-singleton groups,
        read as member slices of its layout, so the round builds no
        :class:`Group`.  In incremental mode the state deltas the steps
        install are folded into the maintained round state
        (:meth:`_fold_round`); in full mode everything is recomputed
        from the agent states.
        """
        environment_state = self._advance_environment(round_index)
        rng = self._state.rng
        scheduled = self.scheduler.schedule(environment_state, rng)
        incremental = self.incremental
        # The state's own partition is disjoint and in range by
        # construction, so the O(n) validation pass is unnecessary.
        own = incremental and scheduled is environment_state.component_partition()
        if own:
            if self.cross_check:
                check_components(environment_state, "component labelling")
        else:
            _validate_partition(scheduled, self.environment.num_agents)
            # An empty group takes no step and is left out of the record.
            scheduled = [group for group in scheduled if group.members]
        # Singleton groups dominate sparse rounds; when the algorithm
        # declares that lone agents always stutter (and draw no
        # randomness), their step-rule calls can be skipped outright.
        if not (incremental and self.algorithm.singleton_stutters):
            steps = ((index, group.members) for index, group in enumerate(scheduled))
        elif own:
            layout = scheduled.members
            bounds = scheduled.bounds
            steps = (
                (position, layout[start:stop])
                for position, start, stop in zip(scheduled.positions, bounds, bounds[1:])
            )
        else:
            steps = (
                (index, group.members)
                for index, group in enumerate(scheduled)
                if len(group.members) > 1
            )

        states = self.states
        apply_group_step = self.algorithm.apply_group_step
        stutter = STUTTER_JUDGEMENT
        # The judgements that are not stutters, by position.
        judged: dict[int, StepJudgement] = {}
        removed: list = []
        added: list = []
        improving = invalid = 0
        # Every scheduled group holds at least one agent; the loop raises
        # the floor to the largest group it visits.
        largest = 1 if scheduled else 0
        try:
            for index, members in steps:
                if len(members) > largest:
                    largest = len(members)
                states_after, judgement = apply_group_step(
                    [states[member] for member in members], rng, fast_stutter=incremental
                )
                if judgement is stutter:
                    continue
                judged[index] = judgement
                if judgement.kind is not StepKind.STUTTER:
                    # Valid improvements are installed; invalid steps (only
                    # reachable when the algorithm's enforcement is off) are
                    # recorded and applied anyway, so that benchmarks can
                    # observe the consequences of violating the methodology
                    # (Figure 1 / direct second-smallest).
                    if judgement.kind is StepKind.IMPROVEMENT:
                        improving += 1
                    else:
                        invalid += 1
                    group_removed, group_added = install_states(
                        members, states, states_after
                    )
                    removed.extend(group_removed)
                    added.extend(group_added)
        except BaseException:
            # A mid-round exception (an enforcement violation raised by a
            # later group, say) must not desynchronise the maintained
            # round state: earlier groups already installed their new
            # states.  Fold what was installed, and drop the cached
            # objective value — it describes the pre-round bag and will
            # be recomputed lazily if the caller resumes.
            if incremental and (removed or added):
                state = self._state
                state.maintained = state.maintained.apply_delta(removed, added)
                state.objective_value = None
            raise

        if incremental:
            multiset, objective, converged = self._fold_round(
                removed, added, not invalid
            )
        else:
            # Reference path: the round's multiset is recomputed from the
            # agent states and shared by the trace, the objective
            # trajectory and the convergence check.
            multiset = self.current_multiset()
            objective = self.algorithm.objective(multiset)
            converged = multiset == self._target
        # Every judgement is an improvement, a stutter or invalid, so the
        # stutters are what the other two leave of the round's steps.
        record = RoundRecord(
            round_index=round_index,
            multiset=multiset,
            objective=objective,
            converged=converged,
            groups=scheduled,
            judgements=judged,
            improving_steps=improving,
            stutter_steps=len(scheduled) - improving - invalid,
            invalid_steps=invalid,
            largest_group=largest,
        )
        if self.cross_check:
            _verify_round_counts(record)
        return record

    def _fold_round(
        self, removed: list, added: list, clean: bool
    ) -> tuple[Multiset, float, bool]:
        """Fold one round's state delta into the maintained round state."""
        state = self._state
        if state.objective_value is None:
            # First use: price the objective once, on the pre-delta bag.
            state.objective_value = self.algorithm.objective(state.maintained)
        if removed or added:
            try:
                state.maintained = state.maintained.apply_delta(removed, added)
            except KeyError as error:
                raise SimulationError(
                    "incremental round state out of sync with the agent "
                    "states (were agent states mutated outside a group "
                    f"step?): {error.args[0]}"
                ) from error

        if clean and self.algorithm.objective.supports_delta:
            multiset = state.maintained
            objective = self.algorithm.objective_delta(
                state.objective_value, multiset, removed, added
            )
        else:
            # No exact delta available (hull/circle objectives), or the
            # round contained steps outside ``D`` whose effect on ``h`` is
            # not delta-reconstructible (enforcement off): recompute in
            # full, on a freshly built multiset so that order-sensitive
            # float summations match the reference path bit for bit.
            multiset = Multiset(self.states)
            objective = self.algorithm.objective(multiset)
        state.objective_value = objective
        converged = multiset == self._target
        if self.cross_check:
            self._verify_maintained_state(multiset, objective)
        return multiset, objective, converged

    def _verify_maintained_state(self, multiset: Multiset, objective: float) -> None:
        """Debug cross-check: maintained state must equal full recomputation.

        Always validates the *maintained* bag against the agent states —
        on fallback rounds the round's ``multiset`` is itself a fresh
        rebuild, so comparing only it would never catch maintained-state
        drift (e.g. external mutation of :attr:`states`).
        """
        full = self.current_multiset()
        maintained = self._state.maintained
        if full != maintained or full != multiset:
            raise SimulationError(
                "incremental multiset diverged from the agent states "
                "(were agent states mutated outside a group step?): "
                f"maintained {maintained!r} vs actual {full!r}"
            )
        full_objective = self.algorithm.objective(full)
        if full_objective != objective:
            raise SimulationError(
                "incremental objective diverged from full recomputation "
                f"({objective!r} vs {full_objective!r})"
            )

    # -- Engine hooks -------------------------------------------------------------

    def initial_snapshot(self) -> tuple[Multiset, float]:
        """The pre-run ``(multiset, objective)`` pair.

        In incremental mode the maintained bag already holds the current
        states; it also seeds the objective value so the first round
        starts from a known ``h`` instead of recomputing.
        """
        if self.incremental:
            state = self._state
            initial_multiset = state.maintained
            if state.objective_value is None:
                state.objective_value = self.algorithm.objective(initial_multiset)
            return initial_multiset, state.objective_value
        initial_multiset = self.current_multiset()
        return initial_multiset, self.algorithm.objective(initial_multiset)

    def finish_metadata(self) -> dict:
        """Run metadata recorded on the result."""
        return {
            "algorithm": self.algorithm.name,
            "environment": self.environment.describe(),
            "scheduler": self.scheduler.describe(),
            "num_agents": self.environment.num_agents,
            "seed": self.seed,
        }


def _verify_round_counts(record: RoundRecord) -> None:
    """Debug cross-check: the counts a round loop kept == a rescan of its record."""
    kinds = [judgement.kind for judgement in record.judgements]
    improving = kinds.count(StepKind.IMPROVEMENT)
    stutter = kinds.count(StepKind.STUTTER)
    rescanned = {
        "improving_steps": improving,
        "stutter_steps": stutter,
        "invalid_steps": len(kinds) - improving - stutter,
        "largest_group": max((len(group) for group in record.groups), default=0),
    }
    for name, expected in rescanned.items():
        kept = getattr(record, name)
        if kept != expected:
            raise SimulationError(
                f"{name} diverged from a rescan of round {record.round_index}'s "
                f"judgements and groups ({kept} vs {expected})"
            )


def _validate_partition(groups: Sequence[Group], num_agents: int) -> None:
    """Ensure scheduled groups are pairwise disjoint and reference real agents.

    The happy path is a set-bulk check (C-speed); only when it detects a
    problem does the per-agent loop rerun to produce the precise error.
    """
    member_tuples = list(map(_group_members, groups))
    seen = set(chain.from_iterable(member_tuples))
    total = sum(map(len, member_tuples))
    valid = len(seen) == total and (
        not seen or (min(seen) >= 0 and max(seen) < num_agents)
    )
    if not valid:
        _explain_invalid_partition(groups, num_agents)


def _explain_invalid_partition(groups: Sequence[Group], num_agents: int) -> None:
    """Slow path: find and report the first offending agent id."""
    seen: set[int] = set()
    for group in groups:
        for agent_id in group:
            if not 0 <= agent_id < num_agents:
                raise SimulationError(
                    f"scheduler produced agent id {agent_id} outside "
                    f"0..{num_agents - 1}"
                )
            if agent_id in seen:
                raise SimulationError(
                    f"scheduler produced overlapping groups (agent {agent_id} twice)"
                )
            seen.add(agent_id)
    raise SimulationError("scheduler produced an invalid partition")
