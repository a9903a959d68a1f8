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
the loop visits the groups of two or more agents and records a stutter
for every other; for any other algorithm it visits every group.  The
loop reads the schedule as one layout ``(members, bounds,
positions)`` of the groups it visits.  Under the maximal scheduler the
schedule is the state's own partition view
(:meth:`EnvironmentState.component_partition`), read from its ``int64``
labelling, and the layout is the view's own, so no round builds a
:class:`Group` — the round's :class:`RoundRecord` builds its ``groups``
and ``judgements`` tuples only if something reads them.  A plugin
scheduler's list is validated and builds its layout once.  The round
gathers every visited group's states in one pass, calls the step rule
on each group's slice, and pays for the relation only where a group's
states changed: a result equal to the slice is a stutter, and every
other result is judged (:meth:`SelfSimilarAlgorithm.judge_step`).

Bookkeeping is *incremental*.  Instead of rebuilding the
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
``cross_check=True`` validates the maintained state, the labelled
components and the loop's stutters against a full recomputation every
round, and :class:`~repro.verification.oracle.TextbookReplay`, which
replays the paper's round from its definitions, is the oracle the
parity suites compare this engine's round records and results against.
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
from ..environment.base import (
    Environment,
    check_components,
    group_layout,
)
from ..registry import register_engine
from .protocol import Engine, RoundRecord

__all__ = ["RoundRecord", "Simulator"]

_group_members = attrgetter("members")
_partition_layout = attrgetter("members", "bounds", "positions")


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
    cross_check:
        Debug flag.  When True, every round the maintained multiset and
        objective are verified against a full recomputation from the
        agent states — the labelled communication groups against a
        from-scratch component walk, every step the round loop took for
        a stutter against the relation's full judgement, and the round's
        counts against a rescan of its record — raising
        :class:`SimulationError` on any divergence (agent states mutated
        outside a group step, say).
    """

    checkpoint_kind = "simulator"

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        environment: Environment,
        initial_values: Sequence[Any],
        scheduler: Scheduler | None = None,
        seed: int | None = None,
        cross_check: bool = False,
    ):
        super().__init__(algorithm, environment, initial_values, seed)
        self.scheduler = scheduler or MaximalGroupsScheduler()
        self.cross_check = cross_check
        self._start_list_state()

    def _execute_round(self, round_index: int) -> RoundRecord:
        """Execute one round — one environment transition, one scheduled
        agent transition per group — and record what happened.

        The loop reads the schedule as one layout of the groups that run
        the step rule, ``(members, bounds, positions)``: group ``k`` is
        ``members[bounds[k]:bounds[k + 1]]``, at ``positions[k]`` in the
        schedule, and every other group stutters.  When the schedule is
        the state's own :class:`ComponentPartition` and lone agents
        stutter, that is the view's own layout, so the round builds no
        :class:`Group`; any other schedule builds its layout once.  The
        states of every group are gathered in one pass before any group
        installs (the groups are disjoint), the step rule runs on each
        group's slice, and only a result that is not a plain stutter is
        judged (:meth:`SelfSimilarAlgorithm.judge_step`).  The state
        deltas the steps install are folded into the maintained round
        state (:meth:`_fold_round`).
        """
        environment_state = self._advance_environment(round_index)
        rng = self._state.rng
        scheduled = self.scheduler.schedule(environment_state, rng)
        cross_check = self.cross_check
        # The state's own partition is disjoint and in range by
        # construction, so the O(n) validation pass is unnecessary.
        own = scheduled is environment_state.component_partition()
        if own:
            if cross_check:
                check_components(environment_state, "component labelling")
        else:
            _validate_partition(scheduled, self.environment.num_agents)
            # An empty group takes no step and is left out of the record.
            scheduled = [group for group in scheduled if group.members]
        # Singleton groups dominate sparse rounds; when the algorithm
        # declares that lone agents always stutter (and draw no
        # randomness), their step-rule calls can be skipped outright.
        smallest = 2 if self.algorithm.singleton_stutters else 1
        if own and smallest == 2:
            members, bounds, positions = _partition_layout(scheduled)
        else:
            members, bounds, positions = group_layout(
                map(_group_members, scheduled), smallest
            )

        states = self.states
        gathered = list(map(states.__getitem__, members))
        group_step = self.algorithm.group_step
        judge_step = self.algorithm.judge_step
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
            for position, start, stop in zip(positions, bounds, bounds[1:]):
                if stop - start > largest:
                    largest = stop - start
                before = gathered[start:stop]
                after = group_step(before, rng)
                # A list equal to the one the step rule ran on is a
                # stutter, which needs no judge.
                if type(after) is list and after == before:
                    if cross_check:
                        _verify_stutter(judge_step, before, after, round_index)
                    continue
                states_after, judgement = judge_step(before, after)
                if judgement is stutter:
                    continue
                judged[position] = judgement
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
                        members[start:stop], states, states_after
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
            if removed or added:
                state = self._state
                state.maintained = state.maintained.apply_delta(removed, added)
                state.objective_value = None
            raise

        multiset, objective, converged = self._fold_round(
            removed, added, not invalid
        )
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
        if cross_check:
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
            # float summations match the textbook replay bit for bit.
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


def _verify_stutter(judge_step, before: list, after: list, round_index: int) -> None:
    """Debug cross-check: a step the round loop took for a stutter is one
    by the relation's full judgement."""
    kind = judge_step(before, after, fast_stutter=False)[1].kind
    if kind is not StepKind.STUTTER:
        raise SimulationError(
            f"the round loop's stutter test diverged from the relation at "
            f"round {round_index}: {before!r} -> {after!r} is {kind.name}"
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
