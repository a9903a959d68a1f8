"""The textbook replay, the reference engine's oracle.

A round, as the paper defines it: the environment takes its transition,
then every scheduled group applies the step rule to its part of the
multiset ``S``.  :class:`TextbookReplay` does that and no more: it shares
no labeller, partition view, group layout, stutter shortcut or
maintained bag with :class:`~repro.simulation.engine.Simulator`, and no
spec, CLI flag or service request can select it.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..agents.group import Group
from ..agents.scheduler import MaximalGroupsScheduler, Scheduler
from ..core.algorithm import SelfSimilarAlgorithm
from ..core.multiset import Multiset
from ..core.relation import StepKind
from ..environment.base import Environment, connected_component_tuples
from ..simulation.protocol import Engine, RoundRecord

__all__ = ["TextbookReplay"]


class TextbookReplay(Engine):
    """The paper's round, replayed: the reference engine's constructor
    arguments less ``cross_check``, the same random draws from the same
    seed, and records and results equal to its own."""

    checkpoint_kind = "textbook-replay"

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        environment: Environment,
        initial_values: Sequence[Any],
        scheduler: Scheduler | None = None,
        seed: int | None = None,
    ):
        super().__init__(algorithm, environment, initial_values, seed)
        self.scheduler = scheduler or MaximalGroupsScheduler()
        self._start_list_state()

    def _advance_environment(self, round_index: int):
        """The environment's transition, taken as is."""
        return self.environment.advance(round_index, self._state.rng)

    def _execute_round(self, round_index: int) -> RoundRecord:
        """The groups are the components of a graph walk under the stock
        maximal scheduler, and any other scheduler's non-empty groups;
        every step is judged in full, lone agents' included, and every
        one that is not a stutter installed."""
        environment_state = self._advance_environment(round_index)
        rng = self._state.rng
        if type(self.scheduler) is MaximalGroupsScheduler:
            groups = list(map(Group, connected_component_tuples(
                environment_state.enabled_agents,
                environment_state.effective_edges(),
            )))
        else:
            scheduled = self.scheduler.schedule(environment_state, rng)
            groups = [group for group in scheduled if len(group)]
        states = self.states
        judgements = []
        for group in groups:
            after, judgement = self.algorithm.apply_group_step(
                [states[agent] for agent in group], rng, fast_stutter=False
            )
            judgements.append(judgement)
            if judgement.kind is not StepKind.STUTTER:
                for agent, state in zip(group, after):
                    states[agent] = state
        multiset = Multiset(states)
        objective = self.algorithm.objective(multiset)
        # The round state initial_snapshot() and checkpoint() read.
        self._state.maintained = multiset
        self._state.objective_value = objective
        kinds = [judgement.kind for judgement in judgements]
        improving = kinds.count(StepKind.IMPROVEMENT)
        stutter = kinds.count(StepKind.STUTTER)
        return RoundRecord(
            round_index=round_index,
            multiset=multiset,
            objective=objective,
            converged=multiset == self._target,
            groups=tuple(groups),
            judgements=tuple(judgements),
            improving_steps=improving,
            stutter_steps=stutter,
            invalid_steps=len(kinds) - improving - stutter,
            largest_group=max(map(len, groups), default=0),
        )
