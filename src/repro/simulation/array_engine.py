"""The struct-of-arrays vectorized engine: 100k–1M agents behind ``Engine``.

The reference :class:`~repro.simulation.engine.Simulator` prices
every round in Python objects — one state object per agent, one
:class:`~repro.agents.group.Group` per component, one
:class:`~repro.core.relation.StepJudgement` per step — which caps the
flagship workload at a few hundred rounds/sec at n=10k.  This module is
the scale path, and it has exactly one representation: agent state lives
in one flat numpy ``int64`` array, and neither grouping nor the group
steps sort.  Grouping labels the effective edge set over the fixed
agent-id index — each component's label is its smallest agent id —
without materializing ``Group`` objects; whole rounds of group steps run
as a handful of scatter reductions (``minimum.at``/``maximum.at``/
``add.at``) keyed by that label, or by the group's position when a
scheduler runs for real; and the objective delta is priced on the
``int64`` delta arrays exactly.

Anything that representation cannot hold exactly is refused at
construction with a :class:`~repro.core.errors.SpecificationError`
pointing at ``engine="reference"``: numpy not importable, a kernel other
than the integer kernels (minimum, maximum, sum), an objective without
an exact ``int64`` array delta, a state that is not an ``int``, or
initial values whose closed range under the step rule does not provably
fit ``int64``.  Everything else runs on the reference engine, which
already does it.

What makes the vectorized round safe is the
:attr:`~repro.core.algorithm.SelfSimilarAlgorithm.kernel` contract: an
algorithm that declares a kernel promises its step rule is a
deterministic pure function of the ordered state list that draws no
randomness at any group size and changes at least one element *iff* the
step is an improvement, so the engine can classify steps (improvement /
stutter, never invalid) without running the relation judge, and —
because the run's only random draws are the
environment's and the scheduler's, made identically here and in the
reference engine — every round's state delta, objective value and
convergence verdict is **value-identical** to the reference
``Simulator``'s.  The parity suite pins this across algorithms ×
schedulers × environments.

Round bookkeeping never leaves the arrays and never snapshots: the
objective is folded with the objective's exact array delta
(:meth:`~repro.core.objective.ObjectiveFunction.array_delta`), and
convergence comes from a test provably equivalent to multiset equality
with the target: under a uniform target (minimum, maximum) a count of
the agents off it, moved by the same delta, and otherwise a vectorized
comparison.  Round records are
:class:`ArrayRoundRecord` objects whose ``multiset`` is built from the
flat states only when read, so a ``history="none"`` run materializes no
per-agent objects and no per-round bags at all.  The environment side
stays in arrays too: an environment that offers an array form of its
transition (:meth:`~repro.environment.base.Environment.array_transition`
— the stock churn environment, whose per-round draws are one
:func:`~repro.environment.dynamics.uniform_draws` batch bit-identical to
the run RNG's stream) is advanced through it instead of its ``advance``;
Markov churn is advanced through its public ``advance``, which
vectorizes its own transition on large graphs.  Both hand the engine the
array form of the environment state
(:meth:`~repro.environment.base.EnvironmentState.from_arrays`): the
engine reads only its enabled count and its effective edges as ``int64``
arrays
(:attr:`~repro.environment.base.EnvironmentState.effective_edge_arrays`),
so under the maximal scheduler no round builds the state's frozensets.
Communication components are the state's own labelling
(:meth:`~repro.environment.base.EnvironmentState.component_labels`,
vectorized min-label propagation over those arrays — the same labelling
the reference engine reads); only an environment that builds no arrays
pays for a frozenset-to-array conversion.  ``cross_check=True`` runs this
same program and checks every round of it against from-scratch oracles.

Checkpoints serialize through the same tagged codec as the reference
engine (``engine="array"``), so ``repro resume``, the durable batch
runner and the service's drain/restart path work unchanged.
"""

from __future__ import annotations

import copy
import random
from itertools import chain
from typing import Any, Hashable, Sequence

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via the HAVE_NUMPY flag
    _numpy = None

from ..agents.scheduler import MaximalGroupsScheduler, Scheduler
from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SimulationError, SpecificationError
from ..core.multiset import Multiset
from ..core.objective import ObjectiveFunction
from ..core.relation import StepKind
from ..environment.base import Environment, EnvironmentState, check_components
from ..registry import register_engine
from .checkpoint import EngineCheckpoint, RoundState, decode_state, encode_state
from .engine import _validate_partition
from .protocol import Engine

__all__ = ["ArrayEngine", "ArrayRoundRecord", "HAVE_NUMPY", "INT64_MAX"]

#: Whether numpy is importable.  Module-level so tests (and the benchmark
#: guards) can monkeypatch it to False and see the engine refuse to build.
HAVE_NUMPY = _numpy is not None

#: Largest value a flat ``int64`` slot can hold.
INT64_MAX = 2**63 - 1

#: Smallest value a flat ``int64`` slot can hold.
INT64_MIN = -(2**63)

#: Kernels whose state domain is machine integers *closed under the step
#: rule* — minimum/maximum never leave the initial value range, and sum
#: keeps every value within ±(sum of absolute initial values) — so the
#: flat int64 representation cannot overflow once the initial values fit.
_INT_KERNELS = frozenset({"minimum", "maximum", "sum"})


def _refusal(
    kernel: str | None, objective: ObjectiveFunction, states: Sequence[Hashable]
) -> str | None:
    """Why the array engine cannot run these initial states, or None.

    The engine runs only the int64 group-step kernels and folds ``h``
    only in int64, so it admits a workload only when the kernel is one of
    :data:`_INT_KERNELS`, the objective prices int64 deltas exactly, every
    state is an ``int``, the step rule's closed value range provably fits
    ``int64``, and numpy is importable.
    """
    if kernel is None:
        return (
            "declares no vectorizable kernel (kernels promise a "
            "deterministic, draw-free step rule — see "
            "SelfSimilarAlgorithm.kernel)"
        )
    if kernel not in _INT_KERNELS:
        return (
            f"declares the {kernel!r} kernel, but the array engine runs "
            f"only the int64 kernels {sorted(_INT_KERNELS)}"
        )
    if not objective.supports_array_delta:
        return (
            f"declares the {kernel!r} kernel, but its objective "
            f"{objective.name!r} has no exact int64 array delta (see "
            "ObjectiveFunction.array_delta_fn)"
        )
    if not all(type(value) is int for value in states):
        return "has initial states that are not ints"
    if kernel == "sum":
        if sum(map(abs, states)) > INT64_MAX:
            return (
                "has initial values whose sum of absolute values exceeds "
                "the int64 range a sum step can reach"
            )
    elif states and not (INT64_MIN <= min(states) and max(states) <= INT64_MAX):
        return "has initial values outside the int64 range"
    if not HAVE_NUMPY:
        return "needs numpy for its int64 kernels, and numpy is not importable"
    return None


def _scheduled_arrays(groups: Sequence[Sequence[int]]):
    """Scheduled groups as ``(ids, group_of_id)`` for :func:`_group_step_kernel`.

    ``ids`` concatenates the member lists in schedule order, keeping each
    group's member order, and ``group_of_id`` keys every member by the
    position of its group in ``groups``.
    """
    np = _numpy
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    ids = np.fromiter(
        chain.from_iterable(groups), dtype=np.int64, count=int(sizes.sum())
    )
    return ids, np.repeat(np.arange(len(groups), dtype=np.int64), sizes)


def _group_step_kernel(kernel: str, values, group_of_id, group_count: int):
    """One round of group steps as scatter reductions keyed by group.

    ``values[i]`` is the state of the ``i``-th member and
    ``group_of_id[i]`` (in ``range(group_count)``) its group; a group's
    member order is the order of its members in ``values``.  Minimum and
    maximum reduce into a sentinel-filled array indexed by group and
    gather back.  Sum concentrates each group's total on its collector —
    the first member, in member order, holding the group maximum — unless
    the group holds at most one positive value, which stutters, exactly as
    the step rule does.

    Returns ``(new_values, changed, improving, group_steps, largest)``:
    the states after the step, the ascending positions of the changed
    slots, the number of groups that changed, the number of non-empty
    groups and the largest group size.
    """
    np = _numpy
    if kernel == "minimum":
        reduced = np.full(group_count, INT64_MAX, dtype=np.int64)
        np.minimum.at(reduced, group_of_id, values)
        new_values = reduced.take(group_of_id)
    elif kernel == "maximum":
        reduced = np.full(group_count, INT64_MIN, dtype=np.int64)
        np.maximum.at(reduced, group_of_id, values)
        new_values = reduced.take(group_of_id)
    else:  # "sum" — _INT_KERNELS gates which kernels reach this path
        totals = np.zeros(group_count, dtype=np.int64)
        np.add.at(totals, group_of_id, values)
        positives = np.bincount(group_of_id[values > 0], minlength=group_count)
        maxima = np.full(group_count, INT64_MIN, dtype=np.int64)
        np.maximum.at(maxima, group_of_id, values)
        # The collector is the first maximum in member order: the
        # smallest position among the slots holding the group maximum.
        at_maximum = np.flatnonzero(values == maxima.take(group_of_id))
        collectors = np.full(group_count, values.shape[0], dtype=np.int64)
        np.minimum.at(collectors, group_of_id.take(at_maximum), at_maximum)
        stepping = positives > 1
        new_values = np.where(stepping.take(group_of_id), 0, values)
        stepping_groups = np.flatnonzero(stepping)
        new_values[collectors.take(stepping_groups)] = totals.take(stepping_groups)
    changed = np.flatnonzero(new_values != values)
    improved = np.zeros(group_count, dtype=bool)
    improved[group_of_id.take(changed)] = True
    # Only the non-empty groups and the largest one are read, so the
    # counts stop at the last group with a member.
    counts = np.bincount(group_of_id)
    return (
        new_values,
        changed,
        int(np.count_nonzero(improved)),
        int(np.count_nonzero(counts)),
        int(counts.max()) if counts.shape[0] else 0,
    )


class _KernelGuardRng(random.Random):
    """A ``random.Random`` that refuses to be drawn from.

    Kernel algorithms declare their step rules draw no randomness; the
    engine passes this guard instead of the run RNG so a violation raises
    immediately instead of silently desynchronising the random stream
    from the reference engine.  Every stdlib draw method bottoms out in
    ``random()`` or ``getrandbits()``, so overriding both is exhaustive.
    """

    def __init__(self, algorithm_name: str):
        super().__init__(0)
        self._algorithm_name = algorithm_name

    def _refuse(self) -> None:
        raise SimulationError(
            f"algorithm {self._algorithm_name!r} declares a vectorizable "
            "kernel but its group step drew randomness; kernel step rules "
            "must be deterministic (run it with engine=\"reference\")"
        )

    def random(self) -> float:
        self._refuse()

    def getrandbits(self, k: int) -> int:
        self._refuse()


class ArrayRoundRecord:
    """What one vectorized round did — duck-typed to ``RoundRecord``.

    The driver (:func:`~repro.simulation.protocol.run_engine`) reads the
    step counters as plain attributes; unlike the reference engine's
    frozen record there are no per-group ``groups``/``judgements`` tuples
    to derive them from, because the engine never materialized any.

    ``multiset`` is a *lazy* property: it builds the bag from the
    engine's flat states only when read (the history probe reads it
    under ``history="full"``, nothing does under
    ``"objective"``/``"none"``), which is what keeps O(1)-memory runs
    from paying O(n) per round.  The record is only current until the
    engine's states next change; reading it later raises instead of
    returning a stale bag.
    """

    __slots__ = (
        "round_index",
        "objective",
        "converged",
        "group_steps",
        "improving_steps",
        "stutter_steps",
        "invalid_steps",
        "largest_group",
        "_engine",
        "_epoch",
    )

    def __init__(
        self,
        engine: "ArrayEngine",
        round_index: int,
        objective: float,
        converged: bool,
        group_steps: int,
        improving_steps: int,
        largest_group: int,
    ):
        self.round_index = round_index
        self.objective = objective
        self.converged = converged
        self.group_steps = group_steps
        self.improving_steps = improving_steps
        # The kernel contract (change iff improvement) and the guard RNG
        # make invalid steps unreachable: every non-improving step left
        # its group untouched, i.e. stuttered.
        self.stutter_steps = group_steps - improving_steps
        self.invalid_steps = 0
        self.largest_group = largest_group
        self._engine = engine
        self._epoch = engine._epoch

    @property
    def multiset(self) -> Multiset:
        """The agent-state multiset after this round (built when read)."""
        engine = self._engine
        if engine._epoch != self._epoch:
            raise SimulationError(
                "this array-engine round record no longer reflects the "
                "engine's state (a later round already ran); read "
                "record.multiset before advancing, or run with "
                'history="full", which does exactly that'
            )
        return engine.current_multiset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayRoundRecord(round={self.round_index}, "
            f"objective={self.objective!r}, converged={self.converged})"
        )


@register_engine("array")
class ArrayEngine(Engine):
    """The struct-of-arrays vectorized engine for kernel algorithms (100k-1M agents).

    Simulates one kernel algorithm over flat state arrays.  It is an
    :class:`~repro.simulation.protocol.Engine` like the reference
    :class:`~repro.simulation.engine.Simulator` and produces
    value-identical results for every workload it admits:
    an algorithm declaring one of the int64
    :attr:`~repro.core.algorithm.SelfSimilarAlgorithm.kernel` values
    (minimum, maximum, sum) over ``int`` initial values that provably
    fit ``int64``, with numpy importable.  Everything else (the partial
    variants, average, kth-smallest, hull, circle, sorting, huge ints) is
    rejected at construction with a pointer back to the reference engine.

    Grouping and group steps never sort.  When the scheduler hands back
    the state's own partition
    (:meth:`~repro.environment.base.EnvironmentState.component_partition`,
    as the maximal scheduler and any subclass deferring to it do) every
    agent an effective edge touches is keyed by its component's label,
    the smallest agent id in the component; under any other schedule by
    its group's position in the schedule.  One
    :func:`_group_step_kernel` call then steps every group of two or more
    agents as scatter reductions over that key, and the ``int64`` delta
    arrays fold into the objective exactly.

    Parameters
    ----------
    algorithm:
        The kernel-declaring :class:`SelfSimilarAlgorithm` to execute.
    environment:
        The environment model producing per-round availability.  Its
        random draws are made exactly as the reference engine makes them,
        which is what keeps the two engines on one random stream.
    initial_values:
        The problem inputs, one per agent; count must match the
        environment's topology.
    scheduler:
        How groups are formed each round; defaults to
        :class:`MaximalGroupsScheduler`.  The engine calls it every
        round, on the run RNG, with the same draws as the reference
        engine; when it returns the state's own partition view, the
        engine reads the state's labelling instead of the groups.
    seed:
        Seed of the run's random generator; drawn and recorded when None,
        exactly as the reference engine does.
    cross_check:
        Debug flag.  When True the engine runs the same paths and checks
        every round against from-scratch oracles: each group result
        against the algorithm's own step rule (through the full relation
        judge), the labelling against the from-scratch component walk
        (:func:`~repro.environment.base.check_components`),
        the array transition's state and RNG state against the public
        ``advance`` on a copy of the run RNG, the initial objective and
        target against ``h`` and ``algorithm.target`` recomputed from the
        initial states, and the folded objective and convergence verdict
        against the multiset of the flat states.  Any divergence raises
        :class:`SimulationError`.
    """

    checkpoint_kind = "array"

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
        kernel = getattr(algorithm, "kernel", None)
        initial_states = algorithm.initial_states(self.initial_values)
        refusal = _refusal(kernel, algorithm.objective, initial_states)
        if refusal is not None:
            raise SpecificationError(
                f"algorithm {algorithm.name!r} {refusal}, so the array "
                'engine cannot execute it; run it with engine="reference"'
            )
        self.scheduler = scheduler or MaximalGroupsScheduler()
        self.cross_check = cross_check
        self._kernel = kernel
        self._guard_rng = _KernelGuardRng(algorithm.name)

        self._initial_states = initial_states
        # The initial bag is built once: the target is f of it, and it is
        # cached below as the epoch-0 bag that initial_snapshot() returns.
        initial_bag = Multiset(initial_states)
        self._target = algorithm.function(initial_bag)
        # No maintained bag: the objective is folded from int64 deltas and
        # convergence decided on the flat states (_vectorized_converged).
        self._converged_test = self._build_converged_test()
        self._install_states(initial_states)
        self._state = RoundState(self.seed)
        # Bumped whenever the flat states change; ArrayRoundRecord uses it
        # to refuse stale lazy bags, and current_multiset() to reuse the
        # bag it last built.
        self._epoch = 0
        self._bag: tuple[int, Multiset] | None = (0, initial_bag)
        # Asked for here, so its tables are built with the engine.
        self._array_advance = environment.array_transition()

    # -- storage ---------------------------------------------------------------

    def _install_states(self, states: Sequence[Hashable]) -> None:
        """(Re)build the flat ``int64`` state array from a list of agent
        states, and under a uniform target the count of agents off it."""
        np = _numpy
        self._states = np.array(states, dtype=np.int64)
        test = self._converged_test
        if test[0] == "uniform":
            self._off_target = int(np.count_nonzero(self._states != test[1]))

    # -- state access ------------------------------------------------------------

    def current_states(self) -> list:
        """Return the current agent states, indexed by agent id."""
        return self._states.tolist()

    def current_multiset(self) -> Multiset:
        """Return the current agent states as a multiset (built from the
        flat states on first read after they change)."""
        bag = self._bag
        if bag is None or bag[0] != self._epoch:
            bag = self._bag = (self._epoch, Multiset(self.current_states()))
        return bag[1]

    def has_converged(self) -> bool:
        """Return True when the agents are currently at ``S*``."""
        return self._vectorized_converged()

    # -- execution ----------------------------------------------------------------

    def reset(self) -> None:
        """Restore the initial configuration (same seed, same initial values)."""
        self._state.reset(self.seed)
        self._install_states(self._initial_states)
        self.environment.reset()
        self._epoch += 1

    # -- checkpoint / restore: the engine's half -----------------------------------

    def _checkpoint_agents(self) -> dict:
        """The flat agent states, encoded."""
        return {
            "agent_states": [encode_state(value) for value in self.current_states()]
        }

    def _restore_agents(self, checkpoint: EngineCheckpoint) -> None:
        self._install_states(
            [decode_state(encoded) for encoded in checkpoint.agent_states]
        )
        self._epoch += 1

    # -- the round loop --------------------------------------------------------------

    def _advance_environment(self, round_index: int) -> EnvironmentState:
        """One environment transition.

        Through the environment's array transition when it offers one,
        through its public :meth:`Environment.advance` otherwise; both
        make exactly the draws the reference engine's advance makes, so
        the two engines consume one identical random stream.  Under
        ``cross_check`` the public advance also runs, on a copy of the
        run RNG, as the array transition's oracle.
        """
        rng = self._state.rng
        if self._array_advance is None:
            return self.environment.advance(round_index, rng)
        if self.cross_check:
            return self._checked_array_advance(round_index, rng)
        return self._array_advance(round_index, rng)

    def _execute_round(self, round_index: int) -> ArrayRoundRecord:
        """Execute one round — one environment transition, one vectorized
        agent transition — and record what happened.

        When the scheduler returns this state's partition view, the
        partition is labelled as arrays straight from the effective
        edges, and each component is keyed by its label; any other
        schedule is validated and its groups are keyed by their position
        in the schedule.  Either way the groups of two or more
        agents run as one :func:`_group_step_kernel` call — re-derived
        through the algorithm's own step rule under ``cross_check`` — and
        the resulting ``(removed, added)`` delta folds into the objective.
        Singleton steps are identity by the kernel contract (and draw
        nothing), so they are only counted.
        """
        state = self._state
        if state.objective_value is None:
            # First use: price the objective once, on the pre-round states.
            state.objective_value = self._initial_objective()
        environment_state = self._advance_environment(round_index)
        scheduled = self.scheduler.schedule(environment_state, self._state.rng)
        if scheduled is environment_state.component_partition():
            # The state's own partition: its components are keyed by
            # their labels, read straight from the labelling, so the view
            # never builds its layout or a Group.
            ids, labels = environment_state.component_labels()
            group_of_id = labels.take(ids)
            group_count = labels.shape[0]
            groups = None
            if self.cross_check:
                components = check_components(
                    environment_state, "array-engine component labelling"
                )
                groups = [list(members) for members in components if len(members) >= 2]
            singletons = environment_state.enabled_count - ids.shape[0]
        else:
            _validate_partition(scheduled, self.environment.num_agents)
            groups = [group.members for group in scheduled if len(group.members) >= 2]
            singletons = sum(1 for group in scheduled if len(group.members) == 1)
            group_count = len(groups)
            ids, group_of_id = _scheduled_arrays(groups)
        removed, added, improving, group_steps, largest = self._kernel_round(
            ids, group_of_id, group_count, groups
        )
        if singletons:
            group_steps += singletons
            largest = max(largest, 1)
        objective, converged = self._fold_round(removed, added)
        return ArrayRoundRecord(
            self,
            round_index,
            objective,
            converged,
            group_steps,
            improving,
            largest,
        )

    def _kernel_round(
        self,
        ids,
        group_of_id,
        group_count: int,
        groups: Sequence[Sequence[int]] | None,
    ) -> tuple[Any, Any, int, int, int]:
        """Run :func:`_group_step_kernel` on agents ``ids`` and install the
        result.

        Returns the round's ``(removed, added)`` delta as ``int64`` arrays
        plus the kernel's ``improving``, ``group_steps`` and ``largest``
        counts.  ``groups`` (the same partition as member lists) is only
        needed for the cross-check re-derivation, which runs before
        anything is installed.
        """
        states = self._states
        values = states.take(ids)
        new_values, where, improving, group_steps, largest = _group_step_kernel(
            self._kernel, values, group_of_id, group_count
        )
        if self.cross_check:
            self._verify_kernel_groups(groups, ids, values, new_values)
        added = new_values.take(where)
        if where.shape[0]:
            states[ids.take(where)] = added
            self._epoch += 1
        return values.take(where), added, improving, group_steps, largest

    def _checked_group_step(self, before: list) -> list:
        """Run one group step through the full relation judge (cross-check).

        ``apply_group_step`` with ``fast_stutter=False`` judges the step
        against ``D`` with enforcement, and the verdict doubles as a
        check of the kernel contract itself: a changed group must have
        been judged an improvement.
        """
        after, judgement = self.algorithm.apply_group_step(
            before, self._guard_rng, fast_stutter=False
        )
        changed = after != before
        if changed != (judgement.kind is StepKind.IMPROVEMENT):
            raise SimulationError(
                f"kernel contract violated by {self.algorithm.name!r}: a "
                f"group step {'changed' if changed else 'kept'} the states "
                f"but was judged {judgement.kind.name}"
            )
        return after

    def _fold_round(self, removed, added) -> tuple[float, bool]:
        """Fold one round's state delta (``int64`` arrays) into the
        objective and decide convergence, both without leaving the arrays.

        The objective's exact array delta prices the delta, and under a
        uniform target the delta moves the count of agents off it; the
        verdict comes from :meth:`_vectorized_converged`.  Under
        ``cross_check`` both are compared with a recomputation from the
        flat states.
        """
        np = _numpy
        state = self._state
        if removed.shape[0]:
            state.objective_value = self.algorithm.objective_array_delta(
                state.objective_value, removed, added
            )
            test = self._converged_test
            if test[0] == "uniform":
                self._off_target += int(np.count_nonzero(removed == test[1])) - int(
                    np.count_nonzero(added == test[1])
                )
        converged = self._vectorized_converged()
        if self.cross_check:
            self._verify_fold(state.objective_value, converged)
        return state.objective_value, converged

    def _build_converged_test(self) -> tuple:
        """Precompute the vectorized form of the convergence test.

        A uniform target (minimum/maximum: every agent at the extremum)
        reduces multiset equality to a count of the agents off it, built
        with the flat states (:meth:`_install_states`) and moved by each
        round's delta (:meth:`_fold_round`).  Any other target (sum:
        total on one agent, zero elsewhere) gets a cheap necessary gate —
        the count of slots differing from the target's most common value
        must match — and only when the gate passes does the O(n log n)
        sorted comparison run, which a conservation-law kernel reaches at
        most a handful of times per run.  Both forms decide exactly
        ``multiset(states) == target``.
        """
        np = _numpy
        pairs = self._target.most_common()
        if len(pairs) <= 1:
            value = pairs[0][0] if pairs else 0
            return ("uniform", value)
        common, multiplicity = pairs[0]
        sorted_target = np.sort(
            np.fromiter(self._target, dtype=np.int64, count=len(self._target))
        )
        return ("mixed", common, len(self._target) - multiplicity, sorted_target)

    def _vectorized_converged(self) -> bool:
        """Exact convergence verdict from the flat states."""
        np = _numpy
        target = self._converged_test
        if target[0] == "uniform":
            return self._off_target == 0
        states = self._states
        _, common, expected_other, sorted_target = target
        if int(np.count_nonzero(states != common)) != expected_other:
            return False
        return bool(np.array_equal(np.sort(states), sorted_target))

    # -- cross-checks ------------------------------------------------------------

    def _verify_kernel_groups(
        self,
        groups: Sequence[Sequence[int]],
        ids,
        values,
        new_values,
    ) -> None:
        """Debug cross-check: kernel results == the step rule's results.

        ``values``/``new_values`` hold agent ``ids[i]``'s state before
        and after the kernel at position ``i``.
        """
        position = {agent: index for index, agent in enumerate(ids.tolist())}
        flat_before = values.tolist()
        flat_after = new_values.tolist()
        for members in groups:
            before = [flat_before[position[agent]] for agent in members]
            after = [flat_after[position[agent]] for agent in members]
            expected = self._checked_group_step(before)
            if expected != after:
                raise SimulationError(
                    f"vectorized {self._kernel!r} kernel diverged from the "
                    f"step rule on group {tuple(members)!r}: kernel produced "
                    f"{after!r}, step rule produced {expected!r}"
                )

    def _checked_array_advance(
        self, round_index: int, rng: random.Random
    ) -> EnvironmentState:
        """Debug cross-check: the array transition's state, enabled count,
        effective edges and RNG state == those of the public advance, run
        on a copy of the run RNG (and of the environment)."""
        oracle_rng = copy.copy(rng)
        expected = copy.copy(self.environment).advance(round_index, oracle_rng)
        state = self._array_advance(round_index, rng)
        u, v = state.effective_edge_arrays
        pairs = sorted(zip(u.tolist(), v.tolist()))
        name = type(self.environment).__name__
        if (
            state != expected
            or state.enabled_count != len(expected.enabled_agents)
            or pairs != sorted(expected.effective_edges())
        ):
            raise SimulationError(
                f"array environment transition diverged from {name}.advance "
                f"at round {round_index}: {state!r} (effective edges "
                f"{pairs!r}) vs {expected!r}"
            )
        if rng.getstate() != oracle_rng.getstate():
            raise SimulationError(
                "array environment transition left the run RNG in a "
                f"different state from {name}.advance at round {round_index}"
            )
        return state

    def _verify_fold(self, objective: float, converged: bool) -> None:
        """Debug cross-check: the int64 fold and the vectorized verdict ==
        a recomputation from the multiset of the flat states."""
        full = Multiset(self.current_states())
        full_objective = self.algorithm.objective(full)
        if full_objective != objective:
            raise SimulationError(
                "array-engine objective diverged from full recomputation "
                f"({objective!r} vs {full_objective!r})"
            )
        expected = full == self._target
        if converged != expected:
            raise SimulationError(
                "array-engine vectorized convergence verdict diverged from "
                f"multiset equality with the target ({converged} vs "
                f"{expected})"
            )

    # -- Engine hooks -------------------------------------------------------------

    def initial_snapshot(self) -> tuple[Multiset, float]:
        """The pre-run ``(multiset, objective)`` pair.

        Under ``cross_check`` the objective is compared with ``h`` of the
        bag and the target with ``algorithm.target`` of the initial
        states, both recomputed from scratch.
        """
        initial_multiset = self.current_multiset()
        state = self._state
        if state.objective_value is None:
            state.objective_value = self._initial_objective()
        if self.cross_check:
            full_objective = self.algorithm.objective(initial_multiset)
            if full_objective != state.objective_value:
                raise SimulationError(
                    "array-engine initial objective diverged from full "
                    f"recomputation ({state.objective_value!r} vs "
                    f"{full_objective!r})"
                )
            if self.algorithm.target(self._initial_states) != self._target:
                raise SimulationError(
                    "array-engine target diverged from algorithm.target of "
                    "the initial states"
                )
        return initial_multiset, state.objective_value

    def _initial_objective(self) -> float:
        """``h`` of the flat states: priced on the ``int64`` array when the
        objective can (:meth:`ObjectiveFunction.array_value`), on the bag
        otherwise."""
        value = self.algorithm.objective.array_value(self._states)
        if value is None:
            value = self.algorithm.objective(self.current_multiset())
        return value

    def finish_metadata(self) -> dict:
        """Run metadata recorded on the result."""
        return {**super().finish_metadata(), "engine": "array"}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayEngine({self.algorithm.name!r}, "
            f"n={self.environment.num_agents}, kernel={self._kernel!r})"
        )
