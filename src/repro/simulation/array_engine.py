"""The struct-of-arrays vectorized engine: 100k–1M agents behind ``Engine``.

The object-per-agent :class:`~repro.simulation.engine.Simulator` prices
every round in Python objects — one :class:`~repro.agents.agent.Agent`
per agent, one :class:`~repro.agents.group.Group` per component, one
:class:`~repro.core.relation.StepJudgement` per step — which caps the
flagship workload at a few hundred rounds/sec at n=10k.  This module is
the scale path, and it has exactly one representation: agent state lives
in one flat numpy ``int64`` array, whole rounds of group steps run as a
handful of ``reduceat`` reductions, and grouping labels the effective
edge set as arrays without materializing ``Group`` objects.

Anything that representation cannot hold exactly is refused at
construction with a :class:`~repro.core.errors.SpecificationError`
pointing at ``engine="reference"``: numpy not importable, a kernel other
than the integer kernels (minimum, maximum, sum), a state that is not an
``int``, or initial values whose closed range under the step rule does
not provably fit ``int64``.  Everything else runs on the reference
engine, which already does it.

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
schedulers × environments, and ``cross_check=True`` re-derives every
vectorized round from the algorithm's own step rule at run time
(the PR 2/4 pattern: fast path opt-in, reference path byte-identical,
divergence loud).

Round bookkeeping reuses the incremental machinery the reference engine
introduced — fold the ``(removed, added)`` delta into a maintained
:class:`~repro.core.multiset.MutableMultiset`, update ``h`` in O(|delta|)
via :meth:`~repro.core.algorithm.SelfSimilarAlgorithm.objective_delta`,
decide convergence by fingerprint — but never takes a per-round snapshot:
round records are :class:`ArrayRoundRecord` objects whose ``multiset`` is
a lazy property, so a ``history="none"`` run materializes no per-agent
objects and no per-round bags at all.  The environment side stays in
arrays too: the stock churn environment's per-round draws are made here
as one :func:`~repro.environment.dynamics.uniform_draws` batch
(bit-identical to the run RNG's stream) and filtered as masks, bypassing
its ``advance`` (outside ``cross_check``); Markov churn is advanced
through its public ``advance``, which vectorizes its own transition on
large graphs and hands over the effective edges as ``int64`` arrays
(:attr:`~repro.environment.base.EnvironmentState.effective_edge_arrays`).
Communication components are labelled from those arrays by vectorized
min-label propagation — only an environment that builds no arrays pays
for a frozenset-to-array conversion — and, outside ``cross_check``, the
maintained bag is rebuilt lazily on access while convergence comes from a
vectorized comparison provably equivalent to multiset equality with the
target.

Checkpoints serialize through the same tagged codec as the reference
engine (``engine="array"``), so ``repro resume``, the durable batch
runner and the service's drain/restart path work unchanged.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Any, Callable, Hashable, Iterator, Sequence

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via the HAVE_NUMPY flag
    _numpy = None

from ..agents.scheduler import MaximalGroupsScheduler, Scheduler
from ..core.algorithm import SelfSimilarAlgorithm
from ..core.errors import SimulationError, SpecificationError
from ..core.multiset import Multiset
from ..core.relation import StepKind
from ..environment.base import (
    Environment,
    EnvironmentState,
    connected_component_tuples,
)
from ..environment.dynamics import (
    RandomChurnEnvironment,
    edge_endpoints,
    uniform_draws,
)
from ..registry import register_engine
from .checkpoint import (
    EngineCheckpoint,
    RoundState,
    RunCheckpoint,
    decode_rng_state,
    decode_state,
    encode_rng_state,
    encode_state,
    engine_checkpoint_of,
    rebuilt_multiset,
)
from .engine import Simulator, _validate_partition
from .protocol import Probe, run_engine
from .result import SimulationResult

__all__ = ["ArrayEngine", "ArrayRoundRecord", "HAVE_NUMPY", "INT64_MAX"]

#: Whether numpy is importable.  Module-level so tests (and the benchmark
#: guards) can monkeypatch it to False and see the engine refuse to build.
HAVE_NUMPY = _numpy is not None

#: Largest value a flat ``int64`` slot can hold.
INT64_MAX = 2**63 - 1

#: Kernels whose state domain is machine integers *closed under the step
#: rule* — minimum/maximum never leave the initial value range, and sum
#: keeps every value within ±(sum of absolute initial values) — so the
#: flat int64 representation cannot overflow once the initial values fit.
_INT_KERNELS = frozenset({"minimum", "maximum", "sum"})


def _refusal(kernel: str | None, states: Sequence[Hashable]) -> str | None:
    """Why the array engine cannot run these initial states, or None.

    The engine runs only the int64 ``reduceat`` kernels, so it admits a
    workload only when the kernel is one of :data:`_INT_KERNELS`, every
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
    if not all(type(value) is int for value in states):
        return "has initial states that are not ints"
    if kernel == "sum":
        if sum(map(abs, states)) > INT64_MAX:
            return (
                "has initial values whose sum of absolute values exceeds "
                "the int64 range a sum step can reach"
            )
    elif states and not (-(2**63) <= min(states) and max(states) <= INT64_MAX):
        return "has initial values outside the int64 range"
    if not HAVE_NUMPY:
        return "needs numpy for its int64 kernels, and numpy is not importable"
    return None


def _label_components(u, v, enabled_count: int):
    """Connected components of the effective edges ``(u[i], v[i])``.

    Labels components by min-label propagation with full path
    compression and returns ``(flat, offsets, sizes, group_steps,
    largest)``: the non-singleton components in the flat form the kernels
    consume — groups ordered by smallest member, members ascending (the
    order every scheduler presents, which the sum collector tie-break
    needs) — plus the group count including the ``enabled_count`` agents
    no edge touches, and the largest group size.
    """
    np = _numpy
    empty = np.empty(0, dtype=np.int64)
    if not u.shape[0]:
        return empty, empty, empty, enabled_count, (1 if enabled_count else 0)
    nodes, inverse = np.unique(np.concatenate((u, v)), return_inverse=True)
    index_u = inverse[: u.shape[0]]
    index_v = inverse[u.shape[0] :]
    labels = np.arange(nodes.shape[0], dtype=np.int64)
    while True:
        # Scatter-min across both edge directions, then compress label
        # chains to their roots; converges in O(log diameter) sweeps
        # because labels only ever decrease toward the component minimum.
        np.minimum.at(labels, index_u, labels[index_v])
        np.minimum.at(labels, index_v, labels[index_u])
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels[index_u], labels[index_v]):
            break
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    flat = nodes[order]
    offsets = np.flatnonzero(
        np.r_[True, sorted_labels[1:] != sorted_labels[:-1]]
    ).astype(np.int64)
    sizes = np.diff(np.append(offsets, flat.shape[0]))
    group_steps = offsets.shape[0] + (enabled_count - nodes.shape[0])
    return flat, offsets, sizes, group_steps, int(sizes.max())


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

    ``multiset`` is a *lazy* property: it snapshots the engine's
    maintained bag only when read (the history probe reads it under
    ``history="full"``, nothing does under ``"objective"``/``"none"``),
    which is what keeps O(1)-memory runs from paying O(distinct) per
    round.  The record is only current until the engine's bag next
    mutates; reading it later raises instead of returning a stale bag.
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
        """The agent-state multiset after this round (lazily snapshotted)."""
        engine = self._engine
        if engine._epoch != self._epoch:
            raise SimulationError(
                "this array-engine round record no longer reflects the "
                "engine's state (a later round already ran); read "
                "record.multiset before advancing, or run with "
                'history="full", which does exactly that'
            )
        return engine._maintained.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayRoundRecord(round={self.round_index}, "
            f"objective={self.objective!r}, converged={self.converged})"
        )


class ArrayEngine:
    """Simulate one kernel algorithm over flat state arrays.

    Implements the same :class:`~repro.simulation.protocol.Engine`
    protocol as the reference :class:`~repro.simulation.engine.Simulator`
    and produces value-identical results for every workload it admits:
    an algorithm declaring one of the int64
    :attr:`~repro.core.algorithm.SelfSimilarAlgorithm.kernel` values
    (minimum, maximum, sum) over ``int`` initial values that provably
    fit ``int64``, with numpy importable.  Everything else (the partial
    variants, average, kth-smallest, hull, circle, sorting, huge ints) is
    rejected at construction with a pointer back to the reference engine.

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
        :class:`MaximalGroupsScheduler`, whose partition the engine
        derives itself from the effective edge set (the scheduler draws
        no randomness, so bypassing it is stream-neutral).  Randomized
        schedulers run for real, on the run RNG, with the same draws as
        the reference engine.
    seed:
        Seed of the run's random generator; drawn and recorded when None,
        exactly as the reference engine does.
    record_trace:
        Selects the default ``history`` retention of :meth:`run`
        (``"full"`` when True, ``"objective"`` when False), mirroring the
        reference engine's flag.
    cross_check:
        Debug flag.  When True, every vectorized group result is
        re-derived from the algorithm's own step rule through the full
        relation judge, the maintained bag/fingerprint/objective are
        verified against a from-scratch recomputation every round, and
        the engine's component labelling is verified against
        :func:`connected_component_tuples` — any divergence raises
        :class:`SimulationError`.
    """

    def __init__(
        self,
        algorithm: SelfSimilarAlgorithm,
        environment: Environment,
        initial_values: Sequence[Any],
        scheduler: Scheduler | None = None,
        seed: int | None = None,
        record_trace: bool = True,
        cross_check: bool = False,
    ):
        if len(initial_values) != environment.num_agents:
            raise SimulationError(
                f"{len(initial_values)} initial values supplied for "
                f"{environment.num_agents} agents"
            )
        kernel = getattr(algorithm, "kernel", None)
        initial_states = algorithm.initial_states(initial_values)
        refusal = _refusal(kernel, initial_states)
        if refusal is not None:
            raise SpecificationError(
                f"algorithm {algorithm.name!r} {refusal}, so the array "
                'engine cannot execute it; run it with engine="reference"'
            )
        if seed is None:
            # Draw the effective seed explicitly so the run stays
            # reproducible: the result metadata records this value.
            seed = random.randrange(2**63)
        self.algorithm = algorithm
        self.environment = environment
        self.scheduler = scheduler or MaximalGroupsScheduler()
        self.seed = seed
        self.record_trace = record_trace
        self.cross_check = cross_check
        self.initial_values = list(initial_values)
        self._kernel = kernel
        self._guard_rng = _KernelGuardRng(algorithm.name)
        # The maximal scheduler draws no randomness and schedules exactly
        # the connected components, so the engine can derive the partition
        # itself from the effective edges — no Group objects, no O(n)
        # singleton enumeration.  Any other (or subclassed) scheduler runs
        # for real on the run RNG.
        self._maximal_bypass = type(self.scheduler) is MaximalGroupsScheduler

        self._initial_states = initial_states
        self._install_states(initial_states)
        self._initial_multiset = Multiset(initial_states)
        self._target = algorithm.target(initial_states)
        self._target_size = len(self._target)
        self._target_fingerprint = self._target.fingerprint()
        self._state = RoundState(seed, self._initial_multiset)
        # Bumped on every maintained-bag mutation; ArrayRoundRecord uses
        # it to refuse stale lazy snapshots.
        self._epoch = 0
        # Fast fold (no cross-check, exact objective deltas): the
        # maintained bag is rebuilt lazily on first access instead of
        # updated element-by-element every round, and the convergence
        # verdict comes from a vectorized comparison that is provably
        # equivalent to multiset equality with the target — see
        # _vectorized_converged.  The slow path keeps the incremental
        # bag, so cross_check still verifies fingerprints every round.
        self._bag_stale = False
        self._fast_fold = not cross_check and algorithm.objective.supports_delta
        self._fast_target = self._build_fast_target() if self._fast_fold else None
        # Churn bypass: RandomChurnEnvironment draws one uniform per
        # agent then one per edge in a fixed sequence, so the engine can
        # make those draws as one uniform_draws batch (bit-identical to
        # the run RNG's stream, which it leaves where the loop would),
        # then filter agents and edges vectorized.  Exact-type gate, like
        # the maximal bypass: a subclass may override the dynamics.
        self._churn_bypass = (
            not cross_check and type(environment) is RandomChurnEnvironment
        )
        self._churn_pending: tuple | None = None
        if self._churn_bypass:
            self._init_churn_tables()

    # -- storage ---------------------------------------------------------------

    def _install_states(self, states: Sequence[Hashable]) -> None:
        """(Re)build the flat ``int64`` state array from a list of agent states."""
        self._states = _numpy.array(states, dtype=_numpy.int64)

    # -- the explicit run state (see RoundState) --------------------------------

    @property
    def _rng(self) -> random.Random:
        return self._state.rng

    @property
    def _round_index(self) -> int:
        return self._state.round_index

    @property
    def _maintained(self):
        if self._bag_stale:
            # Fast-fold mode deferred the bag update; materialize it from
            # the flat states now.  Rebuilding is not a mutation of the
            # conceptual bag (same contents), so the epoch stays put.
            self._state.maintained = rebuilt_multiset(self.current_states())
            self._bag_stale = False
        return self._state.maintained

    # -- state access ------------------------------------------------------------

    def current_states(self) -> list:
        """Return the current agent states, indexed by agent id."""
        return self._states.tolist()

    def current_multiset(self) -> Multiset:
        """Return the current agent states as a multiset."""
        return self._maintained.snapshot()

    @property
    def target(self) -> Multiset:
        """The multiset ``S* = f(S(0))`` the agents must reach and keep."""
        return self._target

    @property
    def round_index(self) -> int:
        """Index of the next round :meth:`steps` will execute."""
        return self._round_index

    def has_converged(self) -> bool:
        """Return True when the agents are currently at ``S*``."""
        return self._maintained.matches(self._target)

    # -- execution ----------------------------------------------------------------

    def reset(self) -> None:
        """Restore the initial configuration (same seed, same initial values)."""
        self._state.reset(self.seed, self._initial_multiset)
        self._install_states(self._initial_states)
        self.environment.reset()
        self._bag_stale = False
        self._churn_pending = None
        self._epoch += 1

    # -- checkpoint / restore -------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Serialize the run state at the current round boundary.

        Same codec and same shape as the reference engine's checkpoint
        (``engine="array"``): agent states, RNG state, the maintained
        objective value, the environment's mutable state.  Per-agent
        participation counters do not exist here (the engine never
        materializes agents), so ``agent_counters`` stays None.
        """
        state = self._state
        return EngineCheckpoint(
            engine="array",
            seed=self.seed,
            round_index=state.round_index,
            rng_state=encode_rng_state(state.rng.getstate()),
            agent_states=[encode_state(value) for value in self.current_states()],
            objective_value=encode_state(state.objective_value),
            environment=self.environment.state_dict(),
        )

    def restore(self, checkpoint: EngineCheckpoint | RunCheckpoint | dict) -> None:
        """Restore a checkpoint into this (identically-constructed) engine.

        Same contract as the reference engine: engine kind, seed and
        agent count are verified, the RNG and environment state are
        restored exactly, and the maintained bag is rebuilt from the
        restored states — the continued run is value-identical to the
        uninterrupted one.
        """
        if isinstance(checkpoint, RunCheckpoint):
            checkpoint = checkpoint.engine
        checkpoint = engine_checkpoint_of(checkpoint)
        if checkpoint.engine != "array":
            raise SimulationError(
                f"cannot restore a {checkpoint.engine!r} checkpoint into "
                "the array engine"
            )
        if checkpoint.seed != self.seed:
            raise SimulationError(
                f"checkpoint was taken under seed {checkpoint.seed}, but "
                f"this engine runs seed {self.seed}; restore requires an "
                "identically-constructed engine"
            )
        if len(checkpoint.agent_states) != self.environment.num_agents:
            raise SimulationError(
                f"checkpoint holds {len(checkpoint.agent_states)} agent "
                f"states for {self.environment.num_agents} agents"
            )
        state = self._state
        state.rng.setstate(decode_rng_state(checkpoint.rng_state))
        state.round_index = checkpoint.round_index
        self._install_states(
            [decode_state(encoded) for encoded in checkpoint.agent_states]
        )
        self.environment.load_state(checkpoint.environment)
        state.maintained = rebuilt_multiset(self.current_states())
        state.objective_value = decode_state(checkpoint.objective_value)
        self._bag_stale = False
        self._churn_pending = None
        self._epoch += 1

    # -- the round loop --------------------------------------------------------------

    def _advance_environment(self, round_index: int) -> EnvironmentState | None:
        """One environment transition.

        The plain :meth:`Environment.advance` draws exactly the random
        numbers :meth:`advance_with_delta` draws (that is the
        delta-reporting contract, pinned by the environment parity
        suite), so the array engine and the reference engine consume one
        identical random stream whichever bookkeeping mode each uses.

        Under the churn bypass the same draws are made as one vectorized
        batch (see :meth:`_churn_advance`); with the
        maximal scheduler on top, no :class:`EnvironmentState` is needed
        at all — the round goes straight from boolean masks to the
        component arrays, and this method returns None with the masks
        parked in ``_churn_pending``.
        """
        if self._churn_bypass:
            return self._churn_advance(round_index)
        return self.environment.advance(round_index, self._rng)

    # -- the churn bypass ----------------------------------------------------

    def _init_churn_tables(self) -> None:
        """Precompute the edge endpoint arrays the vectorized churn advance
        filters.

        The endpoints are frozen in exactly the iteration order
        :meth:`RandomChurnEnvironment._advance` consumes its edge draws,
        and the agent ids are ``range(num_agents)`` (the agent draws come
        first, in id order), so boolean masks over the draw vector select
        the same agents and edges the reference loop selects.
        """
        self._churn_edges = self.environment._edge_sequence
        self._churn_edge_u, self._churn_edge_v = edge_endpoints(self._churn_edges)

    def _churn_advance(self, round_index: int) -> EnvironmentState | None:
        """RandomChurnEnvironment.advance, with the draws made vectorized.

        :func:`~repro.environment.dynamics.uniform_draws` makes the whole
        round's uniforms as one batch, bit-for-bit the stream the
        reference loop would draw, and leaves the run RNG exactly where
        ``environment.advance`` would have left it.
        """
        env = self.environment
        num_agents = env.num_agents
        draws = uniform_draws(self._rng, num_agents + self._churn_edge_u.shape[0])
        agent_up = env.agent_up_probability
        enabled_mask = None if agent_up >= 1.0 else draws[:num_agents] < agent_up
        edge_mask = draws[num_agents:] < env.edge_up_probability
        env._previous = None  # exactly what Environment.advance() leaves behind
        if self._maximal_bypass:
            self._churn_pending = (enabled_mask, edge_mask)
            return None
        return self._churn_state(enabled_mask, edge_mask, round_index)

    def _churn_state(self, enabled_mask, edge_mask, round_index: int) -> EnvironmentState:
        """Masks -> the EnvironmentState the reference advance builds.

        Insertion order is replicated (agents ascending by draw order,
        edges in ``_edge_sequence`` order), so even frozenset iteration
        order matches a reference-built state.
        """
        env = self.environment
        if enabled_mask is None or bool(enabled_mask.all()):
            enabled = env._all_agents
        else:
            enabled = frozenset(_numpy.flatnonzero(enabled_mask).tolist())
        edges = self._churn_edges
        selected = frozenset(
            edges[index] for index in _numpy.flatnonzero(edge_mask).tolist()
        )
        return EnvironmentState(enabled, selected, round_index)

    def _labelled_components(self, environment_state: EnvironmentState | None):
        """The maximal partition, in the flat form the kernels consume.

        The effective edges (both endpoints enabled) come from the
        pending churn masks on a vectorized churn round
        (``environment_state`` is None), from the state's
        ``effective_edge_arrays`` when its environment built them, and
        from its effective edge set otherwise; either way they are
        labelled by :func:`_label_components`.
        """
        np = _numpy
        if environment_state is None:
            enabled_mask, edge_mask = self._churn_pending
            self._churn_pending = None
            edge_u = self._churn_edge_u
            edge_v = self._churn_edge_v
            if enabled_mask is None:
                keep = edge_mask
                enabled_count = self.environment.num_agents
            else:
                keep = edge_mask & enabled_mask[edge_u] & enabled_mask[edge_v]
                enabled_count = int(np.count_nonzero(enabled_mask))
            return _label_components(edge_u[keep], edge_v[keep], enabled_count)
        enabled_count = len(environment_state.enabled_agents)
        arrays = environment_state.effective_edge_arrays
        if arrays is not None:
            return _label_components(arrays[0], arrays[1], enabled_count)
        edges = environment_state.effective_edges()
        endpoints = np.fromiter(
            chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
        )
        return _label_components(endpoints[0::2], endpoints[1::2], enabled_count)

    def _execute_round(self, round_index: int) -> ArrayRoundRecord:
        """Execute one round — one environment transition, one vectorized
        agent transition — and record what happened.

        Under the maximal scheduler the partition is labelled as arrays
        straight from the effective edges; any other scheduler runs for
        real (its random draws are part of the run stream).  Group steps
        then run as ``reduceat`` kernels — re-derived through the
        algorithm's own step rule under ``cross_check`` — and the
        resulting ``(removed, added)`` delta folds into the maintained
        round state exactly as in the reference engine.
        """
        environment_state = self._advance_environment(round_index)
        if self._maximal_bypass:
            # Masks or edges -> component arrays -> flat kernel
            # reductions, with no Group lists at all.
            flat, offsets, sizes, group_steps, largest = self._labelled_components(
                environment_state
            )
            groups = None
            if self.cross_check:
                groups = self._verify_components(
                    environment_state, flat, offsets, group_steps
                )
            if flat.shape[0]:
                removed, added, improving = self._numpy_flat_round(
                    flat, offsets, sizes, groups
                )
            else:
                removed, added, improving = [], [], 0
        else:
            scheduled = self.scheduler.schedule(environment_state, self._rng)
            _validate_partition(scheduled, self.environment.num_agents)
            groups = []
            group_steps = 0
            largest = 0
            for group in scheduled:
                size = len(group.members)
                if size == 0:
                    continue
                group_steps += 1
                if size > largest:
                    largest = size
                if size >= 2:
                    # Singleton kernel steps are identity by contract
                    # (and draw nothing), so only real groups execute.
                    groups.append(group.members)
            if groups:
                removed, added, improving = self._numpy_group_round(groups)
            else:
                removed, added, improving = [], [], 0

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

    def _numpy_group_round(
        self, groups: Sequence[Sequence[int]]
    ) -> tuple[list, list, int]:
        """One round of group steps as flat ``reduceat`` reductions.

        Every group is at least a pair, so the segment offsets are
        strictly increasing and no reduction sees an empty segment.
        Returns the round's ``(removed, added)`` delta as Python ints
        (what the maintained bag and the tagged checkpoint codec store)
        plus the number of groups that changed.
        """
        np = _numpy
        group_count = len(groups)
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=group_count)
        total = int(sizes.sum())
        flat = np.fromiter(
            (member for members in groups for member in members),
            dtype=np.int64,
            count=total,
        )
        offsets = np.zeros(group_count, dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        return self._numpy_flat_round(flat, offsets, sizes, groups)

    def _numpy_flat_round(
        self, flat, offsets, sizes, groups: Sequence[Sequence[int]] | None = None
    ) -> tuple[list, list, int]:
        """The reduceat core, on a partition already in flat-array form.

        ``groups`` (the same partition as member lists) is only needed
        for the cross-check re-derivation.
        """
        np = _numpy
        states = self._states
        group_count = offsets.shape[0]
        total = flat.shape[0]
        values = states[flat]

        kernel = self._kernel
        if kernel == "minimum":
            new_values = np.repeat(np.minimum.reduceat(values, offsets), sizes)
        elif kernel == "maximum":
            new_values = np.repeat(np.maximum.reduceat(values, offsets), sizes)
        else:  # "sum" — _INT_KERNELS gates which kernels reach this path
            totals = np.add.reduceat(values, offsets)
            positives = np.add.reduceat((values > 0).astype(np.int64), offsets)
            group_ids = np.repeat(np.arange(group_count, dtype=np.int64), sizes)
            maxima = np.maximum.reduceat(values, offsets)
            positions = np.arange(total, dtype=np.int64)
            # The step rule's collector is the first occurrence of the
            # group maximum in member order: mask non-maxima to one past
            # the end, take the per-group minimum position.
            collectors = np.minimum.reduceat(
                np.where(values == maxima[group_ids], positions, total), offsets
            )
            new_values = np.zeros(total, dtype=np.int64)
            new_values[collectors] = totals
            # Groups with at most one positive value stutter (the step
            # rule's guard): restore their slots wholesale.
            inactive = positives <= 1
            if inactive.any():
                keep = np.repeat(inactive, sizes)
                new_values[keep] = values[keep]

        changed = values != new_values
        if not changed.any():
            if self.cross_check:
                self._verify_kernel_groups(groups, values.tolist(), values.tolist())
            return [], [], 0
        removed = values[changed].tolist()
        added = new_values[changed].tolist()
        improving = int(np.logical_or.reduceat(changed, offsets).sum())
        if self.cross_check:
            self._verify_kernel_groups(groups, values.tolist(), new_values.tolist())
        states[flat[changed]] = new_values[changed]
        return removed, added, improving

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

    def _fold_round(self, removed: list, added: list) -> tuple[float, bool]:
        """Fold one round's state delta into the maintained round state.

        Mirrors the reference engine's incremental fold, minus the
        per-round snapshot: the objective delta is priced against the
        maintained bag itself (kernel objectives all support exact
        deltas, so the bag is never actually evaluated), and convergence
        is decided by the bag's size → fingerprint → counts comparison.
        """
        state = self._state
        if self._fast_fold:
            if state.objective_value is None:
                state.objective_value = self.algorithm.objective(
                    self._maintained.snapshot()
                )
            if removed or added:
                # Defer the bag update: the flat states already hold the
                # round's outcome, so the bag is rebuilt from them on
                # first access instead of patched element-by-element.
                # The epoch still bumps — the conceptual bag mutated.
                self._bag_stale = True
                self._epoch += 1
                # The exact-delta contract (gated at construction via
                # objective.supports_delta) means the bag argument is
                # never evaluated, so passing the deferred one is safe.
                state.objective_value = self.algorithm.objective_delta(
                    state.objective_value, state.maintained, removed, added
                )
            return state.objective_value, self._vectorized_converged()
        maintained = state.maintained
        if state.objective_value is None:
            # First use: price the objective once, on the pre-delta bag.
            state.objective_value = self.algorithm.objective(maintained.snapshot())
        if removed or added:
            try:
                maintained.apply_delta(removed, added)
            except KeyError as error:
                raise SimulationError(
                    "incremental round state out of sync with the flat "
                    f"agent states: {error.args[0]}"
                ) from error
            self._epoch += 1
        objective = self.algorithm.objective_delta(
            state.objective_value, maintained, removed, added
        )
        state.objective_value = objective
        converged = maintained.matches(self._target)
        if self.cross_check:
            self._verify_maintained_state(objective)
        return objective, converged

    def _build_fast_target(self) -> tuple:
        """Precompute the vectorized form of the convergence test.

        A uniform target (minimum/maximum: every agent at the extremum)
        reduces multiset equality to one elementwise comparison.  Any
        other target (sum: total on one agent, zero elsewhere) gets a
        cheap necessary gate — the count of slots differing from the
        target's most common value must match — and only when the gate
        passes does the O(n log n) sorted comparison run, which a
        conservation-law kernel reaches at most a handful of times per
        run.  Both forms decide exactly ``multiset(states) == target``.
        """
        np = _numpy
        pairs = self._target.most_common()
        if len(pairs) <= 1:
            value = pairs[0][0] if pairs else 0
            return ("uniform", value)
        common, multiplicity = pairs[0]
        sorted_target = np.sort(
            np.fromiter(self._target, dtype=np.int64, count=self._target_size)
        )
        return ("mixed", common, self._target_size - multiplicity, sorted_target)

    def _vectorized_converged(self) -> bool:
        """Exact convergence verdict from the flat states (fast fold)."""
        np = _numpy
        states = self._states
        target = self._fast_target
        if target[0] == "uniform":
            return bool((states == target[1]).all())
        _, common, expected_other, sorted_target = target
        if int(np.count_nonzero(states != common)) != expected_other:
            return False
        return bool(np.array_equal(np.sort(states), sorted_target))

    # -- cross-checks ------------------------------------------------------------

    def _verify_components(
        self,
        environment_state: EnvironmentState,
        flat,
        offsets,
        group_steps: int,
    ) -> list[list[int]]:
        """Debug cross-check: labelled components == the component walk.

        Compares the vectorized labelling against
        :func:`connected_component_tuples` on the same state and returns
        the labelled groups as member lists, which the kernel cross-check
        re-derives through the step rule.
        """
        members = flat.tolist()
        bounds = offsets.tolist() + [len(members)]
        groups = [members[start:end] for start, end in zip(bounds, bounds[1:])]
        expected = connected_component_tuples(
            environment_state.enabled_agents, environment_state.effective_edges()
        )
        expected_groups = [list(c) for c in expected if len(c) >= 2]
        if groups != expected_groups or group_steps != len(expected):
            raise SimulationError(
                "array-engine component labelling diverged from the "
                f"component walk at round {environment_state.round_index}: "
                f"{groups!r} ({group_steps} groups) vs {expected_groups!r} "
                f"({len(expected)} groups)"
            )
        return groups

    def _verify_kernel_groups(
        self,
        groups: Sequence[Sequence[int]],
        flat_before: list,
        flat_after: list,
    ) -> None:
        """Debug cross-check: vectorized results == the step rule's results."""
        position = 0
        for members in groups:
            size = len(members)
            before = flat_before[position : position + size]
            after = flat_after[position : position + size]
            position += size
            expected = self._checked_group_step(before)
            if expected != after:
                raise SimulationError(
                    f"vectorized {self._kernel!r} kernel diverged from the "
                    f"step rule on group {tuple(members)!r}: kernel produced "
                    f"{after!r}, step rule produced {expected!r}"
                )

    def _verify_maintained_state(self, objective: float) -> None:
        """Debug cross-check: maintained state == full recomputation."""
        full = Multiset(self.current_states())
        maintained = self._maintained.snapshot()
        if full != maintained:
            raise SimulationError(
                "array-engine maintained multiset diverged from the flat "
                f"agent states: maintained {maintained!r} vs actual {full!r}"
            )
        if full.fingerprint() != self._maintained.fingerprint():
            raise SimulationError(
                "array-engine fingerprint diverged from recomputed "
                f"fingerprint ({self._maintained.fingerprint():#x} vs "
                f"{full.fingerprint():#x})"
            )
        full_objective = self.algorithm.objective(full)
        if full_objective != objective:
            raise SimulationError(
                "array-engine objective diverged from full recomputation "
                f"({objective!r} vs {full_objective!r})"
            )

    # -- the Engine protocol -----------------------------------------------------

    def steps(self, max_rounds: int | None = None) -> Iterator[ArrayRoundRecord]:
        """Stream the simulation, one :class:`ArrayRoundRecord` per round.

        Same contract as the reference engine: lazy, resumable, no loose
        state when abandoned.
        """
        executed = 0
        while max_rounds is None or executed < max_rounds:
            record = self._execute_round(self._round_index)
            self._state.round_index += 1
            executed += 1
            yield record

    def initial_snapshot(self) -> tuple[Multiset, float]:
        """The pre-run ``(multiset, objective)`` pair (Engine protocol)."""
        initial_multiset = self._maintained.snapshot()
        if self._state.objective_value is None:
            self._state.objective_value = self.algorithm.objective(initial_multiset)
        return initial_multiset, self._state.objective_value

    def trace_complete(self, converged: bool, stopped_by_callback: bool) -> bool:
        """Once at ``S* = f(S*)``, every further step is a stutter, so the
        observed prefix determines the whole computation — provided the
        algorithm actually enforces ``D`` and the run was not cut short."""
        return converged and self.algorithm.enforce and not stopped_by_callback

    def finish_metadata(self) -> dict:
        """Run metadata recorded on the result (Engine protocol)."""
        return {
            "algorithm": self.algorithm.name,
            "environment": self.environment.describe(),
            "scheduler": self.scheduler.describe(),
            "num_agents": self.environment.num_agents,
            "seed": self.seed,
            "engine": "array",
        }

    def run(
        self,
        max_rounds: int = 1000,
        stop_at_convergence: bool = True,
        extra_rounds_after_convergence: int = 0,
        on_round: Callable[[ArrayRoundRecord], bool | None] | None = None,
        probes: Sequence[Probe] | None = None,
        history: str | None = None,
        resume_from: RunCheckpoint | None = None,
    ) -> SimulationResult:
        """Run the simulation and return a :class:`SimulationResult`.

        Delegates to the shared engine driver exactly as the reference
        engine does; see :func:`~repro.simulation.protocol.run_engine`.
        """
        if history is None:
            history = "full" if self.record_trace else "objective"
        if resume_from is not None:
            self.restore(resume_from)
        return run_engine(
            self,
            max_rounds=max_rounds,
            stop_at_convergence=stop_at_convergence,
            extra_rounds_after_convergence=extra_rounds_after_convergence,
            on_round=on_round,
            probes=probes,
            history=history,
            resume_from=resume_from,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayEngine({self.algorithm.name!r}, "
            f"n={self.environment.num_agents}, kernel={self._kernel!r})"
        )


# -- registry entries -------------------------------------------------------------


@register_engine("reference")
def reference_engine(
    algorithm: SelfSimilarAlgorithm,
    environment: Environment,
    initial_values: Sequence[Any],
    scheduler: Scheduler | None = None,
    seed: int | None = None,
    record_trace: bool = True,
    **kwargs: Any,
) -> Simulator:
    """The byte-identical object-per-agent reference engine (the classic Simulator)."""
    return Simulator(
        algorithm=algorithm,
        environment=environment,
        initial_values=initial_values,
        scheduler=scheduler,
        seed=seed,
        record_trace=record_trace,
        **kwargs,
    )


@register_engine("array")
def array_engine(
    algorithm: SelfSimilarAlgorithm,
    environment: Environment,
    initial_values: Sequence[Any],
    scheduler: Scheduler | None = None,
    seed: int | None = None,
    record_trace: bool = True,
    **kwargs: Any,
) -> ArrayEngine:
    """The struct-of-arrays vectorized engine for kernel algorithms (100k-1M agents)."""
    return ArrayEngine(
        algorithm=algorithm,
        environment=environment,
        initial_values=initial_values,
        scheduler=scheduler,
        seed=seed,
        record_trace=record_trace,
        **kwargs,
    )
