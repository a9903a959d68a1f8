"""Stochastic environment dynamics.

These environments model the benign-but-unreliable settings the paper's
introduction motivates: links and agents go up and down because of noise,
power loss, interference or mobility.  None of them is adversarial (see
:mod:`repro.environment.adversary` for that); their randomness guarantees
— with probability one — that every edge of the underlying topology is
available infinitely often, i.e. the paper's assumption ``Q_E`` holds, so
the self-similar algorithms converge with probability one and merely take
longer when availability is scarce ("speed up or slow down depending on
the resources available").
"""

from __future__ import annotations

import math
import random
import threading
from itertools import compress

try:
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised by the without-numpy CI leg
    _numpy = None

from ..core.errors import EnvironmentError_
from ..registry import register_environment
from . import base
from .base import Environment, EnvironmentState, Topology, edge_endpoints

__all__ = [
    "StaticEnvironment",
    "RandomChurnEnvironment",
    "MarkovChurnEnvironment",
    "PeriodicDutyCycleEnvironment",
    "VECTORIZED_MIN_DRAWS",
    "edge_endpoints",
    "masked_state",
    "randint_draws",
    "uniform_draws",
]

#: Draw count from which this module's draws run as numpy batches
#: instead of a Python loop: :class:`MarkovChurnEnvironment`'s per-round
#: draws (edges + agents) and :func:`randint_draws`.  Measured, not tuned
#: per run: a batch pays a fixed ~0.3 ms (the generator state into numpy
#: and back, plus a dozen small array calls), and the Markov loop ~0.1 µs
#: per draw, so the two break even near 3000 draws on ring and complete
#: graphs.  The ``randint`` loop costs ~0.8 µs a draw, but the first batch
#: in a process also imports ``numpy.random`` (~16 ms, ~2 MB), so smaller
#: instances keep the loop (Python 3.11, numpy 2.4, one x86-64 vCPU).
VECTORIZED_MIN_DRAWS = 3000

#: Per-thread numpy ``RandomState`` used by :func:`uniform_draws` and
#: :func:`randint_draws` as a state container (``state``).  Built once per
#: thread because construction costs about as much as a whole state round
#: trip.  ``holds`` is the :class:`random.Random` internal state the
#: scratch was last left in, or None: a call whose generator is in exactly
#: that state (nothing drew from it since the last batch) draws on the
#: scratch as it is; every other call overwrites its entire state first,
#: so nothing else carries over from one call to the next.
_draw_scratch = threading.local()


def uniform_draws(rng: random.Random, count: int):
    """``count`` uniforms from ``rng`` as one float64 numpy array.

    Bit-identical to ``[rng.random() for _ in range(count)]``, and ``rng``
    is left in exactly the state that loop leaves.  numpy's legacy
    ``RandomState`` runs the same MT19937 core as :class:`random.Random`
    and derives doubles with the identical ``(a >> 5, b >> 6)`` 53-bit
    recipe, and the two state tuples interconvert losslessly: the batch
    is drawn on a ``RandomState`` loaded with ``rng``'s exact state, and
    the advanced state is written back.  A pending ``gauss()`` value is
    carried through untouched (``random()`` never consumes it).  Needs
    numpy.
    """
    return _drawn_on_scratch(rng, lambda scratch: scratch.random_sample(count))


def randint_draws(rng: random.Random, count: int, low: int, high: int) -> list:
    """``count`` integers from ``[low, high]`` drawn from ``rng``, as a list.

    Equal to ``[rng.randint(low, high) for _ in range(count)]``, and
    ``rng`` is left in exactly the state that loop leaves.  For a span
    ``high - low + 1`` below ``2**32``, ``randint`` takes the top
    ``k = span.bit_length()`` bits of one 32-bit MT19937 word and rejects
    values ``>= span``; numpy's legacy ``RandomState`` yields the same raw
    words from the same state (NEP 19 freezes that stream), so the words
    are drawn as numpy batches, shifted and filtered.  Each batch draws
    only as many words as values are still missing, so no batch overshoots
    and the final generator state is the loop's.  Counts below
    :data:`VECTORIZED_MIN_DRAWS`, larger spans (whose ``randint`` reads
    two words per try), endpoints outside ``int64`` and a missing numpy
    run the loop itself.
    """
    np = _numpy
    span = high - low + 1
    if (
        np is None
        or count < VECTORIZED_MIN_DRAWS
        or span.bit_length() > 32
        or not (-(2**63) <= low and high < 2**63)
    ):
        return [rng.randint(low, high) for _ in range(count)]
    shift = 32 - span.bit_length()

    def draw(scratch) -> list:
        drawn: list = []
        while len(drawn) < count:
            words = scratch.randint(0, 2**32, size=count - len(drawn), dtype=np.uint32)
            values = words >> shift
            drawn += (values[values < span].astype(np.int64) + low).tolist()
        return drawn

    return _drawn_on_scratch(rng, draw)


def _drawn_on_scratch(rng: random.Random, draw):
    """``draw(scratch)`` on this thread's scratch ``RandomState`` loaded
    with ``rng``'s exact MT19937 state, after which ``rng`` is advanced to
    the scratch's state.  A pending ``gauss()`` value is kept.  The
    scratch is loaded only when it does not already hold that state."""
    np = _numpy
    scratch = getattr(_draw_scratch, "state", None)
    if scratch is None:
        scratch = _draw_scratch.state = np.random.RandomState()
        _draw_scratch.holds = None
    version, internal, gauss = rng.getstate()
    if internal != _draw_scratch.holds:
        scratch.set_state(
            ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
        )
    # Cleared first, so a draw that raises leaves no stale claim behind.
    _draw_scratch.holds = None
    drawn = draw(scratch)
    keys, position = scratch.get_state()[1:3]
    internal = tuple(keys.tolist()) + (int(position),)
    rng.setstate((version, internal, gauss))
    _draw_scratch.holds = internal
    return drawn


def masked_state(
    edge_sequence, endpoints, up_edges, agent_up, round_index: int, all_agents=None
) -> EnvironmentState:
    """The array form (:meth:`EnvironmentState.from_arrays`) of a masked
    state.

    The enabled agents are those set in the bool mask ``agent_up``, or —
    when ``agent_up`` is None — ``all_agents``: every agent, as the
    topology's one read-only ascending ``int64`` id array
    (:meth:`~repro.environment.base.Topology.agent_id_array`); the
    available edges are ``up_edges``, an ascending ``int64`` index into
    ``edge_sequence``, whose ``(u, v)`` endpoint arrays are
    ``endpoints`` (the topology's draw-order table).  Every other array
    the state holds is fresh, never a view of the mask.  Needs numpy.
    """
    np = _numpy
    edge_u, edge_v = endpoints
    enabled = all_agents
    effective = up_edges
    if agent_up is not None:
        enabled = np.flatnonzero(agent_up)
        if enabled.shape[0] < agent_up.shape[0]:
            effective = up_edges[
                agent_up.take(edge_u.take(up_edges))
                & agent_up.take(edge_v.take(up_edges))
            ]
    return EnvironmentState.from_arrays(
        enabled,
        edge_sequence,
        up_edges,
        round_index,
        (edge_u.take(effective), edge_v.take(effective)),
    )


@register_environment("static")
class StaticEnvironment(Environment):
    """A benign environment: every agent enabled, every edge always available.

    This is the degenerate case in which a dynamic distributed system
    behaves like a classical static one; baselines such as the repeated
    global snapshot are at their best here.

    The enabled set never changes, so it is built once and shared by every
    round's state: consecutive states share both sets, their delta is
    empty by identity, and a static run's connectivity is computed
    exactly once.
    """

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._all_agents: frozenset[int] | None = None

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        if self._all_agents is None:
            self._all_agents = frozenset(self.topology.agent_ids)
        return EnvironmentState(
            enabled_agents=self._all_agents,
            available_edges=self.topology.edges,
            round_index=round_index,
        )

    def fairness_predicates(self):
        return tuple(f"edge {edge} available" for edge in sorted(self.topology.edges))

    def describe(self) -> str:
        return "static (all agents and edges always available)"


@register_environment("churn")
class RandomChurnEnvironment(Environment):
    """Independent per-round availability of edges and agents.

    Each round, every topology edge is available independently with
    probability ``edge_up_probability`` and every agent is enabled
    independently with probability ``agent_up_probability``.  With both
    probabilities positive, every edge is available (with both endpoints
    enabled) infinitely often with probability one, so ``Q_E`` holds.

    Parameters
    ----------
    topology:
        The underlying communication graph ``E``.
    edge_up_probability:
        Probability that an edge is available in a given round.
    agent_up_probability:
        Probability that an agent is enabled in a given round.

    The draws walk the topology's draw-order edge table
    (:meth:`~repro.environment.base.Topology.edge_sequence`), and the
    array form reads its endpoint arrays and all-agent id array; the
    environment keeps no table of its own.
    """

    def __init__(
        self,
        topology: Topology,
        edge_up_probability: float = 0.5,
        agent_up_probability: float = 1.0,
    ):
        super().__init__(topology)
        for name, value in (
            ("edge_up_probability", edge_up_probability),
            ("agent_up_probability", agent_up_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise EnvironmentError_(f"{name} must be in [0, 1], got {value}")
        self.edge_up_probability = edge_up_probability
        self.agent_up_probability = agent_up_probability
        # The all-enabled set of the rounds in which every agent is up,
        # built on the first such round without numpy (the array form
        # holds the topology's id array instead).  Built in ascending id
        # order, as a fresh construction is, so sharing it never changes
        # iteration order.
        self._all_agents: frozenset[int] | None = None

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        # One uniform draw per agent, then one per edge, in a fixed order —
        # exactly the stream the filtering loops below consume.  When every
        # agent passes (agent_up_probability 1), the agent draws are still
        # consumed (stream parity) but not compared: draw() is in [0, 1),
        # so ``draw() < 1`` never filters anything.  Each random() consumes
        # exactly two 32-bit words of the generator, so one getrandbits
        # call of 64 bits per agent leaves it where those draws would.
        draw = rng.random
        agent_up = self.agent_up_probability
        up_agents = None
        if agent_up >= 1.0:
            rng.getrandbits(64 * self.topology.num_agents)
        else:
            up_agents = [
                agent for agent in self.topology.agent_ids if draw() < agent_up
            ]
            if len(up_agents) == self.topology.num_agents:
                up_agents = None
        edge_up = self.edge_up_probability
        topology = self.topology
        sequence = topology.edge_sequence()
        up_edges = [index for index in range(len(sequence)) if draw() < edge_up]
        if base._numpy is None:
            if up_agents is None:
                if self._all_agents is None:
                    self._all_agents = frozenset(topology.agent_ids)
                enabled = self._all_agents
            else:
                enabled = frozenset(up_agents)
            return EnvironmentState(
                enabled, frozenset(map(sequence.__getitem__, up_edges)), round_index
            )
        # The array form (masked_state): the labelling reads its effective
        # edge arrays, and its frozensets are built only if read.
        np = _numpy
        agent_mask = None
        if up_agents is not None:
            agent_mask = np.zeros(topology.num_agents, dtype=np.bool_)
            agent_mask[up_agents] = True
        return masked_state(
            sequence,
            topology.edge_endpoint_arrays(),
            np.array(up_edges, dtype=np.int64),
            agent_mask,
            round_index,
            topology.agent_id_array(),
        )

    def array_transition(self):
        # With numpy: _advance_arrays.  It reproduces this class's own
        # transition, so a subclass that overrides it does not inherit it.
        if _numpy is None or type(self).advance is not RandomChurnEnvironment.advance:
            return None
        self.topology.edge_endpoint_arrays()
        self.topology.agent_id_array()
        return self._advance_arrays

    def _advance_arrays(
        self, round_index: int, rng: random.Random
    ) -> EnvironmentState:
        """:meth:`advance` with the draws — one per agent, then one per
        edge — made as one :func:`uniform_draws` batch and filtered as
        masks into the array form of the same state (:func:`masked_state`).
        """
        topology = self.topology
        num_agents = topology.num_agents
        sequence = topology.edge_sequence()
        draws = uniform_draws(rng, num_agents + len(sequence))
        agent_up = self.agent_up_probability
        return masked_state(
            sequence,
            topology.edge_endpoint_arrays(),
            _numpy.flatnonzero(draws[num_agents:] < self.edge_up_probability),
            None if agent_up >= 1.0 else draws[:num_agents] < agent_up,
            round_index,
            topology.agent_id_array(),
        )

    def fairness_predicates(self):
        if self.edge_up_probability > 0 and self.agent_up_probability > 0:
            return tuple(
                f"edge {edge} available (w.p. {self.edge_up_probability} per round)"
                for edge in sorted(self.topology.edges)
            )
        return ()

    def describe(self) -> str:
        return (
            f"random churn (edge up {self.edge_up_probability}, "
            f"agent up {self.agent_up_probability})"
        )


@register_environment("markov-churn")
class MarkovChurnEnvironment(Environment):
    """Edges and agents fail and recover with per-round transition rates.

    Unlike :class:`RandomChurnEnvironment`, availability is correlated in
    time: an edge that is down stays down for a geometrically distributed
    number of rounds (mean ``1 / recovery_probability``).  This models
    longer outages — a link stays broken until repaired, an agent stays
    dark until it finds power — while still satisfying ``Q_E`` with
    probability one as long as the recovery probability is positive.

    The chain's state is two byte masks (1 = up): one over the edges in
    the topology's draw order
    (:meth:`~repro.environment.base.Topology.edge_sequence`), one over
    the agent ids.
    Each round draws one uniform per edge, then one per agent, in that
    order, and an entry flips when its draw is below its failure (up) or
    recovery (down) probability.  From :data:`VECTORIZED_MIN_DRAWS` draws
    per round, with numpy importable, the draws are one
    :func:`uniform_draws` batch and the masks flip vectorized; below it a
    Python loop makes the same draws.  Both paths leave the random stream
    in the same place and produce equal states — frozenset iteration
    order included — and the same checkpoints.  A vectorized round
    returns the array form of its state
    (:meth:`EnvironmentState.from_arrays`): the up agents and the up-edge
    index as ``int64`` arrays, plus the effective edges as ``int64``
    ``(u, v)`` arrays (:attr:`EnvironmentState.effective_edge_arrays`),
    masked from the topology's endpoint table, which the first vectorized
    round asks for; the environment keeps no table of its own.
    Its frozensets are built only when something reads them: the
    component labelling and the array engine read only the arrays, and
    the reference engine compares consecutive array-form states on their
    arrays (:meth:`~repro.environment.base.EnvironmentState.unchanged_from`).
    """

    def __init__(
        self,
        topology: Topology,
        edge_failure_probability: float = 0.1,
        edge_recovery_probability: float = 0.3,
        agent_failure_probability: float = 0.0,
        agent_recovery_probability: float = 1.0,
    ):
        super().__init__(topology)
        for name, value in (
            ("edge_failure_probability", edge_failure_probability),
            ("edge_recovery_probability", edge_recovery_probability),
            ("agent_failure_probability", agent_failure_probability),
            ("agent_recovery_probability", agent_recovery_probability),
        ):
            if not 0.0 <= value <= 1.0:
                raise EnvironmentError_(f"{name} must be in [0, 1], got {value}")
        self.edge_failure_probability = edge_failure_probability
        self.edge_recovery_probability = edge_recovery_probability
        self.agent_failure_probability = agent_failure_probability
        self.agent_recovery_probability = agent_recovery_probability
        self._edge_up = bytearray()
        self._agent_up = bytearray()
        self.reset()

    def reset(self) -> None:
        self._edge_up = bytearray(b"\x01") * len(self.topology.edge_sequence())
        self._agent_up = bytearray(b"\x01") * self.topology.num_agents

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        if (
            _numpy is not None
            and len(self._edge_up) + len(self._agent_up) >= VECTORIZED_MIN_DRAWS
        ):
            return self._vectorized_transition(round_index, rng)
        draw = rng.random
        _flip_loop(
            self._edge_up,
            draw,
            self.edge_failure_probability,
            self.edge_recovery_probability,
        )
        _flip_loop(
            self._agent_up,
            draw,
            self.agent_failure_probability,
            self.agent_recovery_probability,
        )
        # Mask order: the insertion order the array form's lazy sets use.
        return EnvironmentState(
            frozenset(compress(self.topology.agent_ids, self._agent_up)),
            frozenset(compress(self.topology.edge_sequence(), self._edge_up)),
            round_index,
        )

    def _vectorized_transition(
        self, round_index: int, rng: random.Random
    ) -> EnvironmentState:
        """The transition on one batch of draws, returning the array form
        of the state it leads to (:func:`masked_state`)."""
        np = _numpy
        topology = self.topology
        sequence = topology.edge_sequence()
        edge_count = len(sequence)
        draws = uniform_draws(rng, edge_count + len(self._agent_up))
        edge_up = np.frombuffer(self._edge_up, dtype=np.bool_)
        agent_up = np.frombuffer(self._agent_up, dtype=np.bool_)
        _flip_masked(
            edge_up,
            draws[:edge_count],
            self.edge_failure_probability,
            self.edge_recovery_probability,
        )
        _flip_masked(
            agent_up,
            draws[edge_count:],
            self.agent_failure_probability,
            self.agent_recovery_probability,
        )
        return masked_state(
            sequence,
            topology.edge_endpoint_arrays(),
            np.flatnonzero(edge_up),
            agent_up,
            round_index,
        )

    def state_dict(self) -> dict:
        # The chain's current up/down assignment decides which transition
        # probability each future draw is compared against, so it is the
        # one piece of evolution state a checkpoint must carry.  Stored
        # sparsely (down sets only; everything starts up).
        return {
            "edges_down": sorted(
                list(edge)
                for edge, up in zip(self.topology.edge_sequence(), self._edge_up)
                if not up
            ),
            "agents_down": sorted(
                agent
                for agent, up in zip(self.topology.agent_ids, self._agent_up)
                if not up
            ),
        }

    def load_state(self, state) -> None:
        # reset() rebuilds both masks all-up over the frozen edge sequence
        # and the agent ids — the order the per-round transition walks —
        # then the down sets are applied on top, so the draw sequence is
        # identical to the uninterrupted run's.
        super().load_state(state)
        edges_down = state.get("edges_down", ())
        if edges_down:
            position_of = {
                edge: index
                for index, edge in enumerate(self.topology.edge_sequence())
            }
            for a, b in edges_down:
                edge = (a, b)
                index = position_of.get(edge)
                if index is None:
                    raise EnvironmentError_(
                        f"checkpointed edge {edge} is not in this topology"
                    )
                self._edge_up[index] = 0
        for agent in state.get("agents_down", ()):
            if agent not in self.topology.agent_ids:
                raise EnvironmentError_(
                    f"checkpointed agent {agent} is not in this topology"
                )
            self._agent_up[agent] = 0

    def describe(self) -> str:
        return (
            f"markov churn (edge fail {self.edge_failure_probability}/"
            f"recover {self.edge_recovery_probability}, "
            f"agent fail {self.agent_failure_probability}/"
            f"recover {self.agent_recovery_probability})"
        )

    def fairness_predicates(self):
        if self.edge_recovery_probability > 0 and self.agent_recovery_probability > 0:
            return tuple(
                f"edge {edge} eventually recovers" for edge in sorted(self.topology.edges)
            )
        return ()


def _flip_loop(mask: bytearray, draw, fail: float, recover: float) -> None:
    """One Markov transition of ``mask`` in a Python loop, one draw per entry."""
    for index, up in enumerate(mask):
        if up:
            if draw() < fail:
                mask[index] = 0
        elif draw() < recover:
            mask[index] = 1


def _flip_masked(up, draws, fail: float, recover: float) -> None:
    """One Markov transition of the bool array ``up``, in place: the same
    comparisons :func:`_flip_loop` makes, on the same draws."""
    up ^= draws < _numpy.where(up, fail, recover)


@register_environment("duty-cycle")
class PeriodicDutyCycleEnvironment(Environment):
    """Agents follow a periodic duty cycle (sleep/wake), edges always up.

    Models sensor nodes that power down to save energy: agent ``a`` is
    awake during a contiguous window of ``ceil(duty_cycle * period)``
    rounds within each period, with a per-agent phase offset.  Two agents
    can communicate only in rounds where both are awake; staggered phases
    therefore produce changing, often disconnected communication groups,
    while over a full period every edge whose endpoints' windows overlap is
    available at least once.

    With ``duty_cycle >= 0.5 + 1/period`` every pair of adjacent agents is
    guaranteed overlapping wake windows regardless of phases, which keeps
    the assumption ``Q_E`` satisfied deterministically.

    The schedule repeats with the period, so the enabled set is cached per
    phase residue: after the first period every round's state is served
    from the cache.  With numpy the cache also holds the residue's enabled
    agents as a read-only ascending ``int64`` id array and its effective
    edges as read-only ``(u, v)`` arrays masked from the topology's
    endpoint table, and every state hands both to the component labelling
    (:meth:`EnvironmentState.with_enabled_ids`), so no round sorts the
    enabled agents or filters the edges again.
    """

    def __init__(
        self,
        topology: Topology,
        period: int = 10,
        duty_cycle: float = 0.6,
        phases: list[int] | None = None,
        seed: int | None = None,
    ):
        super().__init__(topology)
        if period <= 0:
            raise EnvironmentError_("period must be positive")
        if not 0.0 < duty_cycle <= 1.0:
            raise EnvironmentError_("duty_cycle must be in (0, 1]")
        self.period = period
        self.duty_cycle = duty_cycle
        # The documented window is ceil(duty_cycle * period).  round()
        # would banker's-round 2.5 to 2 (duty 0.25, period 10 -> 2 wake
        # rounds instead of 3), silently shrinking the windows the Q_E
        # guarantee is computed from.  The small epsilon keeps float
        # products that should be exact integers (e.g. 0.07 * 100 ->
        # 7.000000000000001) from being ceiled one round too high.
        self.wake_rounds = min(
            period, max(1, math.ceil(duty_cycle * period - 1e-9))
        )
        if phases is None:
            rng = random.Random(seed)
            phases = [rng.randrange(period) for _ in topology.agent_ids]
        if len(phases) != topology.num_agents:
            raise EnvironmentError_("one phase per agent is required")
        self.phases = list(phases)
        # Wake state depends only on round_index % period, so the enabled
        # sets are cacheable by residue.  The cached frozensets were built
        # by the construction below on their first use, so sharing them
        # across periods keeps iteration order identical to building them
        # fresh.  Each entry is (enabled set, id array, effective edge
        # arrays), the arrays None without numpy.
        self._enabled_by_residue: dict[int, tuple] = {}

    def _is_awake(self, agent: int, round_index: int) -> bool:
        position = (round_index - self.phases[agent]) % self.period
        return position < self.wake_rounds

    def advance(self, round_index: int, rng: random.Random) -> EnvironmentState:
        residue = round_index % self.period
        cached = self._enabled_by_residue.get(residue)
        if cached is None:
            cached = self._enabled_by_residue[residue] = self._residue(round_index)
        enabled, ids, arrays = cached
        if ids is None:
            return EnvironmentState(enabled, self.topology.edges, round_index)
        return EnvironmentState.with_enabled_ids(
            enabled, ids, self.topology.edges, round_index, arrays
        )

    def _residue(self, round_index: int) -> tuple:
        """The cache entry of ``round_index``'s residue: the enabled set,
        and with numpy its id array and effective edge arrays."""
        awake = [
            agent
            for agent in self.topology.agent_ids
            if self._is_awake(agent, round_index)
        ]
        enabled = frozenset(awake)
        np = base._numpy
        if np is None:
            return enabled, None, None
        ids = np.array(awake, dtype=np.int64)
        mask = np.zeros(self.topology.num_agents, dtype=np.bool_)
        mask[ids] = True
        edge_u, edge_v = self.topology.edge_endpoint_arrays()
        effective = mask.take(edge_u) & mask.take(edge_v)
        arrays = (edge_u[effective], edge_v[effective])
        for array in (ids, *arrays):
            array.flags.writeable = False
        return enabled, ids, arrays

    def state_dict(self) -> dict:
        # The schedule is a pure function of the round index *given the
        # phases* — but the phases themselves may have been drawn from an
        # unseeded generator at construction, so the checkpoint carries
        # them rather than trusting a reconstruction to re-roll the same.
        return {"phases": list(self.phases)}

    def load_state(self, state) -> None:
        super().load_state(state)
        phases = state.get("phases")
        if phases is not None and list(phases) != self.phases:
            if len(phases) != self.topology.num_agents:
                raise EnvironmentError_(
                    "checkpoint carries one phase per agent; got "
                    f"{len(phases)} for {self.topology.num_agents} agents"
                )
            self.phases = [int(phase) for phase in phases]
            self._enabled_by_residue = {}

    def describe(self) -> str:
        return f"periodic duty cycle (period {self.period}, duty {self.duty_cycle})"

    def fairness_predicates(self):
        return tuple(
            f"agents {a} and {b} awake together once per period"
            for a, b in sorted(self.topology.edges)
            if self._windows_overlap(a, b)
        )

    def _windows_overlap(self, a: int, b: int) -> bool:
        rounds_a = {
            (self.phases[a] + offset) % self.period for offset in range(self.wake_rounds)
        }
        rounds_b = {
            (self.phases[b] + offset) % self.period for offset in range(self.wake_rounds)
        }
        return bool(rounds_a & rounds_b)
