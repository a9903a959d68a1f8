"""Spans recorded from outside the program, around calls into its layers.

Nothing here edits the library.  A :class:`Tracer` wraps public entry
points while it is installed and restores them when it is removed:

* class level, for the experiment layer: ``ExperimentSpec.from_json`` /
  ``from_dict`` (parse), ``resolve_values`` (values), ``build`` (build),
  and result serialization (``SimulationResult.to_dict``,
  ``BatchResult.to_json``);
* instance level, on every engine ``build`` returns: ``run``,
  ``initial_snapshot``, the environment's ``advance`` /
  ``advance_with_delta`` and the scheduler's ``schedule``;
* through the public probe protocol: a :class:`RoundClock` probe appended
  to each ``Engine.run`` stamps every ``on_round``, and the other probes'
  ``on_round`` / ``on_round_end`` hooks are timed on their instances.

With ``detail=False`` only two spans per engine are kept — ``build`` and
``Engine.run`` — which is all the end-to-end metrics need (set-up time
and rounds per second).  ``detail=True`` is the traced run.

Spans keep *self* time: a span's duration minus the spans nested in it
on the same thread (``build`` minus the ``resolve_values`` it calls).  A
call into a layer already open on the stack (``from_json`` calling
``from_dict``, ``advance_with_delta`` calling ``advance``) is one span,
not two.  Totals accumulate into the current unit; the service worker
thread and the client thread add to the same unit, which is safe because
the benchmark's client is a closed loop with one request in flight.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.experiment import ExperimentSpec
from repro.simulation.batch import BatchResult
from repro.simulation.protocol import Probe
from repro.simulation.result import SimulationResult

__all__ = ["RoundClock", "Tracer"]

clock = time.perf_counter


class RoundClock(Probe):
    """Stamps the end of every round; round ``i`` lasts from stamp ``i-1``.

    The first stamp is taken at ``on_initial``, after the engine's initial
    snapshot, so the intervals cover exactly the round loop.  The probe
    publishes no payload, so results keep their bytes.
    """

    name = "perfbench-round-clock"

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer
        self._last = 0.0

    def on_initial(self, multiset, objective) -> None:
        self._last = clock()

    def on_round(self, record) -> None:
        now = clock()
        self._tracer.add_round(now - self._last)
        self._last = now


class Tracer:
    """Per-unit span totals plus every traced round's duration."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.round_times: list[float] = []
        self._unit: dict[str, float] | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- units -----------------------------------------------------------------

    def begin_unit(self) -> None:
        with self._lock:
            self._unit = defaultdict(float)

    def end_unit(self) -> dict[str, float]:
        with self._lock:
            unit, self._unit = self._unit, None
        return dict(unit or {})

    def add(self, name: str, value: float) -> None:
        with self._lock:
            if self._unit is not None:
                self._unit[name] += value

    def add_round(self, seconds: float) -> None:
        with self._lock:
            if self._unit is not None:
                self.round_times.append(seconds)
                self._unit["engine.rounds_s"] += seconds

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each outermost call adds to ``<layer>_s`` (self
        time) and ``<layer>_calls``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.add(layer + "_s", elapsed - frame[1])
                self.add(layer + "_calls", 1)

        return wrapper

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's entry points for the duration of the block."""
        patches: list[tuple[Any, str, Any]] = [
            (ExperimentSpec, "build", self._wrap_build(ExperimentSpec.build)),
        ]
        if self.detail:
            patches += [
                (ExperimentSpec, "from_json", self._wrap_classmethod(
                    "experiment.parse", ExperimentSpec, "from_json")),
                (ExperimentSpec, "from_dict", self._wrap_classmethod(
                    "experiment.parse", ExperimentSpec, "from_dict")),
                (ExperimentSpec, "resolve_values", self.timed(
                    "experiment.values", ExperimentSpec.resolve_values)),
                (SimulationResult, "to_dict", self.timed(
                    "result.serialize", SimulationResult.to_dict)),
                (BatchResult, "to_json", self.timed(
                    "result.serialize", BatchResult.to_json)),
            ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
        try:
            for owner, name, replacement in patches:
                setattr(owner, name, replacement)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def _wrap_classmethod(self, layer: str, owner: type, name: str) -> classmethod:
        function = owner.__dict__[name].__func__
        return classmethod(self.timed(layer, function))

    def _wrap_build(self, build: Callable) -> Callable:
        timed_build = self.timed("experiment.build", build)

        def wrapper(spec, *args: Any, **kwargs: Any):
            engine = timed_build(spec, *args, **kwargs)
            self._instrument(engine)
            return engine

        return wrapper

    def _instrument(self, engine: Any) -> None:
        engine.run = self._wrap_run(engine.run)
        if not self.detail:
            return
        engine.initial_snapshot = self.timed(
            "engine.initial_snapshot", engine.initial_snapshot
        )
        environment = engine.environment
        environment.advance = self.timed("environment.advance", environment.advance)
        environment.advance_with_delta = self.timed(
            "environment.advance", environment.advance_with_delta
        )
        engine.scheduler.schedule = self.timed(
            "scheduler.schedule", engine.scheduler.schedule
        )

    def _wrap_run(self, run: Callable) -> Callable:
        # Inclusive time, not a span: rounds per second divides by the
        # whole of Engine.run, and the traced layers nest inside it.
        def wrapper(*args: Any, **kwargs: Any):
            if self.detail:
                probes = list(kwargs.get("probes") or ())
                for probe in probes:
                    probe.on_round = self.timed("probes.on_round", probe.on_round)
                    if type(probe).on_round_end is not Probe.on_round_end:
                        probe.on_round_end = self.timed(
                            "probes.on_round", probe.on_round_end
                        )
                kwargs["probes"] = probes + [RoundClock(self)]
            start = clock()
            result = run(*args, **kwargs)
            self.add("engine.run_s", clock() - start)
            self.add("engine.rounds", result.rounds_executed)
            return result

        return wrapper
