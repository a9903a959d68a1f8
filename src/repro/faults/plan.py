"""Seeded fault plans: declarative, replayable chaos.

A :class:`FaultPlan` is the unit of chaos: a JSON-round-trippable list
of fault entries, every random choice in it drawn from
``random.Random(f"fault-plan:{seed}")`` — so ``repro chaos <spec>
--fault-seed S`` injects the *exact same* faults on every machine and
every rerun.  The plan covers every seam the infrastructure recovers
through:

``crash``
    a worker dies at round *k* (the :mod:`repro.faults.probes`
    ``fault-crash`` probe, attached to the run's spec);
``checkpoint-corrupt``
    rolling checkpoint files are damaged on disk
    (:func:`~repro.faults.corrupt.corrupt_file`) before resume;
``cache-corrupt``
    a result-cache entry is damaged between submissions (any
    :data:`~repro.faults.corrupt.CORRUPTION_MODES` mode: entries carry
    their own digest, so even a flipped bit is a counted miss);
``http-flaky``
    the service answers with 503s, resets the connection, or delays
    responses (served through :class:`HTTPFaultHook`, the injection
    seam of :class:`~repro.service.server.ExperimentService`);
``sse-disconnect``
    the event stream is cut after N events mid-stream; the client
    reconnects with ``Last-Event-ID``.

Plans are *finite*: each entry carries an explicit budget, so a chaos
run always drains its faults and completes.
"""

from __future__ import annotations

import json
import pathlib
import random
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping
from urllib.error import URLError

from ..core.errors import SpecificationError
from ..simulation.result import readable_json
from .corrupt import CORRUPTION_MODES

__all__ = ["FAULT_KINDS", "PLAN_FORMAT", "FaultPlan", "HTTPFaultHook", "ClientFaultHook"]

#: Every fault kind a plan may declare, in injection-seam order.
FAULT_KINDS = (
    "crash",
    "checkpoint-corrupt",
    "cache-corrupt",
    "http-flaky",
    "sse-disconnect",
)

#: ``format`` key identifying a fault-plan file.
PLAN_FORMAT = "repro-fault-plan"

#: HTTP flakiness modes ``http-flaky`` entries draw from.
_HTTP_MODES = ("status", "reset", "delay")


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, declarative set of faults to inject into a run."""

    seed: int
    entries: tuple[dict, ...]

    @classmethod
    def generate(
        cls, seed: int, kinds: Iterable[str] = FAULT_KINDS
    ) -> "FaultPlan":
        """Draw one concrete fault entry per requested kind, seeded."""
        rng = random.Random(f"fault-plan:{seed}")
        entries: list[dict] = []
        for kind in kinds:
            if kind == "crash":
                entries.append(
                    {"kind": "crash", "at_round": rng.randrange(3, 13), "times": 1}
                )
            elif kind == "checkpoint-corrupt":
                entries.append(
                    {
                        "kind": "checkpoint-corrupt",
                        "mode": rng.choice(CORRUPTION_MODES),
                        # also damage the second-newest round-NNN
                        # generation, so recovery must reach back two
                        "stale_fallback": rng.random() < 0.5,
                    }
                )
            elif kind == "cache-corrupt":
                entries.append(
                    {"kind": "cache-corrupt", "mode": rng.choice(CORRUPTION_MODES)}
                )
            elif kind == "http-flaky":
                entries.append(
                    {
                        "kind": "http-flaky",
                        "modes": [
                            rng.choice(_HTTP_MODES)
                            for _ in range(rng.randrange(1, 4))
                        ],
                        "delay_seconds": round(0.02 + 0.08 * rng.random(), 3),
                    }
                )
            elif kind == "sse-disconnect":
                entries.append(
                    {
                        "kind": "sse-disconnect",
                        "after_events": rng.randrange(1, 4),
                        "times": rng.randrange(1, 3),
                    }
                )
            else:
                raise SpecificationError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
                )
        return cls(seed=int(seed), entries=tuple(entries))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "seed": self.seed,
            "entries": [dict(entry) for entry in self.entries],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return readable_json(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping) or data.get("format") != PLAN_FORMAT:
            raise SpecificationError(
                f"not a fault plan (format {data.get('format') if isinstance(data, Mapping) else data!r}, "
                f"expected {PLAN_FORMAT!r})"
            )
        entries = data.get("entries")
        if not isinstance(entries, list):
            raise SpecificationError("a fault plan needs an 'entries' list")
        for entry in entries:
            if not isinstance(entry, Mapping) or entry.get("kind") not in FAULT_KINDS:
                raise SpecificationError(
                    f"bad fault entry {entry!r}; each entry needs a 'kind' "
                    f"from {FAULT_KINDS}"
                )
        return cls(
            seed=int(data.get("seed", 0)),
            entries=tuple(dict(entry) for entry in entries),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as error:
            raise SpecificationError(f"invalid fault plan JSON: {error}") from error

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text())

    # -- derived injectors -------------------------------------------------------

    def entries_of(self, kind: str) -> list[dict]:
        return [dict(entry) for entry in self.entries if entry["kind"] == kind]

    @property
    def token(self) -> str:
        """The crash-arming token every probe entry of this plan uses."""
        return f"fault-plan:{self.seed}"

    def crash_probe_entries(self) -> list[dict]:
        """The plan's crashes as declarative ``fault-crash`` probe entries."""
        return [
            {
                "probe": "fault-crash",
                "at_round": entry["at_round"],
                "times": entry.get("times", 1),
                "token": self.token,
            }
            for entry in self.entries_of("crash")
        ]

    def crash_budget(self) -> int:
        """Total crashes the plan may fire (bounds the retries needed)."""
        return sum(entry.get("times", 1) for entry in self.entries_of("crash"))

    def corruption_rng(self, label: str) -> random.Random:
        """A per-target RNG so corruption bytes replay exactly, whatever
        order the targets are visited in."""
        return random.Random(f"fault-plan:{self.seed}:{label}")

    def server_hook(self) -> "HTTPFaultHook | None":
        """The service-side injection hook, or None when the plan carries
        no HTTP/SSE faults."""
        if not self.entries_of("http-flaky") and not self.entries_of("sse-disconnect"):
            return None
        return HTTPFaultHook(self)


class HTTPFaultHook:
    """The server-side fault schedule, consumed request by request.

    :class:`~repro.service.server.ExperimentService` calls the hook as
    ``hook(method, path)`` before routing each request; a non-None
    return is a fault action dictionary:

    * ``{"action": "status", "status": 503}`` — answer with that status;
    * ``{"action": "reset"}`` — close the connection without a response;
    * ``{"action": "delay", "seconds": s}`` — stall, then serve normally;
    * ``{"action": "close-after", "events": n}`` — (SSE only) cut the
      event stream after ``n`` events, without the terminal ``end``.

    Budgets are finite and consumed under a lock, so a chaos run always
    drains its faults; health checks (``/healthz``) are never faulted —
    they are how orchestration tells "down" from "unlucky".
    """

    def __init__(self, plan: FaultPlan):
        self._lock = threading.Lock()
        self._http: list[dict] = []
        for entry in plan.entries_of("http-flaky"):
            for mode in entry.get("modes", ()):
                if mode == "status":
                    self._http.append({"action": "status", "status": 503})
                elif mode == "reset":
                    self._http.append({"action": "reset"})
                elif mode == "delay":
                    self._http.append(
                        {
                            "action": "delay",
                            "seconds": float(entry.get("delay_seconds", 0.05)),
                        }
                    )
                else:
                    raise SpecificationError(
                        f"unknown http-flaky mode {mode!r}; known: {_HTTP_MODES}"
                    )
        self._sse: list[int] = []
        for entry in plan.entries_of("sse-disconnect"):
            self._sse.extend(
                [int(entry.get("after_events", 1))] * int(entry.get("times", 1))
            )

    def __call__(self, method: str, path: str) -> dict | None:
        with self._lock:
            if path.endswith("/events"):
                if self._sse:
                    return {"action": "close-after", "events": self._sse.pop(0)}
                return None
            if path == "/healthz":
                return None
            if self._http:
                return self._http.pop(0)
            return None

    def exhausted(self) -> bool:
        """True once every scheduled HTTP/SSE fault has fired."""
        with self._lock:
            return not self._http and not self._sse


class ClientFaultHook:
    """Client-side transport faults: the first ``failures`` matching
    requests raise :class:`urllib.error.URLError` before any bytes move.

    The test seam of :class:`~repro.service.client.ServiceClient` — it
    proves the retry policy without a misbehaving server.
    """

    def __init__(self, failures: int = 1, methods: tuple[str, ...] | None = None):
        self.remaining = int(failures)
        self.methods = methods
        self.fired = 0

    def __call__(self, method: str, path: str) -> None:
        if self.methods is not None and method not in self.methods:
            return
        if self.remaining > 0:
            self.remaining -= 1
            self.fired += 1
            raise URLError("injected connection failure")
