"""Live probe streaming: the event broker and the service sink probe.

The JSONL sink (:class:`~repro.simulation.probes.JSONLSink`) streams a
run's observation payloads to a *file*; the experiment service needs the
same lines on a *byte stream* a concurrent HTTP handler can read while
the run executes.  :class:`ServiceSinkProbe` is that generalization: it
emits the exact same payload dictionaries (the shared
``stream_*_payload`` builders in :mod:`repro.simulation.probes`) either
to any writable stream, or to a named channel of an in-process
:class:`EventBroker` that Server-Sent-Events handlers subscribe to.

The broker keeps per-channel line history with a base offset, so

* late subscribers replay a run's whole stream and then follow it live;
* a resumed run truncates its channel back to the checkpointed line
  count — exactly the JSONL sink's crashed-run surplus-line handling —
  and keeps appending at stable indices, which is what makes SSE
  ``Last-Event-ID`` reconnection offsets meaningful across retries and
  even server restarts.

A finished stream does not stay in memory.  When its job is terminal,
:meth:`EventBroker.finish` writes the channel's lines once, atomically,
to a file in the job's directory (a ``{"format": "repro-event-stream",
"base": ...}`` line, then the stream's lines) and keeps only the
channel's base, closed flag and path; subscribers from then on replay
from that file, byte for byte the stream they would have followed live.
The file outlives the process: after a restart, the first subscriber to
a finished job's stream finds the file a previous process wrote, so the
stream replays before its ``end`` event as it did before the restart.

Subscribers take lines in batches: after handing over a batch, a
subscriber lets the channel gather lines for up to
:data:`STREAM_BATCH_S` before it takes the next, so a run publishing
every round wakes its followers once per batch, not once per line.  A
subscriber that has caught up still wakes on the next publish, so the
first line after a quiet spell goes out at once, and closing or
truncating a channel ends the gathering wait, so the end of a stream is
never delayed.
"""

from __future__ import annotations

import contextvars
import json
import pathlib
import threading
from typing import Any, Callable, Iterator

from ..core.durable import atomic_write_text, quarantine
from ..core.errors import SpecificationError
from ..core.multiset import Multiset
from ..registry import register_probe
from ..simulation.protocol import Engine, Probe, RoundRecord, RunContext
from ..simulation.probes import (
    stream_finish_payload,
    stream_initial_payload,
    stream_round_payload,
    stream_start_payload,
)

__all__ = [
    "EventBroker",
    "ServiceSinkProbe",
    "BROKER",
    "SERVING_BROKER",
    "STREAM_BATCH_S",
]

#: Seconds a subscriber lets lines gather after handing over a batch.
#: Measured, not tuned per run: each wake-up of a subscriber (an SSE
#: handler thread) takes the interpreter lock from the worker running
#: the job.  Following every ``service_sweep`` job's events, one wake-up
#: per line (~1500 for 1548 lines over twelve jobs) held the worker to
#: 541 rounds/s; gathering for 20 ms woke it 150–186 times and ran 674
#: rounds/s (medians of 10 perfbench runs each); 50 ms measured no
#: better.  A follower sees lines at most this old (Python 3.11, a
#: shared 2-vCPU x86-64 container).
STREAM_BATCH_S = 0.02

#: ``format`` of the leading record of a finished stream's file.
STREAM_FORMAT = "repro-event-stream"


class _Channel:
    """One run's event stream: an append-only line log with a base offset.

    Its lines live in :attr:`lines` until the channel is finished; then
    in the file at :attr:`path`, and :attr:`spilled` counts them.
    """

    __slots__ = ("base", "lines", "closed", "truncations", "path", "spilled")

    def __init__(self):
        self.base = 0
        self.lines: list[str] = []
        self.closed = False
        self.truncations = 0
        #: Where the finished stream's lines go (None while it is live).
        self.path: pathlib.Path | None = None
        #: How many lines the file at ``path`` holds once they left memory.
        self.spilled: int | None = None

    @property
    def end(self) -> int:
        """Index one past the last published line."""
        if self.spilled is not None:
            return self.base + self.spilled
        return self.base + len(self.lines)

    @property
    def untouched(self) -> bool:
        """True when no run has used the channel in this process (every
        run truncates its channel before it publishes)."""
        return not self.truncations and not self.lines


def _write_stream(path: pathlib.Path, base: int, lines: list[str]) -> None:
    header = json.dumps({"format": STREAM_FORMAT, "base": base})
    atomic_write_text(path, "".join([header, "\n", *(line + "\n" for line in lines)]))


def _read_stream(path: pathlib.Path) -> tuple[int, list[str]] | None:
    """A finished stream's ``(base, lines)``, or None when there is no
    readable file (a damaged one is quarantined)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return None
    header, _, body = text.partition("\n")
    try:
        record = json.loads(header)
        if record.get("format") != STREAM_FORMAT:
            raise ValueError(f"format {record.get('format')!r}")
        base = int(record["base"])
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        quarantine(path, f"corrupt event stream: {error}")
        return None
    return base, body.split("\n")[:-1]


class EventBroker:
    """Thread-safe pub/sub of line streams, keyed by channel name.

    Publishers (probes running inside job-queue workers) append lines;
    subscribers (SSE handlers) iterate from an offset, blocking until new
    lines arrive or the channel closes.  Channels are created on first
    use, so a subscriber arriving after a short run still replays the
    whole stream: from memory while the channel is live, from its file
    once :meth:`finish` moved it there.

    ``begin_drain``/``end_drain`` mark channel prefixes as draining —
    the cooperative-stop flag :class:`ServiceSinkProbe` polls so an
    in-flight run can checkpoint and yield when its service shuts down.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: Notified on every publish, close and truncate: caught-up
        #: subscribers wait on it.
        self._condition = threading.Condition(self._lock)
        #: Notified when a channel closes or is truncated, never on a
        #: publish: subscribers gathering a batch wait on it.  One for all
        #: channels, so a finished channel keeps no lock object; another
        #: channel's close only ends a gathering wait early.
        self._settled = threading.Condition(self._lock)
        self._channels: dict[str, _Channel] = {}
        self._draining: set[str] = set()

    def _channel(self, name: str) -> _Channel:
        with self._condition:
            channel = self._channels.get(name)
            if channel is None:
                channel = self._channels[name] = _Channel()
            return channel

    # -- publishing ------------------------------------------------------------

    def publish(self, name: str, line: str) -> int:
        """Append one line; returns its stable index in the stream."""
        channel = self._channel(name)
        with self._condition:
            if channel.closed:
                raise SpecificationError(
                    f"event channel {name!r} is closed; a finished run's "
                    "stream cannot grow"
                )
            channel.lines.append(line)
            index = channel.end - 1
            self._condition.notify_all()
            return index

    def truncate(self, name: str, count: int) -> None:
        """Keep only the first ``count`` lines of the channel.

        A resuming run calls this with its checkpointed line count: lines
        streamed past the checkpoint are about to be re-emitted (the
        JSONL sink's surplus-line rule).  When the process restarted and
        the in-memory history is gone, the channel's base advances to
        ``count`` instead, so re-emitted lines keep their original
        indices.  A finished channel reopens, its lines read back from
        its file.
        """
        if count < 0:
            raise SpecificationError(f"cannot truncate channel to {count} lines")
        channel = self._channel(name)
        with self._condition:
            if channel.spilled is not None:
                stream = _read_stream(channel.path)
                channel.lines = stream[1] if stream is not None else []
            channel.path = channel.spilled = None
            channel.closed = False
            channel.truncations += 1
            if count <= channel.base:
                channel.base = count
                channel.lines = []
            elif count <= channel.end:
                del channel.lines[count - channel.base :]
            else:
                # History was lost (fresh process); future lines continue
                # at the checkpointed offset.
                channel.base = count
                channel.lines = []
            self._condition.notify_all()
            self._settled.notify_all()

    def close(self, name: str) -> None:
        """Mark the channel complete; subscribers drain and stop."""
        channel = self._channel(name)
        with self._condition:
            self._close(channel)

    def _close(self, channel: _Channel) -> None:
        channel.closed = True
        self._condition.notify_all()
        self._settled.notify_all()

    def finish(self, name: str, path: str | pathlib.Path) -> None:
        """Close the channel for good; its lines live at ``path`` from now on.

        A channel a run used in this process writes its lines there once
        (atomically) and drops them from memory; subscribers read them
        from memory until the file is in place.  A channel no run used in
        this process (a finished job's, after a restart) takes its lines
        from the file a previous process wrote there, if there is one.
        Finishing a finished channel does nothing.
        """
        path = pathlib.Path(path)
        channel = self._channel(name)
        with self._condition:
            if channel.path is not None:
                return
            untouched = channel.untouched
            if not untouched:
                channel.path = path
                self._close(channel)
                base, lines = channel.base, list(channel.lines)
                truncations = channel.truncations
        if untouched:
            stream = _read_stream(path)
            with self._condition:
                if channel.path is None and channel.untouched:
                    channel.path = path
                    if stream is not None:
                        channel.base, channel.spilled = stream[0], len(stream[1])
                    self._close(channel)
            return
        _write_stream(path, base, lines)
        with self._condition:
            if channel.truncations == truncations:  # not reopened meanwhile
                channel.spilled, channel.lines = len(lines), []

    # -- subscribing -----------------------------------------------------------

    def subscribe(
        self,
        name: str,
        offset: int = 0,
        stop: Callable[[], bool] | None = None,
        poll_interval: float = 0.25,
    ) -> Iterator[list[tuple[int, str]]]:
        """Yield batches of ``(index, line)`` from ``offset`` until the
        channel closes.

        A batch is every line published since the last one.  After
        handing one over, the subscriber waits up to
        :data:`STREAM_BATCH_S` for the channel to close or be truncated
        (new lines do not end this wait), then takes what gathered.  A
        subscriber that has caught up blocks until the next publish;
        ``stop`` is polled every ``poll_interval`` seconds meanwhile so
        an HTTP handler can abandon the subscription when its server
        shuts down.  Lines older than the channel's base (lost to a
        process restart) are silently skipped — the subscriber sees the
        honest remainder of the stream.  A finished channel's lines are
        read from its file, outside the broker's lock.
        """
        channel = self._channel(name)
        position = max(0, offset)
        truncations = None
        while True:
            from_file = None
            with self._condition:
                # Let lines gather after a handed-over batch, unless the
                # channel closed or was truncated since.
                if truncations == channel.truncations and not channel.closed:
                    self._settled.wait(timeout=STREAM_BATCH_S)
                while True:
                    if position < channel.base:
                        position = channel.base
                    if position < channel.end:
                        if channel.spilled is None:
                            batch = list(
                                enumerate(
                                    channel.lines[position - channel.base :],
                                    start=position,
                                )
                            )
                        else:
                            from_file = channel.path, position
                        position = channel.end
                        truncations = channel.truncations
                        break
                    if channel.closed:
                        return
                    if stop is not None and stop():
                        return
                    self._condition.wait(timeout=poll_interval)
            if from_file is not None:
                path, first = from_file
                stream = _read_stream(path)
                if stream is None:
                    continue
                base, lines = stream
                batch = list(enumerate(lines[first - base :], start=first))
            yield batch

    # -- cooperative drain -----------------------------------------------------

    def begin_drain(self, prefix: str) -> None:
        """Ask every run publishing under ``prefix`` to checkpoint and stop."""
        with self._condition:
            self._draining.add(prefix)
            self._condition.notify_all()

    def end_drain(self, prefix: str) -> None:
        with self._condition:
            self._draining.discard(prefix)

    def draining(self, name: str) -> bool:
        """True when ``name`` falls under a draining prefix."""
        with self._condition:
            return any(name.startswith(prefix) for prefix in self._draining)


#: The process-wide default broker.  Probes are rebuilt from plain spec
#: data inside job-queue workers, so a channel *name* is the only handle
#: that crosses that boundary.  A service's worker thread names its own
#: broker (:data:`SERVING_BROKER`); a channel-named probe built anywhere
#: else publishes here.  The experiment service namespaces its channels
#: by a per-data-directory token, so several services in one process
#: never collide.
BROKER = EventBroker()

#: The broker of the service whose job-queue worker runs on this thread
#: (unset elsewhere): a channel-named :class:`ServiceSinkProbe` built
#: without a broker publishes to it, so a service's runs stream to the
#: broker the service was built with.
SERVING_BROKER: contextvars.ContextVar[EventBroker] = contextvars.ContextVar(
    "repro_serving_broker"
)


@register_probe("service-sink")
class ServiceSinkProbe(Probe):
    """The JSONL sink generalized to any byte stream.

    Emits exactly the lines :class:`~repro.simulation.probes.JSONLSink`
    would write for the same run — same payload builders, same order —
    but to one of:

    * ``stream``: any object with ``write(str)`` (programmatic use:
      a socket file, an ``io.StringIO``, ``sys.stdout``);
    * ``channel``: a named :class:`EventBroker` channel (the declarative,
      JSON-spec-safe form the experiment service injects; workers rebuild
      the probe from its name and find the broker in-process: ``broker``
      when given, else the serving broker of the thread that builds the
      probe, else :data:`BROKER`).

    The probe checkpoints its line count and, on resume, truncates the
    channel back to it before re-emitting — byte-for-byte the JSONL
    sink's resume-from-offset semantics, minus the file.  While its
    channel's prefix is draining it checkpoints the run (via the sibling
    checkpoint probe, if any) and raises
    :class:`~repro.service.jobs.JobInterrupted` at the next round
    boundary, which is how ``repro serve`` stops gracefully mid-run.
    """

    name = "service-sink"

    def __init__(
        self,
        channel: str | None = None,
        stream: Any = None,
        include_states: bool = False,
        broker: EventBroker | None = None,
    ):
        if (channel is None) == (stream is None):
            raise SpecificationError(
                "service-sink probe needs exactly one of channel= (broker "
                "pub/sub) or stream= (any writable object)"
            )
        if stream is not None and not callable(getattr(stream, "write", None)):
            raise SpecificationError(
                f"service-sink stream must have a write() method, got {stream!r}"
            )
        self.channel = channel
        self.stream = stream
        self.include_states = bool(include_states)
        self._broker = broker if broker is not None else SERVING_BROKER.get(BROKER)
        self._context: RunContext | None = None
        self._lines = 0

    # -- emission ---------------------------------------------------------------

    def _emit(self, payload: dict) -> None:
        line = json.dumps(payload)
        if self.stream is not None:
            self.stream.write(line + "\n")
        else:
            self._broker.publish(self.channel, line)
        self._lines += 1

    def on_attach(self, context: RunContext) -> None:
        self._context = context

    def on_start(self, engine: Engine) -> None:
        if self.channel is not None:
            # A fresh run owns its channel from line 0 (mirrors the JSONL
            # sink reopening its path with mode "w").
            self._broker.truncate(self.channel, 0)
        self._lines = 0
        self._emit(stream_start_payload(engine))

    def on_initial(self, multiset: Multiset, objective: float) -> None:
        self._emit(stream_initial_payload(multiset, objective, self.include_states))

    def on_round(self, record: RoundRecord) -> None:
        self._emit(stream_round_payload(record, self.include_states))

    def on_round_end(self, record: RoundRecord) -> None:
        # The graceful-drain hook: when this run's service is shutting
        # down, snapshot the run right here (every probe has observed the
        # round, so the checkpoint is resume-clean) and stop the worker.
        if self.channel is not None and self._broker.draining(self.channel):
            from .jobs import JobInterrupted

            if self._context is not None:
                for probe in self._context.observers:
                    checkpoint_now = getattr(probe, "checkpoint_now", None)
                    if checkpoint_now is not None:
                        checkpoint_now()
            raise JobInterrupted(
                f"run draining after round {record.round_index}"
            )

    def on_complete(self, complete: bool) -> None:
        self._emit(stream_finish_payload(complete))

    def on_finish(self) -> None:
        # Publishing no payload keeps the run's SimulationResult
        # byte-identical to an offline run of the submitted spec — the
        # service's cache/offline parity guarantee.  Closing the channel
        # here (not in on_complete) also covers failed runs, so SSE
        # subscribers never hang on a dead stream.
        if self.channel is not None:
            self._broker.close(self.channel)
        return None

    # -- checkpoint / resume -----------------------------------------------------

    def state_dict(self) -> dict:
        return {"lines": self._lines}

    def on_resume(self, engine: Engine, state: dict | None) -> None:
        if state is None:
            self.on_start(engine)
            return
        self._lines = int(state["lines"])
        if self.channel is not None:
            # Drop lines streamed past the checkpoint (they are about to
            # be re-emitted) and keep appending at stable indices.
            self._broker.truncate(self.channel, self._lines)
