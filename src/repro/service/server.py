"""The stdlib HTTP front of the experiment service (``repro serve``).

One :class:`ExperimentService` owns a data directory and exposes:

=======  =====================  ==================================================
method   path                   meaning
=======  =====================  ==================================================
POST     ``/runs``              submit a spec or sweep (JSON body); answers with
                                the job record — deduplicated against identical
                                in-flight jobs and served from the result cache
                                when the fingerprint is already known
GET      ``/runs``              all job summaries
GET      ``/runs/<id>``         one job's status (plus results once done)
GET      ``/runs/<id>/events``  the run's probe payloads, live, as Server-Sent
                                Events (replayable via ``Last-Event-ID`` or
                                ``?offset=``)
GET      ``/healthz``           liveness, drain state, job counts, cache stats
GET      ``/cache``             result-cache statistics
GET      ``/registry``          every registered building block, per kind
=======  =====================  ==================================================

The server is :class:`http.server.ThreadingHTTPServer` — no third-party
dependency, no event loop — because the work is elsewhere: requests only
touch the job store, the result cache and the event broker, while the
single :class:`~repro.service.jobs.JobQueue` worker thread executes runs.
SSE handlers each occupy one daemon thread blocking on the broker, which
is plenty for an experiment service's handful of live watchers.

Connections are HTTP/1.1 and kept alive between JSON requests, so a
client pays for one TCP set-up and one handler thread, not one per
request.  Each JSON response leaves in a single write with Nagle off
(a head and body sent apart would wait on the client's delayed ACK), a
request's body is read in full before any answer (bytes left unread
would parse as the next request), and a connection idle for
:data:`KEEPALIVE_IDLE_S` is closed.

Event identity on the wire: a job fans out to one broker channel per
(spec, seed) work unit, and the SSE stream concatenates the unit streams
in order.  Event ids are ``"<unit>:<line>"``; a client resuming with
``Last-Event-ID: 2:17`` replays from line 18 of unit 2.  A finished job's
streams replay from its directory, after a restart too; lines a process
restart dropped from a run's in-memory history are skipped, never
renumbered — offsets stay meaningful across reconnects, retries and
restarts.  The handler sends each batch the broker hands it (lines at
most :data:`~repro.service.streams.STREAM_BATCH_S` old) in one write,
and the closing ``end`` event once the job is terminal, carrying its
final summary.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from ..core.errors import SpecificationError
from ..registry import available, load_plugins
from ..simulation.result import readable_json
from .cache import ResultCache
from .jobs import JobQueue, JobStore, Submission
from .streams import BROKER, EventBroker

__all__ = ["ExperimentService", "KEEPALIVE_IDLE_S"]

#: Seconds a kept-alive connection may sit idle before the server closes
#: it; longer than a client's polling interval, so polls reuse it.
KEEPALIVE_IDLE_S = 5.0


def _parse_offset(text: str) -> tuple[int, int]:
    """Parse an SSE position: ``"unit:line"``, or ``"line"`` in unit 0."""
    unit_text, separator, line_text = text.partition(":")
    try:
        if not separator:
            return 0, int(unit_text)
        return int(unit_text), int(line_text)
    except ValueError:
        raise SpecificationError(
            f"not an event offset: {text!r} (expected 'line' or 'unit:line')"
        ) from None


def _json_body(raw: bytes):
    try:
        return json.loads(raw.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SpecificationError(f"request body is not JSON: {error}") from error


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = KEEPALIVE_IDLE_S

    #: Injected SSE budget: cut the stream after this many events (None = off).
    _sse_event_budget: int | None = None

    @property
    def service(self) -> "ExperimentService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.service.verbose:  # pragma: no cover - diagnostic output
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = (readable_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # Head and body in one write: end_headers() would send the head
        # on its own.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> bytes:
        """The request's body, read in full before the request is answered.

        A body this server cannot delimit (no usable ``Content-Length``)
        closes the connection after the answer instead.
        """
        text = self.headers.get("Content-Length")
        if self.headers.get("Transfer-Encoding") is not None or (
            text is not None and not text.strip().isdigit()
        ):
            self.close_connection = True
            raise SpecificationError("a request body needs a Content-Length")
        length = int(text or 0)
        return self.rfile.read(length) if length else b""

    def _admit(self, method: str, path: str) -> bytes | None:
        """Read the request's body, then consult the fault hook; None when
        the request is already answered (or cut)."""
        try:
            raw = self._read_body()
        except SpecificationError as error:
            self._error(400, str(error))
            return None
        return None if self._injected_fault(method, path) else raw

    # -- fault injection ---------------------------------------------------------

    def _injected_fault(self, method: str, path: str) -> bool:
        """Consult the service's fault hook; True consumes the request.

        The hook (see :class:`~repro.faults.plan.HTTPFaultHook`) returns
        one action per request from a finite, seeded schedule: ``status``
        answers with an error status, ``reset`` cuts the socket without a
        response, ``delay`` stalls then serves normally, ``close-after``
        arms an SSE event budget that drops the stream mid-flight.
        """
        hook = self.service.fault_hook
        if hook is None:
            return False
        action = hook(method, path)
        if action is None:
            return False
        kind = action.get("action")
        if kind == "status":
            self._error(int(action.get("status", 503)), "injected fault: unavailable")
            return True
        if kind == "reset":
            self.close_connection = True
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - peer already gone
                pass
            return True
        if kind == "delay":
            time.sleep(float(action.get("seconds", 0.05)))
            return False
        if kind == "close-after":
            self._sse_event_budget = int(action.get("events", 1))
            return False
        raise SpecificationError(f"unknown fault action {kind!r}")

    # -- routes ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        try:
            if self._admit("GET", path) is None:
                return
            if path == "/healthz":
                self._send_json(200, self.service.health())
            elif path == "/cache":
                self._send_json(200, self.service.cache.stats())
            elif path == "/registry":
                self._send_json(200, available())
            elif path == "/runs" or path == "":
                jobs = [job.summary() for job in self.service.store.jobs()]
                self._send_json(200, {"runs": jobs})
            elif path.startswith("/runs/") and path.endswith("/events"):
                self._stream_events(path[len("/runs/") : -len("/events")])
            elif path.startswith("/runs/"):
                self._job_status(path[len("/runs/") :])
            else:
                self._error(404, f"unknown path {path!r}")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        try:
            raw = self._admit("POST", path)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            return
        if raw is None:
            return
        if path != "/runs":
            self._error(404, f"unknown path {path!r}")
            return
        try:
            submission = Submission.from_payload(_json_body(raw))
        except SpecificationError as error:
            self._error(400, str(error))
            return
        if self.service.queue.draining:
            self._error(503, "service is draining; resubmit after restart")
            return
        try:
            job, created = self.service.queue.submit(submission)
        except SpecificationError as error:
            self._error(503, str(error))
            return
        payload = dict(job.summary())
        payload["deduplicated"] = not created
        payload["events"] = f"/runs/{job.id}/events"
        self._send_json(201 if created else 200, payload)

    def _job_status(self, job_id: str) -> None:
        job = self.service.store.get(job_id)
        if job is None:
            self._error(404, f"unknown run {job_id!r}")
            return
        payload = dict(job.summary())
        payload["submission"] = job.submission
        results = self.service.store.load_results(job.id)
        if results is not None:
            payload["results"] = results
        self._send_json(200, payload)

    # -- server-sent events ------------------------------------------------------

    def _write_events(self, events: list[str]) -> None:
        """Send framed events in one write.

        An injected SSE budget counts events: those within it are sent,
        then the stream drops exactly as a dead peer would, so the
        client's ``Last-Event-ID`` resume runs.
        """
        budget = self._sse_event_budget
        cut = budget is not None and budget < len(events)
        if budget is not None:
            events = events[:budget]
            self._sse_event_budget = budget - len(events)
        if events:
            self.wfile.write("".join(events).encode("utf-8"))
            self.wfile.flush()
        if cut:
            raise BrokenPipeError("injected SSE disconnect")

    def _stream_events(self, job_id: str) -> None:
        service = self.service
        job = service.store.get(job_id)
        if job is None:
            self._error(404, f"unknown run {job_id!r}")
            return
        query = urlsplit(self.path).query
        position = self.headers.get("Last-Event-ID")
        start_unit, start_line = 0, 0
        try:
            for part in query.split("&"):
                if part.startswith("offset="):
                    start_unit, start_line = _parse_offset(part[len("offset=") :])
            if position is not None:
                # Resume *after* the last event the client saw.
                unit, line = _parse_offset(position)
                start_unit, start_line = unit, line + 1
        except SpecificationError as error:
            self._error(400, str(error))
            return

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()

        if job.status not in ("queued", "running"):
            # No run will publish to a terminal job's channels again:
            # finished, they replay from the job's directory and never
            # block (after a restart too).
            service.queue.finish_channels(job)
        stop = service.stopping
        try:
            for unit in range(start_unit, len(job.channels)):
                offset = start_line if unit == start_unit else 0
                for batch in service.broker.subscribe(
                    job.channels[unit], offset=offset, stop=stop, poll_interval=0.1
                ):
                    self._write_events(
                        [
                            f"id: {unit}:{index}\ndata: {line}\n\n"
                            for index, line in batch
                        ]
                    )
            # "end" means the job is terminal, results and record written;
            # a stopping server drops the stream without it instead, so the
            # client resumes from its Last-Event-ID.
            final = service.store.wait_finished(job_id, stop, poll_interval=0.1)
            if final is not None:
                summary = json.dumps(final.summary())
                self._write_events([f"event: end\ndata: {summary}\n\n"])
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: "ExperimentService"

    def __init__(self, *args, **kwargs):
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request_thread(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def close_connections(self) -> None:
        """End every open connection after its current request.

        Shutting the read side wakes a handler waiting for a kept
        connection's next request, so no stopped service keeps answering
        a client's pooled connection; a request in flight still gets its
        answer.
        """
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # pragma: no cover - already closed
                pass


class ExperimentService:
    """A long-running experiment service bound to one data directory.

    The directory is the whole durable state — job records, per-job
    durable batch directories, results, the content-addressed cache — so
    stopping the process (gracefully or not) and starting a new service
    on the same directory continues exactly where the old one stopped:
    unfinished jobs re-queue and resume from their latest engine
    checkpoints.

    ``port=0`` binds an ephemeral port (tests); :attr:`url` reports the
    bound address after :meth:`start`.
    """

    def __init__(
        self,
        data_dir: str | pathlib.Path,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_every: int = 25,
        retries: int = 1,
        retry_backoff: float = 0.0,
        broker: EventBroker | None = None,
        verbose: bool = False,
        fault_hook=None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.host = host
        self.requested_port = int(port)
        self.verbose = bool(verbose)
        #: Fault-injection seam: ``hook(method, path) -> action | None``
        #: consulted before routing every request (chaos testing only).
        self.fault_hook = fault_hook
        self.broker = broker if broker is not None else BROKER
        #: Channel-namespace prefix: several services in one process (the
        #: test suite) must not share drain flags or event channels.
        self.token = hashlib.sha256(
            str(self.data_dir.resolve()).encode("utf-8")
        ).hexdigest()[:12]
        self.store = JobStore(self.data_dir / "jobs")
        self.cache = ResultCache(self.data_dir / "cache")
        self.queue = JobQueue(
            store=self.store,
            cache=self.cache,
            token=self.token,
            broker=self.broker,
            checkpoint_every=checkpoint_every,
            retries=retries,
            retry_backoff=retry_backoff,
        )
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ExperimentService":
        """Load plugins, re-queue unfinished jobs, bind and serve."""
        if self._server is not None:
            raise SpecificationError("service is already running")
        load_plugins()
        self._stopping.clear()
        self.queue.start()
        self._server = _Server((self.host, self.requested_port), _Handler)
        self._server.service = self
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop serving; with ``drain`` (default) checkpoint in-flight work.

        Draining asks the running unit — through the broker's drain flag
        and its service sink — to write one more rolling checkpoint and
        yield at the next round boundary; the interrupted job goes back
        to ``queued`` on disk.  Without ``drain`` the HTTP server stops
        immediately and any in-flight run is abandoned to its latest
        periodic checkpoint (the crash-like path; durability is the same,
        only the final partial round of progress differs).
        """
        if drain:
            self.queue.drain(timeout=timeout)
        self._stopping.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server.close_connections()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def stopping(self) -> bool:
        """True once :meth:`stop` began (SSE handlers poll this)."""
        return self._stopping.is_set()

    @property
    def port(self) -> int:
        if self._server is None:
            raise SpecificationError("service is not running")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- introspection -----------------------------------------------------------

    def health(self) -> dict:
        return {
            "status": "ok",
            "draining": self.queue.draining,
            "jobs": self.store.status_counts(),
            "executed_jobs": self.queue.executed_jobs,
            "cache": self.cache.stats(),
        }
