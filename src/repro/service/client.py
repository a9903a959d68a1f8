"""A small blocking client for the experiment service (stdlib only).

``repro submit`` / ``repro status`` and the test suite talk to the
service through this module; programmatic users can too::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit(spec)                      # ExperimentSpec or dict
    for event in client.events(job["id"]):         # live probe payloads
        print(event["data"])
    final = client.wait(job["id"])
    results = final["results"]

JSON requests go over one kept-alive HTTP/1.1 connection per thread
(``http.client``), so a run of requests pays for one TCP set-up; each
event stream opens a connection of its own (``urllib.request``).
:meth:`ServiceClient.close` (or leaving a ``with ServiceClient(...)``
block) closes the kept connection of every thread.  Errors the server
reports as JSON come back as :class:`ServiceError` carrying the HTTP
status and payload.

The client self-heals over a flaky transport:

* :meth:`_request` retries transient failures — connection errors,
  timeouts and retryable statuses (502/503/504) — with the exponential
  backoff + deterministic jitter of a
  :class:`~repro.faults.retry.RetryPolicy`, under an optional overall
  deadline.  A kept connection the server has closed since its last
  answer (idle timeout, restart) is replaced once within the attempt,
  without spending the retry budget;
* :meth:`wait` polls with exponential backoff (``poll`` doubling up to
  ``poll_cap``) instead of a fixed-rate hammer;
* :meth:`events` reconnects a dropped SSE stream with ``Last-Event-ID``
  so a mid-stream disconnect replays from exactly the next event — the
  iterator's output is identical to an uninterrupted stream.

``fault_hook`` is the injection seam: a callable ``hook(method, path)``
invoked before each request that may raise to simulate transport
failure (see :class:`~repro.faults.plan.ClientFaultHook`).
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from typing import Any, Callable, Iterator, Mapping
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import Request, urlopen

from ..core.errors import SpecificationError
from ..experiment import ExperimentSpec
from ..faults.retry import RetryPolicy

__all__ = ["ServiceClient", "ServiceError", "RETRYABLE_STATUSES"]

#: HTTP statuses worth retrying: transient unavailability, not client error.
RETRYABLE_STATUSES = frozenset({502, 503, 504})

#: Transport-level failures worth retrying: refused and reset connections,
#: timeouts and the fault hook's URLError are all OSErrors.  (So is
#: HTTPError, which carries a status: :meth:`events` decides it first.)
_TRANSIENT_ERRORS = (OSError, HTTPException)

#: How a kept connection the server already closed fails on its next use.
_STALE_ERRORS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class ServiceError(Exception):
    """An error reported by (or while reaching) the experiment service."""

    def __init__(self, message: str, status: int | None = None, payload: Any = None):
        super().__init__(message)
        self.status = status
        self.payload = payload


class ServiceClient:
    """Blocking JSON-over-HTTP client for one :class:`ExperimentService`."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        fault_hook: Callable[[str, str], None] | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        self.retry = (
            retry
            if retry is not None
            else RetryPolicy(
                retries=3, base_delay=0.05, max_delay=1.0, namespace="repro-client"
            )
        )
        self.fault_hook = fault_hook
        self._base_path = urlsplit(self.base_url).path
        self._local = threading.local()
        # Every thread's kept connection, so close() reaches them all.
        self._connections: list[HTTPConnection] = []
        self._connections_lock = threading.Lock()

    # -- transport ---------------------------------------------------------------

    def close(self) -> None:
        """Close every thread's kept connection (a later request reconnects)."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _open(self, request: Request):
        """One raw attempt; the fault hook fires before any bytes move."""
        if self.fault_hook is not None:
            self.fault_hook(request.get_method(), urlsplit(request.full_url).path)
        return urlopen(request, timeout=self.timeout)

    def _connect(self) -> HTTPConnection:
        parts = urlsplit(self.base_url)
        factory = {"http": HTTPConnection, "https": HTTPSConnection}.get(parts.scheme)
        try:
            port = parts.port
        except ValueError:
            factory = None
        if factory is None or not parts.hostname:
            raise ServiceError(
                f"not a service URL: {self.base_url!r} (expected http://host:port)"
            )
        return factory(parts.hostname, port, timeout=self.timeout)

    def _exchange(
        self, method: str, path: str, data: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        """One request and its whole response on this thread's connection.

        A reused connection that fails as a closed one does is replaced
        once; any other failure closes it, so the next attempt starts on
        a fresh one.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._connections_lock:
                self._connections.append(connection)
        reused = connection.sock is not None
        while True:
            try:
                connection.request(
                    method, self._base_path + path, body=data, headers=headers
                )
                response = connection.getresponse()
                return response.status, response.read()
            except _STALE_ERRORS:
                connection.close()
                if not reused:
                    raise
                reused = False
            except BaseException:
                connection.close()
                raise

    def _request(
        self,
        method: str,
        path: str,
        body: Any = None,
        deadline: float | None = None,
    ) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        last_error: ServiceError | None = None
        for attempt in range(self.retry.retries + 1):
            if attempt:
                self.retry.sleep_before(
                    attempt, key=f"{method} {path}", deadline=deadline
                )
                if deadline is not None and time.monotonic() >= deadline:
                    break
            try:
                if self.fault_hook is not None:
                    self.fault_hook(method, path)
                status, raw = self._exchange(method, path, data, headers)
            except _TRANSIENT_ERRORS as error:
                reason = getattr(error, "reason", error)
                last_error = ServiceError(
                    f"cannot reach service at {self.base_url}: {reason}"
                )
                continue
            if status < 400:
                return json.loads(raw.decode("utf-8"))
            payload: Any = None
            message = f"{method} {path} -> HTTP {status}"
            try:
                payload = json.loads(raw.decode("utf-8"))
                message = f"{message}: {payload.get('error', payload)}"
            except Exception:  # pragma: no cover - non-JSON error body
                pass
            last_error = ServiceError(message, status=status, payload=payload)
            if status not in RETRYABLE_STATUSES:
                raise last_error
        assert last_error is not None
        raise last_error

    # -- API ---------------------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def registry(self) -> dict:
        return self._request("GET", "/registry")

    def cache_stats(self) -> dict:
        return self._request("GET", "/cache")

    def runs(self) -> list[dict]:
        return self._request("GET", "/runs")["runs"]

    def submit(
        self,
        spec: ExperimentSpec | Mapping[str, Any],
        grid: Mapping[str, list] | None = None,
        force: bool = False,
    ) -> dict:
        """Submit one spec (or sweep); returns the job record.

        The record's ``deduplicated`` flag reports a joined in-flight
        job, ``cached`` a run answered from the result cache without
        executing a single engine round.  Submission is idempotent
        server-side (in-flight dedup + content-addressed cache), so the
        transport retry in :meth:`_request` is safe here.
        """
        if isinstance(spec, ExperimentSpec):
            spec_data = spec.to_dict()
        elif isinstance(spec, Mapping):
            spec_data = dict(spec)
        else:
            raise SpecificationError(
                f"submit() needs an ExperimentSpec or a spec dict, got {spec!r}"
            )
        body: dict[str, Any] = {"spec": spec_data}
        if grid:
            body["grid"] = {path: list(choices) for path, choices in grid.items()}
        if force:
            body["force"] = True
        return self._request("POST", "/runs", body)

    def status(self, run_id: str) -> dict:
        """One job's status; includes ``results`` once the job is done."""
        return self._request("GET", f"/runs/{run_id}")

    def wait(
        self,
        run_id: str,
        timeout: float = 60.0,
        poll: float = 0.05,
        poll_cap: float = 1.0,
    ) -> dict:
        """Block until the job reaches a terminal status (or raise).

        The poll interval starts at ``poll`` and doubles up to
        ``poll_cap`` — fast answers stay fast, long runs stop hammering
        the service with fixed-rate status requests.
        """
        deadline = time.monotonic() + timeout
        pause = float(poll)
        while True:
            record = self._request("GET", f"/runs/{run_id}", deadline=deadline)
            if record["status"] in ("done", "failed"):
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"run {run_id} still {record['status']!r} after {timeout:.1f}s"
                )
            time.sleep(min(pause, remaining))
            pause = min(pause * 2, float(poll_cap))

    def results(self, run_id: str, timeout: float = 60.0) -> list[dict]:
        """Wait for the job and return its per-unit result records."""
        record = self.wait(run_id, timeout=timeout)
        if record["status"] != "done":
            raise ServiceError(
                f"run {run_id} failed:\n{record.get('error')}", payload=record
            )
        return record["results"]

    def events(self, run_id: str, offset: str | int | None = None) -> Iterator[dict]:
        """Iterate the run's Server-Sent Events as ``{"id", "data"}`` dicts.

        ``data`` is the parsed probe payload — line for line what a JSONL
        sink would have written for the same run.  The iterator follows
        the stream live and ends when the server sends its ``end`` event,
        which it does once the job is terminal.
        ``offset`` resumes mid-stream (``"unit:line"``, or a line number
        in unit 0).

        A connection cut mid-stream (or a stream that ends without the
        terminal ``end`` event) is reconnected with ``Last-Event-ID`` set
        to the last event seen, so the server replays from exactly the
        next line: the concatenated output across reconnects is identical
        to one uninterrupted stream.  The reconnect budget is
        ``retry.retries`` consecutive attempts without progress.
        """
        path = f"/runs/{run_id}/events"
        last_id: str | None = None
        attempts = 0
        while True:
            headers = {"Accept": "text/event-stream"}
            request_path = path
            if last_id is not None:
                headers["Last-Event-ID"] = last_id
            elif offset is not None:
                request_path += f"?offset={offset}"
            request = Request(self.base_url + request_path, headers=headers)
            try:
                response = self._open(request)
            except HTTPError as error:
                raise ServiceError(
                    f"GET {request_path} -> HTTP {error.code}", status=error.code
                ) from error
            except _TRANSIENT_ERRORS as error:
                attempts += 1
                if attempts > self.retry.retries:
                    reason = getattr(error, "reason", error)
                    raise ServiceError(
                        f"event stream for run {run_id} unreachable after "
                        f"{attempts} attempts: {reason}"
                    ) from error
                self.retry.sleep_before(attempts, key=f"events {run_id}")
                continue
            ended = False
            progressed = False
            try:
                with response:
                    name, event_id, data = "message", None, []
                    for raw in response:
                        line = raw.decode("utf-8").rstrip("\r\n")
                        if line.startswith("event:"):
                            name = line[len("event:") :].strip()
                        elif line.startswith("id:"):
                            event_id = line[len("id:") :].strip()
                        elif line.startswith("data:"):
                            data.append(line[len("data:") :].strip())
                        elif not line:
                            if name == "end":
                                ended = True
                                break
                            if data:
                                if event_id is not None:
                                    last_id = event_id
                                    progressed = True
                                yield {
                                    "id": event_id,
                                    "data": json.loads("\n".join(data)),
                                }
                            name, event_id, data = "message", None, []
            except (OSError, HTTPException) as error:
                if ended:  # pragma: no cover - error racing the end event
                    return
                last_disconnect: Exception | None = error
            else:
                if ended:
                    return
                last_disconnect = None
            # The stream dropped before its "end" event: reconnect after
            # the last event seen, resetting the budget on any progress.
            if progressed:
                attempts = 0
            attempts += 1
            if attempts > self.retry.retries:
                raise ServiceError(
                    f"event stream for run {run_id} dropped without an 'end' "
                    f"event after {attempts} consecutive stalled attempts"
                ) from last_disconnect
            self.retry.sleep_before(attempts, key=f"events {run_id}")
