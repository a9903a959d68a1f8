"""The experiment service: broker, streaming sink, cache, HTTP, durability.

The anchor claims, end to end over real HTTP on an ephemeral port:

* the same seeded spec submitted twice returns byte-identical result
  JSON, with the second answer flagged as a cache hit and executed by
  zero engine rounds;
* service results are byte-identical to an offline ``spec.run(seed)`` —
  the durable machinery (checkpoint probe, service sink) leaves no trace
  in the result;
* the SSE event stream of a run equals, line for line, the JSONL sink
  file of the same spec and seed;
* draining a service mid-run checkpoints the in-flight unit, and a new
  service on the same data directory resumes it to the same bytes.
"""

from __future__ import annotations

import gc
import http.client
import io
import json
import pathlib
import queue
import random
import shutil
import sys
import threading
import time
import urllib.request
import warnings
from urllib.error import URLError
from urllib.parse import urlsplit

import pytest

import repro
from repro import BatchRunner, ExperimentSpec, SpecificationError
from repro.faults import corrupt_file
from repro.faults.retry import RetryPolicy
from repro.registry import register_probe
from repro.service import (
    BROKER,
    EventBroker,
    ExperimentService,
    ResultCache,
    ServiceClient,
    ServiceError,
    ServiceSinkProbe,
    Submission,
)
from repro.service import cache as cache_module
from repro.service import jobs as jobs_module
from repro.service import server as server_module
from repro.service import streams as streams_module
from repro.service.jobs import JobInterrupted, JobQueue, JobStore
from repro.simulation.protocol import Probe

#: A client or connection left open fails its test: the socket's
#: ResourceWarning is raised in its finalizer, where pytest reports it.
pytestmark = [
    pytest.mark.filterwarnings("error:unclosed <socket:ResourceWarning"),
    pytest.mark.filterwarnings(
        "error:Exception ignored in. <socket:pytest.PytestUnraisableExceptionWarning"
    ),
]

VALUES = (9, 5, 7, 1)

#: Two finished jobs written before results moved into ``job.json`` (a
#: ``job.json`` and a ``results.json`` each; run-0001 executed, run-0002 a
#: cache hit; the batch directory left out), and ``served.json``, the
#: ``GET /runs/<id>`` bodies that layout was served as.
PARENT_LAYOUT = pathlib.Path(__file__).parent / "fixtures" / "parent_service_jobs"


def churn_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="service-minimum",
        algorithm="minimum",
        environment="churn",
        environment_params={"edge_up_probability": 0.3},
        initial_values=VALUES,
        seeds=(0,),
        max_rounds=300,
    )
    base.update(overrides)
    return ExperimentSpec(**base).validate()


@register_probe("test-service-slow")
class SlowRoundsProbe(Probe):
    """Stretches rounds so tests can interact with an in-flight run."""

    name = "test-service-slow"

    def __init__(self, delay: float = 0.05):
        self.delay = float(delay)

    def on_round(self, record):
        time.sleep(self.delay)


def slow_spec(delay: float = 0.05, **overrides) -> ExperimentSpec:
    overrides.setdefault("name", "service-slow")
    overrides.setdefault(
        "environment_params", {"edge_up_probability": 0.05}
    )
    overrides.setdefault(
        "probes", ({"probe": "test-service-slow", "delay": delay},)
    )
    return churn_spec(**overrides)


@pytest.fixture
def service(tmp_path):
    services = []

    def factory(subdir="service", **kwargs) -> ExperimentService:
        kwargs.setdefault("checkpoint_every", 5)
        instance = ExperimentService(tmp_path / subdir, **kwargs).start()
        services.append(instance)
        return instance

    yield factory
    for instance in services:
        instance.stop(drain=False, timeout=5.0)


# -- the event broker ------------------------------------------------------------


def flattened(batches) -> list[tuple[int, str]]:
    """A subscription's batches as one list of ``(index, line)``."""
    return [event for batch in batches for event in batch]


def buffered(broker: EventBroker, name: str) -> list[str]:
    """The lines a channel holds now, live or finished, without blocking."""
    return [line for _, line in flattened(broker.subscribe(name, stop=lambda: True))]


class TestEventBroker:
    def test_publish_subscribe_and_replay(self):
        broker = EventBroker()
        assert broker.publish("ch", "a") == 0
        assert broker.publish("ch", "b") == 1
        broker.close("ch")
        assert flattened(broker.subscribe("ch")) == [(0, "a"), (1, "b")]
        assert flattened(broker.subscribe("ch", offset=1)) == [(1, "b")]
        assert buffered(broker, "ch") == ["a", "b"]

    def test_publish_to_closed_channel_is_an_error(self):
        broker = EventBroker()
        broker.close("ch")
        with pytest.raises(SpecificationError, match="closed"):
            broker.publish("ch", "x")

    def test_truncate_reopens_and_keeps_prefix(self):
        broker = EventBroker()
        for line in "abcd":
            broker.publish("ch", line)
        broker.close("ch")
        broker.truncate("ch", 2)
        assert broker.publish("ch", "C") == 2
        broker.close("ch")
        assert flattened(broker.subscribe("ch")) == [(0, "a"), (1, "b"), (2, "C")]

    def test_truncate_past_end_advances_base(self):
        # A fresh process lost the in-memory history; a resumed run keeps
        # publishing at its checkpointed offsets anyway.
        broker = EventBroker()
        broker.truncate("ch", 10)
        assert broker.publish("ch", "k") == 10
        broker.close("ch")
        assert flattened(broker.subscribe("ch")) == [(10, "k")]
        assert flattened(broker.subscribe("ch", offset=3)) == [(10, "k")]
        assert buffered(broker, "ch") == ["k"]

    def test_lines_published_before_subscribing_arrive_as_one_batch(self):
        broker = EventBroker()
        for line in "abc":
            broker.publish("ch", line)
        subscription = broker.subscribe("ch")
        assert next(subscription) == [(0, "a"), (1, "b"), (2, "c")]
        broker.publish("ch", "d")
        broker.close("ch")
        assert list(subscription) == [[(3, "d")]]

    def test_close_and_truncate_end_the_gathering_wait(self, monkeypatch):
        monkeypatch.setattr(streams_module, "STREAM_BATCH_S", 10.0)
        broker = EventBroker()
        broker.publish("ch", "a")
        broker.publish("ch", "b")
        batches: queue.Queue = queue.Queue()

        def follow():
            for batch in broker.subscribe("ch"):
                batches.put(batch)
            batches.put(None)

        thread = threading.Thread(target=follow, daemon=True)
        thread.start()
        assert batches.get(timeout=1) == [(0, "a"), (1, "b")]
        # The subscriber now gathers for 10 s.  A resume rewrites line 1
        # and streams on at stable indices; line 1 was already delivered.
        broker.truncate("ch", 1)
        assert broker.publish("ch", "b") == 1
        assert broker.publish("ch", "c") == 2
        assert batches.get(timeout=1) == [(2, "c")]
        broker.close("ch")
        assert batches.get(timeout=1) is None
        thread.join(timeout=1)
        assert not thread.is_alive()

    def test_followers_of_a_fast_publisher_get_few_batches(self):
        broker = EventBroker()
        followers = [[] for _ in range(3)]
        threads = [
            threading.Thread(target=batches.extend, args=(broker.subscribe("ch"),))
            for batches in followers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for index in range(1000):
                broker.publish("ch", f"line {index}")
            broker.close("ch")
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        history = flattened(broker.subscribe("ch"))
        assert len(history) == 1000
        for batches in followers:
            assert flattened(batches) == history
            assert len(batches) < 100

    def test_drain_flags_match_by_prefix(self):
        broker = EventBroker()
        broker.begin_drain("svc-a/")
        assert broker.draining("svc-a/run-0001/unit-0000")
        assert not broker.draining("svc-b/run-0001/unit-0000")
        broker.end_drain("svc-a/")
        assert not broker.draining("svc-a/run-0001/unit-0000")


class TestFinishedStreams:
    def test_finish_moves_the_lines_to_a_file(self, tmp_path):
        broker = EventBroker()
        broker.truncate("ch", 3)
        for line in "abc":
            broker.publish("ch", line)
        path = tmp_path / "events" / "unit-0000.jsonl"
        broker.finish("ch", path)
        assert path.read_text() == (
            '{"format": "repro-event-stream", "base": 3}\na\nb\nc\n'
        )
        assert broker._channels["ch"].lines == []
        assert flattened(broker.subscribe("ch")) == [(3, "a"), (4, "b"), (5, "c")]
        assert flattened(broker.subscribe("ch", offset=5)) == [(5, "c")]
        with pytest.raises(SpecificationError, match="closed"):
            broker.publish("ch", "d")
        broker.finish("ch", tmp_path / "elsewhere.jsonl")
        assert not (tmp_path / "elsewhere.jsonl").exists()

    def test_a_fresh_broker_replays_a_finished_file(self, tmp_path):
        path = tmp_path / "unit-0000.jsonl"
        first = EventBroker()
        first.truncate("ch", 2)
        first.publish("ch", "x")
        first.publish("ch", "y")
        first.finish("ch", path)
        # A restart: no run uses the channel, so its lines come from disk.
        second = EventBroker()
        second.finish("ch", path)
        assert path.read_text().endswith("\nx\ny\n")
        assert flattened(second.subscribe("ch")) == [(2, "x"), (3, "y")]
        third = EventBroker()
        third.finish("ch", tmp_path / "missing.jsonl")
        assert flattened(third.subscribe("ch")) == []
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text('{"format": "repro-event-str')
        fourth = EventBroker()
        fourth.finish("ch", damaged)
        assert flattened(fourth.subscribe("ch")) == []
        assert damaged.with_name("damaged.jsonl.corrupt").exists()

    def test_a_truncate_reopens_a_finished_channel(self, tmp_path):
        broker = EventBroker()
        for line in "abc":
            broker.publish("ch", line)
        broker.finish("ch", tmp_path / "unit-0000.jsonl")
        broker.truncate("ch", 2)
        assert broker.publish("ch", "C") == 2
        broker.close("ch")
        assert flattened(broker.subscribe("ch")) == [(0, "a"), (1, "b"), (2, "C")]

    def test_a_subscriber_racing_the_finish_sees_every_line_once(
        self, tmp_path, monkeypatch
    ):
        broker = EventBroker()
        for line in "abc":
            broker.publish("ch", line)
        expected = list(enumerate("abcde"))
        early = broker.subscribe("ch")
        assert next(early) == expected[:3]
        broker.publish("ch", "d")
        broker.publish("ch", "e")
        during = []
        write = streams_module._write_stream

        def write_while_followed(path, base, lines):
            # The channel is closed, its lines still in memory.
            during.extend(flattened(broker.subscribe("ch")))
            write(path, base, lines)

        monkeypatch.setattr(streams_module, "_write_stream", write_while_followed)
        broker.finish("ch", tmp_path / "unit-0000.jsonl")
        assert during == expected
        assert broker._channels["ch"].lines == []
        assert next(early) == expected[3:], "the rest comes from the file"
        assert list(early) == []

    def test_followers_racing_the_finish_see_every_line_once(self, tmp_path):
        broker = EventBroker()
        followers = [[] for _ in range(3)]
        threads = [
            threading.Thread(
                target=batches.extend, args=(broker.subscribe("ch"),), daemon=True
            )
            for batches in followers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for index in range(300):
                broker.publish("ch", f"line {index}")
            broker.finish("ch", tmp_path / "unit-0000.jsonl")
            late = flattened(broker.subscribe("ch"))
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [(index, f"line {index}") for index in range(300)]
        assert late == expected
        for batches in followers:
            assert flattened(batches) == expected


# -- the streaming sink ----------------------------------------------------------


class TestServiceSinkProbe:
    def test_requires_exactly_one_destination(self):
        with pytest.raises(SpecificationError, match="exactly one"):
            ServiceSinkProbe()
        with pytest.raises(SpecificationError, match="exactly one"):
            ServiceSinkProbe(channel="ch", stream=io.StringIO())
        with pytest.raises(SpecificationError, match="write"):
            ServiceSinkProbe(stream=object())

    def test_stream_output_equals_jsonl_sink_file(self, tmp_path):
        jsonl_path = tmp_path / "rounds.jsonl"
        jsonl_spec = churn_spec(
            probes=({"probe": "jsonl", "path": str(jsonl_path)},)
        )
        jsonl_spec.run(0)

        stream = io.StringIO()
        spec = churn_spec()
        kwargs = spec.run_kwargs()
        kwargs["probes"] = [ServiceSinkProbe(stream=stream)]
        result = spec.build(0).run(**kwargs)
        assert stream.getvalue() == jsonl_path.read_text()
        # ...and the sink left no payload behind in the result.
        assert "service-sink" not in (result.to_dict().get("probes") or {})

    def test_channel_output_equals_jsonl_sink_file(self, tmp_path):
        jsonl_path = tmp_path / "rounds.jsonl"
        churn_spec(probes=({"probe": "jsonl", "path": str(jsonl_path)},)).run(0)

        broker = EventBroker()
        spec = churn_spec()
        kwargs = spec.run_kwargs()
        kwargs["probes"] = [ServiceSinkProbe(channel="ch", broker=broker)]
        spec.build(0).run(**kwargs)
        lines = [line + "\n" for line in buffered(broker, "ch")]
        assert "".join(lines) == jsonl_path.read_text()
        with pytest.raises(SpecificationError, match="closed"):
            broker.publish("ch", "the sink closes its channel at the end")


# -- the result cache ------------------------------------------------------------


class TestResultCache:
    def test_round_trip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = churn_spec().fingerprint()
        assert cache.get(fingerprint) is None
        entry = cache.put(fingerprint, {"spec": {}}, [{"result": 1}])
        assert fingerprint in cache
        assert cache.get(fingerprint) == entry
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1, "corrupt": 0}

    def test_rejects_non_fingerprint_keys(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SpecificationError, match="fingerprint"):
            cache.get("../escape")


# -- submissions -----------------------------------------------------------------


class TestSubmission:
    def test_bare_spec_and_envelope_agree(self):
        spec = churn_spec()
        bare = Submission.from_payload(spec.to_dict())
        enveloped = Submission.from_payload({"spec": spec.to_dict()})
        assert bare.fingerprint() == enveloped.fingerprint() == spec.fingerprint()
        assert bare.unit_count() == 1

    def test_grid_expands_and_changes_the_fingerprint(self):
        spec = churn_spec(seeds=(0, 1))
        submission = Submission.from_payload(
            {
                "spec": spec.to_dict(),
                "grid": {"environment_params.edge_up_probability": [0.2, 0.4]},
            }
        )
        assert submission.unit_count() == 4
        assert submission.fingerprint() != spec.fingerprint()

    def test_bad_payloads_fail_loudly(self):
        with pytest.raises(SpecificationError, match="JSON object"):
            Submission.from_payload([1, 2])
        with pytest.raises(SpecificationError, match="unknown submission fields"):
            Submission.from_payload({"spec": churn_spec().to_dict(), "nope": 1})
        with pytest.raises(SpecificationError, match="grid"):
            Submission.from_payload(
                {"spec": churn_spec().to_dict(), "grid": {"max_rounds": 5}}
            )


# -- the HTTP service ------------------------------------------------------------


class TestExperimentService:
    def test_submit_twice_is_a_byte_identical_cache_hit(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = churn_spec(seeds=(0, 1))

        first_job = client.submit(spec)
        assert first_job["status"] in ("queued", "running", "done")
        assert not first_job["cached"]
        first = client.wait(first_job["id"], timeout=60)
        assert first["status"] == "done"

        second_job = client.submit(spec)
        assert second_job["cached"], "second submission must be a cache hit"
        second = client.wait(second_job["id"], timeout=60)

        assert json.dumps(first["results"], sort_keys=True) == json.dumps(
            second["results"], sort_keys=True
        )
        # The cache answered without executing anything new.
        assert instance.queue.executed_jobs == 1
        assert instance.cache.stats()["hits"] == 1

    def test_service_results_equal_offline_runs(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = churn_spec(seeds=(0, 1))
        results = client.results(client.submit(spec)["id"], timeout=60)
        offline = [spec.run(seed).to_dict() for seed in spec.seeds]
        assert [unit["result"] for unit in results] == offline

    def test_sse_stream_equals_jsonl_sink(self, service, tmp_path, connect):
        jsonl_path = tmp_path / "reference.jsonl"
        churn_spec(probes=({"probe": "jsonl", "path": str(jsonl_path)},)).run(0)

        instance = service()
        client = connect(instance.url)
        job = client.submit(churn_spec())
        events = list(client.events(job["id"]))
        streamed = "".join(json.dumps(event["data"]) + "\n" for event in events)
        assert streamed == jsonl_path.read_text()
        assert [event["id"] for event in events[:2]] == ["0:0", "0:1"]

    def test_sse_offset_resumes_mid_stream(self, service, connect):
        instance = service()
        client = connect(instance.url)
        job = client.submit(churn_spec())
        client.wait(job["id"], timeout=60)
        everything = list(client.events(job["id"]))
        tail = list(client.events(job["id"], offset="0:2"))
        assert tail == everything[2:]

    def test_raw_run_body_parses_to_the_record_with_states_on_one_line(
        self, service, connect
    ):
        instance = service()
        client = connect(instance.url)
        job = client.submit(churn_spec(seeds=(0, 1)))
        record = client.wait(job["id"], timeout=60)
        assert record["status"] == "done"
        with urllib.request.urlopen(f"{instance.url}/runs/{job['id']}") as response:
            body = response.read().decode("utf-8")
        assert json.loads(body) == record
        lines = [line for line in body.splitlines() if '"final_states"' in line]
        assert len(lines) == len(record["results"]) == 2
        for line, unit in zip(lines, record["results"]):
            assert json.loads("{" + line.strip().rstrip(",") + "}") == {
                "final_states": unit["result"]["final_states"]
            }

    def test_sweep_submission_runs_the_grid(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = churn_spec(seeds=(0,))
        job = client.submit(
            spec, grid={"environment_params.edge_up_probability": [0.2, 0.4]}
        )
        results = client.results(job["id"], timeout=60)
        assert len(results) == 2
        probabilities = [
            unit["spec"]["environment_params"]["edge_up_probability"]
            for unit in results
        ]
        assert probabilities == [0.2, 0.4]

    def test_force_bypasses_the_cache(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = churn_spec()
        client.results(client.submit(spec)["id"], timeout=60)
        forced = client.submit(spec, force=True)
        assert not forced["cached"]
        client.wait(forced["id"], timeout=60)
        assert instance.queue.executed_jobs == 2

    def test_failed_runs_report_their_error(self, service, connect):
        instance = service()
        client = connect(instance.url)
        # A jsonl probe pointing into a directory that cannot exist makes
        # the run raise mid-flight.
        spec = churn_spec(
            probes=(
                {"probe": "jsonl", "path": "/dev/null/nope/rounds.jsonl"},
            )
        )
        record = client.wait(client.submit(spec)["id"], timeout=60)
        assert record["status"] == "failed"
        assert record["error"]
        # The error names the package's files as the checkout lays them
        # out below its source directory, not by their absolute path.
        assert 'File "repro/simulation/batch.py"' in record["error"]
        assert str(pathlib.Path(repro.__file__).resolve().parent) not in record["error"]
        with pytest.raises(ServiceError, match="failed"):
            client.results(record["id"])

    def test_http_errors(self, service, connect):
        instance = service()
        client = connect(instance.url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("run-9999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"algorithm": "no-such-algorithm", "initial_values": [1]})
        assert excinfo.value.status == 400
        health = client.health()
        assert health["status"] == "ok" and not health["draining"]
        assert "minimum" in client.registry()["algorithms"]

    def test_mistyped_spec_scalar_is_a_400(self, service, connect):
        instance = service()
        client = connect(instance.url)
        for field, value in (("max_rounds", "10"), ("stop_at_convergence", "false")):
            spec = dict(churn_spec().to_dict(), **{field: value})
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400
            assert field in str(excinfo.value)
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize(
        "probe, message",
        [
            ({"probe": "checkpoint", "every": "x"}, "invalid literal"),
            ({"probe": "fault-crash", "at_round": 0}, "at_round >= 1"),
        ],
    )
    def test_probe_parameter_value_error_is_a_400(
        self, service, probe, message, connect
    ):
        instance = service()
        client = connect(instance.url)
        spec = dict(churn_spec().to_dict(), probes=[probe])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)
        assert client.health()["status"] == "ok"

    def test_served_records_are_the_offline_batch_records(
        self, service, tmp_path, connect
    ):
        # Durable units run with the service's stream channel and
        # checkpoint directory, but the records it serves carry the spec
        # as submitted: label, seed, spec, result and error all equal an
        # offline batch's, wherever the data directory lives.
        instance = service()
        client = connect(instance.url)
        spec = churn_spec(seeds=(0, 1))
        results = client.results(client.submit(spec)["id"], timeout=60)
        offline = BatchRunner(backend="serial").run(spec).to_dict()["items"]
        assert results == offline
        served = json.dumps(results)
        assert str(tmp_path) not in served
        assert "service-sink" not in served

    def test_drain_checkpoints_and_restart_resumes_identically(self, service, connect):
        spec = slow_spec(delay=0.05, max_rounds=400)
        offline = spec.run(0).to_dict()

        first = service("durable", checkpoint_every=2)
        client = connect(first.url)
        job = client.submit(spec)
        deadline = time.monotonic() + 10
        while first.store.get(job["id"]).status != "running":
            assert time.monotonic() < deadline, "run never started"
            time.sleep(0.01)
        time.sleep(0.3)  # a few slow rounds
        first.stop(drain=True)

        record = first.store.get(job["id"])
        assert record.status == "queued", "drain must re-queue the in-flight job"
        engine_dir = first.store.batch_dir(job["id"]) / "unit-0000" / "engine"
        assert list(engine_dir.glob("*/round-*.json")), "drain must checkpoint"

        second = service("durable", checkpoint_every=2)
        final = connect(second.url).wait(job["id"], timeout=120)
        assert final["status"] == "done"
        assert final["results"][0]["result"] == offline

    def test_draining_service_rejects_new_submissions(self, service, connect):
        instance = service()
        client = connect(instance.url)
        instance.queue.drain(timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(churn_spec())
        assert excinfo.value.status == 503

    def test_in_flight_submissions_are_deduplicated(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = slow_spec(delay=0.05, max_rounds=400, name="dedup")
        first = client.submit(spec)
        second = client.submit(spec)
        assert second["id"] == first["id"]
        assert second["deduplicated"]
        assert client.wait(first["id"], timeout=120)["status"] == "done"

    def test_job_interrupted_escapes_retries(self, service):
        # JobInterrupted must not be swallowed by the per-unit retry
        # budget: a drain is not a crash.
        assert issubclass(JobInterrupted, BaseException)
        assert not issubclass(JobInterrupted, Exception)


# -- the event stream ------------------------------------------------------------


def raw_events(url: str, job_id: str, timeout: float = 10.0) -> list[dict]:
    """Every event of one SSE connection as ``{"event", "id", "data"}``,
    the terminal ``end`` included (the client hides it)."""
    address = urlsplit(url)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=timeout
    )
    try:
        connection.request("GET", f"/runs/{job_id}/events")
        body = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    events = []
    for block in body.split("\n\n")[:-1]:
        event = {"event": "message", "id": None}
        for line in block.split("\n"):
            key, _, value = line.partition(": ")
            event[key] = value
        events.append(event)
    return events


def recorded_stream_writes(monkeypatch) -> list[bytes]:
    """Record every ``wfile.write`` the SSE handlers make from now on."""
    writes: list[bytes] = []
    stream_events = server_module._Handler._stream_events

    class Recorder:
        def __init__(self, wfile):
            self.wfile = wfile

        def write(self, data):
            writes.append(bytes(data))
            return self.wfile.write(data)

        def flush(self):
            self.wfile.flush()

    def recording(handler, job_id):
        wfile = handler.wfile
        handler.wfile = Recorder(wfile)
        try:
            stream_events(handler, job_id)
        finally:
            handler.wfile = wfile

    monkeypatch.setattr(server_module._Handler, "_stream_events", recording)
    return writes


def event_writes(writes: list[bytes]) -> list[bytes]:
    """The writes that carry probe lines (not the head, not ``end``)."""
    return [data for data in writes if data.startswith(b"id: ")]


class TestEventStream:
    def test_a_finished_jobs_lines_leave_in_one_write(
        self, service, monkeypatch, connect
    ):
        instance = service()
        client = connect(instance.url)
        job = client.wait(client.submit(churn_spec())["id"], timeout=60)
        writes = recorded_stream_writes(monkeypatch)
        events = list(client.events(job["id"]))
        assert len(events) > 3
        assert [data.count(b"\n\n") for data in event_writes(writes)] == [len(events)]
        assert writes[-1].startswith(b"event: end\n")

    def test_a_followed_job_takes_fewer_writes_than_events(
        self, service, monkeypatch, connect
    ):
        instance = service()
        writes = recorded_stream_writes(monkeypatch)
        client = connect(instance.url)
        job = client.submit(slow_spec(delay=0.005))
        events = list(client.events(job["id"]))
        carried = event_writes(writes)
        assert sum(data.count(b"\n\n") for data in carried) == len(events)
        assert len(carried) < len(events)

    def test_end_waits_for_the_job_to_finish(self, service, monkeypatch, connect):
        # The last channel closes before the cache write and the job's
        # final record; "end" must carry the finished job.
        put = ResultCache.put

        def slow_put(cache, *args, **kwargs):
            time.sleep(0.3)
            return put(cache, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "put", slow_put)
        instance = service()
        job = connect(instance.url).submit(churn_spec())
        events = raw_events(instance.url, job["id"])
        assert events[-1]["event"] == "end"
        assert json.loads(events[-1]["data"])["status"] == "done"

    def test_a_stopping_service_drops_the_stream_without_end(self, service, connect):
        # The job is not terminal, so the stream has no "end" to send: the
        # client sees a cut stream and resumes it from its Last-Event-ID.
        instance = service()
        spec = slow_spec(delay=0.05, max_rounds=400)
        job = connect(instance.url).submit(spec)
        events: list[dict] = []
        reader = threading.Thread(
            target=lambda: events.extend(raw_events(instance.url, job["id"]))
        )
        reader.start()
        channel = instance.store.get(job["id"]).channels[0]
        deadline = time.monotonic() + 10
        while len(buffered(instance.broker, channel)) < 3:
            assert time.monotonic() < deadline, "run never streamed"
            time.sleep(0.01)
        instance.stop(drain=True)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert instance.store.get(job["id"]).status == "queued"
        assert events and all(event["event"] == "message" for event in events)

    def test_finished_stream_replays_after_a_restart(self, service, connect):
        first = service("restart")
        client = connect(first.url)
        job = client.wait(client.submit(churn_spec(seeds=(0, 1)))["id"], timeout=60)
        before = raw_events(first.url, job["id"])
        tail = list(client.events(job["id"], offset="1:2"))
        first.stop()
        # A fresh process: the broker's memory is gone, the job's
        # directory is not.
        second = service("restart", broker=EventBroker())
        start = time.monotonic()
        after = raw_events(second.url, job["id"])
        assert time.monotonic() - start < 2.0
        assert after == before
        assert [event["event"] for event in after].count("message") > 6
        assert after[-1]["event"] == "end"
        assert json.loads(after[-1]["data"])["status"] == "done"
        assert list(connect(second.url).events(job["id"], offset="1:2")) == tail


# -- kept connections --------------------------------------------------------------


def accepted_connections(monkeypatch, instance) -> list:
    """Record every connection ``instance``'s server accepts from now on."""
    server = instance._server
    accepted = []
    accept = server.get_request

    def counting():
        request = accept()
        accepted.append(request[1])
        return request

    monkeypatch.setattr(server, "get_request", counting)
    return accepted


class TestKeptConnections:
    def test_sequential_requests_share_one_connection_without_stalls(
        self, service, monkeypatch, connect
    ):
        instance = service()
        accepted = accepted_connections(monkeypatch, instance)
        client = connect(instance.url)
        job = client.wait(client.submit(churn_spec())["id"], timeout=60)
        start = time.monotonic()
        for _ in range(50):
            assert client.status(job["id"]) == job
        # A response held back by Nagle behind the client's delayed ACK
        # costs ~40 ms: 50 of them would take at least 2 s.
        assert time.monotonic() - start < 1.0
        assert len(accepted) == 1

    def test_early_answers_read_the_body_first(self, service, monkeypatch):
        faults = []
        instance = service(fault_hook=lambda *request: faults.pop() if faults else None)
        accepted = accepted_connections(monkeypatch, instance)
        body = json.dumps({"spec": churn_spec().to_dict()}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(
            instance.host, instance.port, timeout=10
        )
        try:
            connection.request("POST", "/nope", body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            faults.append({"action": "status", "status": 503})
            connection.request("POST", "/runs", body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == 503
            response.read()
            # What was left of either body would now parse as a request.
            connection.request("POST", "/runs", body=body, headers=headers)
            response = connection.getresponse()
            assert response.status == 201
            assert json.loads(response.read())["id"] == "run-0001"
        finally:
            connection.close()
        assert len(accepted) == 1

    def test_client_reconnects_after_the_idle_timeout(
        self, service, monkeypatch, connect
    ):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        instance = service()
        accepted = accepted_connections(monkeypatch, instance)
        calls = []
        # No retries: the replaced connection must not spend the budget.
        client = connect(
            instance.url,
            retry=RetryPolicy(retries=0),
            fault_hook=lambda method, path: calls.append((method, path)),
        )
        assert client.health()["status"] == "ok"
        time.sleep(0.6)  # the server closes the idle connection
        assert client.health()["status"] == "ok"
        assert calls == [("GET", "/healthz")] * 2, "one hook call per attempt"
        assert len(accepted) == 2

    def test_client_reconnects_to_a_restarted_service(self, service, connect):
        first = service("first")
        client = connect(first.url)
        client.wait(client.submit(churn_spec())["id"], timeout=60)
        assert len(client.runs()) == 1
        port = first.port
        first.stop(drain=False, timeout=5.0)
        # A new service on the same port, over another data directory:
        # the kept connection must not reach the stopped one.
        service("second", port=port)
        assert client.runs() == []

    def test_close_closes_every_threads_connection(self, service, monkeypatch):
        instance = service()
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            # A socket collected while open warns from its finalizer,
            # which reports the error to sys.unraisablehook.
            warnings.simplefilter("error", ResourceWarning)
            client = ServiceClient(instance.url)
            client.health()
            worker = threading.Thread(target=client.health)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
            client.close()
            del client
            gc.collect()
        assert [hook_args.exc_value for hook_args in unraisable] == []

    def test_client_is_a_context_manager(self, service):
        instance = service()
        with ServiceClient(instance.url) as client:
            assert client.health()["status"] == "ok"
            connection = client._local.connection
            assert connection.sock is not None
        assert connection.sock is None

    def test_a_malformed_url_is_a_service_error(self):
        for url in ("not a url", "http://", "http://host:port"):
            with pytest.raises(ServiceError, match="not a service URL"):
                with ServiceClient(url) as client:
                    client.health()

    def test_fault_hook_fires_once_per_attempt(self, service, connect):
        faults = [{"action": "status", "status": 503}]
        instance = service(fault_hook=lambda *request: faults.pop() if faults else None)
        calls = []

        def hook(method, path):
            calls.append((method, path))
            if len(calls) == 1:
                raise URLError("injected connection failure")

        client = connect(
            instance.url,
            retry=RetryPolicy(retries=3, base_delay=0.01, max_delay=0.05),
            fault_hook=hook,
        )
        # Attempts: the hook's failure, the server's 503, then success.
        assert client.runs() == []
        assert calls == [("GET", "/runs")] * 3
        assert not faults


# -- what a job writes -------------------------------------------------------------


def recorded_writes(monkeypatch) -> list:
    """Record every durable write the job store and the cache make, as
    ``(thread name, path, text)``."""
    writes = []
    write = jobs_module.atomic_write_text

    def recording(path, text):
        writes.append((threading.current_thread().name, pathlib.Path(path), text))
        return write(path, text)

    monkeypatch.setattr(jobs_module, "atomic_write_text", recording)
    monkeypatch.setattr(cache_module, "atomic_write_text", recording)
    return writes


def served_body(instance, job_id: str) -> bytes:
    with urllib.request.urlopen(f"{instance.url}/runs/{job_id}") as response:
        return response.read()


class TestJobWrites:
    def test_cache_hit_is_one_durable_write(self, service, monkeypatch, connect):
        instance = service()
        client = connect(instance.url)
        spec = churn_spec(seeds=(0, 1))
        first = client.wait(client.submit(spec)["id"], timeout=60)
        writes = recorded_writes(monkeypatch)
        hit = client.submit(spec)
        assert hit["cached"]
        assert [path.name for _, path, _ in writes] == ["job.json"]
        assert client.wait(hit["id"])["results"] == first["results"]

    def test_fresh_submission_writes_its_record_once(
        self, service, monkeypatch, connect
    ):
        instance = service()
        writes = recorded_writes(monkeypatch)
        client = connect(instance.url)
        job = client.submit(churn_spec(seeds=(0, 1)))
        client.wait(job["id"], timeout=60)
        records = [
            (thread, json.JSONDecoder().raw_decode(text)[0])
            for thread, path, text in writes
            if path == instance.store.record_path(job["id"])
        ]
        posted = [job for thread, job in records if thread != "repro-service-worker"]
        assert len(posted) == 1, "the POST writes the record once"
        # The first record on disk already names the job's channels.
        expected = [instance.queue.channel_name(job["id"], index) for index in (0, 1)]
        assert records[0][1]["channels"] == expected

    def test_finished_jobs_own_their_results(self, service, tmp_path, connect):
        instance = service("owned")
        client = connect(instance.url)
        spec = churn_spec(seeds=(0, 1))
        fresh = client.wait(client.submit(spec)["id"], timeout=60)
        hit = client.wait(client.submit(spec)["id"])
        assert hit["cached"] and hit["results"] == fresh["results"]
        bodies = {job: served_body(instance, job) for job in (fresh["id"], hit["id"])}
        entry = instance.cache._path(spec.fingerprint())
        corrupt_file(entry, "bitflip", random.Random(0))
        assert {job: served_body(instance, job) for job in bodies} == bodies
        entry.unlink()
        assert {job: served_body(instance, job) for job in bodies} == bodies
        instance.stop(drain=False, timeout=5.0)
        restarted = service("owned")
        assert {job: served_body(restarted, job) for job in bodies} == bodies
        assert not list((tmp_path / "owned" / "jobs").glob("*/results.json"))

    def test_start_up_reads_records_without_parsing_results(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = store.new_job(
            "ab" * 32, {"spec": {}}, status="done", results=[{"result": 1}]
        )
        path = store.record_path(job.id)
        assert store.load_results(job.id) == [{"result": 1}]
        path.write_text(path.read_text()[:-6])  # the results line, cut short
        reloaded = JobStore(tmp_path / "jobs")
        assert reloaded.get(job.id).status == "done"
        assert reloaded.load_results(job.id) is None
        assert path.with_name("job.json.corrupt").exists()
        # The record is saved back without the damaged results.
        assert JobStore(tmp_path / "jobs").get(job.id).summary() == job.summary()

    def test_parent_layout_job_directories_serve_unchanged(
        self, service, tmp_path, connect
    ):
        shutil.copytree(PARENT_LAYOUT / "jobs", tmp_path / "parent" / "jobs")
        instance = service("parent")
        client = connect(instance.url)
        served = json.loads((PARENT_LAYOUT / "served.json").read_text())
        assert {job_id: client.status(job_id) for job_id in served} == served

    def test_dedup_never_walks_the_history(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_module, "atomic_write_text", _plain_write)
        store = JobStore(tmp_path / "jobs")
        for index in range(2000):
            store.new_job(f"{index:064x}", {"spec": {}}, status="done")
        store = JobStore(tmp_path / "jobs")
        queue = JobQueue(store, ResultCache(tmp_path / "cache"), token="t")

        def walk():
            raise AssertionError("a submission walked every job record")

        monkeypatch.setattr(store, "jobs", walk)
        submission = Submission.from_payload(churn_spec().to_dict())
        job, created = queue.submit(submission)
        assert created and job.id == "run-2001"
        assert queue.submit(submission) == (job, False)
        store.update(job, status="done")
        assert queue.submit(submission)[1], "a finished job is not joined"


class TestHealthCost:
    def test_health_and_cache_stats_never_walk_the_history(
        self, service, tmp_path, monkeypatch, connect
    ):
        monkeypatch.setattr(jobs_module, "atomic_write_text", _plain_write)
        monkeypatch.setattr(cache_module, "atomic_write_text", _plain_write)
        store = JobStore(tmp_path / "busy" / "jobs")
        cache = ResultCache(tmp_path / "busy" / "cache")
        for index in range(2000):
            status = "failed" if index % 7 == 0 else "done"
            store.new_job(f"{index:064x}", {"spec": {}}, status=status)
            cache.put(f"{index:064x}", {"spec": {}}, [])
        monkeypatch.undo()
        instance = service("busy")
        client = connect(instance.url)
        client.wait(client.submit(churn_spec(seeds=(0,)))["id"], timeout=60)
        walked: dict[str, int] = {}
        for job in instance.store.jobs():
            walked[job.status] = walked.get(job.status, 0) + 1
        entries = sum(1 for _ in (tmp_path / "busy" / "cache").glob("*/*.json"))
        assert walked == {"done": 1715, "failed": 286} and entries == 2001

        def walk(*args, **kwargs):
            raise AssertionError("a health check walked the history")

        monkeypatch.setattr(instance.store, "jobs", walk)
        monkeypatch.setattr(pathlib.Path, "glob", walk)
        monkeypatch.setattr(pathlib.Path, "rglob", walk)
        health = client.health()
        stats = client.cache_stats()
        assert health["jobs"] == walked
        assert stats["entries"] == health["cache"]["entries"] == entries


def retained_line_bytes(broker: EventBroker, prefix: str) -> int:
    """Bytes of stream lines the broker holds in memory under ``prefix``."""
    return sum(
        len(line)
        for name, channel in broker._channels.items()
        if name.startswith(prefix)
        for line in channel.lines
    )


class TestRetainedMemory:
    def test_broker_memory_does_not_grow_with_jobs_served(self, service, connect):
        instance = service()
        client = connect(instance.url)
        retained = {}
        for index in range(50):
            job = client.submit(churn_spec(seeds=(index,)))
            assert client.wait(job["id"], timeout=60)["status"] == "done"
            retained[index + 1] = retained_line_bytes(instance.broker, instance.token)
        assert retained[50] == retained[5] == 0
        # Each finished stream is served from its job's directory.
        events = list(client.events(job["id"]))
        assert len(events) > 3 and events[0]["id"] == "0:0"
        assert instance.store.events_path(job["id"], 0).exists()

    def test_a_service_streams_through_its_own_broker(
        self, service, tmp_path, connect
    ):
        channels = set(BROKER._channels)
        instance = service(broker=EventBroker())
        client = connect(instance.url)
        jobs = [client.submit(churn_spec(seeds=(seed,))) for seed in range(3)]
        for job in jobs:
            assert client.wait(job["id"], timeout=60)["status"] == "done"
        jsonl_path = tmp_path / "reference.jsonl"
        churn_spec(
            seeds=(2,), probes=({"probe": "jsonl", "path": str(jsonl_path)},)
        ).run(2)
        events = list(client.events(jobs[-1]["id"]))
        streamed = "".join(json.dumps(event["data"]) + "\n" for event in events)
        assert streamed == jsonl_path.read_text()
        assert set(BROKER._channels) == channels

    def test_runs_leave_no_module_level_dict_grown(self, service, connect):
        from repro.core import multiset as multiset_module

        def dict_sizes():
            return {
                name: len(value)
                for name, value in vars(multiset_module).items()
                if isinstance(value, dict)
            }

        client = connect(service().url)
        before = dict_sizes()
        for values in ((9, 5, 7, 1), (19, 15, 17, 11, 13)):
            job = client.submit(churn_spec(initial_values=values))
            assert client.wait(job["id"], timeout=60)["status"] == "done"
            assert dict_sizes() == before


def _plain_write(path, text):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
