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

import http.client
import io
import json
import pathlib
import random
import shutil
import threading
import time
import urllib.request
from urllib.error import URLError

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
from repro.service.jobs import JobInterrupted, JobQueue, JobStore
from repro.simulation.protocol import Probe

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


class TestEventBroker:
    def test_publish_subscribe_and_replay(self):
        broker = EventBroker()
        assert broker.publish("ch", "a") == 0
        assert broker.publish("ch", "b") == 1
        broker.close("ch")
        assert list(broker.subscribe("ch")) == [(0, "a"), (1, "b")]
        assert list(broker.subscribe("ch", offset=1)) == [(1, "b")]
        assert broker.history("ch") == ["a", "b"]

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
        assert list(broker.subscribe("ch")) == [(0, "a"), (1, "b"), (2, "C")]

    def test_truncate_past_end_advances_base(self):
        # A fresh process lost the in-memory history; a resumed run keeps
        # publishing at its checkpointed offsets anyway.
        broker = EventBroker()
        broker.truncate("ch", 10)
        assert broker.publish("ch", "k") == 10
        broker.close("ch")
        assert list(broker.subscribe("ch")) == [(10, "k")]
        assert list(broker.subscribe("ch", offset=3)) == [(10, "k")]
        assert broker.snapshot("ch") == (10, ["k"], True)

    def test_drain_flags_match_by_prefix(self):
        broker = EventBroker()
        broker.begin_drain("svc-a/")
        assert broker.draining("svc-a/run-0001/unit-0000")
        assert not broker.draining("svc-b/run-0001/unit-0000")
        broker.end_drain("svc-a/")
        assert not broker.draining("svc-a/run-0001/unit-0000")


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
        lines = [line + "\n" for line in broker.history("ch")]
        assert "".join(lines) == jsonl_path.read_text()
        assert broker.snapshot("ch")[2], "the sink closes its channel at the end"


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
    def test_submit_twice_is_a_byte_identical_cache_hit(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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

    def test_service_results_equal_offline_runs(self, service):
        instance = service()
        client = ServiceClient(instance.url)
        spec = churn_spec(seeds=(0, 1))
        results = client.results(client.submit(spec)["id"], timeout=60)
        offline = [spec.run(seed).to_dict() for seed in spec.seeds]
        assert [unit["result"] for unit in results] == offline

    def test_sse_stream_equals_jsonl_sink(self, service, tmp_path):
        jsonl_path = tmp_path / "reference.jsonl"
        churn_spec(probes=({"probe": "jsonl", "path": str(jsonl_path)},)).run(0)

        instance = service()
        client = ServiceClient(instance.url)
        job = client.submit(churn_spec())
        events = list(client.events(job["id"]))
        streamed = "".join(json.dumps(event["data"]) + "\n" for event in events)
        assert streamed == jsonl_path.read_text()
        assert [event["id"] for event in events[:2]] == ["0:0", "0:1"]

    def test_sse_offset_resumes_mid_stream(self, service):
        instance = service()
        client = ServiceClient(instance.url)
        job = client.submit(churn_spec())
        client.wait(job["id"], timeout=60)
        everything = list(client.events(job["id"]))
        tail = list(client.events(job["id"], offset="0:2"))
        assert tail == everything[2:]

    def test_raw_run_body_parses_to_the_record_with_states_on_one_line(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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

    def test_sweep_submission_runs_the_grid(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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

    def test_force_bypasses_the_cache(self, service):
        instance = service()
        client = ServiceClient(instance.url)
        spec = churn_spec()
        client.results(client.submit(spec)["id"], timeout=60)
        forced = client.submit(spec, force=True)
        assert not forced["cached"]
        client.wait(forced["id"], timeout=60)
        assert instance.queue.executed_jobs == 2

    def test_failed_runs_report_their_error(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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

    def test_http_errors(self, service):
        instance = service()
        client = ServiceClient(instance.url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("run-9999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"algorithm": "no-such-algorithm", "initial_values": [1]})
        assert excinfo.value.status == 400
        health = client.health()
        assert health["status"] == "ok" and not health["draining"]
        assert "minimum" in client.registry()["algorithms"]

    def test_mistyped_spec_scalar_is_a_400(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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
    def test_probe_parameter_value_error_is_a_400(self, service, probe, message):
        instance = service()
        client = ServiceClient(instance.url)
        spec = dict(churn_spec().to_dict(), probes=[probe])
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert message in str(excinfo.value)
        assert client.health()["status"] == "ok"

    def test_served_records_are_the_offline_batch_records(self, service, tmp_path):
        # Durable units run with the service's stream channel and
        # checkpoint directory, but the records it serves carry the spec
        # as submitted: label, seed, spec, result and error all equal an
        # offline batch's, wherever the data directory lives.
        instance = service()
        client = ServiceClient(instance.url)
        spec = churn_spec(seeds=(0, 1))
        results = client.results(client.submit(spec)["id"], timeout=60)
        offline = BatchRunner(backend="serial").run(spec).to_dict()["items"]
        assert results == offline
        served = json.dumps(results)
        assert str(tmp_path) not in served
        assert "service-sink" not in served

    def test_drain_checkpoints_and_restart_resumes_identically(self, service):
        spec = slow_spec(delay=0.05, max_rounds=400)
        offline = spec.run(0).to_dict()

        first = service("durable", checkpoint_every=2)
        client = ServiceClient(first.url)
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
        final = ServiceClient(second.url).wait(job["id"], timeout=120)
        assert final["status"] == "done"
        assert final["results"][0]["result"] == offline

    def test_draining_service_rejects_new_submissions(self, service):
        instance = service()
        client = ServiceClient(instance.url)
        instance.queue.drain(timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(churn_spec())
        assert excinfo.value.status == 503

    def test_in_flight_submissions_are_deduplicated(self, service):
        instance = service()
        client = ServiceClient(instance.url)
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
        self, service, monkeypatch
    ):
        instance = service()
        accepted = accepted_connections(monkeypatch, instance)
        client = ServiceClient(instance.url)
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

    def test_client_reconnects_after_the_idle_timeout(self, service, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        instance = service()
        accepted = accepted_connections(monkeypatch, instance)
        calls = []
        # No retries: the replaced connection must not spend the budget.
        client = ServiceClient(
            instance.url,
            retry=RetryPolicy(retries=0),
            fault_hook=lambda method, path: calls.append((method, path)),
        )
        assert client.health()["status"] == "ok"
        time.sleep(0.6)  # the server closes the idle connection
        assert client.health()["status"] == "ok"
        assert calls == [("GET", "/healthz")] * 2, "one hook call per attempt"
        assert len(accepted) == 2

    def test_client_reconnects_to_a_restarted_service(self, service):
        first = service("first")
        client = ServiceClient(first.url)
        client.wait(client.submit(churn_spec())["id"], timeout=60)
        assert len(client.runs()) == 1
        port = first.port
        first.stop(drain=False, timeout=5.0)
        # A new service on the same port, over another data directory:
        # the kept connection must not reach the stopped one.
        service("second", port=port)
        assert client.runs() == []

    def test_a_malformed_url_is_a_service_error(self):
        for url in ("not a url", "http://", "http://host:port"):
            with pytest.raises(ServiceError, match="not a service URL"):
                ServiceClient(url).health()

    def test_fault_hook_fires_once_per_attempt(self, service):
        faults = [{"action": "status", "status": 503}]
        instance = service(fault_hook=lambda *request: faults.pop() if faults else None)
        calls = []

        def hook(method, path):
            calls.append((method, path))
            if len(calls) == 1:
                raise URLError("injected connection failure")

        client = ServiceClient(
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
    def test_cache_hit_is_one_durable_write(self, service, monkeypatch):
        instance = service()
        client = ServiceClient(instance.url)
        spec = churn_spec(seeds=(0, 1))
        first = client.wait(client.submit(spec)["id"], timeout=60)
        writes = recorded_writes(monkeypatch)
        hit = client.submit(spec)
        assert hit["cached"]
        assert [path.name for _, path, _ in writes] == ["job.json"]
        assert client.wait(hit["id"])["results"] == first["results"]

    def test_fresh_submission_writes_its_record_once(self, service, monkeypatch):
        instance = service()
        writes = recorded_writes(monkeypatch)
        client = ServiceClient(instance.url)
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

    def test_finished_jobs_own_their_results(self, service, tmp_path):
        instance = service("owned")
        client = ServiceClient(instance.url)
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

    def test_parent_layout_job_directories_serve_unchanged(self, service, tmp_path):
        shutil.copytree(PARENT_LAYOUT / "jobs", tmp_path / "parent" / "jobs")
        instance = service("parent")
        client = ServiceClient(instance.url)
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
        self, service, tmp_path, monkeypatch
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
        client = ServiceClient(instance.url)
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


def _plain_write(path, text):
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path
