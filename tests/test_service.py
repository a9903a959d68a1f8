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

import io
import json
import pathlib
import time
import urllib.request

import pytest

import repro
from repro import BatchRunner, ExperimentSpec, SpecificationError
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
from repro.service.jobs import JobInterrupted
from repro.simulation.protocol import Probe

VALUES = (9, 5, 7, 1)


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
        assert list(engine_dir.glob("*/latest.json")), "drain must checkpoint"

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
