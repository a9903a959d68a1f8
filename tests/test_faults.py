"""The fault-injection harness and the self-healing it proves out.

The anchor claims, each pinned end to end:

* every injected fault — worker crash, checkpoint corruption, result-
  cache corruption, flaky HTTP, SSE disconnects — is **seeded**: the
  same fault seed replays the same faults, bytes included;
* any run that completes under an injected fault plan is
  **byte-identical** to the unfaulted run of the same spec — across the
  engine, durable batches and live service submissions;
* corruption never crashes a reader: damaged checkpoints, cache
  entries, persisted results and job records are quarantined
  (``.corrupt``) with a logged reason and recovery falls back — to an
  older checkpoint generation, to a re-execution, to a fresh run.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import urllib.error

import pytest

from repro import ExperimentSpec, SpecificationError, Simulator, minimum_algorithm
from repro.algorithms import minimum_merge
from repro.core import durable
from repro.environment import RandomChurnEnvironment, StaticEnvironment, complete_graph
from repro.faults import (
    CORRUPTION_MODES,
    ClientFaultHook,
    FaultCrashProbe,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    corrupt_file,
    reset_crash_counters,
    run_chaos,
)
from repro.faults.chaos import split_crash_probes
from repro.service import ExperimentService, ResultCache, ResultsLine
from repro.service.jobs import JobStore
from repro.simulation import BatchRunner, MergeMessagePassingSimulator
from repro.simulation import checkpoint as checkpoint_module
from repro.simulation.checkpoint import RunCheckpoint, load_newest_verified

VALUES = (5, 3, 9, 1, 7, 2, 8, 4)
#: A durable unit written before checkpoints embedded their digest: every
#: round file has a ``.sha256`` sidecar, and ``latest.json`` copies the
#: newest one.
PARENT_RUN_DIR = (
    pathlib.Path(__file__).resolve().parent
    / "fixtures" / "parent_full_history" / "durable" / "unit-0000" / "engine"
    / "minimum-seed0"
)
#: Bytes of the header line :func:`repro.core.durable.with_digest` writes.
HEADER_LENGTH = len(durable.DIGEST_HEADER) + 64 + 1

# A client left open leaks its socket; fail the test that leaked it.
pytestmark = [
    pytest.mark.filterwarnings("error:unclosed <socket:ResourceWarning"),
    pytest.mark.filterwarnings(
        "error:Exception ignored in. <socket:pytest.PytestUnraisableExceptionWarning"
    ),
]


def flip_bit(path: pathlib.Path, index: int, bit: int) -> None:
    data = bytearray(path.read_bytes())
    data[index] ^= 1 << bit
    path.write_bytes(bytes(data))


def minimum_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="faults-minimum",
        algorithm="minimum",
        environment="churn",
        environment_params={"edge_up_probability": 0.3},
        initial_values=VALUES,
        seeds=(0, 1),
        max_rounds=500,
    )
    base.update(overrides)
    return ExperimentSpec(**base).validate()


def crashing_spec(token: str, at_round: int = 4, **overrides) -> ExperimentSpec:
    overrides.setdefault(
        "probes",
        ({"probe": "fault-crash", "at_round": at_round, "times": 1, "token": token},),
    )
    return minimum_spec(**overrides)


def comparable(batch):
    """Batch items minus the checkpoint probe payload (directory strings
    differ between batch directories)."""
    out = []
    for item in batch:
        result = dict(item.result)
        probes = dict(result.get("probes") or {})
        probes.pop("checkpoint", None)
        if probes:
            result["probes"] = probes
        else:
            result.pop("probes", None)
        out.append((item.label, item.seed, result))
    return out


# -- the retry policy ------------------------------------------------------------


class TestRetryPolicy:
    def test_deterministic_jitter(self):
        policy = RetryPolicy(retries=3, base_delay=0.1, max_delay=2.0)
        delays = [policy.delay(attempt, key="op") for attempt in (1, 2, 3)]
        assert delays == [policy.delay(attempt, key="op") for attempt in (1, 2, 3)]
        assert delays != [policy.delay(attempt, key="other") for attempt in (1, 2, 3)]

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(retries=8, base_delay=0.1, max_delay=0.4)
        for attempt in range(1, 9):
            base = min(0.4, 0.1 * 2 ** (attempt - 1))
            delay = policy.delay(attempt, key="k")
            assert 0.5 * base <= delay <= base
        assert policy.delay(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)

    def test_sleep_before_respects_deadline(self):
        import time

        policy = RetryPolicy(retries=1, base_delay=60.0, max_delay=60.0)
        slept = []
        past = time.monotonic() - 1.0
        assert policy.sleep_before(1, deadline=past, sleep=slept.append) == 0.0
        assert slept == []
        policy.sleep_before(1, key="k", sleep=slept.append)
        assert slept == [policy.delay(1, key="k")]


# -- file corruption -------------------------------------------------------------


class TestCorruptFile:
    def test_modes_are_deterministic(self, tmp_path):
        import random

        for mode in CORRUPTION_MODES:
            details = []
            for trial in range(2):
                path = tmp_path / f"trial-{trial}" / f"{mode}.json"
                path.parent.mkdir(exist_ok=True)
                path.write_text(json.dumps({"round": 12, "values": list(range(50))}))
                details.append(corrupt_file(path, mode, random.Random("fixed")))
            assert details[0] == details[1]
            assert (tmp_path / "trial-0" / f"{mode}.json").read_bytes() == (
                tmp_path / "trial-1" / f"{mode}.json"
            ).read_bytes()

    def test_empty_truncate_and_bitflip_change_bytes(self, tmp_path):
        import random

        original = json.dumps({"payload": list(range(100))}).encode()
        for mode in CORRUPTION_MODES:
            path = tmp_path / f"{mode}.json"
            path.write_bytes(original)
            corrupt_file(path, mode, random.Random(0))
            assert path.read_bytes() != original
        assert (tmp_path / "empty.json").read_bytes() == b""

    def test_unknown_mode_rejected(self, tmp_path):
        import random

        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(SpecificationError, match="corruption mode"):
            corrupt_file(path, "shred", random.Random(0))


# -- fault plans -----------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert FaultPlan.generate(42).to_dict() == FaultPlan.generate(42).to_dict()
        assert FaultPlan.generate(42).to_dict() != FaultPlan.generate(43).to_dict()

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.generate(7)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(path) == plan

    def test_rejects_malformed_plans(self):
        with pytest.raises(SpecificationError, match="not a fault plan"):
            FaultPlan.from_dict({"format": "something-else"})
        with pytest.raises(SpecificationError, match="entries"):
            FaultPlan.from_dict({"format": "repro-fault-plan", "entries": "nope"})
        with pytest.raises(SpecificationError, match="kind"):
            FaultPlan.from_dict(
                {"format": "repro-fault-plan", "entries": [{"kind": "gremlins"}]}
            )
        with pytest.raises(SpecificationError, match="unknown fault kind"):
            FaultPlan.generate(0, kinds=("gremlins",))

    def test_crash_entries_carry_the_plan_token(self):
        plan = FaultPlan.generate(3, kinds=("crash",))
        (entry,) = plan.crash_probe_entries()
        assert entry["probe"] == "fault-crash"
        assert entry["token"] == plan.token == "fault-plan:3"
        assert plan.crash_budget() == 1

    def test_server_hook_only_when_http_faults_present(self):
        assert FaultPlan.generate(0, kinds=("crash",)).server_hook() is None
        hook = FaultPlan.generate(0, kinds=("http-flaky", "sse-disconnect")).server_hook()
        assert hook is not None and not hook.exhausted()


# -- the shared durability helpers ----------------------------------------------


class TestSharedDurablePrimitives:
    def test_every_persistence_layer_uses_the_one_helper(self):
        from repro.service import cache as cache_module
        from repro.service import jobs as jobs_module
        from repro.simulation import batch as batch_module
        from repro.simulation import checkpoint as checkpoint_module

        for module in (cache_module, jobs_module, batch_module, checkpoint_module):
            assert module.atomic_write_text is durable.atomic_write_text
            assert module.quarantine is durable.quarantine

    def test_atomic_write_replaces_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "deep" / "state.json"
        durable.atomic_write_text(path, "one")
        durable.atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_quarantine_renames_and_tolerates_missing(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("garbage")
        moved = durable.quarantine(path, "test reason")
        assert moved == path.with_name("bad.json.corrupt")
        assert not path.exists() and moved.read_text() == "garbage"
        assert durable.quarantine(tmp_path / "gone.json", "again") is None


# -- self-verifying checkpoints and generation fallback ---------------------------


class TestCheckpointIntegrity:
    def _checkpoint_dir(self, tmp_path, every=5, generations=0) -> pathlib.Path:
        directory = tmp_path / "ckpt"
        spec = minimum_spec(
            seeds=(0,),
            probes=(
                {
                    "probe": "checkpoint",
                    "every": every,
                    "directory": str(directory),
                    "generations": generations,
                },
            ),
        )
        spec.run(0)
        return directory

    def test_every_checkpoint_is_one_self_verifying_file(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path)
        run_dir = next(directory.glob("*"))
        files = sorted(run_dir.iterdir())
        assert files, "the run must have checkpointed"
        assert all(path.name.startswith("round-") for path in files), files
        assert all(path.suffix == ".json" for path in files), files
        for path in files:
            assert path.read_text().startswith(durable.DIGEST_HEADER)
            RunCheckpoint.load(path)

    def test_one_checkpoint_is_one_durable_write(self, tmp_path, monkeypatch):
        writes = []

        def recording(path, text):
            writes.append(pathlib.Path(path))
            return durable.atomic_write_text(path, text)

        monkeypatch.setattr(checkpoint_module, "atomic_write_text", recording)
        directory = tmp_path / "ckpt"
        result = minimum_spec(
            seeds=(0,),
            probes=({"probe": "checkpoint", "every": 2, "directory": str(directory)},),
        ).run(0)
        written = result.probes["checkpoint"]["checkpoints_written"]
        assert written > 1
        assert len(writes) == written
        assert sorted(writes) == sorted(directory.glob("*/*"))

    def test_tampering_fails_verification(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path, every=1)
        newest = sorted(directory.glob("*/round-*.json"))[-1]
        header, body = newest.read_text().split("\n", 1)
        newest.write_text(f"{header}\n{body.replace(' ', '  ', 1)}")
        with pytest.raises(SpecificationError, match="integrity digest mismatch"):
            RunCheckpoint.load(newest)
        assert load_newest_verified(directory, quarantine_corrupt=False) is not None

    def test_one_bit_flips_are_always_rejected(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path, every=50)
        original = sorted(directory.glob("*/round-*.json"))[-1]
        data = original.read_bytes()
        target = tmp_path / "flipped.json"
        rng = random.Random("bit-flips")
        # Every bit of the header line, its newline included, then
        # seeded positions in the JSON after it.
        flips = [(index, bit) for index in range(HEADER_LENGTH) for bit in range(8)]
        flips += [
            (rng.randrange(HEADER_LENGTH, len(data)), rng.randrange(8))
            for _ in range(200)
        ]
        for index, bit in flips:
            target.write_bytes(data)
            flip_bit(target, index, bit)
            with pytest.raises(SpecificationError):
                RunCheckpoint.load(target)

    def test_header_damage_never_falls_back_to_the_older_layout(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path)
        path = sorted(directory.glob("*/round-*.json"))[-1]
        text = path.read_text()
        path.write_text("x" + text[1:])
        with pytest.raises(SpecificationError, match="neither an integrity header"):
            RunCheckpoint.load(path)
        path.write_text(text.replace("\n", " ", 1))
        with pytest.raises(SpecificationError, match="malformed integrity header"):
            RunCheckpoint.load(path)

    def test_parent_layout_still_loads(self, tmp_path):
        run_dir = tmp_path / "minimum-seed0"
        shutil.copytree(PARENT_RUN_DIR, run_dir)
        assert (run_dir / "latest.json.sha256").exists()
        latest = RunCheckpoint.load(run_dir / "latest.json")
        newest = RunCheckpoint.load(run_dir / "round-00000029.json")
        assert latest.to_dict() == newest.to_dict()
        # The newest round file wins; latest.json is only its copy.
        found = load_newest_verified(tmp_path, quarantine_corrupt=False)
        assert found.to_dict() == newest.to_dict()
        assert RunCheckpoint.load(run_dir).to_dict() == newest.to_dict()
        # The sidecar still guards a parent-written file ...
        mid = run_dir / "round-00000015.json"
        text = mid.read_text()
        mid.write_text(text.replace('"round_index": 15', '"round_index": 14', 1))
        with pytest.raises(SpecificationError, match="integrity digest mismatch"):
            RunCheckpoint.load(mid)
        # ... and a parent-written file without one is read as it is.
        mid.write_text(text)
        (run_dir / "round-00000015.json.sha256").unlink()
        assert RunCheckpoint.load(mid).driver.rounds_executed == 15

    def test_stale_sidecar_never_rejects_a_rewritten_file(self, tmp_path):
        run_dir = tmp_path / "minimum-seed0"
        shutil.copytree(PARENT_RUN_DIR, run_dir)
        path = run_dir / "round-00000029.json"
        sidecar = path.with_name(path.name + ".sha256")
        RunCheckpoint.load(path).save(path)
        assert sidecar.read_text().strip() != durable.sha256_hex(path.read_bytes())
        assert RunCheckpoint.load(path).driver.rounds_executed == 29
        found = load_newest_verified(tmp_path)
        assert found.driver.rounds_executed == 29
        assert not list(run_dir.glob("*.corrupt"))

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_fallback_skips_corrupt_newest(self, tmp_path, mode):
        directory = self._checkpoint_dir(tmp_path, every=1)
        run_dir = next(directory.glob("*"))
        rounds = sorted(run_dir.glob("round-*.json"))
        corrupt_file(rounds[-1], mode, random.Random(f"t:{mode}"))
        checkpoint = load_newest_verified(directory)
        assert checkpoint is not None
        assert checkpoint.to_dict() == RunCheckpoint.load(rounds[-2]).to_dict()
        assert rounds[-1].with_name(rounds[-1].name + ".corrupt").exists()
        assert not rounds[-1].exists()

    def test_run_directory_resumes_its_newest_verified_checkpoint(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path, every=1)
        run_dir = next(directory.glob("*"))
        rounds = sorted(run_dir.glob("round-*.json"))
        newest = RunCheckpoint.load(rounds[-1])
        assert RunCheckpoint.load(run_dir).to_dict() == newest.to_dict()
        corrupt_file(rounds[-1], "bitflip", random.Random("dir"))
        fallback = RunCheckpoint.load(run_dir)
        assert fallback.to_dict() == RunCheckpoint.load(rounds[-2]).to_dict()
        for path in run_dir.glob("round-*.json"):
            corrupt_file(path, "empty", random.Random("dir"))
        with pytest.raises(SpecificationError, match="no checkpoint in"):
            RunCheckpoint.load(run_dir)

    def test_all_corrupt_returns_none(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path, every=3)
        rng = random.Random("all")
        for path in sorted(directory.glob("*/*.json")):
            corrupt_file(path, "empty", rng)
        assert load_newest_verified(directory) is None

    def test_generations_prune_old_rounds(self, tmp_path):
        directory = self._checkpoint_dir(tmp_path, every=1, generations=2)
        run_dir = next(directory.glob("*"))
        rounds = sorted(run_dir.glob("round-*.json"))
        assert len(rounds) == 2
        assert sorted(run_dir.iterdir()) == rounds, "nothing but the round files"


# -- crash + recovery on both engines --------------------------------------------


class TestEngineCrashRecovery:
    def test_crash_probe_fires_and_budget_expires(self):
        reset_crash_counters("engine-token")
        spec = crashing_spec("engine-token", at_round=4, seeds=(0,))
        with pytest.raises(InjectedFault, match="injected crash"):
            spec.run(0)
        # Budget spent: the identical retry completes and equals the
        # clean run of the spec without the probe.
        recovered = spec.run(0)
        reference = minimum_spec(seeds=(0,)).run(0)
        assert recovered.to_dict() == reference.to_dict()

    def test_short_run_crashes_at_finish(self):
        reset_crash_counters("finish-token")
        spec = crashing_spec("finish-token", at_round=10_000, seeds=(0,))
        with pytest.raises(InjectedFault, match="at finish"):
            spec.run(0)

    def test_resume_from_checkpoint_is_byte_identical(self, tmp_path):
        token = "resume-token"
        reset_crash_counters(token)
        directory = tmp_path / "ckpt"
        spec = minimum_spec(
            seeds=(0,),
            probes=(
                {"probe": "checkpoint", "every": 2, "directory": str(directory)},
                {"probe": "fault-crash", "at_round": 3, "times": 1, "token": token},
            ),
        )
        with pytest.raises(InjectedFault):
            spec.run(0)
        checkpoint = load_newest_verified(directory)
        assert checkpoint is not None
        recovered = spec.resume(checkpoint)

        reference_dir = tmp_path / "ref"
        reference = minimum_spec(
            seeds=(0,),
            probes=(
                {"probe": "checkpoint", "every": 2, "directory": str(reference_dir)},
            ),
        ).run(0)
        strip = lambda result: {
            key: value
            for key, value in result.to_dict().items()
            if key != "probes"
        }
        assert strip(recovered) == strip(reference)

    def test_messaging_engine_honours_the_same_probe(self):
        def messaging(probes=None):
            return MergeMessagePassingSimulator(
                minimum_algorithm(),
                merge=minimum_merge,
                environment=StaticEnvironment(complete_graph(8)),
                initial_values=list(VALUES),
                seed=0,
            ).run(max_rounds=100, probes=probes or [])

        reset_crash_counters("messaging-token")
        with pytest.raises(InjectedFault):
            messaging([FaultCrashProbe(at_round=2, times=1, token="messaging-token")])
        recovered = messaging(
            [FaultCrashProbe(at_round=2, times=1, token="messaging-token")]
        )
        assert recovered.to_dict() == messaging().to_dict()

    def test_validation(self):
        with pytest.raises(ValueError, match="at_round"):
            FaultCrashProbe(at_round=0)
        with pytest.raises(ValueError, match="times"):
            FaultCrashProbe(times=-1)


# -- durable batches under corruption --------------------------------------------


class TestDurableBatchRecovery:
    def _reference(self, tmp_path):
        reference = BatchRunner(backend="serial").run(
            minimum_spec(), checkpoint_dir=tmp_path / "reference", checkpoint_every=2
        )
        assert not reference.failures()
        return reference

    def _crashed(self, tmp_path, token, at_round=3, checkpoint_every=2):
        reset_crash_counters(token)
        spec = crashing_spec(token, at_round=at_round)
        crashed = BatchRunner(backend="serial").run(
            spec, checkpoint_dir=tmp_path / "live", checkpoint_every=checkpoint_every
        )
        failed = crashed.failures()
        assert [item.seed for item in failed] == [0], "seed 0 crashed"
        assert len(crashed.completed()) == 1, "graceful degradation kept seed 1"
        assert crashed.failure_records()[0]["label"] == "faults-minimum"
        return tmp_path / "live"

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_resume_survives_corrupt_newest(self, tmp_path, mode):
        reference = self._reference(tmp_path)
        live = self._crashed(tmp_path, f"batch-{mode}")
        newest = sorted(live.glob("unit-0000/engine/*/round-*.json"))[-1]
        corrupt_file(newest, mode, random.Random(f"batch:{mode}"))

        resumed = BatchRunner(backend="serial").resume(live)
        assert not resumed.failures()
        assert comparable(resumed) == comparable(reference)
        assert newest.with_name(newest.name + ".corrupt").exists()

    def test_resume_survives_stale_generation_fallback(self, tmp_path):
        reference = self._reference(tmp_path)
        live = self._crashed(tmp_path, "batch-stale", at_round=4, checkpoint_every=1)
        engine_dir = next(live.glob("unit-0000/engine/*"))
        rng = random.Random("stale")
        rounds = sorted(engine_dir.glob("round-*.json"))
        assert len(rounds) >= 3, "need a generation left after two damaged ones"
        corrupt_file(rounds[-1], "truncate", rng)
        corrupt_file(rounds[-2], "bitflip", rng)

        resumed = BatchRunner(backend="serial").resume(live)
        assert not resumed.failures()
        assert comparable(resumed) == comparable(reference)
        assert len(list(engine_dir.glob("*.corrupt"))) == 2

    def test_resume_survives_every_checkpoint_corrupt(self, tmp_path):
        reference = self._reference(tmp_path)
        live = self._crashed(tmp_path, "batch-total")
        rng = random.Random("total")
        for path in sorted(live.glob("unit-0000/engine/*/*.json")):
            corrupt_file(path, "empty", rng)

        resumed = BatchRunner(backend="serial").resume(live)
        assert not resumed.failures(), "a fresh rerun is the last fallback"
        assert comparable(resumed) == comparable(reference)

    def test_corrupt_persisted_result_is_requarried(self, tmp_path):
        first = BatchRunner(backend="serial").run(
            minimum_spec(seeds=(0,)),
            checkpoint_dir=tmp_path / "batch",
            checkpoint_every=50,
        )
        assert not first.failures()
        result_path = tmp_path / "batch" / "unit-0000" / "result.json"
        result_path.write_text('{"broken": ')

        again = BatchRunner(backend="serial").resume(tmp_path / "batch")
        assert not again.failures()
        assert comparable(again) == comparable(first)
        assert result_path.with_name("result.json.corrupt").exists()
        assert json.loads(result_path.read_text()) == first.items[0].result


# -- the result cache and job store under corruption -----------------------------


class TestServiceStateRecovery:
    def test_corrupt_cache_entry_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = minimum_spec().fingerprint()
        cache.put(fingerprint, ResultsLine.encode([{"result": 1}]))
        path = cache._path(fingerprint)
        path.write_text("{not json")

        assert cache.get(fingerprint) is None
        assert path.with_name(path.name + ".corrupt").exists()
        stats = cache.stats()
        assert stats["corrupt"] == 1 and stats["misses"] == 1 and stats["hits"] == 0

    def test_one_digit_change_is_a_counted_corrupt_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = minimum_spec().fingerprint()
        cache.put(fingerprint, ResultsLine.encode([{"output": 41}]))
        path = cache._path(fingerprint)
        path.write_text(path.read_text().replace('"output": 41', '"output": 11'))

        assert cache.get(fingerprint) is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 1, "corrupt": 1}

    def test_one_bit_flips_in_an_entry_are_always_caught(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = minimum_spec().fingerprint()
        line = ResultsLine.encode([{"output": 41, "rounds": 7}])
        cache.put(fingerprint, line)
        path = cache._path(fingerprint)
        data = path.read_bytes()
        rng = random.Random("cache-flips")
        flips = [(index, rng.randrange(8)) for index in range(len(data))]
        for count, (index, bit) in enumerate(flips, start=1):
            path.write_bytes(data)
            flip_bit(path, index, bit)
            assert cache.get(fingerprint) is None, (index, bit)
            assert cache.stats()["corrupt"] == count
        path.write_bytes(data)
        assert data == f"repro-sha256 {line.sha256}\n{line.text}".encode()
        assert cache.get(fingerprint) == line

    def test_one_bit_flips_in_a_job_results_line_are_always_caught(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        submission = {"spec": minimum_spec().to_dict()}
        results = [{"output": 41, "rounds": 7}]
        job = store.new_job("ab" * 32, submission, status="done", results=results)
        path = store.record_path(job.id)
        data = path.read_bytes()
        line_at = data.rindex(b"\n", 0, len(data) - 1) + 1
        assert data[line_at:] == json.dumps(results).encode() + b"\n"
        record = json.loads(data[:line_at])
        del record["results_sha256"]
        rng = random.Random("job-line-flips")
        for index in range(line_at, len(data)):
            path.write_bytes(data)
            flip_bit(path, index, rng.randrange(8))
            reloaded = JobStore(tmp_path / "jobs")
            assert reloaded.served(reloaded.get(job.id)) == (submission, None), index
            assert path.with_name("job.json.corrupt").exists()
            # Saved back without results, the submission kept.
            assert json.loads(path.read_text()) == record
        path.write_bytes(data)
        assert JobStore(tmp_path / "jobs").load_results(job.id) == results

    def test_parent_written_entry_is_still_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = minimum_spec().fingerprint()
        entry = {
            "format": "repro-cache-entry",
            "fingerprint": fingerprint,
            "spec": True,
            "results": [{"output": 41}],
        }
        path = cache._path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry))
        line = ResultCache(tmp_path / "cache").get(fingerprint)
        assert line == ResultsLine.encode([{"output": 41}])

    def test_damaged_entry_re_executes_byte_identically(self, service, connect):
        instance = service()
        client = connect(instance.url)
        spec = minimum_spec(seeds=(0,))
        first = client.wait(client.submit(spec)["id"], timeout=60)
        path = instance.cache._path(spec.fingerprint())
        written = path.read_text()
        at = written.index('"output": ') + len('"output": ')
        digit = written[at]
        assert digit.isdigit()
        path.write_text(written[:at] + str((int(digit) + 1) % 10) + written[at + 1 :])

        second = client.wait(client.submit(spec)["id"], timeout=60)
        assert not second["cached"], "a damaged entry is a miss, never a hit"
        assert json.dumps(second["results"]) == json.dumps(first["results"])
        assert path.read_text() == written, "the re-executed entry is the original"
        stats = client.cache_stats()
        assert stats["corrupt"] == 1 and stats["hits"] == 0 and stats["entries"] == 1

    def test_foreign_file_is_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fingerprint = minimum_spec().fingerprint()
        path = cache._path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": "something-else"}))
        assert cache.get(fingerprint) is None
        assert cache.stats()["corrupt"] == 1

    def test_corrupt_job_record_is_quarantined_on_restart(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        job = store.new_job(
            fingerprint="ab" * 32,
            submission={"spec": minimum_spec().to_dict()},
            channels=("ch",),
        )
        bad_dir = tmp_path / "jobs" / "run-9999"
        bad_dir.mkdir()
        (bad_dir / "job.json").write_text("{definitely not json")

        reloaded = JobStore(tmp_path / "jobs")
        assert [record.id for record in reloaded.jobs()] == [job.id]
        assert (bad_dir / "job.json.corrupt").exists()


# -- the self-healing client -----------------------------------------------------


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


class TestClientSelfHealing:
    def _retry(self, retries=3):
        return RetryPolicy(
            retries=retries, base_delay=0.01, max_delay=0.05, namespace="test-client"
        )

    def test_transient_connection_failures_are_retried(self, service, connect):
        instance = service()
        hook = ClientFaultHook(failures=2)
        client = connect(instance.url, retry=self._retry(), fault_hook=hook)
        health = client.health()
        assert health["status"] == "ok"
        assert hook.fired == 2

    def test_exhausted_retries_surface_the_error(self, service, connect):
        from repro.service import ServiceError

        instance = service()
        hook = ClientFaultHook(failures=99)
        client = connect(instance.url, retry=self._retry(1), fault_hook=hook)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert hook.fired == 2, "one attempt plus one retry"

    def test_injected_503_and_reset_are_masked_by_retry(self, service, connect):
        plan = FaultPlan.from_dict(
            {
                "format": "repro-fault-plan",
                "seed": 0,
                "entries": [
                    {
                        "kind": "http-flaky",
                        "modes": ["status", "reset", "delay"],
                        "delay_seconds": 0.01,
                    }
                ],
            }
        )
        hook = plan.server_hook()
        instance = service(fault_hook=hook)
        client = connect(instance.url, retry=self._retry(4))
        spec = minimum_spec(seeds=(0,))
        results = client.results(client.submit(spec)["id"], timeout=60)
        assert [unit["result"] for unit in results] == [spec.run(0).to_dict()]
        assert hook.exhausted()

    def test_healthz_is_never_faulted(self, service, connect):
        hook = FaultPlan.generate(0, kinds=("http-flaky",)).server_hook()
        instance = service(fault_hook=hook)
        # No retries: a faulted /healthz would fail this immediately.
        client = connect(instance.url, retry=RetryPolicy(retries=0))
        assert client.health()["status"] == "ok"
        assert not hook.exhausted()

    def test_sse_disconnects_are_stitched_by_last_event_id(self, service, connect):
        plan = FaultPlan.from_dict(
            {
                "format": "repro-fault-plan",
                "seed": 0,
                "entries": [
                    {"kind": "sse-disconnect", "after_events": 2, "times": 2}
                ],
            }
        )
        hook = plan.server_hook()
        instance = service(fault_hook=hook)
        client = connect(instance.url, retry=self._retry(4))
        spec = minimum_spec(seeds=(0,))
        job = client.submit(spec)
        interrupted = list(client.events(job["id"]))
        assert hook.exhausted(), "both scheduled disconnects fired"
        replay = list(client.events(job["id"]))
        assert interrupted == replay, "reconnection lost or duplicated events"
        assert len({event["id"] for event in interrupted}) == len(interrupted)

    def test_sse_disconnect_inside_a_batch_is_stitched(self, service, connect):
        # A finished job's lines were all published before the stream
        # opens, so each connection gets them as one batch and the
        # budget cuts it in the middle.
        plan = FaultPlan.from_dict(
            {
                "format": "repro-fault-plan",
                "seed": 0,
                "entries": [
                    {"kind": "sse-disconnect", "after_events": 3, "times": 2}
                ],
            }
        )
        hook = plan.server_hook()
        instance = service(fault_hook=hook)
        client = connect(instance.url, retry=self._retry(4))
        job = client.submit(minimum_spec(seeds=(0, 1)))
        client.wait(job["id"], timeout=60)
        interrupted = list(client.events(job["id"]))
        assert hook.exhausted(), "both scheduled disconnects fired"
        replay = list(client.events(job["id"]))
        assert len(replay) > 6
        assert interrupted == replay, "reconnection lost or duplicated events"
        assert len({event["id"] for event in interrupted}) == len(interrupted)

    def test_wait_poll_backs_off_exponentially(self, service, connect, monkeypatch):
        import repro.service.client as client_module

        instance = service()
        client = connect(instance.url)
        pauses = []
        monkeypatch.setattr(client_module.time, "sleep", pauses.append)
        spec = minimum_spec(seeds=(0,))
        client.wait(client.submit(spec)["id"], timeout=60, poll=0.05, poll_cap=1.0)
        assert all(pause <= 1.0 for pause in pauses)
        for earlier, later in zip(pauses, pauses[1:]):
            assert later >= earlier or later == 1.0


# -- chaos end to end ------------------------------------------------------------


class TestChaosHarness:
    def test_split_crash_probes(self):
        spec = crashing_spec("split-token")
        clean, embedded = split_crash_probes(spec)
        assert embedded == [
            {"probe": "fault-crash", "at_round": 4, "times": 1, "token": "split-token"}
        ]
        assert all(
            not (isinstance(entry, dict) and entry.get("probe") == "fault-crash")
            for entry in clean.probes
        )
        untouched, none = split_crash_probes(minimum_spec())
        assert none == [] and untouched.probes == minimum_spec().probes

    def test_batch_chaos_is_byte_identical_and_replayable(self, tmp_path):
        spec = minimum_spec(seeds=(0, 1))
        plan = FaultPlan.generate(7, kinds=("crash", "checkpoint-corrupt"))
        first = run_chaos(spec, plan, tmp_path / "a", mode="batch")
        second = run_chaos(spec, plan, tmp_path / "b", mode="batch")
        assert first["match"] and second["match"]
        assert first["modes"]["batch"]["first_attempt_failures"], "the crash fired"
        # Replayability: the reports are identical, traceback strings
        # aside (they embed absolute paths).
        def stable(report):
            data = json.loads(json.dumps(report))
            for failure in data["modes"]["batch"]["first_attempt_failures"]:
                failure["error"] = failure["error"].splitlines()[-1]
            return data

        assert stable(first) == stable(second)

    def test_service_chaos_is_byte_identical(self, tmp_path):
        spec = minimum_spec(seeds=(0,))
        plan = FaultPlan.generate(
            11, kinds=("crash", "cache-corrupt", "http-flaky", "sse-disconnect")
        )
        report = run_chaos(spec, plan, tmp_path / "svc", mode="service")
        service_report = report["modes"]["service"]
        assert report["match"]
        assert service_report["results_match_offline"]
        assert service_report["stream_match"]
        assert service_report["resubmit_matches"] == [True]
        assert service_report["cache_stats"]["corrupt"] == 1
        assert service_report["http_faults_drained"]

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="chaos mode"):
            run_chaos(minimum_spec(), FaultPlan.generate(0), tmp_path, mode="yolo")


# -- hand-wired engine parity (the simulator layer itself) -----------------------


def test_hand_wired_engine_crash_recovery_matches_clean_run(tmp_path):
    """The guarantee holds below the spec layer too: a hand-wired
    Simulator killed by the probe and resumed from its checkpoint
    produces the clean run's bytes."""
    from repro.simulation import CheckpointProbe

    def build():
        return Simulator(
            minimum_algorithm(),
            RandomChurnEnvironment(complete_graph(8), edge_up_probability=0.3),
            list(VALUES),
            seed=0,
        )

    clean = build().run(max_rounds=500)

    reset_crash_counters("hand-wired")
    directory = tmp_path / "engine-ckpt"
    probes = lambda: [
        CheckpointProbe(every=1, directory=directory, publish=False),
        FaultCrashProbe(at_round=2, times=1, token="hand-wired"),
    ]
    with pytest.raises(InjectedFault):
        build().run(max_rounds=500, probes=probes())
    checkpoint = load_newest_verified(directory)
    assert checkpoint is not None
    recovered = build().run(
        max_rounds=500, probes=probes(), resume_from=checkpoint
    )
    assert recovered.to_dict() == clean.to_dict()
