"""Tests for ``repro.analysis`` — the static determinism/protocol linter.

Every rule ID is exercised against a golden fixture pair in
``tests/lint_fixtures/``: one file of planted positives, one file of
near-miss negatives the rule must *not* flag.  The fixtures live in a
directory the runner's file collector excludes, so the planted
violations never leak into real lint runs.  A final regression test runs
the production configuration (``repro lint src tests`` against the
committed baseline) and pins the suppression count.
"""

import json
import pathlib

import pytest

from repro.analysis import (
    Analyzer,
    Baseline,
    Finding,
    all_rules,
    fingerprint_findings,
    run_lint,
)
from repro.analysis.baseline import BASELINE_FORMAT
from repro.analysis.rules_determinism import (
    D001GlobalRandom,
    D002UnorderedIteration,
    D003WallClock,
    D004FloatInExactPath,
    D005IdOrdering,
)
from repro.analysis.rules_concurrency import (
    R401UnguardedSharedAttribute,
    R402PublishUnderLock,
    R403MutableClassDefault,
)
from repro.analysis.rules_protocol import (
    C201CodecCoverage,
    P101ProtocolPairing,
    P102RegistryDocDrift,
)
from repro.analysis.rules_purity import (
    S301AlgorithmPurity,
    S302ObjectiveDeltaPurity,
    S303SchedulerDeterminism,
)
from repro.analysis.runner import (
    EXCLUDED_DIR_NAMES,
    SARIF_SCHEMA_URI,
    collect_files,
    rule_catalog,
    run_explain,
)
from repro.simulation.checkpoint import CODEC_TAGS, codec_types

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def run_rule(rule, *names):
    files = [FIXTURES / name for name in names]
    return Analyzer([rule], root=REPO_ROOT).analyze(files)


# ---------------------------------------------------------------------------
# determinism rules, one golden pair each
# ---------------------------------------------------------------------------


class TestD001GlobalRandom:
    def test_planted_positives(self):
        findings = run_rule(D001GlobalRandom(), "d001_violations.py")
        assert [f.rule for f in findings] == ["D001"] * 7
        assert {f.line for f in findings} == {4, 8, 12, 16, 20, 24, 28}

    def test_near_miss_negatives(self):
        assert run_rule(D001GlobalRandom(), "d001_clean.py") == []

    def test_exclusions_scope_the_rule(self):
        rule = D001GlobalRandom()
        scoped = type("FakeModule", (), {})()
        scoped.relpath = "benchmarks/perf/bench_engine.py"
        assert not rule.applies_to(scoped)
        scoped.relpath = "src/repro/simulation/engine.py"
        assert rule.applies_to(scoped)
        # The CLI makes no draws of its own, so the rule covers it too.
        scoped.relpath = "src/repro/cli.py"
        assert rule.applies_to(scoped)


class TestD002UnorderedIteration:
    def test_planted_positives(self):
        findings = run_rule(D002UnorderedIteration(include=()), "d002_violations.py")
        assert [f.rule for f in findings] == ["D002"] * 5
        assert {f.line for f in findings} == {6, 13, 18, 22, 27}

    def test_near_miss_negatives(self):
        assert run_rule(D002UnorderedIteration(include=()), "d002_clean.py") == []


class TestD003WallClock:
    def test_planted_positives(self):
        findings = run_rule(D003WallClock(include=()), "d003_violations.py")
        assert [f.rule for f in findings] == ["D003"] * 5
        assert {f.line for f in findings} == {12, 16, 20, 24, 28}

    def test_alias_resolution_reaches_the_read(self):
        findings = run_rule(D003WallClock(include=()), "d003_violations.py")
        messages = " ".join(f.message for f in findings)
        assert "time.monotonic" in messages  # via ``import time as clock``
        assert "time.perf_counter" in messages  # via ``from time import ...``

    def test_near_miss_negatives(self):
        assert run_rule(D003WallClock(include=()), "d003_clean.py") == []


class TestD004FloatInExactPath:
    def test_planted_positives(self):
        findings = run_rule(D004FloatInExactPath(include=()), "d004_violations.py")
        assert [f.rule for f in findings] == ["D004"] * 4
        assert {f.line for f in findings} == {7, 11, 15, 19}

    def test_near_miss_negatives(self):
        assert run_rule(D004FloatInExactPath(include=()), "d004_clean.py") == []


class TestD005IdOrdering:
    def test_planted_positives(self):
        findings = run_rule(D005IdOrdering(include=()), "d005_violations.py")
        assert all(f.rule == "D005" for f in findings)
        # sorted(key=id), sort(key=lambda), sorted(map(id, ...)) and both
        # sides of the ``id(a) < id(b)`` comparison.
        assert len(findings) == 5
        assert {f.line for f in findings} == {5, 9, 13, 17}

    def test_near_miss_negatives(self):
        assert run_rule(D005IdOrdering(include=()), "d005_clean.py") == []


# ---------------------------------------------------------------------------
# protocol rules
# ---------------------------------------------------------------------------


class TestP101ProtocolPairing:
    def test_planted_positives(self):
        findings = run_rule(P101ProtocolPairing(), "p101_violations.py")
        assert [f.rule for f in findings] == ["P101"] * 5
        messages = [f.message for f in findings]
        assert any("half the checkpoint protocol" in m for m in messages)
        assert any("does not declare" in m for m in messages)
        assert any("without overriding" in m for m in messages)
        assert any("no restore path" in m for m in messages)
        assert any("never receive state" in m for m in messages)

    def test_call_form_registration_is_seen(self):
        findings = run_rule(P101ProtocolPairing(), "p101_violations.py")
        assert any("restore-only" in f.message for f in findings)

    def test_near_miss_negatives(self):
        assert run_rule(P101ProtocolPairing(), "p101_clean.py") == []


class TestP102RegistryDocDrift:
    def make_root(self, tmp_path, spec, readme):
        (tmp_path / "examples" / "specs").mkdir(parents=True)
        (tmp_path / "examples" / "specs" / "demo.json").write_text(spec)
        (tmp_path / "README.md").write_text(readme)
        return tmp_path

    def test_drift_is_reported(self, tmp_path):
        root = self.make_root(
            tmp_path,
            json.dumps(
                {
                    "algorithm": "no-such-algorithm",
                    "environment_params": {"topology": "no-such-graph"},
                    "probes": ["no-such-probe"],
                }
            ),
            '```json\n"algorithm": "no-such-algorithm"\n```\n'
            "Run with --probe no-such-probe on examples/specs/missing.json\n",
        )
        findings = Analyzer([P102RegistryDocDrift()], root=root).analyze([])
        assert [f.rule for f in findings] == ["P102"] * 6
        spec_findings = [f for f in findings if f.path.endswith("demo.json")]
        readme_findings = [f for f in findings if f.path == "README.md"]
        assert len(spec_findings) == 3  # algorithm, topology, probe
        assert len(readme_findings) == 3  # snippet, --probe, missing file

    def test_registered_names_pass(self, tmp_path):
        import repro.experiment  # noqa: F401 - populates the registries
        from repro.registry import available

        registries = available()
        root = self.make_root(
            tmp_path,
            json.dumps(
                {
                    "algorithm": registries["algorithms"][0],
                    "environment": registries["environments"][0],
                    "probes": [registries["probes"][0]],
                }
            ),
            f"Run with --probe {registries['probes'][0]}\n",
        )
        assert Analyzer([P102RegistryDocDrift()], root=root).analyze([]) == []


class TestC201CodecCoverage:
    def test_planted_positives(self):
        findings = run_rule(C201CodecCoverage(), "c201_violations.py")
        assert [f.rule for f in findings] == ["C201"] * 4
        by_message = " ".join(f.message for f in findings)
        # set/deque are outside the codec; frozenset/Fraction are codec
        # types that still need the encode_state() wrapper.
        assert "not in the tagged-codec dispatch table" in by_message
        assert "wrap it with encode_state" in by_message
        assert "self.history" in by_message and "deque" in by_message

    def test_near_miss_negatives(self):
        assert run_rule(C201CodecCoverage(), "c201_clean.py") == []

    def test_codec_introspection_matches_dispatch(self):
        names = {t.__name__ for t in codec_types()}
        assert {"tuple", "frozenset", "Fraction", "Point"} <= names
        assert set(CODEC_TAGS) == {"t", "s", "q", "p"}


# ---------------------------------------------------------------------------
# purity rules (interprocedural effect analysis)
# ---------------------------------------------------------------------------


class TestS301AlgorithmPurity:
    def test_planted_positives(self):
        findings = run_rule(S301AlgorithmPurity(include=()), "s301_violations.py")
        assert [f.rule for f in findings] == ["S301"] * 6
        # The step looks innocent — every impurity anchors in a helper.
        assert {f.line for f in findings} == {14, 15, 16, 20, 24, 43}
        messages = " ".join(f.message for f in findings)
        assert "via _memoized_minimum" in messages
        assert "via _jittered" in messages
        assert "via _stamped" in messages
        assert "_analysis_memo_attrs" in messages  # the class-style write

    def test_findings_name_the_registered_algorithm(self):
        findings = run_rule(S301AlgorithmPurity(include=()), "s301_violations.py")
        assert any("'impure-min'" in f.message for f in findings)
        assert any("'impure-class'" in f.message for f in findings)

    def test_near_miss_negatives(self):
        # rng-parameter draws, constant closures, lambdas and declared
        # memo attributes are all sanctioned.
        assert run_rule(S301AlgorithmPurity(include=()), "s301_clean.py") == []


class TestS302ObjectiveDeltaPurity:
    def test_planted_positives(self):
        findings = run_rule(S302ObjectiveDeltaPurity(include=()), "s302_violations.py")
        assert [f.rule for f in findings] == ["S302"] * 3
        assert {f.line for f in findings} == {14, 15, 24}
        messages = " ".join(f.message for f in findings)
        assert "mutated" in messages  # the _CALIBRATION global read
        assert "closure variable" in messages  # the delta_fn= lambda

    def test_near_miss_negatives(self):
        assert run_rule(S302ObjectiveDeltaPurity(include=()), "s302_clean.py") == []


class TestS303SchedulerDeterminism:
    def test_planted_positives(self):
        findings = run_rule(S303SchedulerDeterminism(include=()), "s303_violations.py")
        assert [f.rule for f in findings] == ["S303"] * 4
        assert {f.line for f in findings} == {15, 17, 19, 29}
        messages = " ".join(f.message for f in findings)
        assert "'sticky'" in messages and "'logging'" in messages
        assert "randomness" in messages and "I/O" in messages

    def test_near_miss_negatives(self):
        # Reading self configuration and shuffling with the rng parameter
        # are both deterministic in (state, rng).
        assert run_rule(S303SchedulerDeterminism(include=()), "s303_clean.py") == []


# ---------------------------------------------------------------------------
# concurrency rules (lock discipline)
# ---------------------------------------------------------------------------


class TestR401UnguardedSharedAttribute:
    def test_planted_positives(self):
        findings = run_rule(
            R401UnguardedSharedAttribute(include=()), "r401_violations.py"
        )
        assert [f.rule for f in findings] == ["R401"] * 2
        assert {f.line for f in findings} == {23, 36}
        messages = " ".join(f.message for f in findings)
        assert "self._count" in messages  # the unguarded write
        assert "self._log" in messages  # the unguarded read

    def test_near_miss_negatives(self):
        # All-guarded attrs, immutable config and lock-free classes pass.
        assert (
            run_rule(R401UnguardedSharedAttribute(include=()), "r401_clean.py") == []
        )


class TestR402PublishUnderLock:
    def test_planted_positives(self):
        findings = run_rule(R402PublishUnderLock(include=()), "r402_violations.py")
        assert [f.rule for f in findings] == ["R402"] * 2
        assert {f.line for f in findings} == {17, 24}
        messages = " ".join(f.message for f in findings)
        assert "publish()" in messages and "close()" in messages

    def test_near_miss_negatives(self):
        # Snapshot-under-lock, publish-after-release is the sanctioned shape.
        assert run_rule(R402PublishUnderLock(include=()), "r402_clean.py") == []


class TestR403MutableClassDefault:
    def test_planted_positives(self):
        findings = run_rule(R403MutableClassDefault(include=()), "r403_violations.py")
        assert [f.rule for f in findings] == ["R403"] * 4
        assert {f.line for f in findings} == {9, 10, 11, 12}

    def test_near_miss_negatives(self):
        # __init__ state, immutable constants, ClassVar annotations and
        # dataclass default_factory are all fine.
        assert run_rule(R403MutableClassDefault(include=()), "r403_clean.py") == []


# ---------------------------------------------------------------------------
# baseline fingerprints
# ---------------------------------------------------------------------------


def finding(line=10, snippet="x = random.random()", rule="D001", path="src/a.py"):
    return Finding(
        path=path, line=line, column=4, rule=rule, message="planted", snippet=snippet
    )


class TestBaseline:
    def test_line_drift_keeps_the_suppression(self):
        baseline = Baseline.from_findings([finding(line=10)])
        active, suppressed, stale = baseline.split([finding(line=50)])
        assert active == [] and len(suppressed) == 1 and stale == []

    def test_editing_the_flagged_line_invalidates(self):
        baseline = Baseline.from_findings([finding()])
        active, suppressed, stale = baseline.split(
            [finding(snippet="x = random.random()  # changed")]
        )
        assert len(active) == 1 and suppressed == [] and len(stale) == 1

    def test_identical_lines_get_distinct_fingerprints(self):
        twins = [finding(line=10), finding(line=20)]
        fingerprints = [fp for _, fp in fingerprint_findings(twins)]
        assert len(set(fingerprints)) == 2
        # Suppressing one occurrence must not suppress both.
        baseline = Baseline.from_findings([finding(line=10)])
        active, suppressed, _ = baseline.split(twins)
        assert len(active) == 1 and len(suppressed) == 1

    def test_whitespace_is_normalized(self):
        baseline = Baseline.from_findings([finding(snippet="x =  random.random()")])
        active, suppressed, _ = baseline.split(
            [finding(snippet="x = random.random()")]
        )
        assert active == [] and len(suppressed) == 1

    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings([finding()])
        path = baseline.save(tmp_path / "baseline.json")
        loaded = Baseline.load(path)
        assert loaded.fingerprints == baseline.fingerprints
        data = json.loads(path.read_text())
        assert data["format"] == BASELINE_FORMAT

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"suppressions": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


# ---------------------------------------------------------------------------
# runner: collection, formats, exit codes
# ---------------------------------------------------------------------------


def write_module(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


DIRTY = "import random\n\nTOKEN = random.random()\n"
CLEAN = "import random\n\n\ndef draw(rng):\n    return rng.random()\n"


class TestRunner:
    def test_fixture_trees_are_never_collected(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        write_module(tmp_path, "src/lint_fixtures/planted.py", DIRTY)
        files = collect_files(["src"], tmp_path)
        assert [f.name for f in files] == ["ok.py"]
        assert "lint_fixtures" in EXCLUDED_DIR_NAMES

    def test_exit_0_on_clean_tree(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        assert run_lint(["src"], root=tmp_path, emit=lambda line: None) == 0

    def test_exit_1_on_findings(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        lines = []
        assert run_lint(["src"], root=tmp_path, emit=lines.append) == 1
        assert any("D001" in line for line in lines)

    def test_exit_1_on_syntax_error(self, tmp_path):
        write_module(tmp_path, "src/broken.py", "def broken(:\n")
        lines = []
        assert run_lint(["src"], root=tmp_path, emit=lines.append) == 1
        assert any("E001" in line for line in lines)

    def test_exit_2_on_missing_path(self, tmp_path):
        lines = []
        assert run_lint(["no-such-dir"], root=tmp_path, emit=lines.append) == 2
        assert any("no such file" in line for line in lines)

    def test_exit_2_on_unreadable_baseline(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        (tmp_path / "baseline.json").write_text("{not json")
        code = run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            emit=lambda line: None,
        )
        assert code == 2

    def test_update_baseline_then_clean(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        assert (
            run_lint(
                ["src"],
                root=tmp_path,
                baseline_path="baseline.json",
                update_baseline=True,
                emit=lambda line: None,
            )
            == 0
        )
        assert len(Baseline.load(tmp_path / "baseline.json")) == 1
        code = run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            emit=lambda line: None,
        )
        assert code == 0

    def test_github_format_annotations(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        lines = []
        run_lint(["src"], root=tmp_path, output_format="github", emit=lines.append)
        annotation = lines[0]
        assert annotation.startswith("::error file=src/bad.py,line=3,")
        assert "title=repro lint D001::" in annotation

    def test_json_format(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        lines = []
        run_lint(["src"], root=tmp_path, output_format="json", emit=lines.append)
        payload = json.loads("\n".join(lines))
        assert payload["suppressed"] == []
        assert payload["stale_baseline_entries"] == []
        (entry,) = payload["findings"]
        assert entry["rule"] == "D001" and len(entry["fingerprint"]) == 16


DIRTY_TOO = "import random\n\nSALT = random.randrange(10)\n"


class TestSarifFormat:
    def make_report(self, tmp_path):
        """One active D001 plus one baselined D001 → a two-result run."""
        write_module(tmp_path, "src/one.py", DIRTY)
        run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            update_baseline=True,
            emit=lambda line: None,
        )
        write_module(tmp_path, "src/two.py", DIRTY_TOO)
        lines = []
        run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            output_format="sarif",
            emit=lines.append,
        )
        return json.loads("\n".join(lines))

    def test_validates_against_the_sarif_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (REPO_ROOT / "tests" / "sarif_2.1.0_subset.schema.json").read_text()
        )
        jsonschema.validate(self.make_report(tmp_path), schema)

    def test_run_structure(self, tmp_path):
        report = self.make_report(tmp_path)
        assert report["version"] == "2.1.0"
        assert report["$schema"] == SARIF_SCHEMA_URI
        (run,) = report["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["D001"]

    def test_suppressions_and_fingerprints(self, tmp_path):
        report = self.make_report(tmp_path)
        results = report["runs"][0]["results"]
        assert len(results) == 2
        active = [r for r in results if "suppressions" not in r]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(active) == 1 and len(suppressed) == 1
        assert suppressed[0]["suppressions"] == [{"kind": "external"}]
        for result in results:
            assert result["ruleIndex"] == 0
            fingerprint = result["partialFingerprints"]["reproLint/v1"]
            assert len(fingerprint) == 16

    def test_clean_tree_emits_an_empty_run(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        lines = []
        assert (
            run_lint(["src"], root=tmp_path, output_format="sarif", emit=lines.append)
            == 0
        )
        report = json.loads("\n".join(lines))
        assert report["runs"][0]["results"] == []


class TestExplain:
    def test_known_rule_prints_doc_and_fixtures(self):
        lines = []
        assert run_explain("S301", root=REPO_ROOT, emit=lines.append) == 0
        text = "\n".join(lines)
        assert text.startswith("S301 — ")
        assert "transitively pure" in text
        assert "violating example (s301_violations.py)" in text
        assert "clean example (s301_clean.py)" in text
        assert "_analysis_memo_attrs" in text

    def test_rule_id_is_case_insensitive(self):
        assert run_explain("r403", root=REPO_ROOT, emit=lambda line: None) == 0

    def test_unknown_rule_lists_the_catalog(self):
        lines = []
        assert run_explain("Z999", root=REPO_ROOT, emit=lines.append) == 2
        assert "unknown rule" in lines[0]
        for rule_id in ("D001", "S301", "R401"):
            assert rule_id in lines[0]

    def test_every_cataloged_rule_explains_cleanly(self):
        for rule_id in rule_catalog():
            assert run_explain(rule_id, root=REPO_ROOT, emit=lambda line: None) == 0


class TestPrune:
    def test_prune_drops_stale_entries(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            update_baseline=True,
            emit=lambda line: None,
        )
        write_module(tmp_path, "src/bad.py", CLEAN)  # the finding is gone
        lines = []
        code = run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            prune_baseline=True,
            emit=lines.append,
        )
        assert code == 0
        assert any("1 stale entry removed, 0 kept" in line for line in lines)
        assert len(Baseline.load(tmp_path / "baseline.json")) == 0

    def test_prune_keeps_live_suppressions(self, tmp_path):
        write_module(tmp_path, "src/bad.py", DIRTY)
        run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            update_baseline=True,
            emit=lambda line: None,
        )
        lines = []
        run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            prune_baseline=True,
            emit=lines.append,
        )
        assert any("nothing stale" in line for line in lines)
        assert len(Baseline.load(tmp_path / "baseline.json")) == 1

    def test_prune_requires_a_baseline(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        lines = []
        assert (
            run_lint(["src"], root=tmp_path, prune_baseline=True, emit=lines.append)
            == 2
        )
        assert any("--prune requires --baseline" in line for line in lines)

    def test_prune_rejects_a_missing_baseline_file(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        code = run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="no-such.json",
            prune_baseline=True,
            emit=lambda line: None,
        )
        assert code == 2

    def test_prune_and_update_are_exclusive(self, tmp_path):
        write_module(tmp_path, "src/ok.py", CLEAN)
        code = run_lint(
            ["src"],
            root=tmp_path,
            baseline_path="baseline.json",
            prune_baseline=True,
            update_baseline=True,
            emit=lambda line: None,
        )
        assert code == 2


class TestCli:
    def test_lint_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "src/bad.py", DIRTY)
        assert main(["lint", "src"]) == 1
        assert "D001" in capsys.readouterr().out
        write_module(tmp_path, "src/bad.py", CLEAN)
        assert main(["lint", "src"]) == 0

    def test_lint_usage_error(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "no-such-dir"]) == 2

    def test_lint_explain_flag(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--explain", "S301"]) == 0
        assert "S301 — " in capsys.readouterr().out
        assert main(["lint", "--explain", "nope"]) == 2

    def test_lint_sarif_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "src/bad.py", DIRTY)
        assert main(["lint", "src", "--format", "sarif"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == "2.1.0"

    def test_lint_prune_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "src/bad.py", DIRTY)
        assert main(["lint", "src", "--baseline", "b.json", "--update-baseline"]) == 0
        write_module(tmp_path, "src/bad.py", CLEAN)
        assert main(["lint", "src", "--baseline", "b.json", "--prune"]) == 0
        assert "stale entry removed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# acceptance: the production configuration
# ---------------------------------------------------------------------------


class TestProductionRun:
    def test_src_and_tests_are_clean_against_the_baseline(self):
        lines = []
        code = run_lint(
            ["src", "tests"],
            root=REPO_ROOT,
            baseline_path="lint_baseline.json",
            emit=lines.append,
        )
        assert code == 0, "\n".join(lines)

    def test_baseline_is_small_and_justified(self):
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        # Exactly the four draw-an-effective-seed sites (the three
        # reference-engine entry points plus the array engine's); every
        # entry is a standing exception, so growth here needs review.
        assert len(baseline) == 4
        assert len(baseline) <= 10
        assert all(entry["rule"] == "D001" for entry in baseline.entries)
        assert all(
            "random.randrange(2**63)" in entry["snippet"]
            for entry in baseline.entries
        )

    def test_synthetic_pr_with_global_rng_fails(self, tmp_path):
        """A PR adding a global-RNG draw to src/ must fail the lint job."""
        write_module(
            tmp_path,
            "src/repro/sneaky.py",
            "import random\n\n\ndef jitter():\n    return random.random()\n",
        )
        assert run_lint(["src"], root=tmp_path, emit=lambda line: None) == 1

    def test_synthetic_pr_with_unserializable_state_fails(self, tmp_path):
        """A PR checkpointing a raw set must fail the lint job."""
        write_module(
            tmp_path,
            "src/repro/sneaky_env.py",
            "class Env:\n"
            "    def __init__(self):\n"
            "        self.members = set()\n"
            "\n"
            "    def state_dict(self):\n"
            "        return {'members': self.members}\n",
        )
        assert run_lint(["src"], root=tmp_path, emit=lambda line: None) == 1

    SNEAKY_MEMO = (
        "from repro.registry import register_algorithm\n"
        "\n"
        "_MEMO = {}\n"
        "\n"
        "\n"
        "def _cached_minimum(states):\n"
        "    key = tuple(states)\n"
        "    if key not in _MEMO:\n"
        "        _MEMO[key] = min(states)\n"
        "    return _MEMO[key]\n"
        "\n"
        "\n"
        "def _step(states, rng):\n"
        "    return [_cached_minimum(states)] * len(states)\n"
        "\n"
        "\n"
        "@register_algorithm('sneaky-min')\n"
        "def sneaky_minimum():\n"
        "    return dict(group_step=_step)\n"
    )

    def test_synthetic_pr_with_impure_step_helper_fails(self, tmp_path):
        """A registered step whose *helper* memoizes into module state must
        fail the lint job — the effect summary follows the call."""
        write_module(tmp_path, "src/repro/sneaky_algo.py", self.SNEAKY_MEMO)
        lines = []
        assert run_lint(["src"], root=tmp_path, emit=lines.append) == 1
        text = "\n".join(lines)
        assert "S301" in text and "via _cached_minimum" in text

    def test_the_syntax_rules_alone_miss_the_impure_helper(self, tmp_path):
        """The pre-effect-analysis rule set (D/P/C) cannot see the hidden
        memo — pinning exactly what S301 adds."""
        from repro.analysis.rules_determinism import determinism_rules
        from repro.analysis.rules_protocol import protocol_rules

        write_module(tmp_path, "src/repro/sneaky_algo.py", self.SNEAKY_MEMO)
        code = run_lint(
            ["src"],
            root=tmp_path,
            rules=[*determinism_rules(), *protocol_rules()],
            emit=lambda line: None,
        )
        assert code == 0


# ---------------------------------------------------------------------------
# registry introspection added for the linter
# ---------------------------------------------------------------------------


class TestRegistryIntrospection:
    def test_items_are_sorted_pairs(self):
        import repro.experiment  # noqa: F401 - populates the registries
        from repro.registry import ALGORITHMS

        items = ALGORITHMS.items()
        assert items == sorted(items)
        assert all(isinstance(name, str) for name, _ in items)

    def test_source_of_points_into_the_repo(self):
        import repro.experiment  # noqa: F401
        from repro.registry import ALGORITHMS

        name, _ = ALGORITHMS.items()[0]
        location = ALGORITHMS.source_of(name)
        assert location is not None
        path, line = location
        assert path.endswith(".py") and line >= 1
