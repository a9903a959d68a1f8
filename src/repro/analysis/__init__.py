"""Static analysis: the determinism & protocol-conformance linter.

The platform's headline guarantee — byte-identical runs against the textbook
replay, checkpoints, resume and the content-addressed result cache — is
enforced dynamically by the parity matrices (captured workloads, the
checkpoint-parity suite).  The *discipline* that makes those suites pass is
a handful of codebase-wide invariants:

* randomness flows only through seeded ``random.Random`` instances;
* nothing whose order feeds engine state, probe payloads or serialized
  output iterates an unordered collection;
* engine, probe and checkpoint paths never read the wall clock;
* the exact-arithmetic paths stay exact (no float literals creeping into
  the ``Fraction`` algorithms);
* every registered environment and probe implements the checkpoint
  protocol it is expected to, and everything a ``state_dict`` persists is
  representable by the tagged codec in
  :mod:`repro.simulation.checkpoint`;
* registered step/judge rules, objective deltas and scheduler partitions
  are *transitively pure* — the interprocedural effect pass
  (:mod:`repro.analysis.callgraph` + :mod:`repro.analysis.effects`)
  follows every resolved call, so a helper three levels down cannot hide
  a global write, an RNG draw or an I/O call from the S-rules;
* the threaded service/batch layer keeps its lock discipline: attributes
  a class mostly guards are never touched unguarded, broker publishes
  happen outside held locks, and no mutable state hides in class bodies
  (the R-rules).

This package makes those invariants *statically checkable* so they fail at
diff time as a lint finding instead of at CI time as a flaky parity
failure.  ``repro lint [paths]`` runs the analyzer; a fingerprinted
suppression baseline (``lint_baseline.json``) keeps pre-existing, justified
findings from blocking while new violations still fail.

Layout:

* :mod:`repro.analysis.core` — the rule/visitor framework (``Rule``,
  ``Finding``, per-module AST passes with import and scope tracking);
* :mod:`repro.analysis.rules_determinism` — the D-rules (D001–D005);
* :mod:`repro.analysis.rules_protocol` — the cross-file, registry-aware
  P/C-rules (P101, P102, C201);
* :mod:`repro.analysis.callgraph` / :mod:`repro.analysis.effects` — the
  project call graph and per-function transitive effect summaries;
* :mod:`repro.analysis.rules_purity` — the interprocedural S-rules
  (S301, S302, S303);
* :mod:`repro.analysis.rules_concurrency` — the lock-discipline R-rules
  (R401, R402, R403);
* :mod:`repro.analysis.baseline` — finding fingerprints and the
  suppression baseline;
* :mod:`repro.analysis.runner` — file collection, output formats
  (``text`` / ``json`` / ``github`` / ``sarif``), ``--explain`` and the
  CLI entry point.
"""

from __future__ import annotations

from .baseline import Baseline, fingerprint_findings
from .callgraph import CallGraph, FunctionInfo
from .core import Analyzer, Finding, ModuleInfo, ProjectRule, Rule
from .effects import Effect, EffectAnalysis
from .rules_concurrency import concurrency_rules
from .rules_determinism import determinism_rules
from .rules_protocol import protocol_rules
from .rules_purity import purity_rules
from .runner import all_rules, run_explain, run_lint

__all__ = [
    "Analyzer",
    "Baseline",
    "CallGraph",
    "Effect",
    "EffectAnalysis",
    "Finding",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectRule",
    "Rule",
    "all_rules",
    "concurrency_rules",
    "determinism_rules",
    "fingerprint_findings",
    "protocol_rules",
    "purity_rules",
    "run_explain",
    "run_lint",
]
