"""The protocol-conformance rules (P101, P102, C201).

These are cross-file, registry-aware checks: they look at *which classes
are registered* (by finding ``@register_environment`` /
``@register_probe`` applications in the scanned sources), at what the
running registries actually contain (by importing
:mod:`repro.experiment`, which populates them), and at the tagged state
codec :mod:`repro.simulation.checkpoint` exposes for introspection.

* **P101** — registered environments and probes implement the durable-run
  protocol coherently.  An environment overriding one of
  ``state_dict``/``load_state`` without the other either loses state at
  checkpoint or cannot restore it; a probe that captures resumable state
  (``state_dict``) must also define its restore path (``load_state`` or
  ``on_resume``), and restore-side overrides without ``state_dict`` can
  never receive state.
* **P102** — registry/doc drift.  Every name referenced by
  ``examples/specs/*.json`` (algorithm, environment, scheduler, engine,
  value generator, topology, probes) and by the README's spec snippets /
  ``--probe`` flags / spec-file paths must exist in the registries /
  repository.
* **C201** — codec coverage.  Every value a ``state_dict`` persists ends
  up inside a run checkpoint and is serialized with ``json.dumps``; a
  checkpointed attribute constructed as a ``set``, ``frozenset``,
  ``Fraction``, ``Point``, ``deque``, ... must therefore be converted
  (``sorted``/``list``/``encode_state``/...) at capture time.  The set of
  encodable types comes from the codec dispatch table
  (:func:`repro.simulation.checkpoint.codec_types`), so the rule follows
  the codec automatically when it grows.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Sequence

from .core import ModuleInfo, ProjectRule, dotted_name

__all__ = [
    "P101ProtocolPairing",
    "P102RegistryDocDrift",
    "C201CodecCoverage",
    "protocol_rules",
]

#: Base classes whose default implementations do not count as "defined by
#: the registered class" — they are the protocol being checked.
PROTOCOL_BASES = frozenset(
    {"ABC", "Baseline", "Environment", "HistoryProbe", "Probe", "object"}
)


@dataclass
class _RegisteredClass:
    kind: str  # "environment" | "probe"
    registered_name: str | None
    node: ast.ClassDef
    module: ModuleInfo


def _class_index(modules: Sequence[ModuleInfo]) -> dict[str, tuple[ModuleInfo, ast.ClassDef]]:
    index: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                index.setdefault(node.name, (module, node))
    return index


def _registration_name(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    return None


def _registered_classes(modules: Sequence[ModuleInfo]) -> list[_RegisteredClass]:
    """Every class registered as an environment or probe, however it was
    registered: decorator form or ``register_x(name)(Class)`` call form."""
    targets = {"register_environment": "environment", "register_probe": "probe"}
    index = _class_index(modules)
    found: list[_RegisteredClass] = []
    seen: set[int] = set()

    def note(kind: str, name: str | None, module: ModuleInfo, node: ast.ClassDef) -> None:
        if id(node) not in seen:
            seen.add(id(node))
            found.append(_RegisteredClass(kind, name, node, module))

    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        tail = (dotted_name(decorator.func) or "").rsplit(".", 1)[-1]
                        if tail in targets:
                            note(targets[tail], _registration_name(decorator), module, node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Call):
                # register_probe("history")(HistoryProbe)
                tail = (dotted_name(node.func.func) or "").rsplit(".", 1)[-1]
                if tail in targets and node.args and isinstance(node.args[0], ast.Name):
                    resolved = index.get(node.args[0].id)
                    if resolved is not None:
                        note(
                            targets[tail],
                            _registration_name(node.func),
                            resolved[0],
                            resolved[1],
                        )
    return found


def _defined_methods(
    node: ast.ClassDef,
    index: dict[str, tuple[ModuleInfo, ast.ClassDef]],
    _depth: int = 0,
) -> set[str]:
    """Method and class-attribute names defined by the class or by bases
    it shares sources with (the abstract protocol bases excluded)."""
    names: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.value is not None:
                names.add(item.target.id)
    if _depth < 4:
        for base in node.bases:
            base_name = (dotted_name(base) or "").rsplit(".", 1)[-1]
            if base_name in PROTOCOL_BASES or base_name not in index:
                continue
            names |= _defined_methods(index[base_name][1], index, _depth + 1)
    return names


@dataclass
class P101ProtocolPairing(ProjectRule):
    """Registered environments/probes implement the durable-run protocol."""

    rule_id: str = "P101"
    title: str = "checkpoint-protocol pairing"

    def check_project(self, modules: Sequence[ModuleInfo], root: pathlib.Path) -> None:
        index = _class_index(modules)
        for registered in _registered_classes(modules):
            defined = _defined_methods(registered.node, index)
            label = registered.registered_name or registered.node.name
            where = (registered.module, registered.node)
            if registered.kind == "environment":
                if ("state_dict" in defined) != ("load_state" in defined):
                    missing = (
                        "load_state" if "state_dict" in defined else "state_dict"
                    )
                    self.report(
                        *where,
                        f"registered environment {label!r} overrides half the "
                        f"checkpoint protocol: define {missing}() too, or the "
                        "environment cannot round-trip through a checkpoint",
                    )
            else:  # probe
                capture = "state_dict" in defined
                restore = "load_state" in defined or "on_resume" in defined
                if capture and not restore:
                    self.report(
                        *where,
                        f"registered probe {label!r} captures resumable state "
                        "(state_dict) but defines no restore path; define "
                        "load_state() or on_resume() so checkpointed runs "
                        "resume byte-identically",
                    )
                elif restore and not capture:
                    self.report(
                        *where,
                        f"registered probe {label!r} defines a restore path "
                        "but no state_dict(); it will never receive state at "
                        "resume",
                    )


#: Spec keys checked against a registry, as (spec key, registry key).
_SPEC_REGISTRY_KEYS = (
    ("algorithm", "algorithms"),
    ("environment", "environments"),
    ("scheduler", "schedulers"),
    ("engine", "engines"),
    ("value_generator", "value_generators"),
)

#: README patterns naming a registered thing, as (regex, registry key).
_README_PATTERNS = (
    (re.compile(r'"algorithm"\s*:\s*"([\w-]+)"'), "algorithms"),
    (re.compile(r'"environment"\s*:\s*"([\w-]+)"'), "environments"),
    (re.compile(r'"scheduler"\s*:\s*"([\w-]+)"'), "schedulers"),
    (re.compile(r'"engine"\s*:\s*"([\w-]+)"'), "engines"),
    (re.compile(r'"value_generator"\s*:\s*"([\w-]+)"'), "value_generators"),
    (re.compile(r"--probe\s+([\w-]+)"), "probes"),
)


@dataclass
class P102RegistryDocDrift(ProjectRule):
    """Names referenced by example specs and the README exist."""

    rule_id: str = "P102"
    title: str = "registry/doc drift"

    def check_project(self, modules: Sequence[ModuleInfo], root: pathlib.Path) -> None:
        registries = self._registries()
        if registries is None:
            return
        for spec_path in sorted(root.glob("examples/specs/*.json")):
            self._check_spec(spec_path, root, registries)
        readme = root / "README.md"
        if readme.exists():
            self._check_readme(readme, root, registries)

    @staticmethod
    def _registries() -> dict[str, list[str]] | None:
        try:
            # Importing the experiment layer populates every registry.
            import repro.experiment  # noqa: F401
            from repro.registry import available
        except Exception:  # pragma: no cover - repro must be importable
            return None
        return available()

    def _check_spec(
        self, spec_path: pathlib.Path, root: pathlib.Path, registries: dict
    ) -> None:
        relpath = spec_path.relative_to(root).as_posix()
        try:
            data = json.loads(spec_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            self.report_at(relpath, 1, f"cannot read spec: {error}")
            return
        if not isinstance(data, dict):
            self.report_at(relpath, 1, "spec must be a JSON object")
            return

        def line_of(token: str) -> int:
            for number, line in enumerate(spec_path.read_text().splitlines(), 1):
                if token in line:
                    return number
            return 1

        for key, registry in _SPEC_REGISTRY_KEYS:
            name = data.get(key)
            if isinstance(name, str) and name not in registries[registry]:
                self.report_at(
                    relpath,
                    line_of(f'"{name}"'),
                    f"spec references unregistered {key} {name!r} "
                    f"(known: {', '.join(registries[registry])})",
                    snippet=f'"{key}": "{name}"',
                )
        topology = (data.get("environment_params") or {}).get("topology")
        if isinstance(topology, str) and topology not in registries["graphs"]:
            self.report_at(
                relpath,
                line_of(f'"{topology}"'),
                f"spec references unregistered graph {topology!r} "
                f"(known: {', '.join(registries['graphs'])})",
                snippet=f'"topology": "{topology}"',
            )
        for entry in data.get("probes") or ():
            name = entry if isinstance(entry, str) else (entry or {}).get("probe")
            if isinstance(name, str) and name not in registries["probes"]:
                self.report_at(
                    relpath,
                    line_of(f'"{name}"'),
                    f"spec references unregistered probe {name!r} "
                    f"(known: {', '.join(registries['probes'])})",
                    snippet=f'"probe": "{name}"',
                )

    def _check_readme(
        self, readme: pathlib.Path, root: pathlib.Path, registries: dict
    ) -> None:
        relpath = readme.relative_to(root).as_posix()
        for number, line in enumerate(readme.read_text().splitlines(), 1):
            for pattern, registry in _README_PATTERNS:
                for match in pattern.finditer(line):
                    name = match.group(1)
                    if name not in registries[registry]:
                        self.report_at(
                            relpath,
                            number,
                            f"README references unregistered "
                            f"{registry.rstrip('s').replace('_', ' ')} "
                            f"{name!r}",
                            snippet=line.strip(),
                        )
            for match in re.finditer(r"examples/specs/[\w./-]+\.json", line):
                if not (root / match.group(0)).exists():
                    self.report_at(
                        relpath,
                        number,
                        f"README references missing spec file {match.group(0)!r}",
                        snippet=line.strip(),
                    )


#: Constructors whose results serialize through ``json.dumps`` directly.
_JSON_SAFE_CONSTRUCTORS = frozenset(
    {"bool", "dict", "float", "int", "list", "sorted", "str", "tuple"}
)

#: Wrappers that convert a value to checkpoint-safe data at capture time.
_SANCTIONED_ENCODERS = frozenset(
    {
        "dict",
        "encode_rng_state",
        "encode_state",
        "float",
        "int",
        "jsonify",
        "len",
        "list",
        "max",
        "min",
        "repr",
        "sorted",
        "str",
        "sum",
        "tuple",
    }
)

#: Methods of checkpointed objects that are themselves safe conversions
#: (or, like ``getstate``, feed one — the enclosing call is still checked).
_SANCTIONED_METHODS = frozenset({"getstate", "state_dict", "to_dict"})


def _codec_type_names() -> frozenset[str]:
    try:
        from repro.simulation.checkpoint import codec_types

        return frozenset(t.__name__ for t in codec_types())
    except Exception:  # pragma: no cover - repro must be importable
        return frozenset({"tuple", "frozenset", "Fraction", "Point"})


@dataclass
class C201CodecCoverage(ProjectRule):
    """Checkpointed attributes must be representable by the state codec."""

    rule_id: str = "C201"
    title: str = "codec coverage"

    #: Methods whose ``self.x = ...`` assignments define checkpointable
    #: attribute types.
    STATE_BUILDERS = frozenset(
        {
            "__init__",
            "advance",
            "load_state",
            "on_initial",
            "on_round",
            "on_start",
            "reset",
        }
    )

    def check_project(self, modules: Sequence[ModuleInfo], root: pathlib.Path) -> None:
        codec_names = _codec_type_names()
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._check_class(module, node, codec_names)

    def _check_class(
        self, module: ModuleInfo, node: ast.ClassDef, codec_names: frozenset[str]
    ) -> None:
        state_dict = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "state_dict"
            ),
            None,
        )
        if state_dict is None:
            return
        constructors = self._attribute_constructors(node)
        for reference in ast.walk(state_dict):
            if not (
                isinstance(reference, ast.Attribute)
                and isinstance(reference.value, ast.Name)
                and reference.value.id == "self"
                and isinstance(reference.ctx, ast.Load)
            ):
                continue
            constructor = constructors.get(reference.attr)
            if constructor is None or constructor in _JSON_SAFE_CONSTRUCTORS:
                continue
            if self._safely_encoded(module, reference):
                continue
            if constructor in codec_names:
                hint = (
                    f"wrap it with encode_state(...) — {constructor} is in "
                    "the tagged-codec dispatch table but raw JSON "
                    "serialization loses or reorders it"
                )
            else:
                hint = (
                    f"{constructor} is not in the tagged-codec dispatch "
                    "table (see repro.simulation.checkpoint.codec_types); "
                    "convert it to JSON-safe data (sorted()/list()/...) at "
                    "capture time"
                )
            self.report(
                module,
                reference,
                f"state_dict() persists self.{reference.attr}, which is "
                f"assigned a {constructor} value; {hint}",
            )

    def _attribute_constructors(self, node: ast.ClassDef) -> dict[str, str]:
        """``self.x`` -> constructor name, from the state-building methods.

        Only attributes whose *every* constructing assignment is a call to
        one recognizable constructor are typed; anything ambiguous stays
        untyped (and unreported) — the rule prefers silence to noise.
        """
        assigned: dict[str, set[str | None]] = {}
        for item in node.body:
            if not (
                isinstance(item, ast.FunctionDef) and item.name in self.STATE_BUILDERS
            ):
                continue
            for sub in ast.walk(item):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets, value = [sub.target], sub.value
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        name = None
                        if isinstance(value, ast.Call):
                            name = (dotted_name(value.func) or "").rsplit(".", 1)[-1]
                        elif isinstance(value, (ast.Set, ast.SetComp)):
                            name = "set"
                        assigned.setdefault(target.attr, set()).add(name or None)
        return {
            attr: next(iter(names))
            for attr, names in assigned.items()
            if len(names) == 1 and next(iter(names)) is not None
        }

    @staticmethod
    def _safely_encoded(module: ModuleInfo, reference: ast.Attribute) -> bool:
        """True when some enclosing call converts the reference to
        checkpoint-safe data (``sorted(self.x)``,
        ``encode_rng_state(self.x.getstate())``, ...)."""
        node: ast.AST = reference
        for ancestor in module.ancestors(reference):
            if isinstance(ancestor, (ast.ListComp, ast.GeneratorExp)):
                node = ancestor
                continue
            if isinstance(ancestor, ast.Call):
                tail = (dotted_name(ancestor.func) or "").rsplit(".", 1)[-1]
                if node in ancestor.args and tail in _SANCTIONED_ENCODERS:
                    return True
                if (
                    ancestor.func is node
                    and isinstance(node, ast.Attribute)
                    and node.attr in _SANCTIONED_METHODS
                ):
                    # a sanctioned method call on the attribute: treat its
                    # result as the tracked value and keep walking up
                    # (``encode_rng_state(self.rng.getstate())``).
                    if node.attr != "getstate":
                        return True
                    node = ancestor
                    continue
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return False
            node = ancestor
        return False


def protocol_rules() -> list[ProjectRule]:
    """The default protocol-conformance rule set."""
    return [P101ProtocolPairing(), P102RegistryDocDrift(), C201CodecCoverage()]
