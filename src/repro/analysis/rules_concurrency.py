"""The lock-discipline rules for threaded code (R401, R402, R403).

The service layer runs HTTP handler threads against a single worker
thread (``JobQueue``) and a condition-based pub/sub hub
(``EventBroker``); ``simulation/batch.py`` fans work out across thread
pools.  These rules infer each class's *guarded-attribute set* — which
attributes its methods touch under ``with self._lock`` — and flag the
patterns that historically produce heisenbugs there:

* **R401** — an attribute that is accessed under the class's lock in
  most places but *unguarded* in some method is almost certainly a data
  race: either the lock is unnecessary everywhere or it is necessary
  here.  Inference is lexical and per-class: lock attributes are the
  ``self.X = threading.Lock()/RLock()/Condition()/Semaphore()``
  bindings of ``__init__``; an access is guarded when it sits inside a
  ``with self.X:`` block (or inside a method of the lock object itself).
  Only *mutable* attributes count — attributes never written outside
  ``__init__`` are configuration and need no lock to read.
* **R402** — publishing to a broker channel while holding a lock.  The
  broker serializes on its own condition; calling into it with a lock
  held nests two locks in application order and deadlocks the moment
  any broker callback path takes them in the other order.  Publish
  after releasing.
* **R403** — mutable class-level defaults (``cache = {}`` in a class
  body) are shared across every instance *and* every thread; with the
  service layer instantiating handlers per request this turns
  "per-instance scratch" into silent cross-request state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .core import ModuleInfo, Rule, dotted_name

__all__ = [
    "R401UnguardedSharedAttribute",
    "R402PublishUnderLock",
    "R403MutableClassDefault",
    "concurrency_rules",
]

#: Default scope: the threaded layers.
THREADED_PATHS = ("src/repro/service/", "src/repro/simulation/batch.py")

#: Constructors whose result is a lock-like guard object.
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)

#: Methods of the lock/condition object itself — calling them is lock
#: management, not attribute access needing a guard.
_LOCK_METHODS = frozenset(
    {"acquire", "release", "locked", "notify", "notify_all", "wait", "wait_for"}
)

#: In-place mutators (an ``x.append(…)`` on an attribute is a write).
_MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Broker entry points that take the broker's own condition.
_BROKER_METHODS = frozenset(
    {
        "begin_drain",
        "close",
        "end_drain",
        "finish",
        "publish",
        "subscribe",
        "truncate",
    }
)

_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

_MUTABLE_CONSTRUCTORS = frozenset(
    {"Counter", "OrderedDict", "bytearray", "defaultdict", "deque", "dict", "list", "set"}
)


@dataclass
class _AttrAccess:
    attr: str
    node: ast.AST
    method: str
    guarded: bool
    is_write: bool


def _lock_attributes(module: ModuleInfo, classdef: ast.ClassDef) -> set[str]:
    locks: set[str] = set()
    for method in classdef.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name not in _INIT_METHODS:
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            resolved = module.resolve(node.value.func) or ""
            if resolved in _LOCK_FACTORIES or resolved.rsplit(".", 1)[-1] in {
                "Lock",
                "RLock",
                "Condition",
            }:
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
    return locks


def _held_locks(module: ModuleInfo, node: ast.AST, locks: set[str]) -> set[str]:
    """Which of the class's locks a node lexically sits under."""
    held: set[str] = set()
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
                    if expr.value.id == "self" and expr.attr in locks:
                        held.add(expr.attr)
    return held


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_accesses(
    module: ModuleInfo, classdef: ast.ClassDef, locks: set[str]
) -> list[_AttrAccess]:
    accesses: list[_AttrAccess] = []
    for method in classdef.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(method):
            attr = _self_attr(node)
            if attr is None or attr in locks:
                continue
            parent = module.parent(node)
            # ``with self._lock:`` context expressions are lock management.
            if isinstance(parent, ast.withitem):
                continue
            is_write = isinstance(node.ctx, (ast.Store, ast.Del))
            if isinstance(parent, ast.Attribute) and isinstance(parent.ctx, ast.Load):
                grand = module.parent(parent)
                if (
                    isinstance(grand, ast.Call)
                    and grand.func is parent
                    and parent.attr in _MUTATOR_METHODS
                ):
                    is_write = True
            if isinstance(parent, ast.Subscript) and isinstance(
                parent.ctx, (ast.Store, ast.Del)
            ):
                is_write = True
            if isinstance(parent, ast.AugAssign) and parent.target is node:
                is_write = True
            guarded = bool(_held_locks(module, node, locks))
            accesses.append(
                _AttrAccess(
                    attr=attr,
                    node=node,
                    method=method.name,
                    guarded=guarded,
                    is_write=is_write,
                )
            )
    return accesses


@dataclass
class R401UnguardedSharedAttribute(Rule):
    """Unguarded access to an attribute the class mostly locks."""

    rule_id: str = "R401"
    title: str = "unguarded access to a majority-guarded attribute"
    include: tuple[str, ...] = THREADED_PATHS

    def check_module(self, module: ModuleInfo) -> None:
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            locks = _lock_attributes(module, classdef)
            if not locks:
                continue
            accesses = _collect_accesses(module, classdef, locks)
            by_attr: dict[str, list[_AttrAccess]] = {}
            for access in accesses:
                by_attr.setdefault(access.attr, []).append(access)
            for attr, attr_accesses in sorted(by_attr.items()):
                written = any(
                    a.is_write and a.method not in _INIT_METHODS for a in attr_accesses
                )
                if not written:
                    continue  # configuration set once in __init__ — no guard needed
                considered = [a for a in attr_accesses if a.method not in _INIT_METHODS]
                guarded = [a for a in considered if a.guarded]
                unguarded = [a for a in considered if not a.guarded]
                if len(guarded) >= 2 and len(guarded) > len(unguarded):
                    for access in unguarded:
                        kind = "write" if access.is_write else "read"
                        self.report(
                            module,
                            access.node,
                            f"self.{attr} is accessed under the lock in "
                            f"{len(guarded)} place{'s' if len(guarded) != 1 else ''} "
                            f"but this {kind} in {classdef.name}.{access.method}() "
                            "is unguarded — take the lock or document why the "
                            "race is benign",
                        )


@dataclass
class R402PublishUnderLock(Rule):
    """Calling into the broker while holding one of our locks."""

    rule_id: str = "R402"
    title: str = "broker call while holding a lock (ordering hazard)"
    include: tuple[str, ...] = THREADED_PATHS

    def check_module(self, module: ModuleInfo) -> None:
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            locks = _lock_attributes(module, classdef)
            if not locks:
                continue
            for node in ast.walk(classdef):
                if not isinstance(node, ast.Call) or not isinstance(
                    node.func, ast.Attribute
                ):
                    continue
                if node.func.attr not in _BROKER_METHODS:
                    continue
                receiver = dotted_name(node.func.value) or ""
                root = receiver.split(".")[-1].lower()
                if "broker" not in root and receiver != "BROKER":
                    continue
                held = _held_locks(module, node, locks)
                if held:
                    lock_list = ", ".join(f"self.{name}" for name in sorted(held))
                    self.report(
                        module,
                        node,
                        f"{receiver}.{node.func.attr}() is called while holding "
                        f"{lock_list}; the broker takes its own condition, so "
                        "this nests locks across objects — release before "
                        "publishing",
                    )


@dataclass
class R403MutableClassDefault(Rule):
    """Mutable class-body defaults are shared across instances/threads."""

    rule_id: str = "R403"
    title: str = "mutable class-level default shared across instances"
    include: tuple[str, ...] = THREADED_PATHS

    def check_module(self, module: ModuleInfo) -> None:
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            for statement in classdef.body:
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(statement, ast.Assign):
                    targets, value = statement.targets, statement.value
                elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                    if "ClassVar" in ast.dump(statement.annotation):
                        continue  # explicitly declared class-level — intentional
                    targets, value = [statement.target], statement.value
                if value is None or not targets:
                    continue
                mutable = isinstance(value, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(value, ast.Call)
                    and (dotted_name(value.func) or "").rsplit(".", 1)[-1]
                    in _MUTABLE_CONSTRUCTORS
                    and not value.args
                    and not value.keywords
                )
                if not mutable:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        self.report(
                            module,
                            statement,
                            f"class attribute {classdef.name}.{target.id} defaults "
                            "to a mutable object shared by every instance and "
                            "thread; initialize it in __init__ (or annotate "
                            "ClassVar if sharing is intended)",
                        )


def concurrency_rules() -> list[Rule]:
    """Fresh default-scoped instances of every R-rule."""
    return [
        R401UnguardedSharedAttribute(),
        R402PublishUnderLock(),
        R403MutableClassDefault(),
    ]
