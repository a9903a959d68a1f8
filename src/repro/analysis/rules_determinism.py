"""The determinism rules (D001–D005).

Each rule statically enforces one invariant the parity suites otherwise
discover dynamically:

* **D001** — randomness flows only through seeded ``random.Random``
  instances.  Module-level functions of :mod:`random` share one hidden
  global generator, so a single stray ``random.random()`` makes two
  "identical" runs diverge (and makes a test flaky).  Constructing
  ``random.Random()`` with no argument (or an explicit ``None``) seeds
  from OS entropy and is flagged for the same reason.
* **D002** — no iteration over ``set``/``frozenset`` in an
  order-sensitive position inside engine paths.  Set iteration order
  depends on insertion history and hash seeding; an order-insensitive
  consumer (``sorted``, ``sum``, ``min``, ``len``, another set, a
  ``Multiset``) is fine, a ``for`` loop / ``list()`` / ``join()`` is not.
* **D003** — no wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``, ...) in engine / probe / checkpoint paths: a replayed
  run must not observe a different clock.
* **D004** — no float literals or ``float()`` coercions in the
  exact-arithmetic paths (the ``Fraction`` algorithms and the core
  value layer).  Exactness is what makes convergence checks and
  fingerprints equality-based rather than tolerance-based.
* **D005** — no ``id()``-based ordering.  CPython ``id`` values are
  allocation addresses: sorting by them is nondeterministic across runs
  by construction.

Scopes encode the repo's layering; tests instantiate the rules with
``include=()`` to exercise them on fixture files anywhere.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .core import ModuleInfo, Rule, dotted_name

__all__ = [
    "D001GlobalRandom",
    "D002UnorderedIteration",
    "D003WallClock",
    "D004FloatInExactPath",
    "D005IdOrdering",
    "determinism_rules",
]

#: Module-level :mod:`random` functions that draw from the hidden global
#: generator.  ``Random`` / ``SystemRandom`` / ``getstate`` etc. are not
#: draws and stay allowed.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: Callees that consume an iterable without caring about its order.
ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {
        "all",
        "any",
        "bool",
        "frozenset",
        "len",
        "max",
        "min",
        "Multiset",
        "set",
        "sorted",
        "sum",
    }
)

#: Callees whose result order mirrors the argument's iteration order.
ORDER_PRESERVING_CONSUMERS = frozenset({"enumerate", "list", "reversed", "tuple"})

#: Wall-clock reads, by canonical dotted path.
WALL_CLOCK_CALLS = frozenset(
    {
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
    }
)


@dataclass
class D001GlobalRandom(Rule):
    """Calls into the process-global random generator."""

    rule_id: str = "D001"
    title: str = "global random generator"
    # The benchmarks are presentation-layer code whose draws never feed
    # engine state.
    exclude: tuple[str, ...] = ("benchmarks/",)

    def check_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").lstrip(
                "."
            ) == "random":
                for alias in node.names:
                    if alias.name in GLOBAL_RANDOM_FUNCTIONS:
                        self.report(
                            module,
                            node,
                            f"'from random import {alias.name}' imports a "
                            "global-generator draw; use a seeded "
                            "random.Random instance instead",
                        )
            if not isinstance(node, ast.Call):
                continue
            callee = module.resolve_call(node)
            if callee is None:
                continue
            head, _, tail = callee.partition(".")
            if head == "random" and tail in GLOBAL_RANDOM_FUNCTIONS:
                self.report(
                    module,
                    node,
                    f"call to the global generator random.{tail}(); draw from "
                    "a seeded random.Random instance threaded to this code",
                )
            elif callee == "random.Random" and self._unseeded(node):
                self.report(
                    module,
                    node,
                    "random.Random() without a seed draws its state from OS "
                    "entropy; pass an explicit seed",
                )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if node.keywords:
            return False
        if not node.args:
            return True
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None


def _is_set_display(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp))


class _SetTyped:
    """Conservative, scope-local inference of set-typed expressions."""

    #: set-returning methods of set objects.
    SET_METHODS = frozenset(
        {"copy", "difference", "intersection", "symmetric_difference", "union"}
    )

    def __init__(self, module: ModuleInfo, scope: ast.AST):
        self.module = module
        # Names are set-typed when *every* assignment to them in this
        # scope is a set-typed expression (reassignment to anything else
        # voids the inference — better silent than wrong).
        assignments: dict[str, list[ast.AST]] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignments.setdefault(target.id, []).append(node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, (ast.AugAssign, ast.For)) and isinstance(
                getattr(node, "target", None), ast.Name
            ):
                # loop targets / augmented assignments: unknown type.
                assignments.setdefault(node.target.id, []).append(ast.Constant(0))
        self.set_names = {
            name
            for name, values in assignments.items()
            if values and all(self._is_set_expression(value, set()) for value in values)
        }

    def is_set(self, node: ast.AST) -> bool:
        return self._is_set_expression(node, self.set_names)

    def _is_set_expression(self, node: ast.AST, set_names: set[str]) -> bool:
        if _is_set_display(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self.SET_METHODS
                and self._is_set_expression(node.func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expression(node.left, set_names) or (
                isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.BitXor))
                and self._is_set_expression(node.right, set_names)
            )
        return False


@dataclass
class D002UnorderedIteration(Rule):
    """Order-sensitive iteration over sets in engine paths."""

    rule_id: str = "D002"
    title: str = "unordered iteration"
    include: tuple[str, ...] = ("src/repro/",)

    def check_module(self, module: ModuleInfo) -> None:
        scopes = [module.tree] + [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        ]
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            inference = _SetTyped(module, scope)
            for node in ast.walk(scope):
                for iterated in self._order_sensitive_iterations(module, node, inference):
                    key = (iterated.lineno, iterated.col_offset)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.report(
                        module,
                        iterated,
                        "iterating a set in an order-sensitive position; "
                        "wrap it in sorted() (or consume it "
                        "order-insensitively) so results cannot depend on "
                        "hash order",
                    )

    def _order_sensitive_iterations(self, module, node, inference):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if inference.is_set(node.iter):
                yield node.iter
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for comp in node.generators:
                if inference.is_set(comp.iter) and not self._feeds_order_insensitive(
                    module, node
                ):
                    yield comp.iter
        elif isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee in ORDER_PRESERVING_CONSUMERS:
                for arg in node.args:
                    if inference.is_set(arg) and not self._feeds_order_insensitive(
                        module, node
                    ):
                        yield arg
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and node.args
                and inference.is_set(node.args[0])
            ):
                yield node.args[0]

    @staticmethod
    def _feeds_order_insensitive(module: ModuleInfo, node: ast.AST) -> bool:
        """True when the produced sequence is immediately consumed by an
        order-insensitive callee (``sorted(list(s))`` is deterministic)."""
        parent = module.parent(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            return dotted_name(parent.func) in (
                ORDER_INSENSITIVE_CONSUMERS | {"Counter"}
            )
        return False


@dataclass
class D003WallClock(Rule):
    """Wall-clock reads in engine / probe / checkpoint paths."""

    rule_id: str = "D003"
    title: str = "wall-clock read"
    include: tuple[str, ...] = (
        "src/repro/agents/",
        "src/repro/algorithms/",
        "src/repro/core/",
        "src/repro/environment/",
        "src/repro/geometry/",
        "src/repro/simulation/",
        "src/repro/temporal/",
    )

    def check_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = module.resolve_call(node)
            if callee in WALL_CLOCK_CALLS:
                self.report(
                    module,
                    node,
                    f"wall-clock read {callee}() in a deterministic path; a "
                    "checkpointed replay would observe a different clock — "
                    "derive timing from the round index or move the read to "
                    "the presentation layer",
                )


#: Keyword arguments that are float-typed *by the objective layer's
#: contract* (``ObjectiveFunction.lower_bound``/``minimum_decrease`` are
#: declared floats; integer-valued floats below 2**53 compare exactly).
#: A float literal passed under these names is not an exactness leak.
OBJECTIVE_FLOAT_KEYWORDS = frozenset({"lower_bound", "minimum_decrease"})


@dataclass
class D004FloatInExactPath(Rule):
    """Float literals / coercions in the exact-``Fraction`` paths."""

    rule_id: str = "D004"
    title: str = "float in exact path"
    # Only the exact-arithmetic core is listed.  The array engine
    # (src/repro/simulation/array_engine.py) stays outside this scope on
    # purpose: its numpy kernels are integer-only by construction
    # (the int64-range proofs in _refusal run at construction), and its
    # cross-check compares every round value-for-value against the
    # algorithm's own step rule, the component walk, the environment's
    # public advance and a from-scratch objective and multiset, which is
    # a stronger guarantee than this syntactic rule provides.
    include: tuple[str, ...] = (
        "src/repro/algorithms/average.py",
        "src/repro/algorithms/kth_smallest.py",
        "src/repro/algorithms/maximum.py",
        "src/repro/algorithms/minimum.py",
        "src/repro/algorithms/second_smallest.py",
        "src/repro/algorithms/summation.py",
        "src/repro/core/functions.py",
        "src/repro/core/multiset.py",
        "src/repro/core/relation.py",
    )

    def check_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if node in module.annotation_nodes:
                continue
            if isinstance(node, ast.Constant) and type(node.value) is float:
                parent = module.parent(node)
                if (
                    isinstance(parent, ast.keyword)
                    and parent.arg in OBJECTIVE_FLOAT_KEYWORDS
                ):
                    continue
                self.report(
                    module,
                    node,
                    f"float literal {node.value!r} in an exact-arithmetic "
                    "path; use int or fractions.Fraction so conservation "
                    "stays equality-exact",
                )
            elif isinstance(node, ast.Call) and dotted_name(node.func) == "float":
                self.report(
                    module,
                    node,
                    "float() coercion in an exact-arithmetic path; keep "
                    "values as int or fractions.Fraction",
                )


@dataclass
class D005IdOrdering(Rule):
    """Ordering decisions keyed on ``id()``."""

    rule_id: str = "D005"
    title: str = "id()-based ordering"
    include: tuple[str, ...] = ("src/repro/",)

    ORDERING_CALLS = frozenset({"max", "min", "sorted"})

    def check_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                is_sort = callee in self.ORDERING_CALLS or (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
                )
                if is_sort:
                    for keyword in node.keywords:
                        if keyword.arg == "key" and self._mentions_id(keyword.value):
                            self.report(
                                module,
                                keyword.value,
                                "sort key uses id(): object addresses are "
                                "nondeterministic across processes — order "
                                "by a stable attribute instead",
                            )
                if callee == "map" and node.args and self._mentions_id(node.args[0]):
                    parent = module.parent(node)
                    if (
                        isinstance(parent, ast.Call)
                        and dotted_name(parent.func) in self.ORDERING_CALLS
                    ):
                        self.report(
                            module,
                            node,
                            "ordering by mapped id() values is "
                            "nondeterministic across processes",
                        )
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)) for op in node.ops
            ):
                for operand in [node.left, *node.comparators]:
                    if (
                        isinstance(operand, ast.Call)
                        and dotted_name(operand.func) == "id"
                    ):
                        self.report(
                            module,
                            operand,
                            "comparing id() values orders by allocation "
                            "address; compare stable identities instead",
                        )

    @staticmethod
    def _mentions_id(node: ast.AST) -> bool:
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        return any(
            isinstance(sub, ast.Call) and dotted_name(sub.func) == "id"
            for sub in ast.walk(node)
        )


def determinism_rules() -> list[Rule]:
    """The default-scoped determinism rule set."""
    return [
        D001GlobalRandom(),
        D002UnorderedIteration(),
        D003WallClock(),
        D004FloatInExactPath(),
        D005IdOrdering(),
    ]
