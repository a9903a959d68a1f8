"""String-keyed registries: the naming layer of the declarative experiment API.

Experiments become *data* (see :mod:`repro.experiment`) only if every
building block — algorithm, environment, scheduler, topology graph, value
generator — can be named by a string and rebuilt from that name plus a
dictionary of parameters.  This module provides the registries that do the
naming, and the decorators the concrete modules use to register themselves::

    from repro.registry import register_algorithm

    @register_algorithm("minimum")
    def minimum_algorithm(partial: bool = False) -> SelfSimilarAlgorithm:
        ...

Every registry supports :meth:`Registry.build` (instantiate by name with
keyword parameters, with helpful errors on unknown names or bad
parameters) and :meth:`Registry.available` (sorted names, for
introspection, CLI listings and error messages).

The registries themselves never import the modules that populate them, so
there are no circular imports; :mod:`repro.experiment` imports the
concrete packages to guarantee registration has happened before specs are
validated.

Two small hooks make *instance-bound* algorithms (§4.4, §4.5 of the paper:
sorting, hulls — algorithms whose factory needs the concrete problem
instance) fit the same declarative mold:

* ``prepare(params, values)`` maps the spec's algorithm parameters plus
  the resolved initial values to the final factory keyword arguments
  (e.g. ``maximum`` derives its ``upper_bound`` from the values, and
  ``sorting`` receives the values themselves);
* ``adapt_values(algorithm, values)`` maps the resolved values to the
  per-agent initial inputs the simulator needs (e.g. sorting turns values
  into ``(index, value)`` cells via the built algorithm's
  ``instance_cells``).
"""

from __future__ import annotations

import importlib
import inspect
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from .core.errors import SpecificationError

__all__ = [
    "Registry",
    "RegistryEntry",
    "ALGORITHMS",
    "ENVIRONMENTS",
    "SCHEDULERS",
    "GRAPHS",
    "VALUE_GENERATORS",
    "PROBES",
    "ENGINES",
    "register_algorithm",
    "register_environment",
    "register_scheduler",
    "register_graph",
    "register_value_generator",
    "register_probe",
    "register_engine",
    "available",
    "load_plugins",
    "PLUGIN_GROUP",
    "PLUGIN_ENV_VAR",
]


@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory plus the metadata the experiment layer uses."""

    name: str
    factory: Callable[..., Any]
    #: Optional hook ``(params, values) -> params`` producing the final
    #: factory kwargs from the spec parameters and the resolved values.
    prepare: Callable[[dict, list], dict] | None = None
    #: Optional hook ``(built_object, values) -> values`` producing the
    #: simulator's per-agent initial inputs.
    adapt_values: Callable[[Any, list], list] | None = None
    #: Free-form metadata (documentation tags, defaults, ...).
    meta: Mapping[str, Any] = field(default_factory=dict)

    @property
    def summary(self) -> str:
        """First line of the factory's docstring (for ``repro list``)."""
        doc = inspect.getdoc(self.factory) or ""
        return doc.splitlines()[0] if doc else ""


class Registry:
    """A string-keyed registry of factories of one kind of building block."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}

    # -- registration ----------------------------------------------------------

    def register(
        self,
        name: str,
        *,
        prepare: Callable[[dict, list], dict] | None = None,
        adapt_values: Callable[[Any, list], list] | None = None,
        **meta: Any,
    ) -> Callable[[Callable], Callable]:
        """Return a decorator registering its target under ``name``.

        The decorated factory (function or class) is returned unchanged,
        so registration never alters call sites that import it directly.
        """
        if not name or not isinstance(name, str):
            raise SpecificationError(f"{self.kind} registry needs a non-empty string name")

        def decorator(factory: Callable) -> Callable:
            if name in self._entries:
                raise SpecificationError(
                    f"duplicate {self.kind} registration for {name!r} "
                    f"({self._entries[name].factory!r} vs {factory!r})"
                )
            self._entries[name] = RegistryEntry(
                name=name,
                factory=factory,
                prepare=prepare,
                adapt_values=adapt_values,
                meta=dict(meta),
            )
            return factory

        return decorator

    # -- lookup ----------------------------------------------------------------

    def available(self) -> list[str]:
        """Sorted names of everything registered."""
        return sorted(self._entries)

    def items(self) -> list[tuple[str, RegistryEntry]]:
        """Sorted ``(name, entry)`` pairs — full introspection of the
        registry's contents (used by ``repro list`` tooling and the
        static analyzer's registry-aware rules)."""
        return sorted(self._entries.items())

    def source_of(self, name: str) -> tuple[str, int] | None:
        """``(file, line)`` where the factory registered under ``name`` is
        defined, or None when the source is unavailable (C extensions,
        interactively defined factories)."""
        factory = self.entry(name).factory
        try:
            return (
                inspect.getsourcefile(factory) or "",
                inspect.getsourcelines(factory)[1],
            )
        except (OSError, TypeError):
            return None

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, name: str) -> RegistryEntry:
        """Return the entry registered under ``name`` (with a helpful error)."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.available()) or "(none registered)"
            raise SpecificationError(
                f"unknown {self.kind} {name!r}; available: {known}"
            ) from None

    def get(self, name: str) -> Callable:
        """Return the raw registered factory."""
        return self.entry(name).factory

    def build(self, name: str, **params: Any) -> Any:
        """Instantiate the factory registered under ``name``.

        Parameter errors (unknown keyword, missing required argument, a
        value the factory rejects) are reported as
        :class:`SpecificationError` naming the offending registry entry, so
        a bad JSON spec fails with a readable message instead of a bare
        ``TypeError`` or ``ValueError``.
        """
        entry = self.entry(name)
        try:
            return entry.factory(**params)
        except (TypeError, ValueError) as error:
            raise SpecificationError(
                f"cannot build {self.kind} {name!r} with parameters "
                f"{params!r}: {error}"
            ) from error

    def signature(self, name: str) -> inspect.Signature:
        """The factory's signature (used to inject seeds, for introspection)."""
        return inspect.signature(self.entry(name).factory)

    def accepts(self, name: str, parameter: str) -> bool:
        """True when the factory accepts ``parameter`` as a keyword."""
        signature = self.signature(name)
        if parameter in signature.parameters:
            return True
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in signature.parameters.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {len(self)} entries)"


#: The paper's self-similar algorithms, keyed by CLI/spec name.
ALGORITHMS = Registry("algorithm")
#: Environment models (static, churn, adversaries, mobility, dynamics).
ENVIRONMENTS = Registry("environment")
#: Group schedulers.
SCHEDULERS = Registry("scheduler")
#: Fixed communication topology constructors.
GRAPHS = Registry("graph")
#: Named generators of initial-value instances.
VALUE_GENERATORS = Registry("value generator")
#: Observation probes attachable to any engine run
#: (see :mod:`repro.simulation.probes`).
PROBES = Registry("probe")
#: Execution engines: :class:`repro.simulation.Engine` subclasses
#: ("reference" = the byte-identical object-per-agent Simulator,
#: "array" = the struct-of-arrays vectorized engine).
ENGINES = Registry("engine")

register_algorithm = ALGORITHMS.register
register_environment = ENVIRONMENTS.register
register_scheduler = SCHEDULERS.register
register_graph = GRAPHS.register
register_value_generator = VALUE_GENERATORS.register
register_probe = PROBES.register
register_engine = ENGINES.register


def available() -> dict[str, list[str]]:
    """Everything registered, per kind — the single introspection entry point."""
    return {
        "algorithms": ALGORITHMS.available(),
        "environments": ENVIRONMENTS.available(),
        "schedulers": SCHEDULERS.available(),
        "graphs": GRAPHS.available(),
        "value_generators": VALUE_GENERATORS.available(),
        "probes": PROBES.available(),
        "engines": ENGINES.available(),
    }


# -- third-party plugin discovery ------------------------------------------------

#: Entry-point group external packages register their plugin modules under.
PLUGIN_GROUP = "repro.plugins"

#: Environment variable naming extra plugin modules (comma-separated
#: importable module names) — the offline-friendly path: no packaging
#: metadata needed, just a module on ``sys.path``.
PLUGIN_ENV_VAR = "REPRO_PLUGINS"

#: Plugin sources already loaded this process (idempotence guard: the
#: ``@register_*`` decorators reject duplicate names, so a plugin module
#: must take effect exactly once however many times discovery runs).
_LOADED_PLUGINS: set[str] = set()


def load_plugins(
    group: str = PLUGIN_GROUP, env_var: str | None = PLUGIN_ENV_VAR
) -> list[str]:
    """Discover and import third-party plugin modules.

    The chirp ``directory.register`` idiom: an external package makes its
    algorithms, environments, schedulers, graphs, value generators and
    probes spec-addressable simply by *importing* — its module body applies
    the ``@register_*`` decorators, exactly like the built-in packages do.
    Two discovery channels feed this loader:

    * entry points in the ``repro.plugins`` group (standard packaging
      metadata — ``[project.entry-points."repro.plugins"]`` in a
      plugin's ``pyproject.toml``);
    * the ``REPRO_PLUGINS`` environment variable, a comma-separated list
      of importable module names, for plugins that are just a file on
      ``sys.path`` (no installation step, works offline).

    Loading is idempotent per process; a plugin that fails to import or
    registers a duplicate name raises :class:`SpecificationError` naming
    the offending source.  Returns the sources newly loaded by this call.
    """
    loaded: list[str] = []

    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        entry_points = None
    if entry_points is not None:
        try:
            found = entry_points(group=group)
        except TypeError:  # pragma: no cover - pre-3.10 selection API
            found = entry_points().get(group, ())
        for point in found:
            key = f"entry-point:{point.name}"
            if key in _LOADED_PLUGINS:
                continue
            try:
                point.load()
            except SpecificationError:
                raise
            except Exception as error:
                raise SpecificationError(
                    f"cannot load repro plugin entry point {point.name!r} "
                    f"({point.value}): {error}"
                ) from error
            _LOADED_PLUGINS.add(key)
            loaded.append(key)

    names = os.environ.get(env_var, "") if env_var else ""
    for name in (part.strip() for part in names.split(",")):
        if not name:
            continue
        key = f"module:{name}"
        if key in _LOADED_PLUGINS:
            continue
        try:
            importlib.import_module(name)
        except SpecificationError:
            raise
        except Exception as error:
            raise SpecificationError(
                f"cannot import repro plugin module {name!r} "
                f"(from ${env_var}): {error}"
            ) from error
        _LOADED_PLUGINS.add(key)
        loaded.append(key)
    return loaded


def values_adapter(attribute: str) -> Callable[[Any, Sequence], list]:
    """Build an ``adapt_values`` hook reading instance inputs off the built
    algorithm (``instance_cells`` for sorting, ``instance_blocks`` for
    block sorting)."""

    def adapt(algorithm: Any, values: Sequence) -> list:
        return list(getattr(algorithm, attribute))

    return adapt
