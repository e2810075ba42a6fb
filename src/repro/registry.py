"""Decorator-based registries for strategies and experiments.

Strategies and experiments self-register at import time::

    from repro.registry import register_strategy

    @register_strategy("my_strategy", description="what it does")
    class MyStrategy(Strategy):
        ...

Built-in entries are *lazy*: the registry knows which module provides each
built-in name and imports it on first lookup, so ``available_strategies()``
and CLI argument parsing stay cheap.  Registering a new strategy or
experiment requires no change to :mod:`repro.api` or
:mod:`repro.cli` — the CLI, :class:`repro.api.Session` and ``repro list``
all read from these registries.

Public helpers:

* :func:`register_strategy` / :func:`register_experiment` /
  :func:`register_recovery` / :func:`register_backend` /
  :func:`register_submitter` / :func:`register_arrival` /
  :func:`register_admission` / :func:`register_rule` — decorators.
* :func:`get_strategy` / :func:`get_experiment` / :func:`get_recovery` /
  :func:`get_backend` / :func:`get_submitter` / :func:`get_arrival` /
  :func:`get_admission` — name
  -> entry lookup (experiments also accept their module-basename aliases,
  e.g. ``fig09_scalability`` for ``fig9``).
* ``available_*`` — sorted names; ``*_entries`` — full metadata.
* ``unregister_*`` — removal (primarily for tests registering throwaway
  entries).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping


class RegistryError(Exception):
    """Base class for registry failures."""


class DuplicateEntryError(RegistryError, ValueError):
    """A name was registered twice."""


class UnknownEntryError(RegistryError, ValueError, KeyError):
    """A name was looked up that no entry (eager or lazy) provides.

    Subclasses both :class:`ValueError` and :class:`KeyError` so callers
    catching either (``Session.strategy`` lookups raise ``ValueError``,
    ``get_model`` raises ``KeyError``) keep working unchanged.
    """

    def __str__(self) -> str:  # KeyError quotes its message; undo that.
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered strategy or experiment.

    Attributes
    ----------
    name:
        Registry key (lower-case short name, e.g. ``"te_cp"`` or ``"fig11"``).
    obj:
        The registered object: a :class:`~repro.core.strategy.Strategy`
        subclass for strategies, a zero-argument ``run()`` callable returning
        an :class:`~repro.experiments.common.ExperimentResult` for experiments.
    description:
        One-line human description shown by ``repro list``.
    module:
        Dotted module path the entry was registered from.
    metadata:
        Free-form extra metadata passed to the decorator.
    """

    name: str
    obj: Any
    description: str
    module: str
    metadata: Mapping[str, Any] = field(default_factory=dict)


def _first_doc_line(obj: Any) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.splitlines():
        line = line.strip()
        if line:
            return line
    return ""


class Registry:
    """A named mapping from short names to :class:`RegistryEntry`.

    ``lazy_modules`` maps names to the dotted module that registers them when
    imported; lookups and listings resolve these hints on demand.
    """

    def __init__(self, kind: str, lazy_modules: Mapping[str, str] | None = None):
        self.kind = kind
        self._entries: dict[str, RegistryEntry] = {}
        self._lazy_modules: dict[str, str] = dict(lazy_modules or {})

    # -- registration -----------------------------------------------------------

    def register(
        self,
        name: str,
        obj: Any,
        *,
        description: str | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> RegistryEntry:
        """Register ``obj`` under ``name``; duplicate names raise.

        A collision with a lazily-known built-in counts as a duplicate, unless
        it is that built-in's providing module registering itself.
        """
        key = name.lower()
        provider = self._lazy_modules.get(key)
        registrant = getattr(obj, "__module__", "")
        if key in self._entries or (provider is not None and provider != registrant):
            existing = self._entries.get(key)
            owner = existing.module if existing is not None else provider
            raise DuplicateEntryError(
                f"{self.kind} {name!r} is already registered by {owner}"
            )
        entry = RegistryEntry(
            name=key,
            obj=obj,
            description=description if description is not None else _first_doc_line(obj),
            module=getattr(obj, "__module__", ""),
            metadata=dict(metadata or {}),
        )
        self._entries[key] = entry
        return entry

    def decorator(
        self, name: str, *, description: str | None = None, **metadata: Any
    ) -> Callable[[Any], Any]:
        """Decorator form of :meth:`register`; returns the object unchanged."""

        def _register(obj: Any) -> Any:
            self.register(name, obj, description=description, metadata=metadata)
            return obj

        return _register

    def unregister(self, name: str) -> None:
        """Remove an entry (and any lazy hint) by name."""
        key = name.lower()
        found = self._entries.pop(key, None) is not None
        found = self._lazy_modules.pop(key, None) is not None or found
        if not found:
            raise UnknownEntryError(f"unknown {self.kind} {name!r}; nothing to unregister")

    # -- lookup -----------------------------------------------------------------

    def get(self, name: str) -> RegistryEntry:
        """Look up an entry, importing its providing module if needed."""
        key = name.lower()
        if key not in self._entries and key in self._lazy_modules:
            importlib.import_module(self._lazy_modules[key])
        if key not in self._entries:
            available = ", ".join(self.names()) or "<none>"
            raise UnknownEntryError(
                f"unknown {self.kind} {name!r}; available: {available}"
            )
        return self._entries[key]

    def names(self) -> tuple[str, ...]:
        """Sorted names of every entry, registered or lazily known."""
        return tuple(sorted(set(self._entries) | set(self._lazy_modules)))

    def entries(self) -> tuple[RegistryEntry, ...]:
        """Every entry with metadata, resolving all lazy modules."""
        return tuple(self.get(name) for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries or name.lower() in self._lazy_modules

    def __len__(self) -> int:
        return len(self.names())


# Built-in strategy name -> providing module.  Imported on first lookup; each
# module's ``@register_strategy`` decorator performs the actual registration.
_BUILTIN_STRATEGY_MODULES = {
    "te_cp": "repro.baselines.te_cp",
    "llama_cp": "repro.baselines.llama_cp",
    "hybrid_dp": "repro.baselines.hybrid_dp",
    "packing": "repro.baselines.packing",
    "zeppelin": "repro.core.zeppelin",
}

# Built-in experiment name -> providing module (one per paper figure/table).
_BUILTIN_EXPERIMENT_MODULES = {
    "fig1": "repro.experiments.fig01_length_distributions",
    "fig3": "repro.experiments.fig03_attention_cost_breakdown",
    "fig5": "repro.experiments.fig05_zone_boundaries",
    "fig8": "repro.experiments.fig08_end_to_end",
    "fig9": "repro.experiments.fig09_scalability",
    "fig10": "repro.experiments.fig10_cluster_comparison",
    "fig11": "repro.experiments.fig11_ablation",
    "fig12": "repro.experiments.fig12_timeline",
    "fig13_resilience": "repro.experiments.fig13_resilience",
    "fig14_serving": "repro.experiments.fig14_serving",
    "table2": "repro.experiments.table2_dataset_distributions",
    "table3": "repro.experiments.table3_cost_distribution",
}

# Built-in recovery policy name -> providing module (repro.dynamics).
_BUILTIN_RECOVERY_MODULES = {
    "checkpoint_restart": "repro.dynamics.recovery",
    "elastic": "repro.dynamics.recovery",
}

# Built-in sweep execution backend name -> providing module (repro.exec).
_BUILTIN_BACKEND_MODULES = {
    "serial": "repro.exec.backends",
    "process": "repro.exec.backends",
    "cluster": "repro.exec.cluster.backend",
}

# Built-in batch-system submitter name -> providing module (repro.exec.cluster).
_BUILTIN_SUBMITTER_MODULES = {
    "slurm": "repro.exec.cluster.submitters",
    "sge": "repro.exec.cluster.submitters",
    "fake": "repro.exec.cluster.submitters",
    "pbs": "repro.exec.cluster.pbs",
}

# Built-in serving arrival process name -> providing module (repro.serve).
_BUILTIN_ARRIVAL_MODULES = {
    "poisson": "repro.serve.arrivals",
    "trace": "repro.serve.arrivals",
    "closed": "repro.serve.arrivals",
}

# Built-in serving admission policy name -> providing module (repro.serve).
_BUILTIN_ADMISSION_MODULES = {
    "fifo": "repro.serve.queue",
    "priority": "repro.serve.queue",
    "slo_aware": "repro.serve.queue",
}

# Built-in serving autoscale policy name -> providing module (repro.serve).
_BUILTIN_SCALE_MODULES = {
    "queue_depth": "repro.serve.scale",
}

# Built-in static-analysis rule id -> providing module (repro.analysis).
# Rule R001 checks this very table against the @register_rule sites, so the
# analyzer keeps itself honest too.
_BUILTIN_RULE_MODULES = {
    "d001": "repro.analysis.rules_determinism",
    "d002": "repro.analysis.rules_determinism",
    "d003": "repro.analysis.rules_determinism",
    "r001": "repro.analysis.rules_registry",
    "e001": "repro.analysis.rules_events",
    "s001": "repro.analysis.rules_results",
}

# Long-form aliases (the experiment module basenames) accepted anywhere an
# experiment name is, e.g. ``repro experiment fig09_scalability``.
_EXPERIMENT_ALIASES = {
    "fig01_length_distributions": "fig1",
    "fig03_attention_cost_breakdown": "fig3",
    "fig05_zone_boundaries": "fig5",
    "fig08_end_to_end": "fig8",
    "fig09_scalability": "fig9",
    "fig10_cluster_comparison": "fig10",
    "fig11_ablation": "fig11",
    "fig12_timeline": "fig12",
    "table2_dataset_distributions": "table2",
    "table3_cost_distribution": "table3",
}

STRATEGIES = Registry("strategy", _BUILTIN_STRATEGY_MODULES)
EXPERIMENTS = Registry("experiment", _BUILTIN_EXPERIMENT_MODULES)
RECOVERIES = Registry("recovery policy", _BUILTIN_RECOVERY_MODULES)
BACKENDS = Registry("execution backend", _BUILTIN_BACKEND_MODULES)
SUBMITTERS = Registry("batch submitter", _BUILTIN_SUBMITTER_MODULES)
ARRIVALS = Registry("arrival process", _BUILTIN_ARRIVAL_MODULES)
ADMISSIONS = Registry("admission policy", _BUILTIN_ADMISSION_MODULES)
SCALES = Registry("scale policy", _BUILTIN_SCALE_MODULES)
RULES = Registry("analysis rule", _BUILTIN_RULE_MODULES)


def register_strategy(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a :class:`Strategy` subclass by short name."""
    return STRATEGIES.decorator(name, description=description, **metadata)


def register_experiment(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Decorator registering an experiment ``run()`` callable by short name."""
    return EXPERIMENTS.decorator(name, description=description, **metadata)


def get_strategy(name: str) -> RegistryEntry:
    return STRATEGIES.get(name)


def resolve_experiment_name(name: str) -> str:
    """Canonical registry key for an experiment name or long-form alias."""
    return _EXPERIMENT_ALIASES.get(name.lower(), name)


def experiment_aliases() -> Mapping[str, str]:
    """Long-form alias -> canonical experiment name."""
    return dict(_EXPERIMENT_ALIASES)


def get_experiment(name: str) -> RegistryEntry:
    return EXPERIMENTS.get(resolve_experiment_name(name))


def available_strategies() -> tuple[str, ...]:
    return STRATEGIES.names()


def available_experiments() -> tuple[str, ...]:
    return EXPERIMENTS.names()


def strategy_entries() -> tuple[RegistryEntry, ...]:
    return STRATEGIES.entries()


def experiment_entries() -> tuple[RegistryEntry, ...]:
    return EXPERIMENTS.entries()


def register_recovery(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a recovery policy by short name."""
    return RECOVERIES.decorator(name, description=description, **metadata)


def get_recovery(name: str) -> RegistryEntry:
    return RECOVERIES.get(name)


def available_recoveries() -> tuple[str, ...]:
    return RECOVERIES.names()


def recovery_entries() -> tuple[RegistryEntry, ...]:
    return RECOVERIES.entries()


def register_backend(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a sweep execution backend by short name."""
    return BACKENDS.decorator(name, description=description, **metadata)


def get_backend(name: str) -> RegistryEntry:
    return BACKENDS.get(name)


def available_backends() -> tuple[str, ...]:
    return BACKENDS.names()


def backend_entries() -> tuple[RegistryEntry, ...]:
    return BACKENDS.entries()


def unregister_backend(name: str) -> None:
    BACKENDS.unregister(name)


def register_submitter(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a batch-system submitter by short name."""
    return SUBMITTERS.decorator(name, description=description, **metadata)


def get_submitter(name: str) -> RegistryEntry:
    return SUBMITTERS.get(name)


def available_submitters() -> tuple[str, ...]:
    return SUBMITTERS.names()


def submitter_entries() -> tuple[RegistryEntry, ...]:
    return SUBMITTERS.entries()


def unregister_submitter(name: str) -> None:
    SUBMITTERS.unregister(name)


def register_arrival(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a serving arrival process by short name."""
    return ARRIVALS.decorator(name, description=description, **metadata)


def get_arrival(name: str) -> RegistryEntry:
    return ARRIVALS.get(name)


def available_arrivals() -> tuple[str, ...]:
    return ARRIVALS.names()


def arrival_entries() -> tuple[RegistryEntry, ...]:
    return ARRIVALS.entries()


def unregister_arrival(name: str) -> None:
    ARRIVALS.unregister(name)


def register_admission(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a serving admission policy by short name."""
    return ADMISSIONS.decorator(name, description=description, **metadata)


def get_admission(name: str) -> RegistryEntry:
    return ADMISSIONS.get(name)


def available_admissions() -> tuple[str, ...]:
    return ADMISSIONS.names()


def admission_entries() -> tuple[RegistryEntry, ...]:
    return ADMISSIONS.entries()


def unregister_admission(name: str) -> None:
    ADMISSIONS.unregister(name)


def register_scale(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a serving autoscale policy by short name."""
    return SCALES.decorator(name, description=description, **metadata)


def get_scale(name: str) -> RegistryEntry:
    return SCALES.get(name)


def available_scales() -> tuple[str, ...]:
    return SCALES.names()


def scale_entries() -> tuple[RegistryEntry, ...]:
    return SCALES.entries()


def unregister_scale(name: str) -> None:
    SCALES.unregister(name)


def register_rule(
    name: str, *, description: str | None = None, **metadata: Any
) -> Callable[[Any], Any]:
    """Class decorator registering a static-analysis rule by id (e.g. d001)."""
    return RULES.decorator(name, description=description, **metadata)


def get_rule(name: str) -> RegistryEntry:
    return RULES.get(name)


def available_rules() -> tuple[str, ...]:
    return RULES.names()


def rule_entries() -> tuple[RegistryEntry, ...]:
    return RULES.entries()


def unregister_rule(name: str) -> None:
    RULES.unregister(name)


def unregister_strategy(name: str) -> None:
    STRATEGIES.unregister(name)


def unregister_experiment(name: str) -> None:
    EXPERIMENTS.unregister(name)


def unregister_recovery(name: str) -> None:
    RECOVERIES.unregister(name)


def iter_experiment_modules() -> Iterable[tuple[str, str]]:
    """(name, module) pairs of the built-in experiments, without importing."""
    return tuple(sorted(_BUILTIN_EXPERIMENT_MODULES.items()))
