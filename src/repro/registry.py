"""Decorator-based registries: one :class:`Registry` per plug-in kind.

Strategies, experiments and every other plug-in self-register at import
time::

    from repro.registry import STRATEGIES

    @STRATEGIES.register("my_strategy", description="what it does")
    class MyStrategy(Strategy):
        ...

Built-in entries are *lazy*: each registry knows which module provides each
built-in name (its ``_BUILTIN_*_MODULES`` table) and imports it on first
lookup, so ``STRATEGIES.names()`` and CLI argument parsing stay cheap.
Registering a new entry requires no change to :mod:`repro.api` or
:mod:`repro.cli` — the CLI, :class:`repro.api.Session` and ``repro list``
all read from these registries.

The nine registries are :data:`STRATEGIES`, :data:`EXPERIMENTS`,
:data:`RECOVERIES`, :data:`BACKENDS`, :data:`SUBMITTERS`, :data:`ARRIVALS`,
:data:`ADMISSIONS`, :data:`SCALES` and :data:`RULES`.  Each offers
``register(name, description=...)`` (the decorator), ``get(name)`` (name ->
:class:`RegistryEntry`), ``names()`` (sorted), ``entries()`` (every entry,
resolved) and ``unregister(name)`` (mostly for tests registering throwaway
entries).  :data:`EXPERIMENTS` also accepts each experiment's module
basename, e.g. ``fig09_scalability`` for ``fig9``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping


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
    """One registered plug-in.

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
    """

    name: str
    obj: Any
    description: str
    module: str


class Registry:
    """A named mapping from short names to :class:`RegistryEntry`.

    ``lazy_modules`` maps names to the dotted module that registers them when
    imported; lookups and listings resolve these hints on demand.
    ``aliases`` maps extra lookup names to canonical ones: :meth:`get`
    accepts them, :meth:`names` does not list them.
    """

    def __init__(
        self,
        kind: str,
        lazy_modules: Mapping[str, str] | None = None,
        aliases: Mapping[str, str] | None = None,
    ):
        self.kind = kind
        self.aliases: dict[str, str] = dict(aliases or {})
        self._entries: dict[str, RegistryEntry] = {}
        self._lazy_modules: dict[str, str] = dict(lazy_modules or {})

    # -- registration -----------------------------------------------------------

    def register(
        self, name: str, *, description: str | None = None
    ) -> Callable[[Any], Any]:
        """Decorator registering an object under ``name``; returns it unchanged.

        ``description`` defaults to the first line of the object's docstring.
        Duplicate names raise.  A collision with a lazily-known built-in
        counts as a duplicate, unless it is that built-in's providing module
        registering itself.
        """
        key = name.lower()

        def _register(obj: Any) -> Any:
            provider = self._lazy_modules.get(key)
            module = getattr(obj, "__module__", "")
            if key in self._entries or (provider is not None and provider != module):
                existing = self._entries.get(key)
                owner = existing.module if existing is not None else provider
                raise DuplicateEntryError(
                    f"{self.kind} {name!r} is already registered by {owner}"
                )
            summary = description
            if summary is None:
                doc = (getattr(obj, "__doc__", None) or "").strip()
                summary = doc.splitlines()[0].strip() if doc else ""
            self._entries[key] = RegistryEntry(key, obj, summary, module)
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
        """Look up an entry by name or alias, importing its module if needed."""
        key = name.lower()
        key = self.aliases.get(key, key)
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
        """Every entry, resolving all lazy modules."""
        return tuple(self.get(name) for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries or name.lower() in self._lazy_modules

    def __len__(self) -> int:
        return len(self.names())


# Built-in strategy name -> providing module.  Imported on first lookup; each
# module's ``@STRATEGIES.register`` decorator performs the actual registration.
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
# Rule R001 checks this very table against the @RULES.register sites, so the
# analyzer keeps itself honest too.
_BUILTIN_RULE_MODULES = {
    "d001": "repro.analysis.rules_determinism",
    "d002": "repro.analysis.rules_determinism",
    "d003": "repro.analysis.rules_determinism",
    "r001": "repro.analysis.rules_registry",
    "e001": "repro.analysis.rules_events",
    "s001": "repro.analysis.rules_results",
}

STRATEGIES = Registry("strategy", _BUILTIN_STRATEGY_MODULES)
EXPERIMENTS = Registry(
    "experiment",
    _BUILTIN_EXPERIMENT_MODULES,
    # Long-form aliases, accepted anywhere an experiment name is: each
    # module's basename where it differs from the short name, e.g.
    # ``repro experiment fig09_scalability``.
    aliases={
        module.rpartition(".")[2]: name
        for name, module in _BUILTIN_EXPERIMENT_MODULES.items()
        if module.rpartition(".")[2] != name
    },
)
RECOVERIES = Registry("recovery policy", _BUILTIN_RECOVERY_MODULES)
BACKENDS = Registry("execution backend", _BUILTIN_BACKEND_MODULES)
SUBMITTERS = Registry("batch submitter", _BUILTIN_SUBMITTER_MODULES)
ARRIVALS = Registry("arrival process", _BUILTIN_ARRIVAL_MODULES)
ADMISSIONS = Registry("admission policy", _BUILTIN_ADMISSION_MODULES)
SCALES = Registry("scale policy", _BUILTIN_SCALE_MODULES)
RULES = Registry("analysis rule", _BUILTIN_RULE_MODULES)
