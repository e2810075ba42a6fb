"""repro.analysis — AST-based determinism & invariant linter.

A dependency-free static pass over the source tree that machine-checks the
conventions behind the repo's reproducibility guarantee::

    python -m repro.analysis src          # or: repro analyze src
    repro analyze --rule D001 --json src

Rules (each a :class:`~repro.analysis.model.Rule` registered with
``@RULES.register``, so ``repro list`` shows them):

* **D001** — no wall-clock reads outside :mod:`repro.obs`.
* **D002** — no unseeded randomness (global ``random.*``, seedless ctors).
* **D003** — no ``os.environ``/``os.getenv`` outside :mod:`repro.config`.
* **R001** — every ``@NAME.register`` module is listed in the
  ``_BUILTIN_*_MODULES`` table of registry ``NAME`` (lazy-registry drift).
* **E001** — emitted event types stay inside the closed ``EVENT_TYPES``
  vocabulary of :mod:`repro.obs.events`.
* **S001** — wall-clock-derived result data lives under ``meta["timing"]``.

Inline suppression: ``# repro: allow(D001) <reason>`` on the flagged line.
Analyzed code is parsed, never imported.
"""

from repro.analysis.context import AnalysisConfig, AnalysisContext
from repro.analysis.driver import (
    AnalysisReport,
    AnalysisUsageError,
    analyze_paths,
    execute,
    main,
)
from repro.analysis.model import Finding, Rule, SourceFile

# Importing the rule modules would defeat the registry's lazy loading; the
# RULES table in repro.registry names them, and the driver resolves it.

__all__ = [
    "AnalysisConfig",
    "AnalysisContext",
    "AnalysisReport",
    "AnalysisUsageError",
    "Finding",
    "Rule",
    "SourceFile",
    "analyze_paths",
    "execute",
    "main",
]
