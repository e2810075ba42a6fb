"""Registry-completeness rule R001.

The registries in :mod:`repro.registry` are *lazy*: a built-in entry is only
importable because its name appears in the ``_BUILTIN_*_MODULES`` table its
registry was built from (``SUBMITTERS = Registry("batch submitter",
_BUILTIN_SUBMITTER_MODULES)``).  A module that calls
``@SUBMITTERS.register("pbs")`` but is missing from
``_BUILTIN_SUBMITTER_MODULES`` silently vanishes from ``repro list`` and
every CLI lookup until something else happens to import it.  R001 makes that
drift a build failure: every registration site found in the analyzed tree
must be listed in its registry's table, under the module that actually
performs the registration.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.model import Finding, Rule
from repro.registry import RULES


@RULES.register("r001")
class RegistryCompletenessRule(Rule):
    """every @NAME.register module is listed in its _BUILTIN_*_MODULES table"""

    id = "R001"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for reg in context.registrations:
            table_name = context.registries[reg.registry]
            table = context.registry_tables.get(table_name)
            if table is None:
                # The registry's table is not in the analyzed set (e.g. a
                # partial tree) — nothing to check against.
                continue
            listed = table.get(reg.name.lower())
            if listed is None:
                yield self.finding(
                    reg.file,
                    reg.node,
                    f"@{reg.registry}.register({reg.name!r}) in {reg.module} is "
                    f"not listed in {table_name}; lazy lookup will never "
                    "import it",
                )
            elif listed != reg.module:
                yield self.finding(
                    reg.file,
                    reg.node,
                    f"{table_name} maps {reg.name!r} to {listed}, but the "
                    f"registration lives in {reg.module}",
                )
