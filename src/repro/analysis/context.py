"""Cross-file analysis context: config, registrations, registry tables.

The driver parses every file once, then builds one :class:`AnalysisContext`
shared by all rules.  The context carries the whole-program facts that no
single file can answer:

* every ``NAME = Registry(label, _BUILTIN_<KIND>_MODULES)`` assignment,
  i.e. which lazy-registry table backs each registry object;
* every ``_BUILTIN_*_MODULES`` dict literal, i.e. the tables themselves;
* every ``NAME.register("x")`` registration site (decorator or direct
  call) on one of those registries, with ``NAME`` resolved through the
  file's imports, for the registry-completeness rule R001;
* the closed event vocabulary (``EVENT_TYPES`` in ``obs/events.py``) that
  rule E001 checks emission sites against.

All of it is read off the ASTs — nothing is imported.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.model import SourceFile

_TABLE_RE = re.compile(r"^_BUILTIN_[A-Z]+_MODULES$")


@dataclass(frozen=True)
class AnalysisConfig:
    """Per-rule module allowlists.

    ``allow_modules`` maps a rule id to module prefixes where the rule does
    not apply: ``repro.obs`` may read the wall clock (D001) and record wall
    times (S001) — it *is* the timing subsystem — and ``repro.config`` is
    the one sanctioned ``os.environ`` chokepoint (D003).
    """

    allow_modules: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def default(cls) -> "AnalysisConfig":
        return cls(
            allow_modules={
                "D001": ("repro.obs",),
                "D003": ("repro.config",),
                "S001": ("repro.obs",),
            }
        )

    def allowed(self, rule_id: str, module: str) -> bool:
        """True when ``module`` is allowlisted for ``rule_id``."""
        for prefix in self.allow_modules.get(rule_id.upper(), ()):
            if module == prefix or module.startswith(prefix + "."):
                return True
        return False


@dataclass(frozen=True)
class Registration:
    """One ``@NAME.register("name")`` site found in an analyzed file."""

    registry: str
    name: str
    file: SourceFile
    node: ast.AST

    @property
    def module(self) -> str:
        return self.file.module


def _leaf_name(file: SourceFile, node: ast.expr) -> str | None:
    """Last component of what ``node`` names, resolved through the imports.

    A bare name the imports do not bind (a registry defined in the same
    file) stands for itself.
    """
    resolved = file.resolve(node)
    if resolved is None and isinstance(node, ast.Name):
        resolved = node.id
    return None if resolved is None else resolved.rpartition(".")[2]


def _registry_table(file: SourceFile, value: ast.expr) -> str | None:
    """The table argument of a ``Registry(label, _BUILTIN_*_MODULES)`` call."""
    if not (isinstance(value, ast.Call) and len(value.args) >= 2):
        return None
    table = value.args[1]
    if _leaf_name(file, value.func) != "Registry" or not isinstance(table, ast.Name):
        return None
    return table.id if _TABLE_RE.match(table.id) else None


def _dict_of_str(node: ast.expr) -> dict[str, str] | None:
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for key, value in zip(node.keys, node.values):
        if not (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            return None
        out[key.value.lower()] = value.value
    return out


class AnalysisContext:
    """Everything the rules see: parsed files, config, cross-file tables."""

    def __init__(self, files: list[SourceFile], config: AnalysisConfig):
        self.files = files
        self.config = config
        # registry name (``SUBMITTERS``) -> its table (``_BUILTIN_..._MODULES``).
        self.registries: dict[str, str] = {}
        # table name -> {entry name -> providing module}, merged over all files.
        self.registry_tables: dict[str, dict[str, str]] = {}
        self.registrations: list[Registration] = []
        self.event_types: frozenset[str] | None = None
        self.event_types_origin: str | None = None
        for file in files:
            self._collect_tables(file)
            self._collect_event_types(file)
        for file in files:
            self._collect_registrations(file)

    def _collect_tables(self, file: SourceFile) -> None:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            registry_table = _registry_table(file, node.value)
            if registry_table is not None:
                self.registries[target.id] = registry_table
            elif _TABLE_RE.match(target.id):
                table = _dict_of_str(node.value)
                if table is not None:
                    self.registry_tables.setdefault(target.id, {}).update(table)

    def _collect_registrations(self, file: SourceFile) -> None:
        for node in ast.walk(file.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "register"):
                continue
            registry = _leaf_name(file, func.value)
            if registry not in self.registries:
                continue
            name = node.args[0]
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
                continue  # dynamic registration name; out of static reach
            self.registrations.append(
                Registration(registry=registry, name=name.value, file=file, node=node)
            )

    def _collect_event_types(self, file: SourceFile) -> None:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target: ast.expr = node.targets[0]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
                value = node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "EVENT_TYPES"):
                continue
            if not isinstance(value, ast.Dict):
                continue
            names = frozenset(
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
            if not names:
                continue
            existing = self.event_types or frozenset()
            self.event_types = existing | names
            if self.event_types_origin is None:
                self.event_types_origin = file.module
