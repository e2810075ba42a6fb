"""Core data model of the static analyzer: parsed files, findings, rules.

Everything here works on :mod:`ast` trees — analyzed code is *parsed, never
imported*, so the analyzer can safely chew on broken fixtures, on files with
heavyweight imports, and on its own source.

A :class:`SourceFile` bundles one parsed module with the derived tables every
rule needs: the dotted module name (computed from the ``__init__.py`` chain on
disk), an import-alias table for resolving ``Name``/``Attribute`` chains to
fully-qualified dotted names, a parent map for ancestor walks, and the
per-line ``# repro: allow(RULE)`` suppression pragmas.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

# Inline suppression: ``# repro: allow(D001) reason`` or ``allow(D001, S001)``.
# ``allow(*)`` suppresses every rule on the line.  The reason text is free-form
# but strongly encouraged — pragmas without one read as unexplained debt.
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_*,\s]+?)\s*\)")


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a file position."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, by walking the ``__init__.py`` chain.

    ``src/repro/exec/cache.py`` -> ``repro.exec.cache`` (``src`` has no
    ``__init__.py``, so the walk stops there).  A loose file outside any
    package resolves to its bare stem, which is what fixture trees rely on.
    """
    resolved = path.resolve()
    parts = [] if resolved.name == "__init__.py" else [resolved.stem]
    parent = resolved.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


def _suppressions(source: str) -> dict[int, frozenset[str]]:
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )
        if rules:
            table[lineno] = rules
    return table


def _import_table(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """Local name -> fully-qualified dotted target, from import statements."""
    container = module.split(".") if is_package else module.split(".")[:-1]
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = container[: len(container) - (node.level - 1)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


@dataclass
class SourceFile:
    """One parsed module plus the derived tables the rules consume."""

    path: str
    module: str
    tree: ast.Module
    imports: dict[str, str]
    suppressions: dict[int, frozenset[str]]
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> "SourceFile":
        """Parse ``path``; raises :class:`SyntaxError` on broken source."""
        source = path.read_text(encoding="utf-8")
        display = display_path if display_path is not None else str(path)
        tree = ast.parse(source, filename=display)
        module = module_name_for(path)
        imports = _import_table(tree, module, is_package=path.name == "__init__.py")
        out = cls(
            path=display,
            module=module,
            tree=tree,
            imports=imports,
            suppressions=_suppressions(source),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                out.parents[child] = parent
        return out

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted name of a ``Name``/``Attribute`` chain.

        ``Name`` resolves through the import table only — locally bound
        names stay ``None``, so ``self.rng.random()`` never masquerades as
        ``random.random()``.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of ``node``, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if rules is None:
            return False
        return "*" in rules or finding.rule.upper() in rules


class Rule:
    """Base class for analysis rules.

    Subclasses set :attr:`id` (``D001``-style) and implement :meth:`check`,
    yielding :class:`Finding`\\ s against an
    :class:`~repro.analysis.context.AnalysisContext`.  Rules register with
    ``@RULES.register`` (:mod:`repro.registry`), so ``repro list`` shows them
    next to the other registries and ``repro analyze --rule`` resolves them by
    id.
    """

    id: str = ""

    def check(self, context: "AnalysisContext") -> Iterator[Finding]:  # noqa: F821
        raise NotImplementedError

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=file.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
