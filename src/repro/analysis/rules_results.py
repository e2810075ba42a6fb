"""Result-schema rule S001: wall-clock data stays under ``meta["timing"]``.

Result objects are part of the byte-identical-per-seed contract, so any
genuinely wall-clock-derived measurement must live in the one subtree
consumers know to ignore when comparing runs: ``meta["timing"]``.  S001
flags two shapes outside that subtree:

* a field on a ``@dataclass(frozen=True)`` result class whose name looks
  wall-clock-derived (``wall``/``timestamp``);
* a wall-looking string key written into a dict literal (or stored through
  a subscript) with no enclosing ``timing`` context.

Fields that merely *sound* like wall time but hold simulated/virtual time
(e.g. ``ResilienceResult.wall_time_s``) carry an inline
``# repro: allow(S001) <reason>`` pragma — the pragma is the documentation.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.model import Finding, Rule, SourceFile
from repro.registry import RULES

_WALL_NAME_RE = re.compile(r"wall|timestamp")


def _is_frozen_dataclass(file: SourceFile, cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        resolved = file.resolve(deco.func)
        if resolved is None and isinstance(deco.func, ast.Name):
            resolved = deco.func.id
        if resolved not in ("dataclass", "dataclasses.dataclass"):
            continue
        for kw in deco.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _mentions_timing(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "timing" in sub.id:
            return True
        if isinstance(sub, ast.Attribute) and "timing" in sub.attr:
            return True
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "timing" in sub.value
        ):
            return True
    return False


def _in_timing_context(file: SourceFile, node: ast.Dict) -> bool:
    """True when ``node`` sits under a ``timing`` key, name or argument."""
    child: ast.AST = node
    for anc in file.ancestors(node):
        if isinstance(anc, ast.Dict):
            for key, value in zip(anc.keys, anc.values):
                if (
                    value is child
                    and isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and "timing" in key.value
                ):
                    return True
        elif isinstance(anc, ast.keyword):
            if anc.arg is not None and "timing" in anc.arg:
                return True
        elif isinstance(anc, (ast.Assign, ast.AnnAssign)):
            targets = anc.targets if isinstance(anc, ast.Assign) else [anc.target]
            for target in targets:
                if _mentions_timing(target):
                    return True
        child = anc
    return False


@RULES.register("s001")
class TimingIsolationRule(Rule):
    """wall-clock-derived result fields live only under meta["timing"]"""

    id = "S001"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for file in context.files:
            if context.config.allowed(self.id, file.module):
                continue
            yield from self._check_dataclass_fields(file)
            yield from self._check_dict_stores(file)

    def _check_dataclass_fields(self, file: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_frozen_dataclass(file, node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                target = stmt.target
                if not isinstance(target, ast.Name):
                    continue
                if _WALL_NAME_RE.search(target.id):
                    yield self.finding(
                        file,
                        stmt,
                        f"frozen result dataclass {node.name} declares "
                        f"wall-clock-looking field {target.id!r}; wall-clock "
                        'measurements belong under meta["timing"] (if this '
                        "is virtual time, say so with a pragma)",
                    )

    def _check_dict_stores(self, file: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and _WALL_NAME_RE.search(key.value)
                        and not _in_timing_context(file, node)
                    ):
                        yield self.finding(
                            file,
                            key,
                            f"wall-clock-looking key {key.value!r} stored "
                            'outside a "timing" subtree',
                        )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                        and _WALL_NAME_RE.search(target.slice.value)
                        and not _mentions_timing(target.value)
                    ):
                        yield self.finding(
                            file,
                            target,
                            f"wall-clock-looking key {target.slice.value!r} "
                            'stored outside a "timing" subtree',
                        )
