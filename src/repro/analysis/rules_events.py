"""Event-vocabulary rule E001.

:mod:`repro.obs.events` declares a *closed* vocabulary: ``EVENT_TYPES`` maps
every legal event type to its allowed field names, and ``validate_event``
rejects anything else at runtime.  E001 moves the first half of that check
to build time: every statically-visible emission site — ``tele.event("x",
...)`` hub calls and direct ``make_event("x", ...)`` constructions — must
name a type present in the vocabulary, so a typo'd or ad-hoc event type
fails CI instead of failing (or worse, silently passing) in a sink.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.model import Finding, Rule
from repro.registry import RULES


def _literal_first_arg(call: ast.Call) -> ast.Constant | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        arg = call.args[0]
        if isinstance(arg.value, str):
            return arg
    return None


@RULES.register("e001")
class EventVocabularyRule(Rule):
    """every emitted event type appears in the closed EVENT_TYPES vocabulary"""

    id = "E001"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        vocabulary = context.event_types
        if vocabulary is None:
            return  # no EVENT_TYPES declaration in the analyzed set
        origin = context.event_types_origin or "EVENT_TYPES"
        for file in context.files:
            if context.config.allowed(self.id, file.module):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_emission(file, node):
                    continue
                arg = _literal_first_arg(node)
                if arg is None:
                    continue  # dynamic event type; runtime validation owns it
                if arg.value not in vocabulary:
                    yield self.finding(
                        file,
                        arg,
                        f"event type {arg.value!r} is not in the closed "
                        f"vocabulary declared by {origin}",
                    )

    @staticmethod
    def _is_emission(file, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "event":
            return True
        resolved = file.resolve(func)
        if resolved is None and isinstance(func, ast.Name):
            resolved = func.id
        return resolved is not None and (
            resolved == "make_event" or resolved.endswith(".make_event")
        )
