"""Determinism rules: wall-clock (D001), randomness (D002), environment (D003).

These enforce the conventions behind the repo's byte-identical-results
guarantee: real time is only observable through :mod:`repro.obs`, every
random stream is explicitly seeded, and the process environment is read
through :mod:`repro.config` alone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import AnalysisContext
from repro.analysis.model import Finding, Rule, SourceFile
from repro.registry import RULES

# Fully-qualified callables (and attributes) that observe the wall clock.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.datetime.fromtimestamp",
        "datetime.date.today",
    }
)

# Environment access points; reads and writes alike are confined to the
# allowlisted config module.
ENVIRON = frozenset(
    {"os.environ", "os.environb", "os.getenv", "os.putenv", "os.unsetenv"}
)

# numpy.random entry points that are fine *when called with a seed*; the
# seedless forms are flagged by the call check below.
_SEEDABLE_CTORS = frozenset({"random.Random", "numpy.random.RandomState"})
_NUMPY_SEED_SAFE = frozenset({"Generator", "SeedSequence", "PCG64", "Philox"})


def _wall_clock_refs(file: SourceFile) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            resolved = file.resolve(node)
            if resolved in WALL_CLOCK:
                yield node, resolved


@RULES.register("d001")
class WallClockRule(Rule):
    """no wall-clock reads outside repro.obs — time flows through obs spans"""

    id = "D001"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for file in context.files:
            if context.config.allowed(self.id, file.module):
                continue
            for node, resolved in _wall_clock_refs(file):
                yield self.finding(
                    file,
                    node,
                    f"wall-clock access `{resolved}`; route timing through "
                    "repro.obs spans or telemetry.stopwatch()",
                )


@RULES.register("d002")
class UnseededRandomnessRule(Rule):
    """no unseeded randomness — every RNG stream takes an explicit seed"""

    id = "D002"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for file in context.files:
            if context.config.allowed(self.id, file.module):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                resolved = file.resolve(node.func)
                if resolved is None:
                    continue
                message = self._diagnose(resolved, node)
                if message is not None:
                    yield self.finding(file, node, message)

    @staticmethod
    def _diagnose(resolved: str, call: ast.Call) -> str | None:
        unseeded = not call.args and not call.keywords
        if resolved in _SEEDABLE_CTORS:
            if unseeded:
                return f"`{resolved}()` without a seed; pass an explicit seed"
            return None
        if resolved.endswith(".default_rng"):
            if unseeded:
                return f"`{resolved}()` without a seed; pass an explicit seed"
            return None
        if resolved == "random.SystemRandom":
            return "`random.SystemRandom` draws OS entropy and can never be seeded"
        if resolved.startswith("random."):
            return (
                f"module-level `{resolved}()` uses the shared global RNG; "
                "use a seeded random.Random instance"
            )
        if resolved.startswith("numpy.random."):
            leaf = resolved.split(".")[-1]
            if leaf in _NUMPY_SEED_SAFE:
                return None
            return (
                f"legacy global `{resolved}()`; use "
                "numpy.random.default_rng(seed)"
            )
        return None


@RULES.register("d003")
class EnvironReadRule(Rule):
    """no os.environ/os.getenv outside repro.config — one env chokepoint"""

    id = "D003"

    def check(self, context: AnalysisContext) -> Iterator[Finding]:
        for file in context.files:
            if context.config.allowed(self.id, file.module):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, (ast.Name, ast.Attribute)):
                    continue
                resolved = file.resolve(node)
                if resolved in ENVIRON:
                    yield self.finding(
                        file,
                        node,
                        f"environment access `{resolved}`; add a helper to "
                        "repro.config instead",
                    )
