"""Outside-in layer trace: time each layer's public entry points.

The traced run wraps the entry points in :data:`ENTRY_POINTS` from the
benchmark's own files; nothing under ``src/`` is instrumented for it.  A
function imported by name into another module is wrapped there too, because
that is where its callers look it up (``simulate_many`` lives in
``repro.sim.batch`` but ``repro.training.iteration`` calls its own binding).

Every wrapped call pushes a frame on one stack.  When it returns, its
duration is added to its row's inclusive time (outermost frame of that row
only) and, minus the time of the wrapped calls nested inside it, to the
row's self time.  The root frame is the ``other`` row, so the self times of
all rows sum to the traced wall time.  Entry points called thousands of
times per run are *aggregated*: they count and time like the rest but record
no span; every other call records a span ``[name, start, end, parent]``.

The program's own counters (``batch_lanes*``, ``points_executed``,
``serve_requests_*``) come from a :class:`repro.obs.Telemetry` hub that the
caller installs with :func:`repro.obs.telemetry_scope` for the traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

OTHER = "other"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable.

    ``module`` is named relative to ``repro``; ``qualname`` is ``func`` or
    ``Class.method``.  ``row`` is the layer row its time is charged to;
    ``None`` counts calls without timing them.  ``subclasses`` also wraps
    the method on every subclass that overrides it.
    ``observe(tracer, result, args, kwargs)`` reads exact counts off a
    call's arguments and result.
    """

    module: str
    qualname: str
    row: str | None
    aggregate: bool = False
    subclasses: bool = False
    observe: Callable[..., None] | None = None


def _count_plan_tasks(tracer, plan, args, kwargs):
    tracer.counts["core.plan.tasks"] += plan.num_tasks


def _count_compiled_tasks(tracer, compiled, args, kwargs):
    tracer.counts["sim.compile.tasks"] += compiled.num_tasks


def _count_iteration_states(tracer, results, args, kwargs):
    tracer.counts["dynamics.iteration_sims"] += len(results)


def _count_iteration(tracer, result, args, kwargs):
    tracer.counts["dynamics.iteration_sims"] += 1


def _count_rollback(tracer, action, args, kwargs):
    tracer.counts["dynamics.rollbacks"] += action.rollback_iterations


def _count_resilient(tracer, report, args, kwargs):
    # run_resilient looks up its iteration cache once per loop step: every
    # iteration it completes (rolled-back ones included) and every failure.
    tracer.counts["dynamics.iteration_lookups"] += (
        report.completed_iterations + report.num_failures
    )


def _count_replan(tracer, session, args, kwargs):
    if session is not args[0]:
        tracer.counts["dynamics.replans"] += 1


def _count_deduped(tracer, sweep, args, kwargs):
    tracer.counts["exec.points_deduped"] += sweep.meta["deduped"]


def _count_serve(tracer, result, args, kwargs):
    counts = tracer.counts
    counts["serve.requests"] += result.num_requests
    counts["serve.shed"] += result.shed_count
    counts["serve.cache_hits"] += result.cache_hits
    counts["serve.simulations"] += result.simulations
    counts["serve.max_depth"] = max(counts["serve.max_depth"], result.max_queue_depth)
    counts["serve.timeline_points"] += len(result.queue_depth_timeline) + len(
        result.capacity_timeline
    )


_STRATEGY_ROWS = (
    ("baselines.te_cp", "TransformerEngineCPStrategy", "baselines.te_cp"),
    ("baselines.llama_cp", "LlamaCPStrategy", "baselines.llama_cp"),
    ("baselines.hybrid_dp", "HybridDPStrategy", "baselines.hybrid_dp"),
    ("core.zeppelin", "ZeppelinStrategy", "core.zeppelin"),
)
_QUEUE_OPS = ("offer", "push", "pop", "take_matching")

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    *(
        EntryPoint(module, f"{cls}.plan_layer", row, observe=_count_plan_tasks)
        for module, cls, row in _STRATEGY_ROWS
    ),
    EntryPoint("api", "_CachedPlanStrategy.plan_layer", None),
    EntryPoint(
        "core.partitioner", "SequencePartitioner.partition", "core.partitioner"
    ),
    EntryPoint(
        "core.attention_engine",
        "AttentionEngine.emit_attention",
        "core.attention_engine",
    ),
    EntryPoint("core.remapping", "RemappingLayer.plan", "core.remapping"),
    EntryPoint("core.routing", "RoutingLayer.route", "core.routing", aggregate=True),
    EntryPoint("core.strategy", "Strategy.emit_linear", "core.strategy"),
    EntryPoint("core.strategy", "Strategy.emit_remap", "core.strategy"),
    EntryPoint("core.plan", "ExecutionPlan.validate", "core.plan"),
    EntryPoint(
        "core.plan",
        "ExecutionPlan.compiled",
        "sim.compile",
        observe=_count_compiled_tasks,
    ),
    EntryPoint("sim.batch", "simulate_many", "sim.batch"),
    EntryPoint("sim.batch", "simulate_batch", "sim.batch"),
    EntryPoint("sim.engine", "Simulator.run", "sim.engine", aggregate=True),
    EntryPoint(
        "training.iteration",
        "simulate_iteration",
        "training",
        observe=_count_iteration,
    ),
    EntryPoint("training.iteration", "simulate_iterations", "training"),
    EntryPoint(
        "training.iteration",
        "simulate_iteration_states",
        "training",
        observe=_count_iteration_states,
    ),
    EntryPoint(
        "dynamics.recovery", "run_resilient", "dynamics", observe=_count_resilient
    ),
    EntryPoint(
        "dynamics.recovery", "scale_session", "dynamics", observe=_count_replan
    ),
    EntryPoint(
        "dynamics.recovery",
        "RecoveryPolicy.recover",
        None,
        subclasses=True,
        observe=_count_rollback,
    ),
    EntryPoint("exec.sweep", "run_sweep", "exec", observe=_count_deduped),
    EntryPoint("exec.worker", "execute_payload", "exec"),
    EntryPoint(
        "exec.spec",
        "SweepPoint.canonical_json",
        "exec.canonical_json",
        aggregate=True,
    ),
    *(
        EntryPoint(
            "serve.queue", f"RequestQueue.{op}", "serve.queue", aggregate=True
        )
        for op in _QUEUE_OPS
    ),
    EntryPoint(
        "serve.queue",
        "RequestQueue.queued_work_s",
        "serve.queue.queued_work",
        aggregate=True,
    ),
    *(
        EntryPoint(
            "serve.queue",
            f"AdmissionPolicy.{method}",
            "serve.queue.admit",
            aggregate=True,
            subclasses=True,
        )
        for method in ("admit", "key")
    ),
    EntryPoint("serve.batcher", "Batcher.execute", "serve.batcher", aggregate=True),
    EntryPoint(
        "serve.batcher", "Batcher.cost_estimate", "serve.batcher", aggregate=True
    ),
    EntryPoint(
        "serve.scale",
        "ScalePolicy.decide",
        "serve.scale",
        aggregate=True,
        subclasses=True,
    ),
    EntryPoint("serve.batcher", "Batcher.rescale", "serve.scale"),
    EntryPoint(
        "serve.driver", "ServeSimulation.run", "serve.driver", observe=_count_serve
    ),
)

# Rows in reporting order: planning, compile, simulate, orchestration.
ROWS = (
    "baselines.te_cp",
    "baselines.llama_cp",
    "baselines.hybrid_dp",
    "core.zeppelin",
    "core.partitioner",
    "core.attention_engine",
    "core.remapping",
    "core.routing",
    "core.strategy",
    "core.plan",
    "sim.compile",
    "sim.batch",
    "sim.engine",
    "training",
    "dynamics",
    "exec",
    "exec.canonical_json",
    "serve.queue",
    "serve.queue.queued_work",
    "serve.queue.admit",
    "serve.batcher",
    "serve.scale",
    "serve.driver",
    OTHER,
)

# Modules that import a wrapped function by name; they must be loaded before
# the trace is installed so their bindings get wrapped (and restored).
_CALLER_MODULES = (
    "repro",
    "repro.exec",
    "repro.training.throughput",
    "repro.dynamics.recovery",
    "repro.serve.batcher",
    "repro.serve.driver",
    "repro.experiments.fig13_resilience",
)


def load_traced_modules() -> None:
    """Import every module the trace wraps or patches.

    A repetition calls this during set-up, traced or not, so both kinds
    start their timed region with the same modules loaded.
    """
    for module in _CALLER_MODULES:
        importlib.import_module(module)
    for entry in ENTRY_POINTS:
        importlib.import_module(f"repro.{entry.module}")


class RowStats:
    """Calls, inclusive and self seconds of one row."""

    __slots__ = ("calls", "inclusive_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.active = 0


class LayerTracer:
    """Per-row timings, spans and exact counts of one traced run."""

    def __init__(self) -> None:
        self.rows = {row: RowStats() for row in ROWS}
        self.entry_calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        # Open frames: [start, child seconds, span index for children].
        self._stack: list[list[Any]] = []

    def _wrap(self, fn: Callable[..., Any], entry: EntryPoint) -> Callable[..., Any]:
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        entry_calls = self.entry_calls
        name = entry.qualname
        observe = entry.observe
        if entry.row is None:

            def counted(*args: Any, **kwargs: Any) -> Any:
                entry_calls[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, result, args, kwargs)
                return result

            return counted
        stats = self.rows[entry.row]
        aggregate = entry.aggregate

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not stack:  # called outside LayerTracer.run: not part of the run
                return fn(*args, **kwargs)
            parent = stack[-1]
            start = clock()
            if aggregate:
                frame = [start, 0.0, parent[2]]
            else:
                frame = [start, 0.0, len(spans)]
                spans.append([name, start, None, parent[2]])
            stack.append(frame)
            stats.active += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats.active -= 1
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stats.active == 0:
                    stats.inclusive_s += duration
                parent[1] += duration
                if not aggregate:
                    spans[frame[2]][2] = end
            entry_calls[name] += 1
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return timed

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every entry point for the ``with`` body, then restore them."""
        load_traced_modules()
        patched: list[tuple[Any, str, Any]] = []
        try:
            for entry in ENTRY_POINTS:
                module = importlib.import_module(f"repro.{entry.module}")
                owner_name, _, attr = entry.qualname.rpartition(".")
                if owner_name:
                    base = getattr(module, owner_name)
                    owners = [base, *_subclasses(base)] if entry.subclasses else [base]
                    before = len(patched)
                    for owner in owners:
                        original = vars(owner).get(attr)
                        if original is not None and not getattr(
                            original, "__isabstractmethod__", False
                        ):
                            setattr(owner, attr, self._wrap(original, entry))
                            patched.append((owner, attr, original))
                    if len(patched) == before:
                        raise LookupError(f"no {entry.qualname} to trace")
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(original, entry)
                for loaded in list(sys.modules.values()):
                    if (
                        getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original
                    ):
                        setattr(loaded, attr, wrapped)
                        patched.append((loaded, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def run(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Call ``fn`` under the root frame; returns (result, wall seconds)."""
        if self._stack:
            raise RuntimeError("a traced run is already in progress")
        start = time.perf_counter()
        root = [start, 0.0, -1]
        self._stack.append(root)
        try:
            result = fn()
        finally:
            wall_s = time.perf_counter() - start
            self._stack.pop()
            other = self.rows[OTHER]
            other.calls += 1
            other.inclusive_s += wall_s
            other.self_s += wall_s - root[1]
        return result, wall_s


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: LayerTracer, counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``counters`` are the program's own telemetry counters from the hub the
    run was traced under.  ``obs.tracing_overhead`` needs an untraced run
    too and is added by the caller.
    """
    rows, calls, counts = tracer.rows, tracer.entry_calls, tracer.counts
    planned = sum(calls[f"{cls}.plan_layer"] for _, cls, _ in _STRATEGY_ROWS)
    lookups = calls["_CachedPlanStrategy.plan_layer"]
    lanes = counters.get("batch_lanes", 0)
    replayed = counters.get("batch_lanes_replayed", 0)
    misses = calls["simulate_iteration"] + calls["simulate_iteration_states"]
    iteration_lookups = (
        counts["dynamics.iteration_lookups"] + counts["dynamics.rollbacks"]
    )
    requests = counts["serve.requests"]
    metrics = {f"{row}.self_s": rows[row].self_s for _, _, row in _STRATEGY_ROWS}
    metrics.update(
        {
            "core.plan.tasks": counts["core.plan.tasks"],
            "api.plan_cache.hit_ratio": (
                1.0 - _ratio(planned, lookups) if lookups else 0.0
            ),
            "core.partitioner.self_s": rows["core.partitioner"].self_s,
            "core.partitioner.calls": rows["core.partitioner"].calls,
            "core.attention_engine.self_s": rows["core.attention_engine"].self_s,
            "core.attention_engine.calls": rows["core.attention_engine"].calls,
            "core.remapping.self_s": rows["core.remapping"].self_s,
            "core.remapping.calls": rows["core.remapping"].calls,
            "core.routing.self_s": rows["core.routing"].self_s,
            "core.routing.calls": rows["core.routing"].calls,
            "core.strategy.self_s": rows["core.strategy"].self_s,
            "core.plan.validate_s": rows["core.plan"].self_s,
            "sim.compile.self_s": rows["sim.compile"].self_s,
            "sim.compile.calls": rows["sim.compile"].calls,
            "sim.compile.tasks": counts["sim.compile.tasks"],
            "sim.batch.self_s": rows["sim.batch"].self_s,
            "sim.batch.lanes": lanes,
            "sim.batch.lanes_replayed": replayed,
            "sim.batch.replay_ratio": _ratio(replayed, lanes),
            "sim.engine.self_s": rows["sim.engine"].self_s,
            "sim.engine.runs": rows["sim.engine"].calls,
            "training.self_s": rows["training"].self_s,
            "dynamics.self_s": rows["dynamics"].self_s,
            "dynamics.iteration_sims": counts["dynamics.iteration_sims"],
            "dynamics.iteration_cache.hit_ratio": (
                1.0 - _ratio(misses, iteration_lookups) if iteration_lookups else 0.0
            ),
            "dynamics.replans": counts["dynamics.replans"],
            "exec.self_s": rows["exec"].self_s,
            "exec.points_executed": counters.get("points_executed", 0),
            "exec.points_deduped": counts["exec.points_deduped"],
            "exec.canonical_json.calls": rows["exec.canonical_json"].calls,
            "exec.canonical_json.self_s": rows["exec.canonical_json"].self_s,
            "serve.queue.self_s": rows["serve.queue"].self_s,
            "serve.queue.queued_work.self_s": rows["serve.queue.queued_work"].self_s,
            "serve.queue.admit.self_s": rows["serve.queue.admit"].self_s,
            "serve.queue.max_depth": counts["serve.max_depth"],
            "serve.queue.shed_ratio": _ratio(counts["serve.shed"], requests),
            "serve.batcher.self_s": rows["serve.batcher"].self_s,
            "serve.batcher.cost_estimate.calls": calls["Batcher.cost_estimate"],
            "serve.batcher.simulations": counts["serve.simulations"],
            "serve.batcher.cache_hit_ratio": _ratio(
                counts["serve.cache_hits"], requests
            ),
            "serve.scale.decisions": calls["ScalePolicy.decide"],
            "serve.scale.rescales": calls["Batcher.rescale"],
            "serve.driver.self_s": rows["serve.driver"].self_s,
            "serve.driver.requests": requests,
            "serve.driver.timeline_points": counts["serve.timeline_points"],
            "other.self_s": rows[OTHER].self_s,
        }
    )
    return metrics

