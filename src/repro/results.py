"""Structured run results: frozen dataclasses with stable dict/JSON forms.

:class:`RunResult` captures one strategy's measured throughput on one
configuration; :class:`CompareResult` groups several runs over identical
batches and normalises them against a baseline.  Both serialise with
``to_dict()``/``to_json()`` and are consumed uniformly by the CLI
(``repro compare --json``), the experiment modules and the examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping


def _frozen_mapping(value: Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(value, MappingProxyType):
        return value
    return MappingProxyType(dict(value))


def _deep_frozen(value: Any) -> Any:
    """Recursively freeze mappings and sequences (for nested result fields)."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _deep_frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_deep_frozen(v) for v in value)
    return value


def _thawed(value: Any) -> Any:
    """Recursively convert frozen mappings/tuples back to JSON-safe forms."""
    if isinstance(value, Mapping):
        return {k: _thawed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_thawed(v) for v in value]
    return value


@dataclass(frozen=True)
class RunResult:
    """Measured throughput of one strategy on one configuration.

    Attributes
    ----------
    strategy:
        Registry key the strategy was built from (e.g. ``"zeppelin"``).
    label:
        Human-readable strategy name (e.g. ``"Zeppelin"`` or
        ``"Zeppelin (no routing)"``).
    tokens_per_second:
        Average training throughput over the measured batches.
    iteration_time_s:
        Mean simulated iteration time.
    total_tokens:
        Tokens processed across all measured batches.
    num_batches:
        Number of batches averaged over.
    config:
        The session configuration the run was measured under, as a mapping.
    """

    strategy: str
    label: str
    tokens_per_second: float
    iteration_time_s: float
    total_tokens: int
    num_batches: int
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", _frozen_mapping(self.config))

    def speedup_over(self, baseline: "RunResult") -> float:
        """Throughput ratio against a baseline run."""
        if baseline.tokens_per_second == 0:
            raise ZeroDivisionError("baseline throughput is zero")
        return self.tokens_per_second / baseline.tokens_per_second

    def to_dict(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "label": self.label,
            "tokens_per_second": self.tokens_per_second,
            "iteration_time_s": self.iteration_time_s,
            "total_tokens": self.total_tokens,
            "num_batches": self.num_batches,
            "config": dict(self.config),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class ResilienceResult:
    """Outcome of one strategy trained under faults with a recovery policy.

    Produced by ``Session.run(strategy, perturbation=...)``.  Exposes
    ``tokens_per_second`` (= goodput) so it slots into :class:`CompareResult`
    exactly like a :class:`RunResult`: resilience comparisons and speedup
    tables work unchanged.

    Attributes
    ----------
    strategy / label:
        Registry key and display name of the strategy.
    recovery:
        Registry key of the recovery policy applied on failures.
    goodput_tokens_per_second:
        Useful tokens (surviving roll-backs) per wall-clock second.
    healthy_tokens_per_second:
        The same strategy's throughput on the unperturbed cluster.
    wall_time_s:
        Total simulated wall-clock time of the run.
    time_lost_s:
        Time spent on lost partial iterations, recovery downtime and
        recomputed work.
    restart_count:
        Recovery invocations (restarts or elastic replans).
    num_failures:
        Node failures that struck during the run.
    completed_iterations / num_iterations:
        Iterations whose work survived vs. the requested run length.
    final_num_nodes:
        Nodes alive at the end (shrinks under elastic recovery).
    total_tokens:
        Useful tokens accumulated over the run.
    config:
        The session configuration, as a mapping.
    perturbation:
        The perturbation configuration the schedule was drawn from.
    """

    strategy: str
    label: str
    recovery: str
    goodput_tokens_per_second: float
    healthy_tokens_per_second: float
    wall_time_s: float  # repro: allow(S001) virtual seconds, deterministic per seed
    time_lost_s: float
    restart_count: int
    num_failures: int
    completed_iterations: int
    num_iterations: int
    final_num_nodes: int
    total_tokens: int
    config: Mapping[str, Any] = field(default_factory=dict)
    perturbation: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", _frozen_mapping(self.config))
        object.__setattr__(self, "perturbation", _frozen_mapping(self.perturbation))

    @property
    def tokens_per_second(self) -> float:
        """Goodput, aliased so comparison machinery treats this like a run."""
        return self.goodput_tokens_per_second

    @property
    def goodput_fraction(self) -> float:
        """Goodput as a fraction of the healthy-cluster throughput."""
        if self.healthy_tokens_per_second == 0:
            return 0.0
        return self.goodput_tokens_per_second / self.healthy_tokens_per_second

    def speedup_over(self, baseline: "RunResult | ResilienceResult") -> float:
        """Goodput ratio against a baseline result."""
        if baseline.tokens_per_second == 0:
            raise ZeroDivisionError("baseline throughput is zero")
        return self.tokens_per_second / baseline.tokens_per_second

    def to_dict(self) -> dict[str, Any]:
        return {
            "strategy": self.strategy,
            "label": self.label,
            "recovery": self.recovery,
            "goodput_tokens_per_second": self.goodput_tokens_per_second,
            "healthy_tokens_per_second": self.healthy_tokens_per_second,
            "goodput_fraction": self.goodput_fraction,
            "wall_time_s": self.wall_time_s,  # repro: allow(S001) virtual time
            "time_lost_s": self.time_lost_s,
            "restart_count": self.restart_count,
            "num_failures": self.num_failures,
            "completed_iterations": self.completed_iterations,
            "num_iterations": self.num_iterations,
            "final_num_nodes": self.final_num_nodes,
            "total_tokens": self.total_tokens,
            "config": dict(self.config),
            "perturbation": dict(self.perturbation),
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


@dataclass(frozen=True)
class ServeResult:
    """Metrics of one serving run (:mod:`repro.serve`).

    Produced by :meth:`Session.serve` / ``repro serve``.  All timestamps are
    *virtual* seconds of the serving clock; nothing here depends on
    wall-clock time, so results are byte-identical across runs of the same
    configuration and seed.

    Attributes
    ----------
    arrival / admission:
        Registry names of the arrival process and admission policy.
    concurrency / max_batch:
        Serving limits: simultaneous executions and requests per batch.
    seed:
        The session seed that drove arrivals and mix draws.
    duration_s / makespan_s:
        The arrival window and the total virtual time until the queue
        drained (``makespan_s >= duration_s``).
    num_requests / completed:
        Requests that arrived vs. completed (they differ only by shed
        requests — everything admitted completes when the queue drains).
    simulations:
        Fresh plan simulations executed; batching and caching push this far
        below ``num_requests`` for repetitive mixes.
    batched_requests / cache_hits / cache_hit_rate:
        Requests that rode another request's execution, requests answered
        from the in-run result cache, and the cached fraction of completions.
    offered_rps / throughput_rps / goodput_rps:
        Arrival rate over the duration, completions per virtual second of
        the makespan, and SLO-meeting completions per second (with no
        ``slo_s`` goodput equals throughput).
    slo_s:
        Latency objective a request must meet to count as goodput, if any.
    mean/p50/p95/p99/max_latency_s:
        Request latency (completion minus arrival) statistics.
    mean_queue_depth / max_queue_depth / queue_depth_timeline:
        Time-weighted mean depth, peak depth, and the ``(time, depth)``
        change points of the queue over the run.
    shed_count:
        Requests rejected by the admission policy (never queued or executed).
    scale_policy / capacity_timeline / scale_up_count / scale_down_count:
        Autoscaling record: the policy's registry name (``None`` for a fixed
        cluster), the ``(time, gpus)`` capacity change points starting at the
        initial capacity, and how many grow/shrink steps were taken.
    config:
        The serving session's configuration, as a mapping.
    mix:
        The request mix, one mapping per cell (strategy, weight, priority,
        overrides).
    """

    arrival: str
    admission: str
    concurrency: int
    max_batch: int
    seed: int
    duration_s: float
    makespan_s: float
    num_requests: int
    completed: int
    simulations: int
    batched_requests: int
    cache_hits: int
    cache_hit_rate: float
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    slo_s: float | None
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    mean_queue_depth: float
    max_queue_depth: int
    queue_depth_timeline: tuple[tuple[float, int], ...] = ()
    shed_count: int = 0
    scale_policy: str | None = None
    capacity_timeline: tuple[tuple[float, int], ...] = ()
    scale_up_count: int = 0
    scale_down_count: int = 0
    config: Mapping[str, Any] = field(default_factory=dict)
    mix: tuple[Mapping[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", _frozen_mapping(self.config))
        object.__setattr__(
            self,
            "queue_depth_timeline",
            tuple((float(t), int(d)) for t, d in self.queue_depth_timeline),
        )
        object.__setattr__(
            self,
            "capacity_timeline",
            tuple((float(t), int(g)) for t, g in self.capacity_timeline),
        )
        object.__setattr__(
            self, "mix", tuple(_deep_frozen(cell) for cell in self.mix)
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "arrival": self.arrival,
            "admission": self.admission,
            "concurrency": self.concurrency,
            "max_batch": self.max_batch,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "makespan_s": self.makespan_s,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "simulations": self.simulations,
            "batched_requests": self.batched_requests,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "offered_rps": self.offered_rps,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "slo_s": self.slo_s,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "max_latency_s": self.max_latency_s,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "queue_depth_timeline": [[t, d] for t, d in self.queue_depth_timeline],
            "shed_count": self.shed_count,
            "scale_policy": self.scale_policy,
            "capacity_timeline": [[t, g] for t, g in self.capacity_timeline],
            "scale_up_count": self.scale_up_count,
            "scale_down_count": self.scale_down_count,
            "config": dict(self.config),
            "mix": [_thawed(cell) for cell in self.mix],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def result_from_dict(
    data: Mapping[str, Any],
) -> "RunResult | ResilienceResult | ServeResult":
    """Rebuild a result from its ``to_dict()`` form.

    Used wherever results cross a serialisation boundary — the process sweep
    backend (``MappingProxyType`` configs do not pickle) and the on-disk
    result cache.  Reconstruction is lossless: derived fields emitted by
    ``to_dict()`` (``goodput_fraction``) are recomputed, not stored.
    """
    payload = dict(data)
    if "throughput_rps" in payload:
        return ServeResult(**payload)
    if "goodput_tokens_per_second" in payload:
        payload.pop("goodput_fraction", None)
        return ResilienceResult(**payload)
    return RunResult(**payload)


@dataclass(frozen=True)
class CompareResult:
    """Several strategies measured on identical batches, with a baseline.

    Attributes
    ----------
    runs:
        One :class:`RunResult` (or :class:`ResilienceResult`, for perturbed
        comparisons) per compared strategy, in comparison order.
    baseline:
        Registry key of the run speedups are normalised against (the paper
        normalises against TE CP, which comparisons list first).
    config:
        The shared session configuration.
    """

    runs: "tuple[RunResult | ResilienceResult, ...]"
    baseline: str = ""
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("a comparison needs at least one run")
        object.__setattr__(self, "config", _frozen_mapping(self.config))
        baseline = self.baseline or self.runs[0].strategy
        object.__setattr__(self, "baseline", baseline)
        if not any(r.strategy == baseline for r in self.runs):
            raise ValueError(
                f"baseline {baseline!r} is not among the compared strategies: "
                f"{[r.strategy for r in self.runs]}"
            )

    # -- access -----------------------------------------------------------------

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def get(self, strategy: str) -> RunResult:
        """The run for one strategy key (or display label)."""
        for run in self.runs:
            if run.strategy == strategy or run.label == strategy:
                return run
        raise KeyError(
            f"no run for strategy {strategy!r}; have {[r.strategy for r in self.runs]}"
        )

    @property
    def baseline_run(self) -> RunResult:
        return self.get(self.baseline)

    def speedup(self, strategy: str) -> float:
        """Throughput of ``strategy`` normalised to the baseline."""
        return self.get(strategy).speedup_over(self.baseline_run)

    # -- serialisation ----------------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """Flat comparison rows (label, tokens/s, speedup) for table output."""
        base = self.baseline_run
        return [
            {
                "strategy": run.label,
                "tokens_per_second": run.tokens_per_second,
                "speedup": run.speedup_over(base),
            }
            for run in self.runs
        ]

    def to_dict(self) -> dict[str, Any]:
        base = self.baseline_run
        return {
            "config": dict(self.config),
            "baseline": self.baseline,
            "runs": [
                {**run.to_dict(), "speedup": run.speedup_over(base)}
                for run in self.runs
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)
