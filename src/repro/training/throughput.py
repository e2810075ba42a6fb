"""Throughput measurement.

The paper reports tokens/second averaged over training steps 50-150 and
normalises every configuration against the TE CP baseline (the "1x" bars of
Fig. 8-11).  :func:`measure_throughput` averages simulated iterations over a
number of sampled batches; :meth:`ThroughputReport.speedup_over` gives the
ratio against a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.strategy import Strategy
from repro.data.sampler import Batch
from repro.training.iteration import IterationResult, simulate_iterations
from repro.utils.validation import check_positive


@dataclass
class ThroughputReport:
    """Average throughput of a strategy over several batches."""

    strategy: str
    tokens_per_second: float
    iteration_time_s: float
    total_tokens: int
    num_batches: int
    iterations: list[IterationResult] = field(default_factory=list)

    def speedup_over(self, baseline: "ThroughputReport") -> float:
        """Throughput ratio against a baseline report."""
        if baseline.tokens_per_second == 0:
            raise ZeroDivisionError("baseline throughput is zero")
        return self.tokens_per_second / baseline.tokens_per_second


def measure_throughput(strategy: Strategy, batches: list[Batch]) -> ThroughputReport:
    """Average tokens/second of ``strategy`` over ``batches``.

    The per-batch iterations simulate in one call
    (:func:`~repro.training.iteration.simulate_iterations`): plan states
    already simulated in this process are memo hits, and every other state
    runs the engine once, bit-identical to the sequential per-batch path.
    """
    if not batches:
        raise ValueError("need at least one batch")
    iterations = simulate_iterations(strategy, batches)
    total_tokens = 0
    total_time = 0.0
    for batch, result in zip(batches, iterations):
        total_tokens += batch.total_tokens
        total_time += result.iteration_time_s
    check_positive("total simulated time", total_time)
    return ThroughputReport(
        strategy=strategy.name,
        tokens_per_second=total_tokens / total_time,
        iteration_time_s=total_time / len(batches),
        total_tokens=total_tokens,
        num_batches=len(batches),
        iterations=iterations,
    )
