"""Training-iteration assembly and throughput measurement.

Replaces the Megatron-LM training loop: for a given strategy, a batch is
planned (forward and backward layer graphs), simulated, scaled to the full
layer stack, and reported as tokens/second — the paper's evaluation metric
(throughput averaged over steps).
"""

from repro.training.iteration import IterationResult, simulate_iteration
from repro.training.throughput import ThroughputReport, measure_throughput

__all__ = [
    "IterationResult",
    "simulate_iteration",
    "ThroughputReport",
    "measure_throughput",
]
