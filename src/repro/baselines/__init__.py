"""Baseline data-parallel strategies the paper compares against.

* :class:`~repro.baselines.te_cp.TransformerEngineCPStrategy` — even sequence
  splitting with balanced ring attention over a single global ring (the "TE CP"
  baseline).
* :class:`~repro.baselines.llama_cp.LlamaCPStrategy` — all-gather KV across the
  context-parallel group before local attention (the "LLaMA CP" baseline).
* :class:`~repro.baselines.hybrid_dp.HybridDPStrategy` — FLOP-balanced hybrid
  of plain DP for short sequences and ring CP for long ones (the "Hybrid DP" /
  ByteScale-style baseline).
* :class:`~repro.baselines.packing.PackingStrategy` — input-balanced sequence
  packing (Fig. 2.a).

All strategies implement :class:`~repro.baselines.base.Strategy` and emit
:class:`~repro.core.plan.ExecutionPlan` task graphs timed by the same
simulator, so comparisons are apples-to-apples.
"""

from repro.baselines.base import Strategy, StrategyContext
from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.baselines.llama_cp import LlamaCPStrategy
from repro.baselines.hybrid_dp import HybridDPStrategy
from repro.baselines.packing import PackingStrategy

__all__ = [
    "Strategy",
    "StrategyContext",
    "TransformerEngineCPStrategy",
    "LlamaCPStrategy",
    "HybridDPStrategy",
    "PackingStrategy",
]
