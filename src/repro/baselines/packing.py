"""Input-balanced packing baseline (Fig. 2.a).

Sequences are packed first-fit-decreasing into per-rank buffers of exactly the
token budget, so every rank sees an identical input tensor shape — perfect for
linear modules.  Attention, however, is run with the naive packed kernel whose
single causal mask wastes work on cross-sequence positions.

``repro run`` and ``repro compare`` can select this baseline; the paper's
end-to-end comparison uses TE CP / LLaMA CP / Hybrid DP, and the Fig. 3.a
reproduction costs packing + Ulysses analytically instead of planning it.
"""

from __future__ import annotations

from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.strategy import Strategy
from repro.data.packing import PackedBuffer, pack_sequences
from repro.data.sampler import Batch
from repro.registry import STRATEGIES

_ATTENTION_PRIORITY = 1


@STRATEGIES.register(
    "packing",
    description="Input-balanced sequence packing into fixed-size per-rank buffers",
)
class PackingStrategy(Strategy):
    """First-fit-decreasing packing into fixed-size per-rank buffers."""

    name = "Input Pack"

    # -- packing ------------------------------------------------------------------

    def pack(self, batch: Batch) -> dict[int, list[PackedBuffer]]:
        """Pack the batch and deal buffers round-robin to DP ranks."""
        buffers = pack_sequences(batch, capacity=self.context.token_budget)
        per_rank: dict[int, list[PackedBuffer]] = {
            rank: [] for rank in self.context.dp_ranks
        }
        ranks = self.context.dp_ranks
        for i, buf in enumerate(buffers):
            per_rank[ranks[i % len(ranks)]].append(buf)
        return per_rank

    # The per-rank buffers are the whole phase-independent half of the plan.
    build_layout = pack

    def attention_seconds(self, buffer: PackedBuffer) -> float:
        """Attention time of one packed buffer under its single causal mask."""
        pairs = buffer.attention_cost_tokens_sq()
        return self.compute.attention_pairs_time(self.spec, pairs, num_layers=1)

    # -- Strategy interface ------------------------------------------------------------

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        plan = ExecutionPlan(name=f"packing:{phase}")
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase
        plan.metadata["total_tokens"] = batch.total_tokens

        compute_factor, _ = self.phase_factors(phase)
        per_rank = self.layout(batch)
        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
        tokens_per_rank: dict[int, int] = {}

        for rank, buffers in per_rank.items():
            tokens_per_rank[rank] = sum(b.used for b in buffers)
            if not buffers:
                continue
            duration = sum(self.attention_seconds(b) for b in buffers) * compute_factor
            tid = plan.add(
                name=f"attn:packed:rank{rank}:{len(buffers)}buf",
                kind=TaskKind.ATTENTION,
                duration_s=duration,
                resources=(ExecutionPlan.compute_resource(rank),),
                rank=rank,
                priority=_ATTENTION_PRIORITY,
            )
            rank_tasks[rank].append(tid)

        self.emit_linear(plan, tokens_per_rank, rank_tasks, phase=phase)
        return plan
