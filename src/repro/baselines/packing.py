"""Input-balanced packing baseline (Fig. 2.a / Fig. 3.a).

Sequences are packed first-fit-decreasing into per-rank buffers of exactly the
token budget, so every rank sees an identical input tensor shape — perfect for
linear modules.  Attention, however, is run with the naive packed kernel whose
single causal mask wastes work on cross-sequence positions, and when Ulysses
sequence parallelism is layered on top (``ulysses_degree > 1``) every layer
additionally pays two all-to-alls over the hidden states.

This baseline is used by the Fig. 3.a cost-breakdown reproduction; the paper's
end-to-end comparison uses TE CP / LLaMA CP / Hybrid DP.
"""

from __future__ import annotations

from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.strategy import Strategy, StrategyContext
from repro.data.packing import PackedBuffer, pack_sequences
from repro.data.sampler import Batch
from repro.model.memory import hidden_bytes_per_token
from repro.registry import STRATEGIES
from repro.utils.validation import check_positive

_ATTENTION_PRIORITY = 1


@STRATEGIES.register(
    "packing",
    description="Input-balanced sequence packing into fixed-size per-rank buffers",
)
class PackingStrategy(Strategy):
    """First-fit-decreasing packing into fixed-size per-rank buffers."""

    name = "Input Pack"

    def __init__(
        self,
        context: StrategyContext,
        cross_sequence_attention: bool = True,
        ulysses_degree: int = 1,
    ) -> None:
        super().__init__(context)
        self.cross_sequence_attention = cross_sequence_attention
        check_positive("ulysses_degree", ulysses_degree)
        self.ulysses_degree = ulysses_degree
        if ulysses_degree > 1:
            self.name = f"Input Pack + Ulysses SP{ulysses_degree}"

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
        """Attention time of one packed buffer under the configured mask."""
        pairs = buffer.attention_cost_tokens_sq(self.cross_sequence_attention)
        return self.compute.attention_pairs_time(self.spec, pairs, num_layers=1)

    # -- Strategy interface ------------------------------------------------------------

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        plan = ExecutionPlan(name=f"packing:{phase}")
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase
        plan.metadata["total_tokens"] = batch.total_tokens

        compute_factor, comm_factor = self.phase_factors(phase)
        per_rank = self.layout(batch)
        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
        tokens_per_rank: dict[int, int] = {}

        # Optional Ulysses all-to-all before attention (head <-> sequence swap),
        # and back after it, in each group of ``ulysses_degree`` DP ranks.
        ranks = self.context.dp_ranks
        groups = [
            group
            for i in range(0, len(ranks), self.ulysses_degree)
            if len(group := ranks[i : i + self.ulysses_degree]) >= 2
        ]
        per_rank_bytes = hidden_bytes_per_token(self.spec) * self.context.token_budget
        a2a_ids: dict[int, int] = {}
        for group in groups:
            a2a_ids.update(
                self.emit_all_to_all(
                    plan, group, per_rank_bytes, {}, label="ulysses_a2a_in", phase=phase
                )
            )

        for rank, buffers in per_rank.items():
            tokens_per_rank[rank] = sum(b.used for b in buffers)
            if not buffers:
                continue
            duration = sum(self.attention_seconds(b) for b in buffers) * compute_factor
            deps = [a2a_ids[rank]] if rank in a2a_ids else []
            tid = plan.add(
                name=f"attn:packed:rank{rank}:{len(buffers)}buf",
                kind=TaskKind.ATTENTION,
                duration_s=duration,
                resources=(ExecutionPlan.compute_resource(rank),),
                deps=deps,
                rank=rank,
                priority=_ATTENTION_PRIORITY,
            )
            rank_tasks[rank].append(tid)

        for group in groups:
            self.emit_all_to_all(
                plan,
                group,
                per_rank_bytes,
                rank_tasks,
                label="ulysses_a2a_out",
                phase=phase,
            )

        self.emit_linear(plan, tokens_per_rank, rank_tasks, phase=phase)
        return plan
