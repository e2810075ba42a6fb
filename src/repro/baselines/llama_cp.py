"""LLaMA-style context parallelism baseline ("LLaMA CP").

Replicates the CP approach used in LLaMA 3 training (and WLB-LLM): the KV
activations of every sequence are all-gathered across the context-parallel
group *before* attention, then each rank computes attention of its query shard
against the complete KV.  The all-gather uses optimised collectives that stripe
the node-boundary traffic over all NICs — which is why it beats TE CP's
single-NIC ring hops — but it sits on the critical path (no overlap with
attention compute) and its volume grows linearly with total sequence length.

Query shards use the same zigzag assignment as the other strategies so the
causal work stays balanced.
"""

from __future__ import annotations

from repro.core.attention_engine import causal_pairs_between
from repro.core.chunking import zigzag_assignment
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.strategy import Strategy
from repro.data.sampler import Batch
from repro.registry import STRATEGIES

_ALLGATHER_PRIORITY = 0
_ATTENTION_PRIORITY = 1


@STRATEGIES.register(
    "llama_cp",
    description="All-gather KV across the CP group, then local attention (LLaMA 3 style)",
)
class LlamaCPStrategy(Strategy):
    """All-gather KV then local attention (LLaMA 3 / WLB-LLM style CP)."""

    name = "LLaMA CP"

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        plan = ExecutionPlan(name=f"llama_cp:{phase}")
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase
        plan.metadata["total_tokens"] = batch.total_tokens

        ranks = self.context.dp_ranks
        group_size = len(ranks)
        compute_factor, comm_factor = self.phase_factors(phase)

        # Each rank contributes its local KV shard to the all-gather.  The
        # collective is a standard NCCL ring whose path crosses each node
        # boundary twice, so the node-boundary traffic is striped over 2 NICs.
        kv_bytes_per_rank = (
            self.comm.kv_chunk_bytes(self.spec, batch.total_tokens) / group_size
        ) * comm_factor
        allgather_time = self.comm.allgather_time(ranks, kv_bytes_per_rank, nics=2)

        allgather_ids: dict[int, int] = {}
        for rank in ranks:
            allgather_ids[rank] = plan.add(
                name=f"allgather_kv:rank{rank}",
                kind=TaskKind.ALLGATHER,
                duration_s=allgather_time,
                resources=(
                    ExecutionPlan.nvlink_resource(rank, "tx"),
                    ExecutionPlan.nvlink_resource(rank, "rx"),
                ),
                deps=(),
                rank=rank,
                priority=_ALLGATHER_PRIORITY,
            )

        # Attention: each rank attends its query shard against the full KV.
        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
        pairs_per_rank = {rank: 0.0 for rank in ranks}
        tokens_per_rank = {rank: 0 for rank in ranks}
        for seq in batch:
            assignments = zigzag_assignment(seq.length, group_size)
            for i, rank in enumerate(ranks):
                a = assignments[i]
                tokens_per_rank[rank] += a.tokens
                for q_chunk in (a.head_chunk, a.tail_chunk):
                    pairs_per_rank[rank] += causal_pairs_between(
                        q_chunk, (0, seq.length)
                    )

        for rank in ranks:
            pairs = pairs_per_rank[rank]
            if pairs <= 0:
                continue
            duration = (
                self.compute.attention_pairs_time(self.spec, pairs, num_layers=1)
                * compute_factor
            )
            tid = plan.add(
                name=f"attn:llama_cp:rank{rank}",
                kind=TaskKind.ATTENTION,
                duration_s=duration,
                resources=(ExecutionPlan.compute_resource(rank),),
                deps=(allgather_ids[rank],),
                rank=rank,
                priority=_ATTENTION_PRIORITY,
            )
            rank_tasks[rank].append(tid)

        # Linear modules: the even query split keeps tokens balanced.
        self.emit_linear(plan, tokens_per_rank, rank_tasks, phase=phase)
        plan.validate()
        return plan
