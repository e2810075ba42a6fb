"""The Zeppelin strategy: partitioner + attention engine + routing + remapping.

:class:`ZeppelinStrategy` glues the four layers of §3 together into a single
:class:`~repro.core.strategy.Strategy`.  Its two component switches,
``use_routing`` and ``use_remapping``, give the ablation configurations of
Fig. 11; the first bar is TE CP with routing, not this class:

===============================  =========  ===========  =============
Configuration                     routing    partitioner  remapping
===============================  =========  ===========  =============
``w/ Routing`` (TE CP)            on         off (even)   off
``w/ Attn Eng``                   off        on           off
``w/ Routing & Attn Eng``         on         on           off
``w/ All`` (full Zeppelin)        on         on           on
===============================  =========  ===========  =============

``balanced_chunking=False`` replaces the zigzag chunk assignment with a
contiguous split; Fig. 11 never sets it, and the design-ablation benchmark
uses it to measure what the zigzag split buys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attention_engine import AttentionEngine, SequenceQueues
from repro.core.partitioner import PartitionResult, SequencePartitioner
from repro.core.plan import ExecutionPlan
from repro.core.remapping import RemappingLayer, RemapPlan
from repro.core.routing import RoutingLayer
from repro.core.strategy import Strategy, StrategyContext
from repro.data.sampler import Batch
from repro.model.memory import hidden_bytes_per_token
from repro.registry import STRATEGIES


@dataclass(frozen=True)
class ZeppelinLayout:
    """Zeppelin's plan of one batch, shared by its forward and backward pass."""

    partition: PartitionResult
    queues: SequenceQueues
    linear_tokens: dict[int, int]
    """Tokens each rank's linear modules process (remapped, if ``remap``)."""
    remap: RemapPlan | None = None
    """The remapping applied before the linear modules, when it pays off."""
    remap_inverse: RemapPlan | None = None
    """The transfer restoring the attention layout after them."""


@STRATEGIES.register(
    "zeppelin",
    description="Hierarchical partitioning + attention engine + routing + remapping (full system)",
)
class ZeppelinStrategy(Strategy):
    """Zeppelin's hierarchical, routing- and remapping-aware scheduling."""

    name = "Zeppelin"

    def __init__(
        self,
        context: StrategyContext,
        use_routing: bool = True,
        use_remapping: bool = True,
        balanced_chunking: bool = True,
        remap_solver: str = "auto",
    ) -> None:
        super().__init__(context)
        self.use_routing = use_routing
        self.use_remapping = use_remapping
        # The partitioner sees the physical cluster.  With tensor parallelism
        # a reduced view of ``gpus_per_node / tp`` devices per node would be
        # the faithful mapping, but the paper's TP experiments fix ``tp = 2``
        # with partitioning still per physical node, so the planner places
        # work only on DP endpoint ranks via the token budget.
        self.partitioner = SequencePartitioner(
            cluster=self.cluster, token_budget=context.token_budget
        )
        self.routing = RoutingLayer(cluster=self.cluster, enabled=use_routing)
        self.engine = AttentionEngine(
            cluster=self.cluster,
            compute=self.compute,
            comm=self.comm,
            routing=self.routing,
            balanced_chunking=balanced_chunking,
        )
        self.remapping = RemappingLayer(cluster=self.cluster, solver=remap_solver)
        disabled = []
        if not use_routing:
            disabled.append("no routing")
        if not use_remapping:
            disabled.append("no remap")
        if disabled:
            self.name = f"Zeppelin ({', '.join(disabled)})"

    def partition(self, batch: Batch) -> PartitionResult:
        """Run the hierarchical partitioner on a batch (exposed for inspection)."""
        return self.partitioner.partition(batch)

    # -- Strategy interface ------------------------------------------------------

    def build_layout(self, batch: Batch) -> ZeppelinLayout:
        partition = self.partitioner.partition(batch)
        queues = self.engine.build_queues(partition)
        tokens_per_rank = partition.tokens_per_rank()
        # Remapping is only worth its two alltoallv transfers when the time the
        # slowest rank saves in the linear modules exceeds the transfer cost
        # (§3.4: "minimal overhead").
        if self.use_remapping:
            remap = self.remapping.plan(
                tokens_per_rank, bytes_per_token=hidden_bytes_per_token(self.spec)
            )
            counts = list(tokens_per_rank.values())
            imbalance_tokens = max(counts) - sum(counts) / len(counts)
            linear_saving = self.compute.linear_time(
                self.spec, int(imbalance_tokens), num_layers=1
            )
            if (
                remap.total_moved_tokens > 0
                and linear_saving > 2.0 * remap.max_rank_cost_s
            ):
                linear_tokens = {
                    rank: int(round(tokens))
                    for rank, tokens in zip(remap.ranks, remap.resulting_tokens())
                }
                return ZeppelinLayout(
                    partition, queues, linear_tokens, remap, remap.inverse()
                )
        return ZeppelinLayout(partition, queues, tokens_per_rank)

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        layout = self.layout(batch)
        plan = ExecutionPlan(name=f"zeppelin:{phase}")
        plan.metadata["partition"] = layout.partition
        plan.metadata["total_tokens"] = batch.total_tokens
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase

        # 1. Attention: hierarchical queues + (optionally routed) ring rounds.
        attn_tasks = self.engine.emit_attention(
            plan, layout.queues, self.spec, phase=phase
        )
        if layout.remap is None:
            self.emit_linear(plan, layout.linear_tokens, attn_tasks, phase=phase)
            return plan

        # 2. Linear modules on the token-balanced layout the remap moves to.
        incoming = self.emit_remap(
            plan, layout.remap, attn_tasks, phase=phase, label="remap_fwd"
        )
        linear_deps = {
            rank: attn_tasks.get(rank, []) + incoming.get(rank, [])
            for rank in layout.linear_tokens
        }
        linear_ids = self.emit_linear(
            plan, layout.linear_tokens, linear_deps, phase=phase
        )
        # 3. Inverse remapping restores the attention layout.
        self.emit_remap(
            plan,
            layout.remap_inverse,
            {rank: [tid] for rank, tid in linear_ids.items()},
            phase=phase,
            label="remap_bwd",
        )
        plan.metadata["remap_plan"] = layout.remap
        return plan
