"""Transformer Engine context parallelism baseline ("TE CP").

Every sequence is split evenly across *all* DP ranks and executed with
causal-balanced (zigzag) ring attention over a single global ring, exactly like
Transformer Engine's context parallelism with variable-length inputs.  Linear
modules are perfectly token-balanced by construction.

The inefficiency the paper highlights (Fig. 3.b): every sequence — however
short — pays ``G`` rounds of KV communication whose node-boundary hops cross a
single NIC, so batches dominated by short sequences become communication-bound.

``use_routing=True`` turns on Zeppelin's routing layer on top of this even
split, which is the "w/ Routing" ablation configuration of Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.attention_engine import AttentionEngine, RingGroup
from repro.core.chunking import ChunkAssignment, zigzag_assignment
from repro.core.partitioner import RingSpec
from repro.core.plan import ExecutionPlan
from repro.core.routing import RoutingLayer
from repro.core.strategy import Strategy, StrategyContext
from repro.core.zones import Zone
from repro.data.sampler import Batch
from repro.registry import STRATEGIES


@dataclass(frozen=True)
class BatchRingGroup:
    """A ring executing *all* sequences of a batch together.

    Duck-types the :class:`~repro.core.attention_engine.RingGroup` interface
    used by the attention engine's ring emitter: per round, the compute of a
    rank is the sum over sequences of its causal-visible pairs (the sum of the
    sequences' pair matrices), and the payload it forwards is the sum of its
    owned KV chunks across sequences — matching how Transformer Engine batches
    all sequences into each ring round.
    """

    spec: RingSpec
    per_sequence: tuple[RingGroup, ...]

    @property
    def group_size(self) -> int:
        return self.spec.group_size

    def tokens_of(self, ring_index: int) -> int:
        return sum(g.tokens_of(ring_index) for g in self.per_sequence)

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        total = np.zeros((self.group_size, self.group_size), dtype=np.int64)
        for group in self.per_sequence:
            total += group.pair_matrix
        return total


@STRATEGIES.register(
    "te_cp",
    description="Even sequence splitting with balanced ring attention (TransformerEngine CP)",
)
class TransformerEngineCPStrategy(Strategy):
    """Even sequence splitting over one global ring (Transformer Engine CP)."""

    name = "TE CP"

    def __init__(self, context: StrategyContext, use_routing: bool = False) -> None:
        super().__init__(context)
        self.use_routing = use_routing
        self.routing = RoutingLayer(cluster=self.cluster, enabled=use_routing)
        self.engine = AttentionEngine(
            cluster=self.cluster,
            compute=self.compute,
            comm=self.comm,
            routing=self.routing,
            balanced_chunking=True,
        )
        if use_routing:
            self.name = "TE CP + Routing"

    # -- ring construction -----------------------------------------------------------

    def build_global_ring(self, batch: Batch) -> BatchRingGroup:
        """Build the single global ring carrying every sequence of the batch."""
        ranks = self.context.dp_ranks
        group_size = len(ranks)
        zone = Zone.INTER_NODE if self.cluster.num_nodes > 1 else Zone.INTRA_NODE
        per_sequence = []
        for seq in batch:
            spec = RingSpec(
                ring_id=seq.seq_id,
                seq_id=seq.seq_id,
                zone=zone,
                ranks=ranks,
                seq_len=seq.length,
            )
            assignments: tuple[ChunkAssignment, ...] = tuple(
                zigzag_assignment(seq.length, group_size)
            )
            per_sequence.append(RingGroup(spec=spec, assignments=assignments))
        batch_spec = RingSpec(
            ring_id=0,
            seq_id=0,
            zone=zone,
            ranks=ranks,
            seq_len=batch.total_tokens,
        )
        return BatchRingGroup(spec=batch_spec, per_sequence=tuple(per_sequence))

    def build_layout(self, batch: Batch) -> tuple[BatchRingGroup, dict[int, int]]:
        """The global ring and the tokens each DP rank holds on it."""
        ring = self.build_global_ring(batch)
        tokens = {
            rank: ring.tokens_of(i) for i, rank in enumerate(self.context.dp_ranks)
        }
        return ring, tokens

    def tokens_per_rank(self, batch: Batch) -> dict[int, int]:
        """Even split: every DP rank holds ``total_tokens / world`` tokens."""
        return self.layout(batch)[1]

    # -- Strategy interface ---------------------------------------------------------------

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        plan = ExecutionPlan(name=f"te_cp:{phase}")
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase
        plan.metadata["total_tokens"] = batch.total_tokens

        ring, tokens = self.layout(batch)
        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
        compute_factor, comm_factor = self.phase_factors(phase)
        self.engine.emit_ring(
            plan, ring, self.spec, compute_factor, comm_factor, rank_tasks
        )

        self.emit_linear(plan, tokens, rank_tasks, phase=phase)
        return plan
