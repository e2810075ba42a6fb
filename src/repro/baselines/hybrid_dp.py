"""FLOP-balanced hybrid data parallelism baseline ("Hybrid DP").

Reproduces the ByteScale/FlexSP family of hybrid schemes (Fig. 2.c).  The DP
group is split once per iteration into

* a **CP group** of contiguous ranks sized so the longest sequence fits its
  aggregate token budget, which processes the long sequences one per
  micro-batch with ring attention (no routing, static GPU-NIC affinity), and
* the remaining **DP ranks**, which each process whole short sequences.

Work is assigned to balance estimated FLOPs, and the iteration executes as a
series of synchronised micro-batches (gradient accumulation steps): micro-batch
``k`` must finish on every rank before micro-batch ``k + 1`` starts.  This is
the model-level, coarse-grained parallelism the paper contrasts with Zeppelin's
per-sequence scheduling, and it exhibits the three inefficiencies of §2.3:

* extra micro-batches lower per-micro-batch token counts and compute intensity,
* ranks processing short sequences leave their NICs idle while the CP group's
  ring hops funnel through single NICs,
* the token distribution is balanced for FLOPs, not for linear modules, and the
  FLOP estimate ignores MoE routing imbalance entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.attention_engine import AttentionEngine, RingGroup
from repro.core.chunking import zigzag_assignment
from repro.core.partitioner import RingSpec
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.routing import RoutingLayer
from repro.core.strategy import Strategy, StrategyContext
from repro.core.zones import Zone
from repro.data.sampler import Batch, Sequence
from repro.model.flops import attention_flops, linear_flops_per_token
from repro.model.memory import token_capacity
from repro.registry import STRATEGIES

_LOCAL_PRIORITY = 2

# Expert load imbalance of MoE layers under FLOP-based token assignment: the
# hottest expert receives this multiple of the mean load (§5.1's observation
# that Hybrid DP's FLOP estimate breaks for MoE models).
_MOE_IMBALANCE_FACTOR = 1.6

# Per-micro-batch synchronisation overhead (kernel launches, gradient
# accumulation bookkeeping, collective setup) per layer.
_MICROBATCH_OVERHEAD_S = 60e-6


@dataclass
class MicroBatch:
    """One gradient-accumulation step of the hybrid schedule.

    Attributes
    ----------
    index:
        Position in the gradient-accumulation sequence.
    cp_groups:
        ``(sequence, ranks)`` pairs: long sequences executed with ring CP on a
        dedicated contiguous rank block during this micro-batch.
    dp_sequences:
        Short sequences each rank processes whole during this micro-batch.
    """

    index: int
    cp_groups: list[tuple[Sequence, tuple[int, ...]]] = field(default_factory=list)
    dp_sequences: dict[int, list[Sequence]] = field(default_factory=dict)

    def tokens_on_rank(self, rank: int) -> int:
        tokens = sum(s.length for s in self.dp_sequences.get(rank, []))
        for seq, ranks in self.cp_groups:
            if rank in ranks:
                tokens += seq.length // len(ranks)
        return tokens


@dataclass
class HybridAssignment:
    """The per-iteration micro-batch schedule."""

    micro_batches: list[MicroBatch]

    @property
    def num_micro_batches(self) -> int:
        return len(self.micro_batches)

    @property
    def num_cp_groups(self) -> int:
        return sum(len(mb.cp_groups) for mb in self.micro_batches)

    def tokens_per_rank(self, all_ranks: tuple[int, ...]) -> dict[int, int]:
        totals = {rank: 0 for rank in all_ranks}
        for mb in self.micro_batches:
            for rank in all_ranks:
                totals[rank] += mb.tokens_on_rank(rank)
        return totals


@STRATEGIES.register(
    "hybrid_dp",
    description="FLOP-balanced hybrid of plain DP (short) and ring CP (long sequences)",
)
class HybridDPStrategy(Strategy):
    """ByteScale-style hybrid of plain DP (short) and ring CP (long sequences)."""

    name = "Hybrid DP"

    def __init__(self, context: StrategyContext) -> None:
        super().__init__(context)
        self.routing = RoutingLayer(cluster=self.cluster, enabled=False)
        self.engine = AttentionEngine(
            cluster=self.cluster,
            compute=self.compute,
            comm=self.comm,
            routing=self.routing,
            balanced_chunking=True,
        )
        # Hybrid schemes size their CP groups by what *fits in memory*, not by
        # the per-iteration token budget: a sequence only becomes a "long"
        # (CP-handled) sequence when it cannot fit a single device.  If the
        # model itself does not fit the configured memory/TP combination, fall
        # back to a multiple of the iteration budget so planning still works.
        try:
            self.memory_capacity = token_capacity(
                context.spec,
                context.cluster.gpu_memory_bytes,
                tensor_parallel=context.tensor_parallel,
            )
        except ValueError:
            self.memory_capacity = 8 * context.token_budget

    # -- assignment -------------------------------------------------------------------

    def _seq_flops(self, length: int) -> float:
        return attention_flops(self.spec, length, num_layers=1) + (
            linear_flops_per_token(self.spec, num_layers=1) * length
        )

    def _group_size(self, length: int, avg_flops_per_rank: float, world: int) -> int:
        """FLOP-balanced CP group size for a long sequence (memory as a floor)."""
        size_mem = math.ceil(length / self.memory_capacity)
        size_flop = math.ceil(self._seq_flops(length) / avg_flops_per_rank)
        return min(world, max(2, size_mem, size_flop))

    def assign(self, batch: Batch) -> HybridAssignment:
        """Build the micro-batch schedule.

        A sequence is "long" (CP-handled) when its FLOPs exceed what one rank
        should carry under perfect FLOP balance, or when it does not fit device
        memory.  Each long sequence receives a contiguous block of ranks sized
        for FLOP balance; blocks that do not fit alongside each other spill
        into additional micro-batches.  Short sequences fill the remaining
        (rank, micro-batch) slots greedily by FLOP load, constrained by device
        memory.
        """
        ranks = list(self.context.dp_ranks)
        world = len(ranks)
        capacity = self.memory_capacity
        ordered = list(batch.sorted_by_length(descending=True))
        avg_flops_per_rank = sum(self._seq_flops(s.length) for s in ordered) / world
        long_seqs = [
            s
            for s in ordered
            if s.length > capacity
            or (
                s.length > self.context.token_budget
                and self._seq_flops(s.length) > 1.25 * avg_flops_per_rank
            )
        ]
        long_ids = {s.seq_id for s in long_seqs}
        short_seqs = [s for s in ordered if s.seq_id not in long_ids]

        micro_batches: list[MicroBatch] = [MicroBatch(index=0)]
        flop_load: dict[tuple[int, int], float] = {(0, r): 0.0 for r in ranks}
        token_load: dict[tuple[int, int], int] = {(0, r): 0 for r in ranks}
        next_free_rank: dict[int, int] = {0: 0}

        def add_micro_batch() -> MicroBatch:
            mb = MicroBatch(index=len(micro_batches))
            micro_batches.append(mb)
            next_free_rank[mb.index] = 0
            for r in ranks:
                flop_load[(mb.index, r)] = 0.0
                token_load[(mb.index, r)] = 0
            return mb

        # Long sequences: dedicated contiguous rank blocks, packed left to right
        # within a micro-batch; a block that does not fit starts a new one.
        for seq in long_seqs:
            size = self._group_size(seq.length, avg_flops_per_rank, world)
            placed = False
            for mb in micro_batches:
                start = next_free_rank[mb.index]
                if start + size <= world:
                    group_ranks = tuple(ranks[start : start + size])
                    mb.cp_groups.append((seq, group_ranks))
                    next_free_rank[mb.index] = start + size
                    share_flops = self._seq_flops(seq.length) / size
                    share_tokens = seq.length // size
                    for r in group_ranks:
                        flop_load[(mb.index, r)] += share_flops
                        token_load[(mb.index, r)] += share_tokens
                    placed = True
                    break
            if not placed:
                mb = add_micro_batch()
                size = min(size, world)
                group_ranks = tuple(ranks[:size])
                mb.cp_groups.append((seq, group_ranks))
                next_free_rank[mb.index] = size
                share_flops = self._seq_flops(seq.length) / size
                share_tokens = seq.length // size
                for r in group_ranks:
                    flop_load[(mb.index, r)] += share_flops
                    token_load[(mb.index, r)] += share_tokens

        # Short sequences: FLOP-balanced placement constrained by memory.
        for seq in short_seqs:
            flops = self._seq_flops(seq.length)
            placed = False
            while not placed:
                candidates = [
                    (mb.index, rank)
                    for mb in micro_batches
                    for rank in ranks
                    if token_load[(mb.index, rank)] + seq.length <= capacity
                ]
                if not candidates:
                    add_micro_batch()
                    continue
                slot = min(candidates, key=lambda key: flop_load[key])
                mb_index, rank = slot
                micro_batches[mb_index].dp_sequences.setdefault(rank, []).append(seq)
                flop_load[slot] += flops
                token_load[slot] += seq.length
                placed = True

        return HybridAssignment(micro_batches=micro_batches)

    # -- Strategy interface --------------------------------------------------------------

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        plan = ExecutionPlan(name=f"hybrid_dp:{phase}")
        plan.metadata["strategy"] = self.name
        plan.metadata["phase"] = phase
        plan.metadata["total_tokens"] = batch.total_tokens

        compute_factor, comm_factor = self.phase_factors(phase)
        assignment = self.assign(batch)
        plan.metadata["num_micro_batches"] = assignment.num_micro_batches
        plan.metadata["num_cp_groups"] = assignment.num_cp_groups

        all_ranks = self.context.dp_ranks
        barrier_deps: list[int] = []
        ring_id = 0

        for mb in assignment.micro_batches:
            mb_task_ids: list[int] = []
            rank_tasks: dict[int, list[int]] = {r: list(barrier_deps) for r in self.cluster.iter_ranks()}
            mb_tokens: dict[int, int] = {rank: 0 for rank in all_ranks}

            for seq, group_ranks in mb.cp_groups:
                group_size = len(group_ranks)
                spec = RingSpec(
                    ring_id=ring_id,
                    seq_id=seq.seq_id,
                    zone=Zone.INTER_NODE
                    if len({self.cluster.gpu(r).node_id for r in group_ranks}) > 1
                    else Zone.INTRA_NODE,
                    ranks=group_ranks,
                    seq_len=seq.length,
                )
                ring_id += 1
                assignments = tuple(zigzag_assignment(seq.length, group_size))
                group = RingGroup(spec=spec, assignments=assignments)
                before = plan.num_tasks
                self.engine._emit_ring(
                    plan,
                    group,
                    self.spec,
                    compute_factor,
                    comm_factor,
                    rank_tasks,
                    initial_deps=tuple(barrier_deps),
                )
                mb_task_ids.extend(range(before, plan.num_tasks))
                for i, rank in enumerate(group_ranks):
                    mb_tokens[rank] += assignments[i].tokens

            for rank, seqs in mb.dp_sequences.items():
                if not seqs:
                    continue
                duration = sum(
                    self.compute.attention_time(self.spec, s.length, num_layers=1)
                    for s in seqs
                )
                duration *= compute_factor
                tid = plan.add(
                    name=f"attn:dp:mb{mb.index}:rank{rank}:{len(seqs)}seqs",
                    kind=TaskKind.ATTENTION,
                    duration_s=duration,
                    resources=(ExecutionPlan.compute_resource(rank),),
                    deps=tuple(barrier_deps),
                    rank=rank,
                    priority=_LOCAL_PRIORITY,
                )
                rank_tasks[rank].append(tid)
                mb_task_ids.append(tid)
                mb_tokens[rank] += sum(s.length for s in seqs)

            # Linear modules of this micro-batch on each rank's (unbalanced)
            # token count; MoE expert imbalance inflates the slowest rank.
            linear_tokens = dict(mb_tokens)
            if self.spec.is_moe:
                linear_tokens = {
                    rank: int(round(tokens * _MOE_IMBALANCE_FACTOR))
                    for rank, tokens in linear_tokens.items()
                }
            linear_ids = self.emit_linear(plan, linear_tokens, rank_tasks, phase=phase)
            mb_task_ids.extend(linear_ids.values())

            # Gradient-accumulation boundary: every rank synchronises before the
            # next micro-batch starts.
            barrier = plan.add(
                name=f"microbatch_barrier:{mb.index}",
                kind=TaskKind.OTHER,
                duration_s=_MICROBATCH_OVERHEAD_S,
                resources=(),
                deps=tuple(mb_task_ids) if mb_task_ids else tuple(barrier_deps),
                rank=-1,
                priority=_LOCAL_PRIORITY,
            )
            barrier_deps = [barrier]

        plan.validate()
        return plan
