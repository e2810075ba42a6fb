"""Attention Engine (§3.2): queue construction and ring-round scheduling.

Given a :class:`~repro.core.partitioner.PartitionResult`, the engine builds the
three sequence queues each device executes — inter-node rings, intra-node
rings, and local sequences — and emits the corresponding task graph for one
transformer layer:

* ring groups execute ``G`` rounds; in round ``k`` every rank computes the
  causal-visible attention pairs between its query chunks and the KV chunks it
  currently holds, while forwarding its held KV payload to the next rank,
* inter-node hops are decomposed by the routing layer (§3.3) into dispatch /
  multi-NIC transfer / combine tasks,
* local sequences execute a single variable-length attention task,
* queue priorities encode the inter -> intra -> local execution order that lets
  inter-node rings launch first and local work fill the gaps.

Causal balance within a ring comes from the zigzag chunk assignment
(:mod:`repro.core.chunking`); the per-round work is the exact number of
mask-visible (query, key) pairs, so tests can check that the per-rank totals
sum to the monolithic causal cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.chunking import ChunkAssignment, contiguous_assignment, zigzag_assignment
from repro.core.partitioner import PartitionResult, Placement, RingSpec
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.routing import RoutingLayer
from repro.core.zones import Zone
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.model.spec import TransformerSpec
from repro.utils.validation import check_in

# Queue priorities: lower starts first on a busy compute stream.
_PRIORITY = {Zone.INTER_NODE: 0, Zone.INTRA_NODE: 1, Zone.LOCAL: 2}

# Backward passes move gradients of KV alongside KV and roughly double compute.
_BACKWARD_COMPUTE_FACTOR = 2.0
_BACKWARD_COMM_FACTOR = 2.0


def causal_pairs_between(
    q_range: tuple[int, int], kv_range: tuple[int, int]
) -> float:
    """Number of causal-mask-visible (query, key) pairs between two token ranges.

    ``q_range`` and ``kv_range`` are ``(start, length)`` spans of absolute
    positions within the same sequence; a query at position ``p`` sees keys at
    positions ``<= p``.
    """
    q_start, q_len = q_range
    kv_start, kv_len = kv_range
    if q_len <= 0 or kv_len <= 0:
        return 0.0
    kv_end = kv_start + kv_len  # exclusive
    total = 0.0
    lo = q_start
    hi = q_start + q_len - 1
    # Region where the query sees the full KV range: p >= kv_end - 1.
    full_lo = max(lo, kv_end - 1)
    if full_lo <= hi:
        total += (hi - full_lo + 1) * kv_len
    # Region where the query sees a prefix of the KV range: kv_start <= p < kv_end - 1.
    part_lo = max(lo, kv_start)
    part_hi = min(hi, kv_end - 2)
    if part_lo <= part_hi:
        count = part_hi - part_lo + 1
        first = part_lo + 1 - kv_start
        last = part_hi + 1 - kv_start
        total += count * (first + last) / 2.0
    return total


def ring_pair_matrix(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """All-pairs causal counts of a ring's chunks, in one int64 pass.

    ``starts`` and ``lengths`` are ``(G, C)`` arrays: the ``(start, length)``
    of each ring rank's ``C`` chunks.  Entry ``[i, o]`` of the ``(G, G)``
    result is the number of causal pairs rank ``i``'s query chunks see in rank
    ``o``'s KV chunks — :func:`causal_pairs_between` summed over every chunk
    pair, evaluated on a ``(G, C, G, C)`` grid.  Counts are exact integers:
    the prefix region is an arithmetic series whose ``count * (first +
    last)`` is always even.
    """
    q_lo = starts[:, :, None, None]
    q_hi = q_lo + lengths[:, :, None, None] - 1
    kv_start = starts[None, None, :, :]
    kv_len = lengths[None, None, :, :]
    kv_end = kv_start + kv_len
    # Queries at p >= kv_end - 1 see the whole KV chunk.
    full = np.maximum(q_hi - np.maximum(q_lo, kv_end - 1) + 1, 0) * kv_len
    # Queries at kv_start <= p < kv_end - 1 see a prefix of it.
    part_lo = np.maximum(q_lo, kv_start)
    part_hi = np.minimum(q_hi, kv_end - 2)
    count = np.maximum(part_hi - part_lo + 1, 0)
    part = count * (part_lo + part_hi + 2 - 2 * kv_start) // 2
    return (full + part).sum(axis=(1, 3))


@dataclass(frozen=True)
class RingGroup:
    """A ring specification plus the chunk assignment of each member rank."""

    spec: RingSpec
    assignments: tuple[ChunkAssignment, ...]

    @property
    def group_size(self) -> int:
        return self.spec.group_size

    def tokens_of(self, ring_index: int) -> int:
        return self.assignments[ring_index].tokens

    @cached_property
    def pair_matrix(self) -> np.ndarray:
        """``(G, G)`` int64: ``[i, o]`` = pairs rank ``i`` sees in owner ``o``'s KV."""
        chunks = np.array(
            [(a.head_chunk, a.tail_chunk) for a in self.assignments], dtype=np.int64
        )
        return ring_pair_matrix(chunks[..., 0], chunks[..., 1])

    def round_pairs(self, ring_index: int, round_index: int) -> int:
        """Causal pairs rank ``ring_index`` evaluates in round ``round_index``.

        In round ``k`` the rank holds the KV chunks originally owned by ring
        index ``(ring_index - k) mod G``.
        """
        owner = (ring_index - round_index) % self.group_size
        return int(self.pair_matrix[ring_index, owner])


@dataclass
class SequenceQueues:
    """The three per-zone work queues built from a partition result."""

    inter: list[RingGroup] = field(default_factory=list)
    intra: list[RingGroup] = field(default_factory=list)
    local: dict[int, list[Placement]] = field(default_factory=dict)

    def all_rings(self) -> list[RingGroup]:
        return list(self.inter) + list(self.intra)

    def local_tokens(self, rank: int) -> int:
        return sum(p.tokens for p in self.local.get(rank, []))


@dataclass
class AttentionEngine:
    """Builds queues and emits the attention task graph for one layer.

    Parameters
    ----------
    cluster, compute, comm:
        Hardware model and cost models.
    routing:
        The routing layer used for inter-node hops; pass one with
        ``enabled=False`` to reproduce the no-routing ablation.
    balanced_chunking:
        Use the zigzag causal-balanced assignment (default).  ``False`` falls
        back to a contiguous even split, used to quantify the benefit of
        balance in the ablation tests.
    """

    cluster: Cluster
    compute: ComputeCostModel
    comm: CommCostModel
    routing: RoutingLayer
    balanced_chunking: bool = True

    # -- queue construction -------------------------------------------------------

    def build_queues(self, partition: PartitionResult) -> SequenceQueues:
        """Construct inter/intra/local queues from a partition result."""
        queues = SequenceQueues()
        for ring in partition.rings:
            if self.balanced_chunking:
                assignments = tuple(zigzag_assignment(ring.seq_len, ring.group_size))
            else:
                assignments = tuple(
                    contiguous_assignment(ring.seq_len, ring.group_size)
                )
            group = RingGroup(spec=ring, assignments=assignments)
            if ring.zone == Zone.INTER_NODE:
                queues.inter.append(group)
            else:
                queues.intra.append(group)
        for rank, placements in partition.placements.items():
            locals_ = [p for p in placements if p.zone == Zone.LOCAL]
            if locals_:
                queues.local[rank] = locals_
        return queues

    # -- emission -----------------------------------------------------------------

    def emit_attention(
        self,
        plan: ExecutionPlan,
        partition: PartitionResult,
        spec: TransformerSpec,
        phase: str = "forward",
    ) -> dict[int, list[int]]:
        """Emit the attention tasks of one layer into ``plan``.

        Returns a mapping from global rank to the ids of the attention tasks
        attributed to that rank, so downstream stages (remapping, linear
        modules) can depend on them.
        """
        check_in("phase", phase, ("forward", "backward"))
        queues = self.build_queues(partition)
        return self.emit_queues(plan, queues, spec, phase)

    def emit_queues(
        self,
        plan: ExecutionPlan,
        queues: SequenceQueues,
        spec: TransformerSpec,
        phase: str = "forward",
    ) -> dict[int, list[int]]:
        """Emit tasks for pre-built queues (used by baselines sharing the engine)."""
        check_in("phase", phase, ("forward", "backward"))
        compute_factor = 1.0 if phase == "forward" else _BACKWARD_COMPUTE_FACTOR
        comm_factor = 1.0 if phase == "forward" else _BACKWARD_COMM_FACTOR

        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}

        for group in queues.inter:
            self._emit_ring(plan, group, spec, compute_factor, comm_factor, rank_tasks)
        for group in queues.intra:
            self._emit_ring(plan, group, spec, compute_factor, comm_factor, rank_tasks)
        for rank, placements in queues.local.items():
            self._emit_local(
                plan, rank, placements, spec, compute_factor, rank_tasks
            )
        return rank_tasks

    # -- ring emission ----------------------------------------------------------------

    def _emit_ring(
        self,
        plan: ExecutionPlan,
        group: RingGroup,
        spec: TransformerSpec,
        compute_factor: float,
        comm_factor: float,
        rank_tasks: dict[int, list[int]],
        initial_deps: tuple[int, ...] = (),
    ) -> None:
        ring = group.spec
        g = ring.group_size
        priority = _PRIORITY[ring.zone]
        kv_per_token = self.comm.kv_chunk_bytes(spec, 1)

        # pairs[i][o]: causal pairs rank i computes against owner o's KV chunks
        # (exact integers, so float() gives the bit-identical durations).
        pairs = group.pair_matrix.tolist()
        owner_tokens = [group.tokens_of(o) for o in range(g)]
        # Rings repeat few pair counts (60 distinct of te_cp's 16,384 at G=128).
        durations: dict[int, float] = {}
        compute_resources = [(ExecutionPlan.compute_resource(r),) for r in ring.ranks]
        zone = ring.zone.value

        # recv_ready[i] holds the task id after which rank i holds the payload
        # for the *next* round (i.e. the hop into rank i has completed).
        recv_ready: list[int | None] = [None] * g

        for round_index in range(g):
            label = f"{zone}:seq{ring.seq_id}:r{round_index}"
            for i, rank in enumerate(ring.ranks):
                round_pairs = pairs[i][(i - round_index) % g]
                if round_pairs > 0:
                    ready = recv_ready[i]
                    deps = list(initial_deps) if ready is None else [ready]
                    duration = durations.get(round_pairs)
                    if duration is None:
                        duration = durations[round_pairs] = (
                            self.compute.attention_pairs_time(
                                spec, float(round_pairs), num_layers=1
                            )
                            * compute_factor
                        )
                    tid = plan.add(
                        name=f"attn:{label}:rank{rank}",
                        kind=TaskKind.ATTENTION,
                        duration_s=duration,
                        resources=compute_resources[i],
                        deps=deps,
                        rank=rank,
                        priority=priority,
                    )
                    rank_tasks[rank].append(tid)

            if round_index == g - 1:
                break

            # Send the payload each rank currently holds to its successor.
            new_recv_ready: list[int | None] = [None] * g
            for i, rank in enumerate(ring.ranks):
                owner = (i - round_index) % g
                nbytes = owner_tokens[owner] * kv_per_token * comm_factor
                dst_rank = ring.ranks[(i + 1) % g]
                ready = recv_ready[i]
                deps = list(initial_deps) if ready is None else [ready]
                hop_end = self._emit_hop(
                    plan,
                    src_rank=rank,
                    dst_rank=dst_rank,
                    nbytes=nbytes,
                    ring_ranks=ring.ranks,
                    deps=deps,
                    priority=priority,
                    label=label,
                )
                new_recv_ready[(i + 1) % g] = hop_end
            recv_ready = new_recv_ready

    def _emit_hop(
        self,
        plan: ExecutionPlan,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        ring_ranks: tuple[int, ...],
        deps: list[int],
        priority: int,
        label: str,
    ) -> int:
        """Emit the communication tasks of one ring hop; return the final task id."""
        if nbytes <= 0:
            return plan.add(
                name=f"hop:{label}:{src_rank}->{dst_rank}:empty",
                kind=TaskKind.INTRA_COMM,
                duration_s=0.0,
                resources=(),
                deps=deps,
                rank=src_rank,
                priority=priority,
            )
        if self.cluster.same_node(src_rank, dst_rank):
            duration = self.comm.intra_node_time(nbytes)
            return plan.add(
                name=f"hop:{label}:{src_rank}->{dst_rank}:intra",
                kind=TaskKind.INTRA_COMM,
                duration_s=duration,
                resources=(
                    ExecutionPlan.nvlink_resource(src_rank, "tx"),
                    ExecutionPlan.nvlink_resource(dst_rank, "rx"),
                ),
                deps=deps,
                rank=src_rank,
                priority=priority,
            )

        decision = self.routing.route(src_rank, dst_rank, nbytes, ring_ranks=ring_ranks)
        transfer_deps: dict[tuple[int, int], int] = {}
        final_ids: list[int] = []

        for t in decision.transfers_for_step("dispatch"):
            tid = plan.add(
                name=f"dispatch:{label}:{t.src_rank}->{t.dst_rank}",
                kind=TaskKind.DISPATCH,
                duration_s=self.comm.intra_node_time(t.nbytes),
                resources=(
                    ExecutionPlan.nvlink_resource(t.src_rank, "tx"),
                    ExecutionPlan.nvlink_resource(t.dst_rank, "rx"),
                ),
                deps=deps,
                rank=t.src_rank,
                priority=priority,
            )
            transfer_deps[(t.dst_rank, t.src_rank)] = tid

        # Map: recv proxy rank -> id of the inter-node transfer task landing there.
        transfer_by_recv_proxy: dict[int, int] = {}
        for t in decision.transfers_for_step("transfer"):
            src_nic = self.cluster.nic_of(t.src_rank)
            dst_nic = self.cluster.nic_of(t.dst_rank)
            t_deps = list(deps)
            key = (t.src_rank, src_rank)
            if key in transfer_deps:
                t_deps.append(transfer_deps[key])
            tid = plan.add(
                name=f"transfer:{label}:{t.src_rank}->{t.dst_rank}",
                kind=TaskKind.INTER_COMM,
                duration_s=self.comm.inter_node_time(t.nbytes, nics=1),
                resources=(
                    ExecutionPlan.nic_resource(src_nic.nic_id, "tx"),
                    ExecutionPlan.nic_resource(dst_nic.nic_id, "rx"),
                ),
                deps=t_deps,
                rank=t.src_rank,
                priority=priority,
            )
            transfer_by_recv_proxy[t.dst_rank] = tid
            final_ids.append(tid)

        combine_ids: list[int] = []
        consumed_transfers: set[int] = set()
        for t in decision.transfers_for_step("combine"):
            c_deps = list(deps)
            if t.src_rank in transfer_by_recv_proxy:
                dep_tid = transfer_by_recv_proxy[t.src_rank]
                c_deps.append(dep_tid)
                consumed_transfers.add(dep_tid)
            tid = plan.add(
                name=f"combine:{label}:{t.src_rank}->{t.dst_rank}",
                kind=TaskKind.COMBINE,
                duration_s=self.comm.intra_node_time(t.nbytes),
                resources=(
                    ExecutionPlan.nvlink_resource(t.src_rank, "tx"),
                    ExecutionPlan.nvlink_resource(t.dst_rank, "rx"),
                ),
                deps=c_deps,
                rank=t.src_rank,
                priority=priority,
            )
            combine_ids.append(tid)

        # Barrier marking the hop complete at the destination: all combines plus
        # any transfer that landed directly on the destination rank.
        end_deps = combine_ids + [
            tid for tid in final_ids if tid not in consumed_transfers
        ]
        return plan.add(
            name=f"hop:{label}:{src_rank}->{dst_rank}:done",
            kind=TaskKind.INTER_COMM,
            duration_s=0.0,
            resources=(),
            deps=end_deps if end_deps else deps,
            rank=dst_rank,
            priority=priority,
        )

    # -- local queue --------------------------------------------------------------------

    def _emit_local(
        self,
        plan: ExecutionPlan,
        rank: int,
        placements: list[Placement],
        spec: TransformerSpec,
        compute_factor: float,
        rank_tasks: dict[int, list[int]],
    ) -> None:
        duration = 0.0
        for p in placements:
            duration += self.compute.attention_time(spec, p.tokens, num_layers=1)
        duration *= compute_factor
        if duration <= 0:
            return
        tid = plan.add(
            name=f"attn:local:rank{rank}:{len(placements)}seqs",
            kind=TaskKind.ATTENTION,
            duration_s=duration,
            resources=(ExecutionPlan.compute_resource(rank),),
            deps=(),
            rank=rank,
            priority=_PRIORITY[Zone.LOCAL],
        )
        rank_tasks[rank].append(tid)
