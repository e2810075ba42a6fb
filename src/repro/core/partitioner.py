"""Hierarchical sequence partitioning (Alg. 1 and Alg. 2).

The partitioner decides, for every sequence in a batch, *where* it runs and at
*what granularity*:

* **Inter-node partitioning (Alg. 1)** finds the boundary ``s1`` between the
  inter-node zone and the intra-node/local zone, splits inter-node sequences
  across node buckets, and places the remaining sequences into the least-loaded
  node bucket, iteratively lowering ``s1`` whenever a sequence no longer fits
  within the per-node token budget ``P * L``.
* **Intra-node partitioning (Alg. 2)**, run per node, finds the boundary ``s0``
  between intra-node and local sequences, splits intra-node sequences across
  devices proportionally to their *quadratic* attention cost, spreads
  inter-node fragments evenly over all ``P`` devices, and places local
  sequences into the least-loaded device bucket, iteratively lowering ``s0`` on
  overflow.

``L`` is the paper's "token capacity of each GPU".  In the evaluation setup it
is the per-GPU token *budget* of an iteration (e.g. 4k tokens per GPU); GPU
memory bounds it from above (see :func:`repro.model.memory.token_capacity`).

The output records, for every global rank, the list of token placements it
received, plus the ring groups (sequence, ordered member ranks) the attention
engine will execute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.topology import Cluster
from repro.core.zones import Zone
from repro.data.packing import split_evenly
from repro.data.sampler import Batch, Sequence
from repro.utils.validation import check_positive


class CapacityError(ValueError):
    """Raised when a batch cannot fit the cluster's total token budget."""


@dataclass(frozen=True)
class Placement:
    """Tokens of one sequence placed on one global rank."""

    seq_id: int
    tokens: int
    zone: Zone
    rank: int
    ring_id: int | None = None
    ring_index: int | None = None

    def __post_init__(self) -> None:
        check_positive("tokens", self.tokens)


@dataclass(frozen=True)
class RingSpec:
    """A ring-attention group executing one sequence.

    Attributes
    ----------
    ring_id:
        Unique id within the partition result.
    seq_id:
        The sequence executed by the ring.
    zone:
        ``INTER_NODE`` or ``INTRA_NODE``.
    ranks:
        Ordered global ranks forming the ring.
    seq_len:
        Total length of the sequence.
    """

    ring_id: int
    seq_id: int
    zone: Zone
    ranks: tuple[int, ...]
    seq_len: int

    def __post_init__(self) -> None:
        check_positive("seq_len", self.seq_len)
        if len(self.ranks) < 2:
            raise ValueError("a ring needs at least 2 ranks")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("ring ranks must be distinct")

    @property
    def group_size(self) -> int:
        return len(self.ranks)


@dataclass
class NodeAssignment:
    """Output of Alg. 1 for one node: which sequences (or fragments) it hosts."""

    node_id: int
    inter_fragments: list[tuple[int, int]] = field(default_factory=list)
    """``(seq_id, tokens)`` fragments of inter-node sequences on this node."""
    whole_sequences: list[Sequence] = field(default_factory=list)
    """Sequences placed whole on this node (handled by Alg. 2)."""

    @property
    def total_tokens(self) -> int:
        return sum(t for _, t in self.inter_fragments) + sum(
            s.length for s in self.whole_sequences
        )


@dataclass
class PartitionResult:
    """Complete output of the hierarchical partitioning."""

    placements: dict[int, list[Placement]]
    """Per global rank: the token placements it received."""
    rings: list[RingSpec]
    """All inter-node and intra-node ring groups."""
    node_assignments: list[NodeAssignment]
    """Alg. 1 output (per node)."""
    inter_threshold: int
    """Final value of ``s1``."""
    local_thresholds: dict[int, int]
    """Final value of ``s0`` per node."""
    token_budget: int
    """The per-GPU token budget ``L`` used."""

    # -- derived views -------------------------------------------------------

    def tokens_per_rank(self) -> dict[int, int]:
        """Total tokens placed on each rank (ranks with no placement map to 0)."""
        return {
            rank: sum(p.tokens for p in placements)
            for rank, placements in self.placements.items()
        }

    def placements_by_zone(self, zone: Zone) -> list[Placement]:
        """All placements of a given zone."""
        return [p for ps in self.placements.values() for p in ps if p.zone == zone]

    def rings_by_zone(self, zone: Zone) -> list[RingSpec]:
        """Ring groups of a given zone."""
        return [r for r in self.rings if r.zone == zone]

    def total_tokens(self) -> int:
        """Total tokens across all placements."""
        return sum(self.tokens_per_rank().values())


def _argmin_load(loads: list[int]) -> int:
    """Index of the smallest load (ties broken by lowest index)."""
    best = 0
    for i in range(1, len(loads)):
        if loads[i] < loads[best]:
            best = i
    return best


@dataclass
class SequencePartitioner:
    """Runs Alg. 1 + Alg. 2 for a cluster and per-GPU token budget.

    Parameters
    ----------
    cluster:
        The training cluster; provides ``N`` (nodes), ``P`` (GPUs per node) and
        the rank numbering.
    token_budget:
        The paper's ``L``: tokens each GPU processes per iteration.
    """

    cluster: Cluster
    token_budget: int

    def __post_init__(self) -> None:
        check_positive("token_budget", self.token_budget)

    # -- Alg. 1: inter-node partitioning ---------------------------------------

    def partition_inter_node(
        self, batch: Batch
    ) -> tuple[list[NodeAssignment], dict[int, list[int]], int]:
        """Assign sequences to node buckets (Alg. 1).

        Returns
        -------
        (node_assignments, inter_seq_nodes, s1)
            ``inter_seq_nodes`` maps each inter-node sequence id to the ordered
            list of node ids hosting its fragments; ``s1`` is the final
            inter-node threshold.
        """
        num_nodes = self.cluster.num_nodes
        gpus_per_node = self.cluster.gpus_per_node
        node_capacity = gpus_per_node * self.token_budget
        total = batch.total_tokens
        if total > num_nodes * node_capacity:
            raise CapacityError(
                f"batch of {total} tokens exceeds cluster budget "
                f"{num_nodes * node_capacity} tokens "
                f"({num_nodes} nodes x {node_capacity} tokens)"
            )

        ordered = list(batch.sorted_by_length(descending=True))
        s1 = node_capacity

        while True:
            assignments = [NodeAssignment(node_id=i) for i in range(num_nodes)]
            loads = [0] * num_nodes
            inter_seq_nodes: dict[int, list[int]] = {}

            z2 = [s for s in ordered if s.length >= s1]
            z01 = [s for s in ordered if s.length < s1]
            overflow = False

            if z2:
                s_avg = sum(s.length for s in z2) / num_nodes
                for seq in z2:
                    parts = max(1, math.ceil(seq.length / s_avg))
                    parts = min(parts, num_nodes)
                    # Prefer the least-loaded (ideally empty) node buckets so a
                    # long sequence gets dedicated nodes where possible.
                    order = sorted(range(num_nodes), key=lambda i: loads[i])
                    chosen = sorted(order[:parts])
                    fragments = split_evenly(seq.length, parts)
                    inter_seq_nodes[seq.seq_id] = chosen
                    for node_id, frag_tokens in zip(chosen, fragments):
                        if frag_tokens <= 0:
                            continue
                        assignments[node_id].inter_fragments.append(
                            (seq.seq_id, frag_tokens)
                        )
                        loads[node_id] += frag_tokens

            for seq in z01:
                idx = _argmin_load(loads)
                if seq.length + loads[idx] > node_capacity:
                    s1 = max(s.length for s in z01)
                    overflow = True
                    break
                assignments[idx].whole_sequences.append(seq)
                loads[idx] += seq.length

            if not overflow:
                return assignments, inter_seq_nodes, s1

    # -- Alg. 2: intra-node partitioning ----------------------------------------

    def partition_intra_node(
        self, assignment: NodeAssignment
    ) -> tuple[dict[int, list[tuple[int, int, Zone]]], dict[int, list[int]], int]:
        """Partition one node's sequences across its devices (Alg. 2).

        Parameters
        ----------
        assignment:
            The node's Alg. 1 output.

        Returns
        -------
        (device_buckets, intra_seq_devices, s0)
            ``device_buckets`` maps local rank to ``(seq_id, tokens, zone)``
            entries; ``intra_seq_devices`` maps each intra-node sequence id to
            the ordered local ranks of its ring; ``s0`` is the final local
            threshold.
        """
        gpus_per_node = self.cluster.gpus_per_node
        device_capacity = self.token_budget
        ordered = sorted(
            assignment.whole_sequences, key=lambda s: s.length, reverse=True
        )
        s0 = device_capacity

        while True:
            buckets: dict[int, list[tuple[int, int, Zone]]] = {
                local: [] for local in range(gpus_per_node)
            }
            loads = [0] * gpus_per_node
            intra_seq_devices: dict[int, list[int]] = {}
            overflow = False

            # Inter-node fragments are split evenly over all P devices.
            for seq_id, frag_tokens in assignment.inter_fragments:
                shares = split_evenly(frag_tokens, gpus_per_node)
                for local, share in enumerate(shares):
                    if share <= 0:
                        continue
                    buckets[local].append((seq_id, share, Zone.INTER_NODE))
                    loads[local] += share

            z1 = [s for s in ordered if s.length >= s0]
            z0 = [s for s in ordered if s.length < s0]

            if z1:
                c_avg = sum(s.length**2 for s in z1) / gpus_per_node
                cursor = 0
                for seq in z1:
                    parts = max(1, math.ceil(seq.length**2 / c_avg)) if c_avg > 0 else 1
                    parts = min(parts, gpus_per_node)
                    if parts == 1 and seq.length > device_capacity:
                        parts = min(
                            gpus_per_node, math.ceil(seq.length / device_capacity)
                        )
                    parts = min(parts, seq.length)
                    fragments = split_evenly(seq.length, parts)
                    devices = []
                    for frag_tokens in fragments:
                        if frag_tokens <= 0:
                            continue
                        local = cursor % gpus_per_node
                        cursor += 1
                        devices.append(local)
                        buckets[local].append((seq.seq_id, frag_tokens, Zone.INTRA_NODE))
                        loads[local] += frag_tokens
                    if len(devices) >= 2:
                        intra_seq_devices[seq.seq_id] = devices
                    else:
                        # A single-device "ring" degenerates to local execution.
                        buckets[devices[0]][-1] = (
                            seq.seq_id,
                            seq.length,
                            Zone.LOCAL,
                        )

            for seq in z0:
                idx = _argmin_load(loads)
                if seq.length + loads[idx] > device_capacity:
                    s0 = max(s.length for s in z0)
                    overflow = True
                    break
                buckets[idx].append((seq.seq_id, seq.length, Zone.LOCAL))
                loads[idx] += seq.length

            if not overflow:
                return buckets, intra_seq_devices, s0

    # -- full pipeline -------------------------------------------------------------

    def partition(self, batch: Batch) -> PartitionResult:
        """Run the full two-level partitioning and assemble the result."""
        node_assignments, inter_seq_nodes, s1 = self.partition_inter_node(batch)
        gpus_per_node = self.cluster.gpus_per_node

        placements: dict[int, list[Placement]] = {
            rank: [] for rank in self.cluster.iter_ranks()
        }
        rings: list[RingSpec] = []
        local_thresholds: dict[int, int] = {}
        seq_lengths = {s.seq_id: s.length for s in batch}

        # Ring membership of inter-node sequences: all ranks of every spanned
        # node, in node order then local-rank order.
        inter_ring_ranks: dict[int, list[int]] = {}
        for seq_id, nodes in inter_seq_nodes.items():
            ranks: list[int] = []
            for node_id in nodes:
                ranks.extend(self.cluster.ranks_on_node(node_id))
            inter_ring_ranks[seq_id] = ranks

        ring_id = 0
        inter_ring_ids: dict[int, int] = {}
        for seq_id, ranks in inter_ring_ranks.items():
            rings.append(
                RingSpec(
                    ring_id=ring_id,
                    seq_id=seq_id,
                    zone=Zone.INTER_NODE,
                    ranks=tuple(ranks),
                    seq_len=seq_lengths[seq_id],
                )
            )
            inter_ring_ids[seq_id] = ring_id
            ring_id += 1

        for assignment in node_assignments:
            buckets, intra_seq_devices, s0 = self.partition_intra_node(assignment)
            local_thresholds[assignment.node_id] = s0
            base_rank = assignment.node_id * gpus_per_node

            intra_ring_ids: dict[int, int] = {}
            for seq_id, devices in intra_seq_devices.items():
                ranks = tuple(base_rank + local for local in devices)
                rings.append(
                    RingSpec(
                        ring_id=ring_id,
                        seq_id=seq_id,
                        zone=Zone.INTRA_NODE,
                        ranks=ranks,
                        seq_len=seq_lengths[seq_id],
                    )
                )
                intra_ring_ids[seq_id] = ring_id
                ring_id += 1

            for local, entries in buckets.items():
                rank = base_rank + local
                for seq_id, tokens, zone in entries:
                    if zone == Zone.INTER_NODE:
                        rid = inter_ring_ids[seq_id]
                        ring_ranks = rings[rid].ranks
                        ring_index = ring_ranks.index(rank)
                    elif zone == Zone.INTRA_NODE:
                        rid = intra_ring_ids[seq_id]
                        ring_ranks = rings[rid].ranks
                        ring_index = ring_ranks.index(rank)
                    else:
                        rid = None
                        ring_index = None
                    placements[rank].append(
                        Placement(
                            seq_id=seq_id,
                            tokens=tokens,
                            zone=zone,
                            rank=rank,
                            ring_id=rid,
                            ring_index=ring_index,
                        )
                    )

        result = PartitionResult(
            placements=placements,
            rings=rings,
            node_assignments=node_assignments,
            inter_threshold=s1,
            local_thresholds=local_thresholds,
            token_budget=self.token_budget,
        )
        self._validate(result, batch)
        return result

    # -- invariants ------------------------------------------------------------------

    def _validate(self, result: PartitionResult, batch: Batch) -> None:
        """Check that every token of the batch was placed exactly once."""
        placed: dict[int, int] = {}
        for placements in result.placements.values():
            for p in placements:
                placed[p.seq_id] = placed.get(p.seq_id, 0) + p.tokens
        for seq in batch:
            got = placed.get(seq.seq_id, 0)
            if got != seq.length:
                raise RuntimeError(
                    f"partitioner placed {got} tokens of sequence {seq.seq_id}, "
                    f"expected {seq.length}"
                )
        extra = set(placed) - {s.seq_id for s in batch}
        if extra:
            raise RuntimeError(f"partitioner produced unknown sequence ids {extra}")
