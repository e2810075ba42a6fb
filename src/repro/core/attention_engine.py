"""Attention Engine (§3.2): queue construction and ring-round scheduling.

Given a :class:`~repro.core.partitioner.PartitionResult`, the engine builds the
three sequence queues each device executes — inter-node rings, intra-node
rings, and local sequences — and emits the corresponding task graph of one
transformer layer from them, once per pass over the same queues:

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

A ring is appended as one block of columns
(:meth:`~repro.core.plan.ExecutionPlan.extend`), and each recurring
``(src, dst, payload bytes)`` hop is routed and costed once, as a template
that every later round replays with its own label and incoming dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, compress
from typing import NamedTuple

import numpy as np

from repro.cluster.topology import Cluster
from repro.core.chunking import ChunkAssignment, contiguous_assignment, zigzag_assignment
from repro.core.partitioner import PartitionResult, Placement, RingSpec
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.routing import RoutingLayer
from repro.core.strategy import Strategy
from repro.core.zones import Zone
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.model.spec import TransformerSpec

# Queue priorities: lower starts first on a busy compute stream.
_PRIORITY = {Zone.INTER_NODE: 0, Zone.INTRA_NODE: 1, Zone.LOCAL: 2}


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


class _HopTemplate(NamedTuple):
    """The tasks of one ring hop as columns, independent of the round.

    A replay names row ``k`` ``names[k][0] + label + names[k][1]``.  With
    ``deps[k] = (waits, offsets)``, the row depends on the hop's own rows at
    ``offsets``, preceded by the hop's incoming dependencies if ``waits`` or
    if it has no ``offsets``.  The last row is the one the receiver waits on.
    """

    names: tuple[tuple[str, str], ...]
    kinds: tuple[TaskKind, ...]
    durations: tuple[float, ...]
    resources: tuple[tuple[str, ...], ...]
    ranks: tuple[int, ...]
    deps: tuple[tuple[bool, tuple[int, ...]], ...]


@dataclass
class SequenceQueues:
    """The three per-zone work queues built from a partition result."""

    inter: list[RingGroup] = field(default_factory=list)
    intra: list[RingGroup] = field(default_factory=list)
    local: dict[int, list[Placement]] = field(default_factory=dict)


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
        queues: SequenceQueues,
        spec: TransformerSpec,
        phase: str = "forward",
    ) -> dict[int, list[int]]:
        """Emit the attention tasks of one layer's ``queues`` into ``plan``.

        Returns a mapping from global rank to the ids of the attention tasks
        attributed to that rank, so downstream stages (remapping, linear
        modules) can depend on them.
        """
        compute_factor, comm_factor = Strategy.phase_factors(phase)
        rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
        for group in chain(queues.inter, queues.intra):
            self.emit_ring(plan, group, spec, compute_factor, comm_factor, rank_tasks)
        for rank, placements in queues.local.items():
            self._emit_local(
                plan, rank, placements, spec, compute_factor, rank_tasks
            )
        return rank_tasks

    # -- ring emission ----------------------------------------------------------------

    def emit_ring(
        self,
        plan: ExecutionPlan,
        group: RingGroup,
        spec: TransformerSpec,
        compute_factor: float,
        comm_factor: float,
        rank_tasks: dict[int, list[int]],
        initial_deps: tuple[int, ...] = (),
    ) -> None:
        """Emit every round of one ring into ``plan`` as a single block.

        Task ids are known before the block is appended, so each round's rows
        are built column by column with their dependencies resolved.  A hop
        replays the :class:`_HopTemplate` built at its ``(src, dst, payload
        bytes)``'s first occurrence in the ring.
        """
        ring = group.spec
        g = ring.group_size
        ring_ranks = ring.ranks
        kv_per_token = self.comm.kv_chunk_bytes(spec, 1)

        # pairs[i][o]: causal pairs rank i computes against owner o's KV chunks
        # (exact integers, so float() gives the bit-identical durations).
        pairs = group.pair_matrix.tolist()
        # Rings repeat few pair counts (60 distinct of te_cp's 16,384 at G=128).
        durations = {
            p: self.compute.attention_pairs_time(spec, float(p), num_layers=1)
            * compute_factor
            for p in set(chain.from_iterable(pairs))
            if p > 0
        }
        payload = [group.tokens_of(o) * kv_per_token * comm_factor for o in range(g)]
        templates: dict[tuple[int, float], _HopTemplate] = {}

        def hop(i: int, nbytes: float) -> _HopTemplate:
            template = templates[i, nbytes] = self._hop_template(
                ring_ranks[i], ring_ranks[(i + 1) % g], nbytes, ring_ranks
            )
            return template

        compute_resources = [(ExecutionPlan.compute_resource(r),) for r in ring_ranks]
        rank_tails = [f":rank{r}" for r in ring_ranks]
        prefix = f"{ring.zone.value}:seq{ring.seq_id}:r"
        # The block's columns; row k becomes task ``first + k``.
        first = plan.num_tasks
        names, kinds, task_durations, resources, deps, ranks = [], [], [], [], [], []
        attention_ids: list[list[int]] = [[] for _ in range(g)]

        # ready[i]: the dependencies of rank i's work this round -- the hop that
        # delivered its payload, or ``initial_deps`` in round 0.
        ready = [tuple(initial_deps)] * g
        order = list(range(g))
        for round_index in range(g):
            label = f"{prefix}{round_index}"
            # In round k, rank i holds the KV payload owner (i - k) mod G sent.
            owners = order[g - round_index :] + order[: g - round_index]
            round_pairs = [row[o] for row, o in zip(pairs, owners)]
            active = list(compress(order, round_pairs))
            base = first + len(names)
            for k, i in enumerate(active, base):
                attention_ids[i].append(k)
            head = f"attn:{label}"
            names.extend([head + rank_tails[i] for i in active])
            kinds.extend([TaskKind.ATTENTION] * len(active))
            task_durations.extend([durations[round_pairs[i]] for i in active])
            resources.extend([compute_resources[i] for i in active])
            deps.extend([ready[i] for i in active])
            ranks.extend([ring_ranks[i] for i in active])

            if round_index == g - 1:
                break

            # Send the payload each rank currently holds to its successor.
            hops = [
                templates.get((i, payload[o])) or hop(i, payload[o])
                for i, o in zip(order, owners)
            ]
            # The round's templates transposed: each field holds one entry per hop.
            column = _HopTemplate._make(zip(*hops))
            sizes = map(len, column.kinds)
            bases = list(accumulate(sizes, initial=first + len(names)))
            names.extend([h + label + t for parts in column.names for h, t in parts])
            kinds.extend(chain.from_iterable(column.kinds))
            task_durations.extend(chain.from_iterable(column.durations))
            resources.extend(chain.from_iterable(column.resources))
            deps.extend(
                [
                    (incoming if waits else ())
                    + tuple([hop_base + offset for offset in offsets])
                    if offsets
                    else incoming
                    for rows, incoming, hop_base in zip(column.deps, ready, bases)
                    for waits, offsets in rows
                ]
            )
            ranks.extend(chain.from_iterable(column.ranks))
            # Each hop's last row delivers the payload to the next rank.
            delivered = [(end - 1,) for end in bases[1:]]
            ready = delivered[-1:] + delivered[:-1]

        priority = _PRIORITY[ring.zone]
        priorities = [priority] * len(names)
        plan.extend(names, kinds, task_durations, resources, deps, ranks, priorities)
        for rank, ids in zip(ring_ranks, attention_ids):
            rank_tasks[rank].extend(ids)

    def _hop_template(
        self,
        src_rank: int,
        dst_rank: int,
        nbytes: float,
        ring_ranks: tuple[int, ...],
    ) -> _HopTemplate:
        """The tasks of one ring hop, to be replayed in every round it recurs.

        Empty and intra-node hops are one task.  An inter-node hop is routed
        (§3.3) into dispatch, multi-NIC transfer and combine tasks, then a
        barrier marking the payload delivered at ``dst_rank``.
        """
        rows: list[tuple] = []

        def add(head, tail, kind, duration_s, resources, rank, after=(), waits=True):
            """Add a row waiting on the hop's incoming dependencies (if
            ``waits``) and on the rows at offsets ``after``; return its offset."""
            row = ((head, tail), kind, duration_s, resources, rank, (waits, after))
            rows.append(row)
            return len(rows) - 1

        pair = f":{src_rank}->{dst_rank}"
        if nbytes <= 0:
            add("hop:", pair + ":empty", TaskKind.INTRA_COMM, 0.0, (), src_rank)
        elif self.cluster.same_node(src_rank, dst_rank):
            nvlink = self._nvlink(src_rank, dst_rank)
            time_s = self.comm.intra_node_time(nbytes)
            add("hop:", pair + ":intra", TaskKind.INTRA_COMM, time_s, nvlink, src_rank)
        else:
            decision = self.routing.route(src_rank, dst_rank, nbytes, ring_ranks)
            nic_of = self.cluster.nic_of
            # Each step's transfer waits on the previous step's transfer that
            # landed on its sender: a multi-NIC transfer on the dispatch into
            # its send proxy, a combine on the transfer into its recv proxy.
            landed: dict[int, int] = {}
            step_rows: dict[str, list[int]] = {}
            waited_on: set[int] = set()
            for step, kind in (
                ("dispatch", TaskKind.DISPATCH),
                ("transfer", TaskKind.INTER_COMM),
                ("combine", TaskKind.COMBINE),
            ):
                previous, landed = landed, {}
                step_rows[step] = []
                for t in decision.transfers_for_step(step):
                    if step == "transfer":
                        duration = self.comm.inter_node_time(t.nbytes, nics=1)
                        resources = (
                            ExecutionPlan.nic_resource(nic_of(t.src_rank).nic_id, "tx"),
                            ExecutionPlan.nic_resource(nic_of(t.dst_rank).nic_id, "rx"),
                        )
                    else:
                        duration = self.comm.intra_node_time(t.nbytes)
                        resources = self._nvlink(t.src_rank, t.dst_rank)
                    after = (previous[t.src_rank],) if t.src_rank in previous else ()
                    waited_on.update(after)
                    tail = f":{t.src_rank}->{t.dst_rank}"
                    row = add(
                        f"{step}:", tail, kind, duration, resources, t.src_rank, after
                    )
                    landed[t.dst_rank] = row
                    step_rows[step].append(row)
            # The barrier marking the payload delivered at the destination waits
            # on every combine and on any transfer that landed there directly.
            end_rows = step_rows["combine"] + [
                row for row in step_rows["transfer"] if row not in waited_on
            ]
            add(
                "hop:",
                pair + ":done",
                TaskKind.INTER_COMM,
                0.0,
                (),
                dst_rank,
                after=tuple(end_rows),
                waits=not end_rows,
            )
        return _HopTemplate(*zip(*rows))

    @staticmethod
    def _nvlink(src_rank: int, dst_rank: int) -> tuple[str, str]:
        return (
            ExecutionPlan.nvlink_resource(src_rank, "tx"),
            ExecutionPlan.nvlink_resource(dst_rank, "rx"),
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
