"""Tests for the attention engine: queues, ring rounds, routed hops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.core.attention_engine import (
    AttentionEngine,
    RingGroup,
    causal_pairs_between,
)
from repro.core.chunking import contiguous_assignment, zigzag_assignment
from repro.core.partitioner import RingSpec, SequencePartitioner
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.routing import RoutingLayer
from repro.core.zones import Zone
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.data.sampler import Batch
from repro.sim.engine import Simulator


def make_engine(cluster, routing_enabled=True, balanced=True):
    compute = ComputeCostModel(
        peak_flops=cluster.peak_flops_per_gpu, device_type=cluster.device_type
    )
    comm = CommCostModel(cluster)
    routing = RoutingLayer(cluster=cluster, enabled=routing_enabled)
    return AttentionEngine(
        cluster=cluster,
        compute=compute,
        comm=comm,
        routing=routing,
        balanced_chunking=balanced,
    )


class TestCausalPairsBetween:
    def test_full_visibility(self):
        # Queries after the whole KV range see every key.
        assert causal_pairs_between((10, 5), (0, 5)) == 25

    def test_no_visibility(self):
        # Queries entirely before the KV range see nothing.
        assert causal_pairs_between((0, 5), (10, 5)) == 0

    def test_diagonal_block(self):
        # Same range: the usual lower-triangular count.
        assert causal_pairs_between((0, 4), (0, 4)) == 4 * 5 / 2

    def test_partial_overlap(self):
        # Queries 2..5 against keys 4..7: query 4 sees 1 key, query 5 sees 2.
        assert causal_pairs_between((2, 4), (4, 4)) == 3

    def test_zero_length_ranges(self):
        assert causal_pairs_between((0, 0), (0, 5)) == 0
        assert causal_pairs_between((0, 5), (3, 0)) == 0

    def test_whole_sequence_sums_to_causal_total(self):
        seq = 64
        total = causal_pairs_between((0, seq), (0, seq))
        assert total == seq * (seq + 1) / 2


class TestQueueConstruction:
    def test_queues_split_by_zone(self, cluster_a2, mixed_batch):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        queues = engine.build_queues(partition)
        zones_in_partition = {p.zone for ps in partition.placements.values() for p in ps}
        if Zone.LOCAL in zones_in_partition:
            assert queues.local
        assert len(queues.all_rings()) == len(partition.rings)

    def test_ring_group_work_conserves_causal_pairs(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        queues = engine.build_queues(partition)
        for group in queues.all_rings():
            seq_len = group.spec.seq_len
            total_pairs = sum(
                group.round_pairs(i, r)
                for i in range(group.group_size)
                for r in range(group.group_size)
            )
            assert total_pairs == seq_len * (seq_len + 1) // 2


def make_ring_group(seq_len, group_size, balanced=True):
    assign = zigzag_assignment if balanced else contiguous_assignment
    spec = RingSpec(
        ring_id=0,
        seq_id=0,
        zone=Zone.INTER_NODE,
        ranks=tuple(range(group_size)),
        seq_len=seq_len,
    )
    return RingGroup(spec=spec, assignments=tuple(assign(seq_len, group_size)))


class TestPairMatrix:
    """The int64 ring-pair kernel against the scalar ``causal_pairs_between``."""

    @settings(max_examples=40, deadline=None)
    @given(
        # Short sequences give zero-length chunks (seq_len < 2G or < G).
        seq_len=st.one_of(
            st.integers(min_value=1, max_value=300),
            st.integers(min_value=1, max_value=300_000),
        ),
        group_size=st.integers(min_value=2, max_value=128),
        balanced=st.booleans(),
    )
    def test_matches_scalar_oracle_exactly(self, seq_len, group_size, balanced):
        group = make_ring_group(seq_len, group_size, balanced)
        matrix = group.pair_matrix
        assert matrix.dtype == np.int64
        assert matrix.shape == (group_size, group_size)
        chunks = [(a.head_chunk, a.tail_chunk) for a in group.assignments]
        for i, q_chunks in enumerate(chunks):
            for o, kv_chunks in enumerate(chunks):
                expected = sum(
                    causal_pairs_between(q, kv) for q in q_chunks for kv in kv_chunks
                )
                assert matrix[i, o] == expected, (i, o)
        assert int(matrix.sum()) == seq_len * (seq_len + 1) // 2

    def test_round_reads_the_owner_column(self):
        group = make_ring_group(1000, 8)
        for i in range(8):
            for k in range(8):
                assert group.round_pairs(i, k) == group.pair_matrix[i, (i - k) % 8]

    def test_batch_ring_is_the_sum_of_sequence_matrices(self, context_16, mixed_batch):
        ring = TransformerEngineCPStrategy(context_16).build_global_ring(mixed_batch)
        assert ring.pair_matrix.dtype == np.int64
        expected = sum(group.pair_matrix for group in ring.per_sequence)
        assert np.array_equal(ring.pair_matrix, expected)
        total = sum(s.length * (s.length + 1) // 2 for s in mixed_batch)
        assert int(ring.pair_matrix.sum()) == total


class TestEmission:
    def test_plan_contains_all_task_kinds(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="test")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.ATTENTION in kinds
        assert TaskKind.INTRA_COMM in kinds or TaskKind.INTER_COMM in kinds

    def test_routed_plan_has_dispatch_and_combine(self, cluster_a2, spec_7b):
        # A single cluster-spanning sequence forces inter-node hops.
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        engine = make_engine(cluster_a2, routing_enabled=True)
        plan = ExecutionPlan(name="routed")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.DISPATCH in kinds
        assert TaskKind.COMBINE in kinds

    def test_unrouted_plan_has_no_dispatch(self, cluster_a2, spec_7b):
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        engine = make_engine(cluster_a2, routing_enabled=False)
        plan = ExecutionPlan(name="direct")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.DISPATCH not in kinds

    def test_routing_reduces_simulated_makespan(self, cluster_a2, spec_7b):
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        sim = Simulator(record_trace=False)

        def makespan(routed):
            engine = make_engine(cluster_a2, routing_enabled=routed)
            plan = ExecutionPlan(name=f"routing={routed}")
            engine.emit_attention(plan, partition, spec_7b)
            return sim.run(plan).makespan_s

        assert makespan(True) < makespan(False)

    def test_local_only_batch_emits_no_communication(self, cluster_a2, short_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            short_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="local")
        engine.emit_attention(plan, partition, spec_7b)
        comm_time = sum(
            t.duration_s for t in plan.tasks if t.kind.is_communication
        )
        assert comm_time == 0.0

    def test_backward_phase_is_heavier_than_forward(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        fwd = ExecutionPlan(name="fwd")
        bwd = ExecutionPlan(name="bwd")
        engine.emit_attention(fwd, partition, spec_7b, phase="forward")
        engine.emit_attention(bwd, partition, spec_7b, phase="backward")
        fwd_total = sum(t.duration_s for t in fwd.tasks)
        bwd_total = sum(t.duration_s for t in bwd.tasks)
        assert bwd_total > fwd_total

    def test_rank_tasks_attributed_to_placement_holders(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="attr")
        rank_tasks = engine.emit_attention(plan, partition, spec_7b)
        for rank, task_ids in rank_tasks.items():
            has_placement = bool(partition.placements.get(rank))
            if task_ids:
                assert has_placement

    def test_invalid_phase_rejected(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        with pytest.raises(ValueError):
            engine.emit_attention(ExecutionPlan(), partition, spec_7b, phase="sideways")
