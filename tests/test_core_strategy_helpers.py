"""Tests for the shared Strategy emission helpers (linear, remap)."""

import pytest

from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.remapping import RemappingLayer
from repro.core.strategy import Strategy
from repro.model.memory import hidden_bytes_per_token
from repro.sim.engine import simulate


@pytest.fixture
def strategy(context_16):
    # Any concrete strategy exposes the shared helpers.
    return TransformerEngineCPStrategy(context_16)


class TestPhaseFactors:
    def test_forward_factors_are_unity(self):
        assert Strategy.phase_factors("forward") == (1.0, 1.0)

    def test_backward_factors_double_work(self):
        compute, comm = Strategy.phase_factors("backward")
        assert compute == 2.0 and comm == 2.0

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError):
            Strategy.phase_factors("diagonal")


class TestEmitLinear:
    def test_one_task_per_nonzero_rank(self, strategy):
        plan = ExecutionPlan()
        ids = strategy.emit_linear(plan, {0: 4096, 1: 0, 2: 2048}, {}, phase="forward")
        assert set(ids) == {0, 2}
        assert all(plan.tasks[t].kind == TaskKind.LINEAR for t in ids.values())

    def test_durations_scale_with_tokens(self, strategy):
        plan = ExecutionPlan()
        ids = strategy.emit_linear(plan, {0: 1024, 1: 8192}, {}, phase="forward")
        assert plan.tasks[ids[1]].duration_s > plan.tasks[ids[0]].duration_s

    def test_backward_linear_is_heavier(self, strategy):
        fwd_plan, bwd_plan = ExecutionPlan(), ExecutionPlan()
        fwd = strategy.emit_linear(fwd_plan, {0: 4096}, {}, phase="forward")
        bwd = strategy.emit_linear(bwd_plan, {0: 4096}, {}, phase="backward")
        assert bwd_plan.tasks[bwd[0]].duration_s > fwd_plan.tasks[fwd[0]].duration_s

    def test_dependencies_are_attached(self, strategy):
        plan = ExecutionPlan()
        a = plan.add("attn", TaskKind.ATTENTION, 1e-3, ("compute:0",), rank=0)
        ids = strategy.emit_linear(plan, {0: 1024}, {0: [a]}, phase="forward")
        assert a in plan.tasks[ids[0]].deps


class TestEmitRemap:
    def test_transfers_follow_the_plan(self, strategy, cluster_a2):
        remap_plan = RemappingLayer(cluster=cluster_a2).plan(
            {r: (8192 if r == 0 else 3500) for r in cluster_a2.iter_ranks()}
        )
        plan = ExecutionPlan()
        incoming = strategy.emit_remap(plan, remap_plan, {}, phase="forward")
        remap_tasks = [t for t in plan.tasks if t.kind == TaskKind.REMAP]
        assert remap_tasks, "an imbalanced layout must produce transfers"
        # Every emitted transfer lands in the incoming map of its destination.
        assert sum(len(v) for v in incoming.values()) == len(remap_tasks)
        # Simulation completes.
        assert simulate(plan).makespan_s > 0

    def test_transfer_durations_follow_token_counts(self, strategy, cluster_a2, spec_7b):
        remap_plan = RemappingLayer(cluster=cluster_a2).plan(
            {r: (8192 if r == 0 else 3500) for r in cluster_a2.iter_ranks()}
        )
        plan = ExecutionPlan()
        strategy.emit_remap(plan, remap_plan, {}, phase="forward")
        transfers = [
            (remap_plan.ranks[i], remap_plan.ranks[j], tokens)
            for i, j, tokens in remap_plan.nonzero_transfers()
            if i != j
        ]
        assert len(transfers) == plan.num_tasks
        for (src, dst, tokens), task in zip(transfers, plan.tasks):
            nbytes = tokens * hidden_bytes_per_token(spec_7b)
            if cluster_a2.same_node(src, dst):
                expected = strategy.comm.intra_node_time(nbytes)
            else:
                expected = strategy.comm.inter_node_time(nbytes, nics=1)
            assert task.rank == src
            assert task.duration_s == pytest.approx(expected)

    def test_balanced_plan_emits_nothing(self, strategy, cluster_a2):
        remap_plan = RemappingLayer(cluster=cluster_a2).plan(
            {r: 4096 for r in cluster_a2.iter_ranks()}
        )
        plan = ExecutionPlan()
        incoming = strategy.emit_remap(plan, remap_plan, {})
        assert plan.num_tasks == 0
        assert all(not v for v in incoming.values())
