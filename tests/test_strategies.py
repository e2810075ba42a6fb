"""Tests for the Zeppelin strategy and the baseline strategies."""

from collections import Counter

import pytest

from repro.baselines.hybrid_dp import HybridDPStrategy
from repro.baselines.llama_cp import LlamaCPStrategy
from repro.baselines.packing import PackingStrategy
from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.core import attention_engine
from repro.core.partitioner import SequencePartitioner
from repro.core.plan import TaskKind
from repro.core.remapping import RemappingLayer, RemapPlan
from repro.core.strategy import StrategyContext
from repro.core.zeppelin import ZeppelinStrategy
from repro.data.sampler import Batch, Sequence
from repro.sim.engine import Simulator


def makespan(strategy, batch, phase="forward"):
    return Simulator(record_trace=False).run(strategy.plan_layer(batch, phase)).makespan_s


class TestStrategyContext:
    def test_dp_ranks_without_tp(self, context_16):
        assert context_16.dp_ranks == tuple(range(16))
        assert context_16.dp_world_size == 16

    def test_dp_ranks_with_tp(self, cluster_a2, spec_7b):
        ctx = StrategyContext(
            cluster=cluster_a2, spec=spec_7b, token_budget=8192, tensor_parallel=2
        )
        assert ctx.dp_ranks == tuple(range(0, 16, 2))
        assert ctx.dp_world_size == 8

    def test_tp_must_fit_in_a_node(self, cluster_a2, spec_7b):
        with pytest.raises(ValueError):
            StrategyContext(
                cluster=cluster_a2, spec=spec_7b, token_budget=4096, tensor_parallel=16
            )

    def test_world_must_divide_by_tp(self, tiny_cluster, spec_7b):
        with pytest.raises(ValueError):
            StrategyContext(
                cluster=tiny_cluster, spec=spec_7b, token_budget=4096, tensor_parallel=3
            )


class TestTransformerEngineCP:
    def test_tokens_split_evenly(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        tokens = strategy.tokens_per_rank(mixed_batch)
        values = list(tokens.values())
        assert sum(values) == mixed_batch.total_tokens
        assert max(values) - min(values) <= 2 * mixed_batch.num_sequences

    def test_plan_contains_ring_communication(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.INTER_COMM in kinds
        assert TaskKind.ATTENTION in kinds
        assert TaskKind.LINEAR in kinds

    def test_routing_variant_is_faster(self, context_16, mixed_batch):
        base = TransformerEngineCPStrategy(context_16)
        routed = TransformerEngineCPStrategy(context_16, use_routing=True)
        assert makespan(routed, mixed_batch) < makespan(base, mixed_batch)
        assert "Routing" in routed.name

    def test_backward_slower_than_forward(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        assert makespan(strategy, mixed_batch, "backward") > makespan(
            strategy, mixed_batch, "forward"
        )


class TestLlamaCP:
    def test_allgather_is_on_the_critical_path(self, context_16, mixed_batch):
        strategy = LlamaCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        allgathers = [t for t in plan.tasks if t.kind == TaskKind.ALLGATHER]
        attentions = [t for t in plan.tasks if t.kind == TaskKind.ATTENTION]
        assert allgathers and attentions
        allgather_ids = {t.task_id for t in allgathers}
        assert all(set(t.deps) & allgather_ids for t in attentions)

    def test_faster_than_te_cp_on_mixed_batch(self, context_16, mixed_batch):
        te = TransformerEngineCPStrategy(context_16)
        llama = LlamaCPStrategy(context_16)
        assert makespan(llama, mixed_batch) < makespan(te, mixed_batch)

    def test_linear_tokens_balanced(self, context_16, mixed_batch):
        strategy = LlamaCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        linear = [t for t in plan.tasks if t.kind == TaskKind.LINEAR]
        durations = [t.duration_s for t in linear]
        assert max(durations) / min(durations) < 1.5


class TestHybridDP:
    def test_long_sequences_get_cp_groups(self, context_16):
        strategy = HybridDPStrategy(context_16)
        batch = Batch.from_lengths([40000, 2000, 2000, 1500, 1000])
        assignment = strategy.assign(batch)
        assert assignment.num_cp_groups >= 1
        cp_seq_ids = {
            seq.seq_id for mb in assignment.micro_batches for seq, _ in mb.cp_groups
        }
        assert 0 in cp_seq_ids  # the 40k sequence

    def test_short_only_batch_uses_plain_dp(self, context_16, short_batch):
        strategy = HybridDPStrategy(context_16)
        assignment = strategy.assign(short_batch)
        assert assignment.num_cp_groups == 0
        assert assignment.num_micro_batches == 1

    def test_tokens_conserved_across_micro_batches(self, context_16, mixed_batch):
        strategy = HybridDPStrategy(context_16)
        layout = strategy.layout(mixed_batch)
        assert layout.assignment.num_cp_groups >= 1
        placed = sum(sum(tokens.values()) for tokens in layout.tokens)
        assert placed == mixed_batch.total_tokens

    def test_plan_simulates(self, context_16, mixed_batch):
        strategy = HybridDPStrategy(context_16)
        assert makespan(strategy, mixed_batch) > 0

    def test_moe_inflates_linear_time(self, cluster_a2, spec_moe, spec_3b, mixed_batch):
        ctx_moe = StrategyContext(cluster=cluster_a2, spec=spec_moe, token_budget=4096)
        ctx_dense = StrategyContext(cluster=cluster_a2, spec=spec_3b, token_budget=4096)
        moe_plan = HybridDPStrategy(ctx_moe).plan_layer(mixed_batch)
        dense_plan = HybridDPStrategy(ctx_dense).plan_layer(mixed_batch)
        assert moe_plan.metadata["num_micro_batches"] >= 1
        assert dense_plan.metadata["num_micro_batches"] >= 1


class TestPackingStrategy:
    def test_buffers_cover_all_tokens(self, context_16, mixed_batch):
        strategy = PackingStrategy(context_16)
        per_rank = strategy.pack(mixed_batch)
        total = sum(b.used for buffers in per_rank.values() for b in buffers)
        assert total == mixed_batch.total_tokens

    def test_packed_mask_costs_more_than_per_sequence_masks(self, context_16, short_batch):
        # Fig. 2.a: one causal mask over the buffer also pays for the
        # cross-sequence pairs that per-sequence masks would skip.
        strategy = PackingStrategy(context_16)
        plan = strategy.plan_layer(short_batch)
        multi_segment = 0
        for rank, buffers in strategy.pack(short_batch).items():
            if not buffers:
                continue
            (task,) = [
                t for t in plan.tasks if t.rank == rank and t.kind == TaskKind.ATTENTION
            ]
            per_sequence = sum(
                strategy.compute.attention_time(context_16.spec, length, num_layers=1)
                for b in buffers
                for _, length in b.segments
            )
            assert task.duration_s == pytest.approx(
                sum(strategy.attention_seconds(b) for b in buffers)
            )
            if any(len(b.segments) > 1 for b in buffers):
                multi_segment += 1
                assert task.duration_s > per_sequence
        assert multi_segment > 0

    def test_plan_has_no_communication(self, context_16, mixed_batch):
        # Pure data parallelism: every rank attends over its own buffers.
        plan = PackingStrategy(context_16).plan_layer(mixed_batch, phase="backward")
        assert {t.kind for t in plan.tasks} == {TaskKind.ATTENTION, TaskKind.LINEAR}


class TestZeppelinStrategy:
    def test_full_zeppelin_beats_all_baselines(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16)
        others = [
            TransformerEngineCPStrategy(context_16),
            LlamaCPStrategy(context_16),
            HybridDPStrategy(context_16),
        ]
        z = makespan(zeppelin, mixed_batch)
        for other in others:
            assert z <= makespan(other, mixed_batch) * 1.05

    def test_plan_contains_remapping_when_enabled(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16, use_remapping=True)
        plan = zeppelin.plan_layer(mixed_batch)
        assert any(t.kind == TaskKind.REMAP for t in plan.tasks)
        assert "remap_plan" in plan.metadata

    def test_no_remapping_variant(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16, use_remapping=False)
        plan = zeppelin.plan_layer(mixed_batch)
        assert not any(t.kind == TaskKind.REMAP for t in plan.tasks)
        assert "no remap" in zeppelin.name

    def test_routing_disabled_emits_no_dispatch(self, context_16):
        batch = Batch.from_lengths([16 * 4096])
        zeppelin = ZeppelinStrategy(context_16, use_routing=False)
        plan = zeppelin.plan_layer(batch)
        assert not any(t.kind == TaskKind.DISPATCH for t in plan.tasks)

    def test_component_ablation_ordering(self, context_3b_16, mixed_batch):
        """Each added component must not slow the system down (Fig. 11 trend)."""
        bare = ZeppelinStrategy(context_3b_16, use_routing=False, use_remapping=False)
        routed = ZeppelinStrategy(context_3b_16, use_routing=True, use_remapping=False)
        full = ZeppelinStrategy(context_3b_16, use_routing=True, use_remapping=True)
        t_bare = makespan(bare, mixed_batch)
        t_routed = makespan(routed, mixed_batch)
        t_full = makespan(full, mixed_batch)
        assert t_routed <= t_bare * 1.01
        assert t_full <= t_routed * 1.05

    def test_local_only_batch_has_zero_inter_node_comm(self, context_16, short_batch):
        zeppelin = ZeppelinStrategy(context_16)
        plan = zeppelin.plan_layer(short_batch)
        inter = [t for t in plan.tasks if t.kind == TaskKind.INTER_COMM]
        assert sum(t.duration_s for t in inter) == 0.0

    def test_partition_exposed_for_inspection(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16)
        partition = zeppelin.partition(mixed_batch)
        assert partition.total_tokens() == mixed_batch.total_tokens

    def test_plan_metadata(self, context_16, mixed_batch):
        plan = ZeppelinStrategy(context_16).plan_layer(mixed_batch)
        assert plan.metadata["total_tokens"] == mixed_batch.total_tokens
        assert plan.metadata["phase"] == "forward"


PHASES = ("forward", "backward")

# What each strategy builds for a batch, and the ring-pair kernel under it.
LAYOUT_BUILDERS = (
    (SequencePartitioner, "partition"),
    (RemappingLayer, "plan"),
    (RemapPlan, "inverse"),
    (TransformerEngineCPStrategy, "build_global_ring"),
    (HybridDPStrategy, "assign"),
    (attention_engine, "ring_pair_matrix"),
)

STRATEGY_BUILDERS = {
    TransformerEngineCPStrategy: {"build_global_ring", "ring_pair_matrix"},
    LlamaCPStrategy: set(),
    HybridDPStrategy: {"assign", "ring_pair_matrix"},
    PackingStrategy: set(),
    ZeppelinStrategy: {"partition", "plan", "inverse", "ring_pair_matrix"},
}


def _task_rows(plan):
    return [
        (t.name, t.kind, t.duration_s, t.resources, t.deps, t.rank, t.priority)
        for t in plan.tasks
    ]


class TestLayout:
    """Both passes of a batch emit from one layout, built once per batch."""

    @pytest.fixture
    def builder_calls(self, monkeypatch):
        calls = Counter()
        for owner, name in LAYOUT_BUILDERS:
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("cls", list(STRATEGY_BUILDERS), ids=lambda c: c.__name__)
    def test_a_pass_pair_builds_its_layout_once(
        self, cls, context_16, mixed_batch, builder_calls
    ):
        strategy = cls(context_16)
        for phase in PHASES:
            strategy.plan_layer(mixed_batch, phase)
        paired = dict(builder_calls)
        assert set(paired) == STRATEGY_BUILDERS[cls]
        assert all(n == 1 for name, n in paired.items() if name != "ring_pair_matrix")

        # Two cold strategies, one pass each, build everything twice.
        builder_calls.clear()
        for phase in PHASES:
            cls(context_16).plan_layer(mixed_batch, phase)
        assert dict(builder_calls) == {name: 2 * n for name, n in paired.items()}

    @pytest.mark.parametrize("cls", list(STRATEGY_BUILDERS), ids=lambda c: c.__name__)
    def test_interleaved_batches_plan_like_cold_pairs(self, cls, context_16, mixed_batch):
        # Equal lengths under other sequence ids: only the ids tell them apart,
        # and task names embed them.
        renumbered = Batch(
            tuple(Sequence(seq_id=s.seq_id + 100, length=s.length) for s in mixed_batch)
        )
        batches = (mixed_batch, renumbered)
        strategy = cls(context_16)
        interleaved = {
            (b, phase): strategy.plan_layer(batches[b], phase)
            for phase in PHASES
            for b in range(len(batches))
        }
        for b, batch in enumerate(batches):
            cold = cls(context_16)
            for phase in PHASES:
                expected = _task_rows(cold.plan_layer(batch, phase))
                assert _task_rows(interleaved[b, phase]) == expected, (b, phase)
        if cls in (HybridDPStrategy, ZeppelinStrategy):  # their ring names carry ids
            assert _task_rows(interleaved[0, "forward"]) != _task_rows(
                interleaved[1, "forward"]
            )
