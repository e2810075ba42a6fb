"""Tests for the repro.api Session facade and structured results."""

import json

import pytest

from repro.api import DEFAULT_COMPARISON, Session, SessionConfig, build_cluster
from repro.core.zeppelin import ZeppelinStrategy
from repro.results import CompareResult, RunResult


@pytest.fixture
def small_session():
    return Session(
        model="3b", num_gpus=16, dataset="arxiv", total_context=32 * 1024, num_steps=2
    )


class TestSessionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(model="3b", num_gpus=12)
        with pytest.raises(ValueError):
            SessionConfig(model="3b", num_steps=0)

    def test_derived_quantities(self):
        config = SessionConfig(model="7b", num_gpus=16, total_context=64 * 1024)
        assert config.num_nodes == 2
        assert config.tokens_per_gpu == 4096
        tp = SessionConfig(
            model="13b", num_gpus=32, total_context=64 * 1024, tensor_parallel=2
        )
        assert tp.tokens_per_dp_rank == 4096
        # 24 ranks do not divide 32k tokens: the budget rounds up, so the
        # ranks together still hold the whole context.
        odd = SessionConfig(model="3b", num_gpus=24, total_context=32 * 1024)
        assert odd.tokens_per_dp_rank == 1366
        assert odd.tokens_per_dp_rank * 24 >= 32 * 1024

    def test_non_dividing_cluster_runs_the_whole_batch(self):
        session = Session(model="3b", num_gpus=24, total_context=32 * 1024, num_steps=1)
        result = session.run("zeppelin")
        assert result.total_tokens == sum(b.total_tokens for b in session.batches)
        assert result.tokens_per_second > 0

    def test_replace_and_to_dict(self):
        config = SessionConfig(model="3b")
        bigger = config.replace(num_gpus=32)
        assert bigger.num_gpus == 32 and bigger.model == "3b"
        assert config.to_dict()["num_gpus"] == 16

    def test_build_cluster_presets(self):
        for preset, device in (("A", "A800"), ("B", "H800"), ("C", "H200")):
            config = SessionConfig(model="7b", cluster_preset=preset, num_gpus=16)
            assert build_cluster(config).device_type == device
        with pytest.raises(ValueError):
            build_cluster(SessionConfig(model="7b", cluster_preset="Z", num_gpus=16))


class TestSessionBasics:
    def test_kwargs_constructor(self):
        session = Session(model="3b", num_gpus=16)
        assert session.config.model == "3b"
        assert session.cluster.world_size == 16

    def test_batches_cached_and_reproducible(self, small_session):
        assert small_session.batches is small_session.batches
        other = Session(small_session.config)
        assert [b.lengths for b in other.batches] == [
            b.lengths for b in small_session.batches
        ]

    def test_unknown_strategy_lists_available(self, small_session):
        with pytest.raises(ValueError) as excinfo:
            small_session.run("fsdp")
        assert "zeppelin" in str(excinfo.value)

    def test_strategy_kwargs_forwarded(self, small_session):
        strategy = small_session.strategy("zeppelin", use_routing=False)
        assert "no routing" in strategy.name


class TestPlanCache:
    def test_plan_cache_hit_returns_identical_object(self, small_session):
        first = small_session.plan("zeppelin")
        second = small_session.plan("zeppelin")
        assert first is second

    def test_distinct_kwargs_get_distinct_plans(self, small_session):
        full = small_session.plan("zeppelin")
        ablated = small_session.plan("zeppelin", use_routing=False)
        assert full is not ablated

    def test_compare_plans_each_combination_once(self, small_session, monkeypatch):
        calls = []
        original = ZeppelinStrategy.plan_layer

        def counting(self, batch, phase="forward"):
            calls.append((batch.lengths, phase))
            return original(self, batch, phase)

        monkeypatch.setattr(ZeppelinStrategy, "plan_layer", counting)
        small_session.compare(("te_cp", "zeppelin"))
        small_session.compare(("te_cp", "zeppelin"))
        small_session.run("zeppelin")
        # 2 batches x 2 phases, each planned exactly once despite 3 passes.
        assert len(calls) == 4
        assert len(set(calls)) == 4

    def test_run_reuses_plans_across_calls(self, small_session):
        small_session.run("te_cp")
        size_after_first = small_session.plan_cache_size
        small_session.run("te_cp")
        assert small_session.plan_cache_size == size_after_first

    def test_equal_lengths_with_other_sequence_ids_get_their_own_plan(self):
        """Task names embed sequence ids, so the cache keys by the batch."""
        import dataclasses

        from repro.data.sampler import Batch

        session = Session(
            model="3b", num_gpus=16, total_context=64 * 1024, seed=0, num_steps=1
        )
        batch = session.batches[0]
        renumbered = Batch(
            tuple(dataclasses.replace(s, seq_id=s.seq_id + 100) for s in batch.sequences),
            dataset=batch.dataset,
        )
        strategy = session.strategy("zeppelin")
        first = strategy.plan_layer(batch)
        second = strategy.plan_layer(renumbered)
        assert second is not first
        cold = ZeppelinStrategy(session.context).plan_layer(renumbered)
        assert [t.name for t in second.tasks] == [t.name for t in cold.tasks]
        assert "attn:inter_node:seq103:r0:rank0" in {t.name for t in second.tasks}


class TestRunAndCompare:
    def test_run_result_fields(self, small_session):
        result = small_session.run("zeppelin")
        assert isinstance(result, RunResult)
        assert result.strategy == "zeppelin"
        assert result.label == "Zeppelin"
        assert result.tokens_per_second > 0
        assert result.num_batches == 2
        assert result.config["model"] == "3b"

    def test_run_label_override(self, small_session):
        result = small_session.run("te_cp", label="w/ Routing", use_routing=True)
        assert result.label == "w/ Routing"

    def test_run_result_is_frozen(self, small_session):
        result = small_session.run("te_cp")
        with pytest.raises(AttributeError):
            result.tokens_per_second = 0.0
        with pytest.raises(TypeError):
            result.config["model"] = "other"

    def test_compare_structure_and_speedups(self, small_session):
        result = small_session.compare(("te_cp", "zeppelin"))
        assert isinstance(result, CompareResult)
        assert [r.label for r in result] == ["TE CP", "Zeppelin"]
        assert result.baseline == "te_cp"
        assert result.speedup("te_cp") == pytest.approx(1.0)
        assert result.speedup("zeppelin") > 1.0
        rows = result.rows()
        assert rows[0]["speedup"] == pytest.approx(1.0)

    def test_compare_explicit_baseline(self, small_session):
        result = small_session.compare(("zeppelin", "te_cp"), baseline="te_cp")
        assert result.speedup("zeppelin") > 1.0
        with pytest.raises(ValueError):
            small_session.compare(("te_cp",), baseline="zeppelin")

    def test_compare_to_json_round_trips(self, small_session):
        payload = json.loads(small_session.compare(("te_cp", "zeppelin")).to_json())
        assert payload["baseline"] == "te_cp"
        assert len(payload["runs"]) == 2
        assert payload["runs"][1]["speedup"] > 1.0


class TestDeriveAndSweep:
    def test_derive_is_cached(self, small_session):
        a = small_session.derive(num_gpus=32)
        b = small_session.derive(num_gpus=32)
        assert a is b
        assert a.config.num_gpus == 32

    def test_derive_same_config_returns_self(self, small_session):
        assert small_session.derive() is small_session
        assert small_session.derive(num_gpus=16) is small_session

    def test_derive_shared_across_family(self, small_session):
        child = small_session.derive(num_gpus=32)
        # Deriving the base config from a child returns the original session.
        back = child.derive(num_gpus=16)
        assert back is small_session

    def test_sweep_cartesian_product(self, small_session):
        cells = small_session.sweep(
            gpus=(16,),
            datasets=("arxiv", "github"),
            strategies=("te_cp", "zeppelin"),
        )
        assert len(cells) == 2
        assert [c.config["dataset"] for c in cells] == ["arxiv", "github"]
        for cell in cells:
            assert cell.speedup("zeppelin") > 0

    def test_sweep_reuses_cached_sessions(self, small_session, monkeypatch):
        calls = []
        original = ZeppelinStrategy.plan_layer

        def counting(self, batch, phase="forward"):
            calls.append((batch.lengths, phase))
            return original(self, batch, phase)

        monkeypatch.setattr(ZeppelinStrategy, "plan_layer", counting)
        kwargs = dict(datasets=("arxiv",), strategies=("te_cp", "zeppelin"))
        small_session.sweep(**kwargs)
        first = len(calls)
        small_session.sweep(**kwargs)
        assert len(calls) == first  # second sweep fully served from caches

    def test_default_comparison_constant(self):
        assert DEFAULT_COMPARISON[0] == "te_cp"
        assert "zeppelin" in DEFAULT_COMPARISON
