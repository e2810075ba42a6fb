"""Tests for iteration simulation, throughput measurement and the run API."""

import dataclasses

import pytest

from repro.api import Session, SessionConfig
from repro.core.zeppelin import ZeppelinStrategy
from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.data.sampler import Batch
from repro.registry import STRATEGIES
from repro.training.iteration import simulate_iteration
from repro.training.throughput import measure_throughput


class TestSimulateIteration:
    def test_iteration_time_composition(self, context_3b_16, mixed_batch):
        strategy = ZeppelinStrategy(context_3b_16)
        result = simulate_iteration(strategy, mixed_batch)
        expected = (
            (result.forward_layer_s + result.backward_layer_s) * result.num_layers
            + result.partition_overhead_s
            + result.misc_overhead_s
        )
        assert result.iteration_time_s == pytest.approx(expected)
        assert result.num_layers == context_3b_16.spec.num_layers

    def test_throughput_positive_and_consistent(self, context_3b_16, mixed_batch):
        strategy = ZeppelinStrategy(context_3b_16)
        result = simulate_iteration(strategy, mixed_batch)
        assert result.tokens_per_second == pytest.approx(
            mixed_batch.total_tokens / result.iteration_time_s
        )

    def test_backward_slower_than_forward(self, context_3b_16, mixed_batch):
        strategy = ZeppelinStrategy(context_3b_16)
        result = simulate_iteration(strategy, mixed_batch)
        assert result.backward_time_s > result.forward_time_s


class TestMeasureThroughput:
    def test_average_over_batches(self, context_3b_16):
        strategy = TransformerEngineCPStrategy(context_3b_16)
        batches = [
            Batch.from_lengths([8192, 4096, 2048, 1024]),
            Batch.from_lengths([16384, 4096]),
        ]
        report = measure_throughput(strategy, batches)
        assert report.num_batches == 2
        assert report.total_tokens == sum(b.total_tokens for b in batches)
        assert report.tokens_per_second > 0

    def test_empty_batches_rejected(self, context_3b_16):
        strategy = TransformerEngineCPStrategy(context_3b_16)
        with pytest.raises(ValueError):
            measure_throughput(strategy, [])

    def test_zeppelin_beats_te_cp_on_the_mixed_batch(self, context_3b_16, mixed_batch):
        te = measure_throughput(TransformerEngineCPStrategy(context_3b_16), [mixed_batch])
        z = measure_throughput(ZeppelinStrategy(context_3b_16), [mixed_batch])
        assert te.speedup_over(te) == pytest.approx(1.0)
        assert z.speedup_over(te) > 1.0

    def test_speedup_over_a_zero_throughput_baseline_raises(
        self, context_3b_16, mixed_batch
    ):
        z = measure_throughput(ZeppelinStrategy(context_3b_16), [mixed_batch])
        stalled = dataclasses.replace(z, tokens_per_second=0.0)
        assert stalled.speedup_over(z) == 0.0
        with pytest.raises(ZeroDivisionError, match="baseline throughput is zero"):
            z.speedup_over(stalled)


class TestRunApi:
    def test_tokens_per_gpu_and_dp_rank(self):
        config = SessionConfig(model="7b", num_gpus=16, total_context=64 * 1024)
        assert config.tokens_per_gpu == 4096
        assert config.tokens_per_dp_rank == 4096
        tp = SessionConfig(
            model="13b", num_gpus=32, total_context=64 * 1024, tensor_parallel=2
        )
        assert tp.tokens_per_dp_rank == 4096

    def test_unknown_strategy_rejected(self):
        session = Session(
            model="3b", num_gpus=16, dataset="arxiv", total_context=32768, num_steps=1
        )
        with pytest.raises(ValueError):
            session.strategy("fsdp")

    def test_registered_strategy_kwargs_forwarded(self, context_3b_16):
        strategy = STRATEGIES.get("zeppelin").obj(context_3b_16, use_routing=False)
        assert "no routing" in strategy.name
