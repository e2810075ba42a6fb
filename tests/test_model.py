"""Tests for model specs, FLOP counting and memory modelling."""

import pytest

from repro.model.flops import (
    attention_flops,
    attention_flops_chunk,
    causal_chunk_flops,
    embedding_flops_per_token,
    iteration_flops,
    linear_flops_per_token,
    moe_flops_per_token,
)
from repro.model.memory import (
    activation_bytes_per_token,
    hidden_bytes_per_token,
    kv_bytes_per_token,
    parameter_bytes,
    token_capacity,
)
from repro.model.spec import MODEL_PRESETS, MoEConfig, TransformerSpec, get_model


class TestTransformerSpec:
    def test_presets_exist_for_all_paper_models(self):
        for name in ("llama-3b", "llama-7b", "llama-13b", "llama-30b", "moe-8x550m"):
            assert name in MODEL_PRESETS

    def test_aliases_resolve(self):
        assert get_model("7B").name == "llama-7b"
        assert get_model("8x550m").is_moe

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_model("gpt-5")

    def test_parameter_counts_are_in_the_right_ballpark(self):
        # Within ~30% of the nominal size (embeddings included).
        assert 5e9 < get_model("7b").num_parameters < 9e9
        assert 11e9 < get_model("13b").num_parameters < 16e9
        assert 2.4e9 < get_model("3b").num_parameters < 4.5e9

    def test_head_dim_and_kv_hidden(self):
        spec = get_model("7b")
        assert spec.head_dim == 128
        assert spec.kv_hidden_size == 4096

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TransformerSpec(
                name="bad",
                hidden_size=100,
                num_layers=2,
                num_heads=3,
                num_kv_heads=3,
                ffn_hidden_size=400,
            )

    def test_moe_config_validation(self):
        with pytest.raises(ValueError):
            MoEConfig(num_experts=4, top_k=8)


class TestFlops:
    def test_attention_is_quadratic(self, spec_7b):
        f1 = attention_flops(spec_7b, 1024)
        f2 = attention_flops(spec_7b, 2048)
        assert f2 / f1 == pytest.approx(4.0)

    def test_linear_is_linear(self, spec_7b):
        per_token = linear_flops_per_token(spec_7b)
        assert per_token > 0
        # 7B model: ~6 * 7e9 / 32 layers per token is the usual rule of thumb;
        # our count (projections + SwiGLU, no embeddings) is the same order.
        assert 2e8 < per_token / spec_7b.num_layers < 1e9

    def test_causal_halves_attention(self, spec_7b):
        full = attention_flops(spec_7b, 4096, causal=False)
        causal = attention_flops(spec_7b, 4096, causal=True)
        assert causal == pytest.approx(full / 2)

    def test_chunk_flops_match_rectangle(self, spec_7b):
        f = attention_flops_chunk(spec_7b, 128, 256, num_layers=1)
        assert f == pytest.approx(4 * 128 * 256 * spec_7b.hidden_size)

    def test_causal_chunk_flops_sum_to_whole_sequence(self, spec_7b):
        seq = 1024
        whole = attention_flops(spec_7b, seq, num_layers=1)
        parts = causal_chunk_flops(spec_7b, 0, 512, num_layers=1) + causal_chunk_flops(
            spec_7b, 512, 512, num_layers=1
        )
        # The causal-pair count includes the diagonal, the closed-form halving
        # does not; they agree to within 1/seq.
        assert parts == pytest.approx(whole, rel=2.0 / seq + 1e-6)

    def test_moe_flops_use_top_k_experts(self, spec_moe):
        per_token = moe_flops_per_token(spec_moe, num_layers=1)
        dense_equivalent = 2 * 3 * spec_moe.hidden_size * spec_moe.ffn_hidden_size
        assert per_token == pytest.approx(dense_equivalent * spec_moe.moe.top_k)

    def test_moe_flops_zero_for_dense(self, spec_7b):
        assert moe_flops_per_token(spec_7b) == 0.0

    def test_iteration_flops_include_backward(self, spec_3b):
        fwd = iteration_flops(spec_3b, [4096, 8192], include_backward=False)
        total = iteration_flops(spec_3b, [4096, 8192], include_backward=True)
        assert total == pytest.approx(3 * fwd)

    def test_embedding_flops(self, spec_7b):
        assert embedding_flops_per_token(spec_7b) == pytest.approx(
            2 * spec_7b.hidden_size * spec_7b.vocab_size
        )


class TestMemory:
    def test_kv_bytes_per_token(self, spec_7b):
        # 2 tensors x 4096 kv hidden x 2 bytes = 16 KiB per layer.
        assert kv_bytes_per_token(spec_7b) == pytest.approx(16384)
        assert kv_bytes_per_token(spec_7b, per_layer=False) == pytest.approx(
            16384 * spec_7b.num_layers
        )

    def test_hidden_bytes_per_token(self, spec_7b):
        assert hidden_bytes_per_token(spec_7b) == pytest.approx(8192)

    def test_parameter_bytes_scale_with_tp(self, spec_7b):
        assert parameter_bytes(spec_7b, tensor_parallel=2) == pytest.approx(
            parameter_bytes(spec_7b, tensor_parallel=1) / 2
        )

    def test_token_capacity_positive_and_monotone_in_memory(self, spec_7b):
        small = token_capacity(spec_7b, 80e9)
        large = token_capacity(spec_7b, 141e9)
        assert 0 < small < large

    def test_token_capacity_raises_when_model_does_not_fit(self):
        spec = get_model("30b")
        with pytest.raises(ValueError):
            token_capacity(spec, 80e9, tensor_parallel=1)

    def test_activation_bytes_shrink_with_tp(self, spec_7b):
        assert activation_bytes_per_token(spec_7b, tensor_parallel=2) < activation_bytes_per_token(
            spec_7b, tensor_parallel=1
        )
