"""Transformer architecture specifications.

The presets follow the LLaMA family shapes used in the paper's evaluation
(§5): 3B, 7B, 13B and 30B dense models with multi-head attention, plus an
8x550M mixture-of-experts model.  Only the quantities that drive compute,
communication and memory costs are modelled: hidden size, layer count, head
counts, FFN width, vocabulary size and the MoE expert configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MoEConfig:
    """Mixture-of-experts configuration for a transformer layer.

    Attributes
    ----------
    num_experts:
        Number of experts per MoE layer.
    top_k:
        Experts activated per token.
    capacity_factor:
        Multiplier over the perfectly balanced per-expert token count used to
        size expert buffers; tokens beyond capacity are dropped in real
        systems and modelled as imbalance here.
    """

    num_experts: int
    top_k: int = 2
    capacity_factor: float = 1.25

    def __post_init__(self) -> None:
        check_positive("num_experts", self.num_experts)
        check_positive("top_k", self.top_k)
        check_positive("capacity_factor", self.capacity_factor)
        if self.top_k > self.num_experts:
            raise ValueError("top_k cannot exceed num_experts")


@dataclass(frozen=True)
class TransformerSpec:
    """A decoder-only transformer architecture.

    Attributes
    ----------
    name:
        Preset name, e.g. ``"llama-7b"``.
    hidden_size:
        Model (embedding) dimension.
    num_layers:
        Number of transformer layers.
    num_heads:
        Attention (query) heads.
    num_kv_heads:
        Key/value heads; equal to ``num_heads`` for multi-head attention.
    ffn_hidden_size:
        Width of the feed-forward (SwiGLU) hidden layer.
    vocab_size:
        Vocabulary size (embedding / LM-head matmuls).
    dtype_bytes:
        Bytes per activation element (2 for bf16).
    moe:
        Optional MoE configuration; ``None`` for dense models.
    """

    name: str
    hidden_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    ffn_hidden_size: int
    vocab_size: int = 128256
    dtype_bytes: int = 2
    moe: MoEConfig | None = None

    def __post_init__(self) -> None:
        check_positive("hidden_size", self.hidden_size)
        check_positive("num_layers", self.num_layers)
        check_positive("num_heads", self.num_heads)
        check_positive("num_kv_heads", self.num_kv_heads)
        check_positive("ffn_hidden_size", self.ffn_hidden_size)
        check_positive("vocab_size", self.vocab_size)
        check_positive("dtype_bytes", self.dtype_bytes)
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be divisible by num_kv_heads")

    @property
    def head_dim(self) -> int:
        """Per-head dimension."""
        return self.hidden_size // self.num_heads

    @property
    def kv_hidden_size(self) -> int:
        """Combined key/value projection width (per K or V)."""
        return self.num_kv_heads * self.head_dim

    @property
    def is_moe(self) -> bool:
        return self.moe is not None

    @property
    def num_parameters(self) -> int:
        """Approximate parameter count (attention + FFN + embeddings)."""
        h = self.hidden_size
        attn = h * h + 2 * h * self.kv_hidden_size + h * h  # Q, K, V, O projections
        if self.moe is None:
            ffn = 3 * h * self.ffn_hidden_size  # SwiGLU: gate, up, down
        else:
            ffn = 3 * h * self.ffn_hidden_size * self.moe.num_experts
        per_layer = attn + ffn + 2 * h  # plus the two RMSNorm weight vectors
        embeddings = 2 * self.vocab_size * h  # input embedding + LM head
        return self.num_layers * per_layer + embeddings


MODEL_PRESETS: dict[str, TransformerSpec] = {
    "llama-3b": TransformerSpec(
        name="llama-3b",
        hidden_size=2560,
        num_layers=32,
        num_heads=20,
        num_kv_heads=20,
        ffn_hidden_size=6912,
    ),
    "llama-7b": TransformerSpec(
        name="llama-7b",
        hidden_size=4096,
        num_layers=32,
        num_heads=32,
        num_kv_heads=32,
        ffn_hidden_size=11008,
    ),
    "llama-13b": TransformerSpec(
        name="llama-13b",
        hidden_size=5120,
        num_layers=40,
        num_heads=40,
        num_kv_heads=40,
        ffn_hidden_size=13824,
    ),
    "llama-30b": TransformerSpec(
        name="llama-30b",
        hidden_size=6656,
        num_layers=60,
        num_heads=52,
        num_kv_heads=52,
        ffn_hidden_size=17920,
    ),
    # 8x550M MoE: a small dense backbone with 8 experts per layer.
    "moe-8x550m": TransformerSpec(
        name="moe-8x550m",
        hidden_size=1536,
        num_layers=24,
        num_heads=16,
        num_kv_heads=16,
        ffn_hidden_size=4096,
        moe=MoEConfig(num_experts=8, top_k=2),
    ),
}

# Aliases used in experiment configuration tables.
_ALIASES = {
    "3b": "llama-3b",
    "7b": "llama-7b",
    "13b": "llama-13b",
    "30b": "llama-30b",
    "8x550m": "moe-8x550m",
    "moe": "moe-8x550m",
}


def available_models() -> list[str]:
    """Names of all model presets."""
    return sorted(MODEL_PRESETS)


def get_model(name: str) -> TransformerSpec:
    """Look up a model preset by name or alias (case-insensitive)."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in MODEL_PRESETS:
        raise KeyError(f"unknown model {name!r}; available: {available_models()}")
    return MODEL_PRESETS[key]
