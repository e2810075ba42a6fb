"""Transformer model specifications, FLOP counting, and memory modelling.

The paper evaluates LLaMA-style dense models (3B, 7B, 13B, 30B) and an 8x550M
MoE.  This subpackage defines those architectures and the analytical cost
primitives (FLOPs per module, bytes of activations / KV, per-GPU token
capacity) that every scheduling decision consumes.
"""

from repro.model.spec import (
    TransformerSpec,
    MoEConfig,
    MODEL_PRESETS,
    get_model,
    available_models,
)
from repro.model.flops import attention_flops, linear_flops_per_token
from repro.model.memory import (
    parameter_bytes,
    kv_bytes_per_token,
    activation_bytes_per_token,
    token_capacity,
)

__all__ = [
    "TransformerSpec",
    "MoEConfig",
    "MODEL_PRESETS",
    "get_model",
    "available_models",
    "attention_flops",
    "linear_flops_per_token",
    "parameter_bytes",
    "kv_bytes_per_token",
    "activation_bytes_per_token",
    "token_capacity",
]
