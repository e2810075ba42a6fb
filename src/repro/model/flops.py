"""Analytical FLOP counting for transformer modules.

The paper's scheduling decisions hinge on the distinct scaling behaviours of
the two module families (§2.1):

* **attention** — quadratic in sequence length (causal mask halves the work),
* **linear modules** (QKV/O projections, SwiGLU MLP, norms, MoE experts) —
  linear in sequence length (token-wise).

All counts are *forward-pass* FLOPs for a single transformer layer unless the
function name says otherwise; backward-pass work is modelled as a multiple of
forward work (conventionally 2x) by the cost layer.
"""

from __future__ import annotations

from repro.model.spec import TransformerSpec
from repro.utils.validation import check_non_negative


def attention_flops(
    spec: TransformerSpec,
    seq_len: int,
    num_layers: int | None = None,
) -> float:
    """FLOPs of the causal attention score/value matmuls for one sequence.

    The two batched matmuls (``QK^T`` and ``PV``) each cost
    ``2 * s^2 * hidden`` FLOPs for full attention; the causal mask halves the
    useful work.  Projections are *not* included — they are token-wise and
    belong to :func:`linear_flops_per_token`.
    """
    check_non_negative("seq_len", seq_len)
    layers = spec.num_layers if num_layers is None else num_layers
    return 2.0 * seq_len * seq_len * spec.hidden_size * layers


def linear_flops_per_token(spec: TransformerSpec, num_layers: int | None = None) -> float:
    """Per-token FLOPs of the linear modules of a transformer layer stack.

    Covers the QKV and output projections plus the SwiGLU MLP (dense models) or
    the *activated* experts (MoE models, ``top_k`` experts per token).  Norms
    and element-wise ops are negligible and folded into a 1% overhead factor.
    """
    h = spec.hidden_size
    layers = spec.num_layers if num_layers is None else num_layers
    qkv = 2.0 * h * (h + 2 * spec.kv_hidden_size)
    out_proj = 2.0 * h * h
    if spec.moe is None:
        ffn = 2.0 * 3.0 * h * spec.ffn_hidden_size
    else:
        ffn = 2.0 * 3.0 * h * spec.ffn_hidden_size * spec.moe.top_k
    per_layer = (qkv + out_proj + ffn) * 1.01
    return per_layer * layers


def embedding_flops_per_token(spec: TransformerSpec) -> float:
    """Per-token FLOPs of the LM head projection (the only large embedding matmul)."""
    return 2.0 * spec.hidden_size * spec.vocab_size
