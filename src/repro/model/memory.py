"""Memory modelling: parameters, activations, KV tensors, per-GPU token capacity.

Alg. 1/2 require the paper's ``L`` — the token capacity of each GPU — which we
derive from HBM capacity minus parameter/optimizer state divided by the
per-token activation footprint.  The KV activation size also determines the
communication volume of ring attention (what actually moves over NICs).
"""

from __future__ import annotations

from repro.model.spec import TransformerSpec
from repro.utils.validation import check_positive

# Bytes of optimizer + gradient state per parameter under mixed-precision Adam
# with ZeRO-1 style sharding folded in (a coarse but standard 6 bytes/param:
# bf16 weight + bf16 grad + sharded fp32 master/moments amortised).
_OPTIMIZER_BYTES_PER_PARAM = 6.0

# Fraction of activation memory kept after selective recomputation.
_ACTIVATION_CHECKPOINT_FACTOR = 0.35

# Fraction of HBM held back for workspace and fragmentation.
_RESERVE_FRACTION = 0.1


def parameter_bytes(spec: TransformerSpec, tensor_parallel: int = 1) -> float:
    """Bytes of parameter + optimizer state held by one GPU."""
    check_positive("tensor_parallel", tensor_parallel)
    return spec.num_parameters * _OPTIMIZER_BYTES_PER_PARAM / tensor_parallel


def kv_bytes_per_token(spec: TransformerSpec, per_layer: bool = True) -> float:
    """Bytes of key+value activations per token.

    This is the unit of ring-attention communication: each round moves the KV
    activations of the peer's chunk.  ``per_layer=True`` (default) gives the
    volume exchanged per transformer layer, which is what each ring round in a
    layer's attention transfers.
    """
    per_layer_bytes = 2.0 * spec.kv_hidden_size * spec.dtype_bytes
    if per_layer:
        return per_layer_bytes
    return per_layer_bytes * spec.num_layers


def hidden_bytes_per_token(spec: TransformerSpec) -> float:
    """Bytes of a single hidden-state activation per token (one layer boundary)."""
    return spec.hidden_size * spec.dtype_bytes


def activation_bytes_per_token(
    spec: TransformerSpec, tensor_parallel: int = 1
) -> float:
    """Bytes of activation memory retained per token during training.

    Per layer we keep the attention inputs/outputs and the MLP intermediate
    activations, scaled by the checkpointing factor; tensor parallelism shards
    the intermediate activations.
    """
    check_positive("tensor_parallel", tensor_parallel)
    h = spec.hidden_size
    ffn = spec.ffn_hidden_size
    per_layer = (
        # attention block: input, QKV, attention output, projection output
        (2 * h + 2 * spec.kv_hidden_size + 2 * h)
        # MLP block: input, gate/up activations, down output
        + (h + 2 * ffn + h)
    ) * spec.dtype_bytes
    per_layer /= tensor_parallel
    return per_layer * spec.num_layers * _ACTIVATION_CHECKPOINT_FACTOR


def token_capacity(
    spec: TransformerSpec,
    gpu_memory_bytes: float,
    tensor_parallel: int = 1,
) -> int:
    """Maximum number of tokens a single GPU can hold — the paper's ``L``.

    Derived as (HBM minus parameter/optimizer state minus a reserve for
    workspace/fragmentation) divided by the per-token activation footprint.
    """
    check_positive("gpu_memory_bytes", gpu_memory_bytes)
    usable = gpu_memory_bytes * (1.0 - _RESERVE_FRACTION)
    usable -= parameter_bytes(spec, tensor_parallel)
    if usable <= 0:
        raise ValueError(
            f"model {spec.name} does not fit in {gpu_memory_bytes / 1e9:.0f} GB "
            f"with tensor_parallel={tensor_parallel}"
        )
    per_token = activation_bytes_per_token(spec, tensor_parallel)
    capacity = int(usable // per_token)
    if capacity < 1:
        raise ValueError(
            f"model {spec.name} leaves no room for activations on a "
            f"{gpu_memory_bytes / 1e9:.0f} GB GPU"
        )
    return capacity
