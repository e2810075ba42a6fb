"""GPU compute-time model.

Compute time = FLOPs / (peak FLOP/s * kernel efficiency) + a fixed kernel
launch overhead.  Efficiency factors are per device and per kernel family;
attention kernels (FlashAttention-style) sustain a lower fraction of peak than
large GEMMs, and very small workloads are dominated by the launch overhead —
which is exactly why short sequences cannot hide communication (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.flops import attention_flops, linear_flops_per_token
from repro.model.spec import TransformerSpec
from repro.utils.validation import check_non_negative, check_positive

# Sustained fraction of peak FLOP/s by kernel family and device generation.
_DEFAULT_EFFICIENCY = {
    "A800": {"attention": 0.52, "linear": 0.62},
    "H800": {"attention": 0.42, "linear": 0.55},
    "H200": {"attention": 0.45, "linear": 0.58},
}

# Fixed launch/setup overhead per kernel invocation (seconds).
_KERNEL_OVERHEAD_S = 25e-6


@dataclass(frozen=True)
class ComputeCostModel:
    """Times transformer workloads on a specific device type.

    Parameters
    ----------
    peak_flops:
        Peak dense BF16 throughput of the device in FLOP/s.
    device_type:
        Device model name; selects efficiency factors.
    tensor_parallel:
        Tensor-parallel degree; FLOPs per rank are divided by this factor.
    efficiency_override:
        Optional ``{"attention": x, "linear": y}`` overriding the defaults.
    """

    peak_flops: float
    device_type: str = "A800"
    tensor_parallel: int = 1
    efficiency_override: dict | None = None
    kernel_overhead_s: float = _KERNEL_OVERHEAD_S
    _efficiency: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        check_positive("peak_flops", self.peak_flops)
        check_positive("tensor_parallel", self.tensor_parallel)
        check_non_negative("kernel_overhead_s", self.kernel_overhead_s)
        eff = dict(_DEFAULT_EFFICIENCY.get(self.device_type, _DEFAULT_EFFICIENCY["A800"]))
        if self.efficiency_override:
            eff.update(self.efficiency_override)
        object.__setattr__(self, "_efficiency", eff)

    # -- primitive timings ---------------------------------------------------

    def _time(self, flops: float, kind: str) -> float:
        """Time to execute ``flops`` of kernel family ``kind`` on one rank."""
        check_non_negative("flops", flops)
        if flops == 0:
            return 0.0
        eff = self._efficiency[kind]
        sustained = self.peak_flops * eff
        return self.kernel_overhead_s + flops / self.tensor_parallel / sustained

    # -- attention -------------------------------------------------------------

    def attention_time(
        self,
        spec: TransformerSpec,
        seq_len: int,
        causal: bool = True,
        num_layers: int | None = None,
    ) -> float:
        """Forward attention time (seconds) for a full sequence on one rank."""
        return self._time(
            attention_flops(spec, seq_len, causal=causal, num_layers=num_layers),
            "attention",
        )

    def attention_pairs_time(
        self,
        spec: TransformerSpec,
        num_pairs: float,
        num_layers: int | None = None,
    ) -> float:
        """Forward time for an exact number of (query, key) attention pairs.

        Used by the attention engine, which computes the precise number of
        causal-mask-visible pairs per ring round.
        """
        check_non_negative("num_pairs", num_pairs)
        if num_pairs == 0:
            return 0.0
        layers = spec.num_layers if num_layers is None else num_layers
        return self._time(4.0 * num_pairs * spec.hidden_size * layers, "attention")

    # -- linear modules --------------------------------------------------------

    def linear_time(
        self,
        spec: TransformerSpec,
        num_tokens: int,
        num_layers: int | None = None,
    ) -> float:
        """Forward time of the linear modules over ``num_tokens`` tokens."""
        check_non_negative("num_tokens", num_tokens)
        return self._time(
            linear_flops_per_token(spec, num_layers=num_layers) * num_tokens, "linear"
        )

    def describe(self) -> str:
        """Human-readable summary of the model parameters."""
        eff = self._efficiency
        return (
            f"{self.device_type}: peak {self.peak_flops / 1e12:.0f} TFLOP/s, "
            f"attention eff {eff['attention']:.2f}, linear eff {eff['linear']:.2f}, "
            f"TP={self.tensor_parallel}"
        )
