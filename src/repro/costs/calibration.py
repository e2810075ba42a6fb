"""Published calibration points from the paper.

The paper reports a handful of absolute timings (Fig. 5, Fig. 12, §5.4) that we
use to sanity-check the analytical cost model.  We do not fit to these values;
they serve as "is the model in the right ballpark / does the shape hold"
checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CalibrationPoint:
    """A single published measurement.

    Attributes
    ----------
    name:
        Identifier used in tests.
    description:
        Where the number comes from in the paper.
    value_s:
        Published value in seconds.
    rtol:
        Relative tolerance used when checking the reproduction (these are
        order-of-magnitude sanity checks, not exact targets).
    """

    name: str
    description: str
    value_s: float
    rtol: float = 1.0

    def __post_init__(self) -> None:
        check_positive("value_s", self.value_s)
        check_positive("rtol", self.rtol)


CALIBRATION_POINTS: dict[str, CalibrationPoint] = {
    # Fig. 5: attention computation cost on an A800 approaches ~200-240 ms at
    # 64k tokens (7B-scale hidden size, full layer stack).
    "fig5_attention_64k_a800": CalibrationPoint(
        name="fig5_attention_64k_a800",
        description="Fig. 5: 64k-token causal attention on one A800, 7B model",
        value_s=0.220,
        rtol=0.6,
    ),
    # Fig. 12.a: TE CP inter-node KV transfer per ring round for a 64k sequence
    # split over 16 ranks (4k tokens per chunk) crossing a single NIC: 2.18 ms.
    "fig12_te_inter_node_round": CalibrationPoint(
        name="fig12_te_inter_node_round",
        description="Fig. 12.a: per-round inter-node KV send (4k-token chunk, one NIC)",
        value_s=2.18e-3,
        rtol=0.8,
    ),
    # Fig. 12.b: with routing the same transfer drops to 411 us (all 4 NICs).
    "fig12_zeppelin_inter_node_round": CalibrationPoint(
        name="fig12_zeppelin_inter_node_round",
        description="Fig. 12.b: per-round inter-node KV send with 3-step routing",
        value_s=411e-6,
        rtol=0.8,
    ),
    # Table 3: forward pass of the 7B model on 32 H200 GPUs, 128k context,
    # balanced distribution: 316-817 ms across ranks.
    "table3_forward_balanced_upper": CalibrationPoint(
        name="table3_forward_balanced_upper",
        description="Table 3: slowest-rank forward time, balanced distribution",
        value_s=0.817,
        rtol=1.0,
    ),
}


def get_calibration(name: str) -> CalibrationPoint:
    """Look up a calibration point by name."""
    if name not in CALIBRATION_POINTS:
        raise KeyError(
            f"unknown calibration point {name!r}; available: "
            f"{sorted(CALIBRATION_POINTS)}"
        )
    return CALIBRATION_POINTS[name]
