"""Bandwidth and link-time models.

Communication time is modelled with the classic alpha-beta (latency +
bytes/bandwidth) model.  The paper reasons about three bandwidth tiers:

* device-local (no transfer),
* intra-node over NVSwitch (``b_intra`` in the paper's notation, ~400 GB/s on
  Cluster A),
* inter-node over NICs (``b_inter``, 200 Gb/s per NIC on Cluster A).

``b_intra`` / ``b_inter`` in the paper are *inverse* bandwidths (seconds per
byte); :class:`LinkModel` exposes both the bandwidth and the inverse so the
scheduling code can mirror the paper's formulas directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class LinkModel:
    """An alpha-beta model of a single communication link.

    Parameters
    ----------
    bandwidth_bytes_per_s:
        Sustained bandwidth of the link in bytes/second.
    latency_s:
        Fixed per-message latency in seconds (the "alpha" term).
    """

    bandwidth_bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        check_positive("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_non_negative("latency_s", self.latency_s)

    @property
    def inverse_bandwidth(self) -> float:
        """Seconds per byte — the paper's ``b_intra`` / ``b_inter`` notation."""
        return 1.0 / self.bandwidth_bytes_per_s

    def transfer_time(self, nbytes: float) -> float:
        """Time in seconds to move ``nbytes`` over this link."""
        check_non_negative("nbytes", nbytes)
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s

    def scaled(self, factor: float) -> "LinkModel":
        """Return a copy of this link with bandwidth multiplied by ``factor``.

        Used to model sharing (factor < 1) or aggregation over several parallel
        links (factor > 1).
        """
        check_positive("factor", factor)
        return LinkModel(
            bandwidth_bytes_per_s=self.bandwidth_bytes_per_s * factor,
            latency_s=self.latency_s,
        )


@dataclass(frozen=True)
class BandwidthProfile:
    """The bandwidth hierarchy of one cluster.

    Attributes
    ----------
    intra_node:
        Link model for GPU-to-GPU transfers inside a node (NVSwitch/NVLink).
    nic:
        Link model of a *single* NIC for inter-node transfers.
    nics_per_node:
        Number of NICs installed per node.
    gpus_per_nic:
        How many GPUs share one NIC (Cluster A: 2, Clusters B/C: 1).
    """

    intra_node: LinkModel
    nic: LinkModel
    nics_per_node: int
    gpus_per_nic: int

    def __post_init__(self) -> None:
        check_positive("nics_per_node", self.nics_per_node)
        check_positive("gpus_per_nic", self.gpus_per_nic)

    @property
    def b_intra(self) -> float:
        """Inverse intra-node bandwidth (s/byte), the paper's ``b_intra``."""
        return self.intra_node.inverse_bandwidth

    @property
    def b_inter(self) -> float:
        """Inverse single-NIC inter-node bandwidth (s/byte), the paper's ``b_inter``."""
        return self.nic.inverse_bandwidth


def gbps(value: float) -> float:
    """Convert gigabits/second to bytes/second."""
    check_non_negative("value", value)
    return value * 1e9 / 8.0


def gBps(value: float) -> float:
    """Convert gigabytes/second to bytes/second."""
    check_non_negative("value", value)
    return value * 1e9
