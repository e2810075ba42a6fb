"""Fig. 5 — operation costs vs sequence length and the three-zone split.

Evaluates attention compute, linear compute, intra-node send-receive and
inter-node send-receive for sequence lengths from 1k to 64k on an A800 node
(200 Gb/s inter-node, 400 GB/s intra-node), and reports the crossover lengths
that define the local / intra-node / inter-node zones, plus the fraction of
each evaluation dataset falling in each zone.
"""

from __future__ import annotations

from repro.cluster.presets import cluster_a
from repro.core.zones import classify_zones, zone_cost_curves
from repro.data.distributions import TABLE2_DISTRIBUTIONS
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.model.spec import get_model
from repro.registry import EXPERIMENTS

# The evaluation grid: sequence lengths 1k..64k, zone shares per dataset.
_GRID = SweepSpec(
    axes={"seq_len": tuple(1024 * (2**i) for i in range(0, 7))}
)
_LENGTHS = [point["seq_len"] for point in _GRID]


@EXPERIMENTS.register(
    "fig5", description="Fig. 5 — compute/communication cost curves and zone boundaries"
)
def run(model: str = "7b") -> ExperimentResult:
    """Regenerate the Fig. 5 cost curves and zone boundaries."""
    cluster = cluster_a(num_nodes=2)
    spec = get_model(model)
    curves = zone_cost_curves(spec, cluster, _LENGTHS)
    thresholds = classify_zones(spec, cluster)

    headers = [
        "seq_len",
        "attention_ms",
        "linear_ms",
        "intra_node_sendrecv_ms",
        "inter_node_sendrecv_ms",
        "zone",
    ]
    result = ExperimentResult(
        name="fig5",
        description=f"Operation cost vs sequence length ({model} on Cluster A)",
        headers=headers,
    )
    for i, length in enumerate(curves.lengths):
        result.add_row(
            length,
            round(curves.attention_compute_s[i] * 1000, 2),
            round(curves.linear_compute_s[i] * 1000, 2),
            round(curves.intra_node_comm_s[i] * 1000, 2),
            round(curves.inter_node_comm_s[i] * 1000, 2),
            thresholds.zone_of(length).value,
        )

    result.extra["thresholds"] = {
        "local_max": thresholds.local_max,
        "intra_max": thresholds.intra_max,
    }
    # Zone occupancy per dataset (token-weighted, by bin midpoint).
    zone_shares = {}
    for point in SweepSpec(axes={"dataset": tuple(TABLE2_DISTRIBUTIONS)}):
        name = point["dataset"]
        dist = TABLE2_DISTRIBUTIONS[name]
        shares = {"local": 0.0, "intra_node": 0.0, "inter_node": 0.0}
        total = 0.0
        for b in dist.bins:
            weight = b.probability * b.midpoint
            shares[thresholds.zone_of(b.midpoint).value] += weight
            total += weight
        zone_shares[name] = {k: v / total for k, v in shares.items()} if total else shares
    result.extra["dataset_zone_shares"] = zone_shares
    return result


def main() -> None:
    res = run()
    print_result(res)
    print("zone thresholds:", res.extra["thresholds"])
    for name, shares in res.extra["dataset_zone_shares"].items():
        print(f"  {name:12s}", {k: round(v, 3) for k, v in shares.items()})


if __name__ == "__main__":
    main()
