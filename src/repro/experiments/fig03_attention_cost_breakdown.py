"""Fig. 3 — multi-head attention cost distribution across sequence-length bins.

For a 2-node, 16-GPU system with a 64k total context, the paper breaks the
attention cost of each dataset down by sequence-length bin and by cost type:

* **(a) packing + Ulysses SP** — useful computation, communication, and the
  *redundant* cross-sequence computation of the naive packed kernel,
* **(b) even split + ring CP** — computation and the (largely unoverlappable
  for short sequences) ring communication.

Shares are normalised to the total attention cost of the dataset, reproducing
the stacked-bar data of Fig. 3.
"""

from __future__ import annotations

from repro.cluster.presets import cluster_a
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.data.distributions import FIG1_DISTRIBUTIONS, LengthDistribution
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.model.spec import get_model
from repro.registry import EXPERIMENTS

_TOTAL_CONTEXT = 64 * 1024
_NUM_GPUS = 16


def _bin_costs_packing(
    dist: LengthDistribution, compute: ComputeCostModel, comm: CommCostModel, spec
) -> dict[str, dict[str, float]]:
    """Per-bin attention cost components for packing + Ulysses (Fig. 3.a).

    Packing places each sequence into a buffer alongside other sequences; the
    naive packed kernel attends over the whole buffer, so a sequence of length
    ``s`` inside a buffer of ``B`` tokens performs roughly ``s * B`` pairs of
    work of which only ``s^2 / 2`` is useful.  The Ulysses all-to-all moves the
    sequence's hidden states twice per layer.
    """
    buffer_tokens = _TOTAL_CONTEXT // _NUM_GPUS
    out: dict[str, dict[str, float]] = {}
    for b in dist.bins:
        s = min(b.midpoint, buffer_tokens)
        weight = b.probability * b.midpoint  # token-weighted occurrence
        useful_pairs = s * s / 2.0
        total_pairs = s * buffer_tokens - s * s / 2.0 if s < buffer_tokens else s * s / 2.0
        redundant_pairs = max(0.0, total_pairs - useful_pairs)
        compute_s = compute.attention_pairs_time(spec, useful_pairs, num_layers=1)
        redundant_s = compute.attention_pairs_time(spec, redundant_pairs, num_layers=1)
        comm_s = 2.0 * comm.intra_node_time(
            spec.hidden_size * spec.dtype_bytes * s / max(1, _NUM_GPUS)
        ) + 2.0 * comm.inter_node_time(
            spec.hidden_size * spec.dtype_bytes * s / 2, nics=1
        )
        out[b.label] = {
            "computation": compute_s * weight,
            "communication": comm_s * weight,
            "redundant": redundant_s * weight,
        }
    return out


def _bin_costs_ring_cp(
    dist: LengthDistribution, compute: ComputeCostModel, comm: CommCostModel, spec
) -> dict[str, dict[str, float]]:
    """Per-bin attention cost components for even-split ring CP (Fig. 3.b)."""
    world = _NUM_GPUS
    out: dict[str, dict[str, float]] = {}
    for b in dist.bins:
        s = b.midpoint
        weight = b.probability * b.midpoint
        pairs = s * s / 2.0
        compute_s = compute.attention_pairs_time(spec, pairs / world, num_layers=1) * world
        # Every rank forwards its s/world-token KV chunk for world-1 rounds; the
        # node-boundary hop over a single NIC is the per-round bottleneck.
        kv_bytes = comm.kv_chunk_bytes(spec, s / world)
        comm_s = (world - 1) * comm.inter_node_time(kv_bytes, nics=1)
        out[b.label] = {
            "computation": compute_s * weight,
            "communication": comm_s * weight,
            "redundant": 0.0,
        }
    return out


# Scheme name -> per-bin cost function (the declarative grid iterates names).
_SCHEMES = {
    "pack+ulysses": _bin_costs_packing,
    "even-split ring CP": _bin_costs_ring_cp,
}


@EXPERIMENTS.register(
    "fig3", description="Fig. 3 — packing vs even-split CP attention cost shares"
)
def run(datasets: tuple[str, ...] = ("arxiv", "github", "stackexchange", "prolong64")) -> ExperimentResult:
    """Regenerate the Fig. 3 normalised cost shares."""
    cluster = cluster_a(num_nodes=2)
    spec = get_model("7b")
    compute = ComputeCostModel(
        peak_flops=cluster.peak_flops_per_gpu, device_type=cluster.device_type
    )
    comm = CommCostModel(cluster)
    grid = SweepSpec(axes={"dataset": datasets, "scheme": tuple(_SCHEMES)})

    headers = [
        "scheme",
        "dataset",
        "bin",
        "computation_share",
        "communication_share",
        "redundant_share",
    ]
    result = ExperimentResult(
        name="fig3",
        description="Attention cost distribution by sequence-length bin (64k, 16 GPUs)",
        headers=headers,
    )
    for point in grid:
        dataset, scheme = point["dataset"], point["scheme"]
        dist = FIG1_DISTRIBUTIONS[dataset]
        costs = _SCHEMES[scheme](dist, compute, comm, spec)
        total = sum(sum(parts.values()) for parts in costs.values())
        for label, parts in costs.items():
            result.add_row(
                scheme,
                dataset,
                label,
                round(parts["computation"] / total, 4) if total else 0.0,
                round(parts["communication"] / total, 4) if total else 0.0,
                round(parts["redundant"] / total, 4) if total else 0.0,
            )
        result.extra[(scheme, dataset)] = costs
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
