"""Table 3 — per-component cost distribution under two length distributions.

7B model on four Cluster C nodes (32 GPUs), 128k total context.  The
"Balanced" batch samples one sequence from every Table 2 bucket; the "Skewed"
batch is one very long sequence plus several short ones.  For each component
the experiment reports the min-max range across ranks, mirroring the rows of
Table 3 (forward, forward quadratic attention, forward linear modules, forward
remapping, sequence partitioning, backward).
"""

from __future__ import annotations

from repro.api import Session
from repro.core.plan import TaskKind
from repro.data.datasets import balanced_case_study_batch, skewed_case_study_batch
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.obs.core import current_telemetry
from repro.registry import EXPERIMENTS
from repro.sim.engine import Simulator


def _component_ranges(strategy, batch, num_layers: int) -> dict[str, tuple[float, float]]:
    """Min-max per-rank times (seconds, whole model) for each component."""
    with current_telemetry().stopwatch().span("partition") as span:
        plan = strategy.plan_layer(batch, phase="forward")
    partition_s = span.elapsed_s
    sim = Simulator(record_trace=True)
    fwd = sim.run(plan)
    bwd = sim.run(strategy.plan_layer(batch, phase="backward"))

    ranks = sorted({s.rank for s in fwd.trace.spans if s.rank >= 0})
    attn, linear, remap, total = [], [], [], []
    for rank in ranks:
        attn.append(fwd.trace.busy_time(rank, kinds={TaskKind.ATTENTION}) * num_layers)
        linear.append(fwd.trace.busy_time(rank, kinds={TaskKind.LINEAR}) * num_layers)
        remap.append(fwd.trace.busy_time(rank, kinds={TaskKind.REMAP}) * num_layers)
        spans = fwd.trace.spans_for_rank(rank)
        end = max((s.end_s for s in spans), default=0.0)
        total.append(end * num_layers)
    bwd_total = [
        max((s.end_s for s in bwd.trace.spans_for_rank(rank)), default=0.0) * num_layers
        for rank in ranks
    ]

    def rng(values):
        return (min(values), max(values)) if values else (0.0, 0.0)

    return {
        "Forward": rng(total),
        "Forward Quadratic Attention": rng(attn),
        "Forward Linear Modules": rng(linear),
        "Forward Remapping Layer": rng(remap),
        "Forward Sequence Partition": (partition_s, partition_s),
        "Backward": rng(bwd_total),
    }


@EXPERIMENTS.register(
    "table3", description="Table 3 — per-component cost ranges across ranks"
)
def run(num_gpus: int = 32, total_context: int = 128 * 1024, seed: int = 0) -> ExperimentResult:
    """Regenerate the Table 3 cost-distribution ranges."""
    session = Session(
        model="7b",
        cluster_preset="C",
        num_gpus=num_gpus,
        dataset="arxiv",
        total_context=total_context,
        num_steps=1,
        seed=seed,
    )
    strategy = session.strategy("zeppelin")
    num_layers = session.spec.num_layers

    batches = {
        "Balanced": balanced_case_study_batch(total_context, seed=seed),
        "Skewed": skewed_case_study_batch(total_context, seed=seed),
    }
    grid = SweepSpec(axes={"case": tuple(batches)})

    headers = ["component", "balanced_ms_range", "skewed_ms_range"]
    result = ExperimentResult(
        name="table3",
        description="Cost distribution across ranks (7B, 128k, 4 Cluster C nodes)",
        headers=headers,
    )
    ranges = {
        point["case"]: _component_ranges(strategy, batches[point["case"]], num_layers)
        for point in grid
    }
    for component in ranges["Balanced"]:
        b_lo, b_hi = ranges["Balanced"][component]
        s_lo, s_hi = ranges["Skewed"][component]
        result.add_row(
            component,
            f"{b_lo * 1000:.0f} - {b_hi * 1000:.0f}",
            f"{s_lo * 1000:.0f} - {s_hi * 1000:.0f}",
        )
    result.extra = {name: dict(r) for name, r in ranges.items()}
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
