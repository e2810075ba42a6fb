"""Fig. 12 — execution timeline analysis of the attention component.

3B model, 16 GPUs (2 nodes of Cluster A), 64k total context, three traces:

* **(a) TE CP baseline** — a single 64k sequence split over a global ring:
  every round's node-boundary KV transfer crosses one NIC and dominates.
* **(b) Zeppelin, single sequence** — the same 64k sequence with the routing
  layer: the inter-node transfer is decomposed across all NICs.
* **(c) Zeppelin, many sequences** — 16 sequences of 4k tokens: the partitioner
  keeps them within nodes (no inter-node communication at all).

For each trace the experiment reports the per-layer forward makespan, the
per-round communication costs and how much communication stays exposed
(unhidden) — the quantities annotated in Fig. 12.
"""

from __future__ import annotations

from repro.api import Session
from repro.data.datasets import single_sequence_batch, uniform_batch
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS
from repro.sim.engine import Simulator
from repro.sim.trace import summarize_trace


def _trace_for(strategy, batch):
    plan = strategy.plan_layer(batch, phase="forward")
    sim = Simulator(record_trace=True)
    return sim.run(plan)


# The three timeline scenarios, as zipped axes of one declarative grid.
_SCENARIOS = SweepSpec(
    axes={
        "scenario": (
            "a) TE CP, single 64k sequence",
            "b) Zeppelin, single 64k sequence",
            "c) Zeppelin, 16 x 4k sequences",
        ),
        "strategy": ("te_cp", "zeppelin", "zeppelin"),
        "batch": ("single", "single", "many"),
    },
    zip_axes=(("scenario", "strategy", "batch"),),
)


@EXPERIMENTS.register(
    "fig12", description="Fig. 12 — per-round attention timeline analysis"
)
def run(total_context: int = 64 * 1024, num_gpus: int = 16) -> ExperimentResult:
    """Regenerate the Fig. 12 timeline statistics."""
    session = Session(
        model="3b",
        cluster_preset="A",
        num_gpus=num_gpus,
        dataset="arxiv",
        total_context=total_context,
        num_steps=1,
    )
    batches = {
        "single": single_sequence_batch(total_context),
        "many": uniform_batch(num_gpus, total_context // num_gpus),
    }

    headers = [
        "scenario",
        "fwd_layer_ms",
        "inter_comm_total_ms",
        "intra_comm_total_ms",
        "attention_total_ms",
        "max_exposed_comm_ms",
        "inter_comm_per_round_us",
    ]
    result = ExperimentResult(
        name="fig12",
        description="Attention timeline analysis (3B, 16 GPUs, 64k context)",
        headers=headers,
    )
    for point in _SCENARIOS:
        label = point["scenario"]
        strategy = session.strategy(point["strategy"])
        batch = batches[point["batch"]]
        sim_result = _trace_for(strategy, batch)
        trace = sim_result.trace
        summary = summarize_trace(trace)
        inter_spans = [
            s for s in trace.spans if s.kind.value == "inter_comm" and s.duration_s > 0
        ]
        per_round = (
            sum(s.duration_s for s in inter_spans) / len(inter_spans)
            if inter_spans
            else 0.0
        )
        result.add_row(
            label,
            round(sim_result.makespan_s * 1000, 2),
            round(summary["total_inter_comm_s"] * 1000, 2),
            round(summary["total_intra_comm_s"] * 1000, 2),
            round(summary["total_attention_s"] * 1000, 2),
            round(summary.get("max_rank_exposed_comm_s", 0.0) * 1000, 2),
            round(per_round * 1e6, 1),
        )
        result.extra[label] = {
            "makespan_s": sim_result.makespan_s,
            "summary": summary,
            "per_round_inter_comm_s": per_round,
            "num_tasks": sim_result.num_tasks,
        }
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
