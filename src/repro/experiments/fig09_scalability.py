"""Fig. 9 — scalability of the LLaMA 3B model on Cluster A.

Throughput versus GPU count (16 to 128) with a fixed 4k tokens per GPU, for
the three datasets.  The paper's observations this experiment reports
(nothing asserts them; ROADMAP item 3 lists those that fail today, such as
the Hybrid DP bullet on arxiv at 32 GPUs):

* TE CP stays nearly flat (cross-node ring communication bound),
* LLaMA CP improves but its all-gather volume grows with total context,
* Hybrid DP does not beat LLaMA CP at small scale (16-32 GPUs),
* Zeppelin scales best across all datasets.
"""

from __future__ import annotations

from repro.api import DEFAULT_COMPARISON
from repro.exec import SweepSpec, run_sweep
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS

_STRATEGIES = DEFAULT_COMPARISON
DEFAULT_GPU_COUNTS = (16, 32, 64)
FULL_GPU_COUNTS = (16, 32, 64, 96, 128)


@EXPERIMENTS.register(
    "fig9", description="Fig. 9 — 3B scalability from 16 to 128 GPUs on Cluster A"
)
def run(
    gpu_counts: tuple[int, ...] = DEFAULT_GPU_COUNTS,
    datasets: tuple[str, ...] = ("arxiv", "github", "prolong64k"),
    tokens_per_gpu: int = 4096,
    num_steps: int = 2,
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ExperimentResult:
    """Regenerate the Fig. 9 scalability curves."""
    if any(gpus % 8 != 0 for gpus in gpu_counts):
        raise ValueError("GPU counts must be multiples of 8")
    spec = SweepSpec(
        base={"model": "3b", "cluster_preset": "A", "num_steps": num_steps, "seed": seed},
        axes={
            "dataset": datasets,
            "num_gpus": gpu_counts,
            "strategy": _STRATEGIES,
        },
        derived={"total_context": lambda v: tokens_per_gpu * v["num_gpus"]},
    )
    sweep = run_sweep(spec, backend=backend, jobs=jobs, cache=use_cache)

    headers = ["dataset", "gpus", "total_context"] + [f"{s}_tok_s" for s in _STRATEGIES]
    result = ExperimentResult(
        name="fig9",
        description="Scalability of LLaMA 3B on Cluster A (4k tokens per GPU)",
        headers=headers,
    )
    for (dataset, gpus), cell in sweep.groups("dataset", "num_gpus"):
        by_strategy = {point["strategy"]: res for point, res in cell}
        total_context = cell.points[0]["total_context"]
        result.add_row(
            dataset,
            gpus,
            f"{total_context // 1024}k",
            *[round(by_strategy[s].tokens_per_second) for s in _STRATEGIES],
        )
        result.extra[(dataset, gpus)] = {
            s: by_strategy[s].tokens_per_second for s in _STRATEGIES
        }
    result.extra["sweep_meta"] = dict(sweep.meta)
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
