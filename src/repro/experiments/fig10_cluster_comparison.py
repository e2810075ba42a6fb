"""Fig. 10 — speedup comparison on Cluster A versus Cluster B.

3B model, 128k total context, 32 GPUs, three datasets, on both cluster
architectures.  The paper's observations this experiment reports
(nothing asserts them; ROADMAP item 3 lists the last one as failing today):

* Zeppelin wins on both clusters and on every dataset,
* absolute throughput is higher on Cluster B (Hopper-class GPUs),
* the *relative* speedup of Zeppelin is larger on Cluster A, whose higher
  computation-to-communication ratio gives more room to hide communication.
"""

from __future__ import annotations

from repro.api import DEFAULT_COMPARISON
from repro.exec import SweepSpec, run_sweep
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS

_STRATEGIES = DEFAULT_COMPARISON


@EXPERIMENTS.register(
    "fig10", description="Fig. 10 — Cluster A vs Cluster B speedup comparison"
)
def run(
    datasets: tuple[str, ...] = ("arxiv", "github", "prolong64k"),
    total_context: int = 128 * 1024,
    num_gpus: int = 32,
    num_steps: int = 2,
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ExperimentResult:
    """Regenerate the Fig. 10 cluster comparison."""
    spec = SweepSpec(
        base={
            "model": "3b",
            "num_gpus": num_gpus,
            "total_context": total_context,
            "num_steps": num_steps,
            "seed": seed,
        },
        axes={
            "cluster_preset": ("A", "B"),
            "dataset": datasets,
            "strategy": _STRATEGIES,
        },
    )
    sweep = run_sweep(spec, backend=backend, jobs=jobs, cache=use_cache)

    headers = ["cluster", "dataset"] + [f"{s}_tok_s" for s in _STRATEGIES] + [
        f"{s}_speedup" for s in _STRATEGIES
    ]
    result = ExperimentResult(
        name="fig10",
        description="3B, 128k, 32 GPUs on Cluster A vs Cluster B",
        headers=headers,
    )
    for (cluster, dataset), cell in sweep.groups("cluster_preset", "dataset"):
        by_strategy = {point["strategy"]: res for point, res in cell}
        baseline = by_strategy[_STRATEGIES[0]].tokens_per_second
        result.add_row(
            cluster,
            dataset,
            *[round(by_strategy[s].tokens_per_second) for s in _STRATEGIES],
            *[round(by_strategy[s].tokens_per_second / baseline, 2) for s in _STRATEGIES],
        )
        result.extra[(cluster, dataset)] = {
            s: by_strategy[s].tokens_per_second for s in _STRATEGIES
        }
    result.extra["sweep_meta"] = dict(sweep.meta)
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
