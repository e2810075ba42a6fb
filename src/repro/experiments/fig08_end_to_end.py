"""Fig. 8 — end-to-end training throughput across models, datasets and scales.

The full grid of the paper is 4 models x 3 datasets x 3 context lengths.  The
default configuration here runs a representative subset sized to finish in a
few minutes on a laptop; pass ``full_grid=True`` to sweep every cell.  For each
cell the experiment reports tokens/second of TE CP, LLaMA CP, Hybrid DP and
Zeppelin plus the speedups normalised to TE CP — the numbers printed above the
bars in Fig. 8.

The (model, context, gpus, cluster, TP) bar groups are zipped axes of one
:class:`~repro.exec.SweepSpec`, crossed with the dataset and strategy axes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import DEFAULT_COMPARISON
from repro.exec import SweepSpec, run_sweep
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS

_STRATEGIES = DEFAULT_COMPARISON


@dataclass(frozen=True)
class Fig8Cell:
    """One bar group of Fig. 8."""

    model: str
    total_context_k: int
    num_gpus: int
    cluster: str = "A"
    tensor_parallel: int = 1


# The paper's grid (Fig. 8).  13B and 30B use tensor parallelism of 2; the 30B
# rows run on Cluster C.
FULL_GRID: tuple[Fig8Cell, ...] = (
    Fig8Cell("7b", 64, 16),
    Fig8Cell("7b", 128, 32),
    Fig8Cell("7b", 256, 64),
    Fig8Cell("13b", 64, 32, tensor_parallel=2),
    Fig8Cell("13b", 128, 64, tensor_parallel=2),
    Fig8Cell("13b", 256, 128, tensor_parallel=2),
    Fig8Cell("8x550m", 64, 16),
    Fig8Cell("8x550m", 128, 32),
    Fig8Cell("8x550m", 256, 64),
    Fig8Cell("30b", 64, 32, cluster="C", tensor_parallel=2),
    Fig8Cell("30b", 128, 64, cluster="C", tensor_parallel=2),
    Fig8Cell("30b", 256, 128, cluster="C", tensor_parallel=2),
)

# Laptop-sized default: the smallest cell of every model family.
DEFAULT_GRID: tuple[Fig8Cell, ...] = (
    Fig8Cell("7b", 64, 16),
    Fig8Cell("13b", 64, 32, tensor_parallel=2),
    Fig8Cell("8x550m", 64, 16),
    Fig8Cell("30b", 64, 32, cluster="C", tensor_parallel=2),
)

DATASETS = ("arxiv", "github", "prolong64k")

# Axes iterated in lockstep to enumerate the bar groups.
_CELL_AXES = ("model", "context_k", "num_gpus", "cluster_preset", "tensor_parallel")


def grid_spec(
    cells: tuple[Fig8Cell, ...],
    datasets: tuple[str, ...],
    num_steps: int,
    seed: int,
) -> SweepSpec:
    """The declarative grid: zipped cell axes x datasets x strategies."""
    return SweepSpec(
        base={"num_steps": num_steps, "seed": seed},
        axes={
            "model": tuple(c.model for c in cells),
            "context_k": tuple(c.total_context_k for c in cells),
            "num_gpus": tuple(c.num_gpus for c in cells),
            "cluster_preset": tuple(c.cluster for c in cells),
            "tensor_parallel": tuple(c.tensor_parallel for c in cells),
            "dataset": datasets,
            "strategy": _STRATEGIES,
        },
        zip_axes=(_CELL_AXES,),
        derived={"total_context": lambda v: v["context_k"] * 1024},
    )


@EXPERIMENTS.register(
    "fig8", description="Fig. 8 — end-to-end throughput grid (models x datasets x scales)"
)
def run(
    full_grid: bool = False,
    datasets: tuple[str, ...] = DATASETS,
    num_steps: int = 2,
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ExperimentResult:
    """Regenerate (a subset of) the Fig. 8 throughput grid."""
    cells = FULL_GRID if full_grid else DEFAULT_GRID
    spec = grid_spec(cells, datasets, num_steps, seed)
    sweep = run_sweep(spec, backend=backend, jobs=jobs, cache=use_cache)

    headers = ["model", "context", "gpus", "cluster", "dataset"] + [
        f"{s}_tok_s" for s in _STRATEGIES
    ] + [f"{s}_speedup" for s in _STRATEGIES]
    result = ExperimentResult(
        name="fig8",
        description="End-to-end training throughput (tokens/second and speedup vs TE CP)",
        headers=headers,
    )
    for key, cell in sweep.groups(*_CELL_AXES, "dataset"):
        model, context_k, num_gpus, cluster, _, dataset = key
        by_strategy = {point["strategy"]: res for point, res in cell}
        baseline = by_strategy[_STRATEGIES[0]].tokens_per_second
        result.add_row(
            model,
            f"{context_k}k",
            num_gpus,
            cluster,
            dataset,
            *[round(by_strategy[s].tokens_per_second) for s in _STRATEGIES],
            *[round(by_strategy[s].tokens_per_second / baseline, 2) for s in _STRATEGIES],
        )
        result.extra[(model, context_k, dataset)] = {
            s: by_strategy[s].tokens_per_second for s in _STRATEGIES
        }
    result.extra["sweep_meta"] = dict(sweep.meta)
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
