"""Fig. 11 — ablation of Zeppelin's components.

3B model, 32 GPUs, Cluster A, three datasets.  Configurations, matching the
paper's bars:

* ``TE CP`` — the baseline,
* ``w/ Routing`` — TE CP's even split plus the communication routing layer,
* ``w/ Attn Eng`` — hierarchical partitioning + attention engine, no routing,
  no remapping,
* ``w/ Routing & Attn Eng`` — both, no remapping,
* ``w/ All`` — full Zeppelin (adds the remapping layer).

The (label, strategy, kwargs) bars are zipped axes of one
:class:`~repro.exec.SweepSpec` crossed with the dataset axis.
"""

from __future__ import annotations

from repro.exec import SweepSpec, run_sweep
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS

# (label, strategy name, strategy kwargs), in the paper's bar order.
_CONFIGURATIONS = (
    ("TE CP", "te_cp", {}),
    ("w/ Routing", "te_cp", {"use_routing": True}),
    ("w/ Attn Eng", "zeppelin", {"use_routing": False, "use_remapping": False}),
    ("w/ Routing & Attn Eng", "zeppelin", {"use_remapping": False}),
    ("w/ All", "zeppelin", {}),
)


@EXPERIMENTS.register(
    "fig11", description="Fig. 11 — component ablation (3B, 32 GPUs, Cluster A)"
)
def run(
    datasets: tuple[str, ...] = ("arxiv", "github", "prolong64k"),
    num_gpus: int = 32,
    total_context: int = 128 * 1024,
    num_steps: int = 2,
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ExperimentResult:
    """Regenerate the Fig. 11 ablation."""
    spec = SweepSpec(
        base={
            "model": "3b",
            "cluster_preset": "A",
            "num_gpus": num_gpus,
            "total_context": total_context,
            "num_steps": num_steps,
            "seed": seed,
        },
        axes={
            "dataset": datasets,
            "label": tuple(label for label, _, _ in _CONFIGURATIONS),
            "strategy": tuple(name for _, name, _ in _CONFIGURATIONS),
            "strategy_kwargs": tuple(kwargs for _, _, kwargs in _CONFIGURATIONS),
        },
        zip_axes=(("label", "strategy", "strategy_kwargs"),),
    )
    sweep = run_sweep(spec, backend=backend, jobs=jobs, cache=use_cache)

    headers = ["dataset", "configuration", "tokens_per_second", "speedup_vs_te_cp"]
    result = ExperimentResult(
        name="fig11",
        description="Component ablation (3B, 32 GPUs, Cluster A)",
        headers=headers,
    )
    for (dataset,), cell in sweep.groups("dataset"):
        base = cell.results[0].tokens_per_second
        speedups = {}
        for point, measured in cell:
            speedup = measured.tokens_per_second / base
            speedups[point["label"]] = speedup
            result.add_row(
                dataset,
                point["label"],
                round(measured.tokens_per_second),
                round(speedup, 2),
            )
        result.extra[dataset] = speedups
    result.extra["sweep_meta"] = dict(sweep.meta)
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
