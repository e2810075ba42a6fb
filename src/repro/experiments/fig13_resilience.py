"""Fig. 13 (extension) — goodput under faults, across recovery policies.

Not a figure from the paper: the paper evaluates a perfectly healthy cluster.
This experiment opens the resilience axis the production regime actually
lives in — it sweeps node failure rates (per-node MTTF) over zeppelin and the
baselines under both recovery policies, reporting goodput (useful tokens per
wall-clock second), restart counts and time lost.  Every (strategy, recovery)
cell faces the identical, deterministically drawn perturbation schedule, so
the comparison isolates scheduling + recovery behaviour, not luck.

The grid is one :class:`~repro.exec.SweepSpec` over (MTTF, recovery,
strategy) with the perturbation config derived per point, so the dynamics
axis participates in backend fan-out and result caching like any other axis.

Expected shape: goodput degrades as MTTF shrinks; elastic re-partition
degrades gracefully (keeps running on survivors) while checkpoint-restart
pays recomputation after every failure; zeppelin's relative advantage over
the baselines persists under faults.
"""

from __future__ import annotations

from repro.dynamics.models import PerturbationConfig
from repro.exec import SweepSpec, run_sweep
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS

DEFAULT_STRATEGIES = ("te_cp", "llama_cp", "zeppelin")
DEFAULT_RECOVERIES = ("checkpoint_restart", "elastic")
# Per-node MTTF values (seconds), chosen relative to the simulated run length
# so the sweep spans "rare failure" to "failure nearly every run".
DEFAULT_MTTF_S = (None, 60.0, 15.0)


@EXPERIMENTS.register(
    "fig13_resilience",
    description="Fig. 13 — goodput under node failures, stragglers and recovery policies",
)
def run(
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    recoveries: tuple[str, ...] = DEFAULT_RECOVERIES,
    mttf_values_s: tuple[float | None, ...] = DEFAULT_MTTF_S,
    straggler_frac: float = 0.125,
    model: str = "3b",
    num_gpus: int = 16,
    dataset: str = "arxiv",
    total_context: int = 32 * 1024,
    num_iterations: int = 24,
    num_steps: int = 2,
    seed: int = 0,
    backend: str | None = None,
    jobs: int = 1,
    use_cache: bool = False,
) -> ExperimentResult:
    """Sweep failure rates x recovery policies over the strategy comparison."""
    spec = SweepSpec(
        base={
            "model": model,
            "num_gpus": num_gpus,
            "dataset": dataset,
            "total_context": total_context,
            "num_steps": num_steps,
            "seed": seed,
            "num_iterations": num_iterations,
        },
        axes={
            "mttf_s": mttf_values_s,
            "recovery": recoveries,
            "strategy": strategies,
        },
        derived={
            "perturbation": lambda v: PerturbationConfig(
                mttf_s=v["mttf_s"],
                straggler_frac=straggler_frac,
                max_failures=2,
            ).to_dict()
        },
    )
    sweep = run_sweep(spec, backend=backend, jobs=jobs, cache=use_cache)

    headers = [
        "mttf_s",
        "recovery",
        "strategy",
        "goodput_tok_s",
        "goodput_frac",
        "restarts",
        "failures",
        "time_lost_s",
        "final_nodes",
    ]
    result = ExperimentResult(
        name="fig13_resilience",
        description=(
            f"Goodput of {model} on {num_gpus} GPUs under failures "
            f"({num_iterations} iterations, {int(straggler_frac * 100)}% stragglers)"
        ),
        headers=headers,
    )
    for point, res in sweep:
        mttf_s = point["mttf_s"]
        result.add_row(
            "inf" if mttf_s is None else mttf_s,
            point["recovery"],
            point["strategy"],
            round(res.goodput_tokens_per_second),
            round(res.goodput_fraction, 3),
            res.restart_count,
            res.num_failures,
            round(res.time_lost_s, 1),
            res.final_num_nodes,
        )
        result.extra[(mttf_s, point["recovery"], point["strategy"])] = res.to_dict()
    result.extra["sweep_meta"] = dict(sweep.meta)
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
