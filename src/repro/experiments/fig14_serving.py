"""Fig. 14 (extension) — the closed-loop serving knee and autoscaling.

Not a figure from the paper: the paper evaluates one batch plan at a time.
This experiment drives the serving subsystem (:mod:`repro.serve`) with
*closed-loop* clients — pools of virtual users that re-issue a think time
after their previous request completes — at a fixed SLO, growing the pool
between runs.  Each run uses ``slo_aware`` admission, so requests predicted
to miss the SLO are shed at arrival; the table is the classic fixed-SLO
latency-vs-load knee: latency stays flat while capacity keeps up, then the
knee appears as queueing pushes predicted completions past the SLO and
goodput saturates while shedding climbs.

One :class:`~repro.api.Session` serves every pool size, so plan caches warm
on the first point and each run's in-run result cache makes repeated cells
near-free; the per-point differences isolate *queueing* behaviour, not
simulation cost.

A final run repeats the heaviest pool with the ``queue_depth`` autoscale
policy and GPU headroom: the capacity timeline in ``extra["autoscale"]``
shows the virtual cluster growing with queue pressure and shrinking back as
the pool drains — capacity tracking load, byte-identical per seed.
"""

from __future__ import annotations

from repro.api import Session
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS
from repro.serve.spec import ServeSpec

DEFAULT_CLIENTS = (2, 8, 32, 128)
# Zeppelin-heavy traffic with baseline evaluations mixed in.
DEFAULT_MIX = {"zeppelin": 2.0, "te_cp": 1.0, "llama_cp": 1.0}


@EXPERIMENTS.register(
    "fig14_serving",
    description="Fig. 14 — closed-loop serving knee at a fixed SLO, plus autoscaling",
)
def run(
    clients: tuple[int, ...] = DEFAULT_CLIENTS,
    think_time_s: float = 0.5,
    duration_s: float = 30.0,
    slo_s: float = 2.0,
    concurrency: int = 4,
    model: str = "3b",
    num_gpus: int = 16,
    max_gpus: int = 64,
    dataset: str = "arxiv",
    total_context: int = 32 * 1024,
    num_steps: int = 1,
    seed: int = 0,
) -> ExperimentResult:
    """Serve the mix per closed-loop pool size and tabulate the knee."""
    session = Session(
        model=model,
        num_gpus=num_gpus,
        dataset=dataset,
        total_context=total_context,
        num_steps=num_steps,
        seed=seed,
    )
    headers = [
        "clients",
        "requests",
        "shed",
        "throughput_rps",
        "goodput_rps",
        "p50_ms",
        "p99_ms",
        "max_queue",
        "cache_hit_rate",
        "simulations",
    ]
    result = ExperimentResult(
        name="fig14_serving",
        description=(
            f"Closed-loop serving of {model} evaluation cells on {num_gpus} GPUs "
            f"({duration_s:.0f}s windows, SLO {slo_s:.1f}s, slo_aware admission, "
            f"concurrency {concurrency})"
        ),
        headers=headers,
    )
    base = ServeSpec(
        mix=DEFAULT_MIX,
        arrival="closed",
        think_time_s=think_time_s,
        duration_s=duration_s,
        concurrency=concurrency,
        slo_s=slo_s,
        admission="slo_aware",
    )
    for pool in clients:
        res = session.serve(base.replace(clients=pool))
        result.add_row(
            pool,
            res.num_requests,
            res.shed_count,
            round(res.throughput_rps, 2),
            round(res.goodput_rps, 2),
            round(res.p50_latency_s * 1000, 1),
            round(res.p99_latency_s * 1000, 1),
            res.max_queue_depth,
            round(res.cache_hit_rate, 3),
            res.simulations,
        )
        result.extra[pool] = res.to_dict()
    # The heaviest pool again, with capacity free to track the queue.
    scaled = session.serve(
        base.replace(
            clients=max(clients),
            scale_policy="queue_depth",
            min_gpus=num_gpus,
            max_gpus=max_gpus,
        )
    )
    result.extra["autoscale"] = scaled.to_dict()
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
