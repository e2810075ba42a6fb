"""Benchmark of the planners' hot path: ring costs, routing and remapping.

Prints te_cp's and zeppelin's one-layer plan time (forward plus backward, a
cold ``Session`` per cell) on one fixed batch — the 7B model's 128k-token
arxiv batch at seed 0 — for 16, 32, 64 and 128 GPUs.

It also holds one floor, measured in the same process: building the G=128
ring-pair matrices of that batch with the int64 kernel
(:attr:`RingGroup.pair_matrix`) must be at least ``MIN_SPEEDUP`` faster than
summing the scalar oracle :func:`causal_pairs_between` over every
(rank, owner, chunk, chunk), and both must give the same counts.  CI runs
this file in the perf-smoke job and prints the table.
"""

import time

from repro import registry
from repro.api import Session
from repro.core.attention_engine import RingGroup, causal_pairs_between
from repro.core.chunking import zigzag_assignment
from repro.core.partitioner import RingSpec
from repro.core.zones import Zone

SESSION = dict(model="7b", total_context=128 * 1024, dataset="arxiv", seed=0)
GPU_COUNTS = (16, 32, 64, 128)
STRATEGIES = ("te_cp", "zeppelin")
KERNEL_GROUP_SIZE = 128

# Measured ~37x on a 2-vCPU cloud VM; 10x leaves headroom for slow CI runners.
MIN_SPEEDUP = 10.0


def _plan_seconds(name: str, num_gpus: int) -> tuple[float, int]:
    """Forward + backward plan time of a cold strategy, and its task count."""
    session = Session(num_gpus=num_gpus, num_steps=1, **SESSION)
    batch = session.batches[0]
    strategy = registry.STRATEGIES.get(name).obj(session.context)
    t0 = time.perf_counter()
    plans = [strategy.plan_layer(batch, phase=p) for p in ("forward", "backward")]
    return time.perf_counter() - t0, sum(p.num_tasks for p in plans)


def _ring_groups(lengths: list[int]) -> list[RingGroup]:
    ranks = tuple(range(KERNEL_GROUP_SIZE))
    return [
        RingGroup(
            spec=RingSpec(
                ring_id=k, seq_id=k, zone=Zone.INTER_NODE, ranks=ranks, seq_len=n
            ),
            assignments=tuple(zigzag_assignment(n, KERNEL_GROUP_SIZE)),
        )
        for k, n in enumerate(lengths)
    ]


def _scalar_matrix(group: RingGroup) -> list[list[float]]:
    chunks = [(a.head_chunk, a.tail_chunk) for a in group.assignments]
    return [
        [
            sum(causal_pairs_between(q, kv) for q in q_chunks for kv in kv_chunks)
            for kv_chunks in chunks
        ]
        for q_chunks in chunks
    ]


def test_bench_planning(benchmark, printed_results):
    lengths = [
        seq.length for seq in Session(num_gpus=128, num_steps=1, **SESSION).batches[0]
    ]

    # Fresh groups per call: pair_matrix is cached on the instance.
    def kernel():
        return [group.pair_matrix for group in _ring_groups(lengths)]

    matrices = benchmark.pedantic(kernel, rounds=3, iterations=1)
    kernel_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        kernel_s = min(kernel_s, time.perf_counter() - t0)
    t0 = time.perf_counter()
    scalar = [_scalar_matrix(group) for group in _ring_groups(lengths)]
    scalar_s = time.perf_counter() - t0
    assert [m.tolist() for m in matrices] == scalar

    speedup = scalar_s / kernel_s
    assert speedup >= MIN_SPEEDUP, (
        f"ring-pair kernel regression: {kernel_s * 1e3:.1f} ms is only "
        f"{speedup:.1f}x the scalar oracle's {scalar_s * 1e3:.1f} ms"
    )

    lines = [
        "Planning time (7B, 128k-token arxiv batch, seed 0; "
        "forward + backward, cold session)",
        f"  {'GPUs':>5} "
        + " ".join(f"{name + ' (s)':>14} {'tasks':>7}" for name in STRATEGIES),
    ]
    for num_gpus in GPU_COUNTS:
        cells = [_plan_seconds(name, num_gpus) for name in STRATEGIES]
        lines.append(
            f"  {num_gpus:>5} "
            + " ".join(f"{seconds:>14.3f} {tasks:>7}" for seconds, tasks in cells)
        )
    lines.append(
        f"  ring-pair matrices (G={KERNEL_GROUP_SIZE}, {len(lengths)} sequences): "
        f"scalar {scalar_s * 1e3:.0f} ms, int64 kernel {kernel_s * 1e3:.1f} ms "
        f"({speedup:.0f}x, floor {MIN_SPEEDUP:.0f}x)"
    )
    printed_results.append("\n".join(lines))
