"""Simulate one training iteration for a strategy.

One iteration = forward + backward over all transformer layers, plus small
per-iteration overheads (the sequence partitioner, optimizer step, embedding /
LM-head work).  Strategies plan a *single representative layer*; the iteration
time scales the simulated layer makespans by the layer count.  This mirrors how
the real system repeats the same per-layer schedule for every layer, and keeps
plans small enough to simulate quickly even at 128 GPUs.

All three entry points — one iteration, one iteration per batch, and one
batch under several perturbation states — share one path: plan each batch's
forward and backward layer, then ask :func:`repro.sim.batch.simulate_makespans`
for every layer makespan at once.  Each compiled plan memoises the makespans
it has finished, so a (plan, perturbation state) pair already simulated in
this process — a healthy run repeated across sweep points, a resilience
iteration revisited — is answered without simulating, and every other pair
runs the engine exactly once.  An :class:`IterationResult` therefore holds
numbers only; inspect a layer's schedule with
:class:`repro.sim.engine.Simulator` on ``strategy.plan_layer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.plan import ExecutionPlan
from repro.core.strategy import Strategy
from repro.data.sampler import Batch
from repro.model.flops import embedding_flops_per_token
from repro.sim.batch import SimRequest, simulate_makespans
from repro.utils.validation import check_positive

# Fixed per-iteration overhead for the optimizer step and data loading, in
# seconds.  Identical across strategies, so it only dampens relative speedups
# slightly (as it does in reality).
_OPTIMIZER_STEP_OVERHEAD_S = 0.015

# Deterministic planning-cost model: seconds of host-side scheduling work per
# emitted plan task, calibrated against the pure-python planner (~7-23us per
# task across strategies and scales).  Charging planning by plan size keeps
# the partitioner's cost in the iteration time — the paper's Table 3 reports
# it — without the load-dependent wall-clock measurement that made simulated
# throughput vary between runs.
_PLANNING_SECONDS_PER_TASK = 12e-6


@dataclass
class IterationResult:
    """Timing of one simulated training iteration."""

    strategy: str
    batch_tokens: int
    forward_layer_s: float
    backward_layer_s: float
    num_layers: int
    partition_overhead_s: float
    misc_overhead_s: float

    @property
    def iteration_time_s(self) -> float:
        """End-to-end time of the iteration."""
        return (
            (self.forward_layer_s + self.backward_layer_s) * self.num_layers
            + self.partition_overhead_s
            + self.misc_overhead_s
        )

    @property
    def tokens_per_second(self) -> float:
        """Training throughput for this iteration."""
        return self.batch_tokens / self.iteration_time_s

    @property
    def forward_time_s(self) -> float:
        """Forward-pass portion of the iteration."""
        return self.forward_layer_s * self.num_layers

    @property
    def backward_time_s(self) -> float:
        """Backward-pass portion of the iteration."""
        return self.backward_layer_s * self.num_layers


def _misc_overhead_s(strategy: Strategy, batch: Batch) -> float:
    """Embedding/LM-head compute plus the optimizer step, per iteration."""
    tokens_per_rank = batch.total_tokens / max(1, strategy.context.dp_world_size)
    embed_flops = embedding_flops_per_token(strategy.spec) * tokens_per_rank
    embed_s = embed_flops / (
        strategy.compute.peak_flops * 0.5 * strategy.context.tensor_parallel
    )
    return _OPTIMIZER_STEP_OVERHEAD_S + embed_s * 3.0  # forward + backward


_LayerPlans = tuple[ExecutionPlan, ExecutionPlan]


def _layer_plans(strategy: Strategy, batch: Batch) -> _LayerPlans:
    """The (forward, backward) plans of one layer of ``batch``."""
    return (
        strategy.plan_layer(batch, phase="forward"),
        strategy.plan_layer(batch, phase="backward"),
    )


def _iterations(
    strategy: Strategy,
    runs: "Sequence[tuple[Batch, _LayerPlans, Mapping[str, float] | None]]",
) -> list[IterationResult]:
    """Time each (batch, layer plans, speeds) run; one memoised simulation.

    Every run's two layer makespans come from a single
    :func:`~repro.sim.batch.simulate_makespans` call: states a compiled
    plan has already finished are memo hits, and each other distinct state
    runs the engine once, bit-identical to a
    :meth:`~repro.sim.engine.Simulator.run` call.
    """
    requests = [
        SimRequest(plan=plan, speeds=speeds)
        for _, plans, speeds in runs
        for plan in plans
    ]
    makespans = simulate_makespans(requests)
    num_layers = strategy.spec.num_layers
    check_positive("num_layers", num_layers)
    return [
        IterationResult(
            strategy=strategy.name,
            batch_tokens=batch.total_tokens,
            forward_layer_s=makespans[2 * i],
            backward_layer_s=makespans[2 * i + 1],
            num_layers=num_layers,
            partition_overhead_s=_PLANNING_SECONDS_PER_TASK
            * (forward.num_tasks + backward.num_tasks),
            misc_overhead_s=_misc_overhead_s(strategy, batch),
        )
        for i, (batch, (forward, backward), _) in enumerate(runs)
    ]


def simulate_iteration(
    strategy: Strategy,
    batch: Batch,
    speeds: "Mapping[str, float] | None" = None,
) -> IterationResult:
    """Plan, simulate and scale one full training iteration.

    Parameters
    ----------
    strategy:
        The scheduling strategy under test.
    batch:
        The global batch of the iteration.
    speeds:
        Optional speed factor per resource (:mod:`repro.dynamics`), e.g. the
        stragglers and degraded NICs active at the iteration's start.
        Because the layer plan is representative of every layer, the
        slowdowns scale to the whole iteration.
    """
    return _iterations(strategy, [(batch, _layer_plans(strategy, batch), speeds)])[0]


def simulate_iterations(
    strategy: Strategy, batches: "Sequence[Batch]"
) -> list[IterationResult]:
    """One iteration per batch, all simulated in one batched call.

    Plans every batch's forward and backward layer first, then hands all
    2N simulations to one :func:`~repro.sim.batch.simulate_makespans` call,
    so a batch repeated in ``batches`` simulates once.  Results equal
    :func:`simulate_iteration` per batch.
    """
    return _iterations(
        strategy, [(batch, _layer_plans(strategy, batch), None) for batch in batches]
    )


def simulate_iteration_states(
    strategy: Strategy,
    batch: Batch,
    speed_states: "Sequence[Mapping[str, float]]",
) -> list[IterationResult]:
    """One iteration of the *same* batch under several speed maps.

    One plan pair, K speed maps, all 2K simulations in one
    :func:`~repro.sim.batch.simulate_makespans` call.  Results equal K
    sequential :func:`simulate_iteration` calls.
    """
    plans = _layer_plans(strategy, batch)
    return _iterations(strategy, [(batch, plans, speeds) for speeds in speed_states])
