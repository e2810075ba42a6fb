"""Recovery policies and the resilience run driver.

A resilience run walks a global training clock over ``num_iterations``
iterations.  Each iteration is timed by the discrete-event engine under the
slowdowns active at the iteration's start; when a node failure from the
perturbation schedule lands inside an iteration, the partially-done iteration
is lost and the run's :class:`RecoveryPolicy` decides what happens next:

* :class:`CheckpointRestart` rolls the run back to the last checkpoint and
  resumes on the full cluster (a hot spare replaces the dead node), paying a
  restart cost — the classic large-scale training story.
* :class:`ElasticRepartition` drops the failed node and keeps going on the
  survivors: the strategy *replans* the same global batches onto the smaller
  cluster through the ordinary ``Strategy.plan_layer`` machinery (via a
  derived session), so only the interrupted iteration plus a replan cost is
  lost, at the price of reduced steady-state throughput.

New policies subclass :class:`RecoveryPolicy`, implement ``recover`` and
register with ``@RECOVERIES.register("name")``; they are then selectable from
``Session.run(..., recovery="name")`` and ``repro run --recovery name``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.dynamics.events import NodeFailure, PerturbationSchedule
from repro.obs.core import current_telemetry
from repro.registry import RECOVERIES
from repro.training.iteration import simulate_iteration
from repro.utils.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.api import Session


@dataclass(frozen=True)
class FailureContext:
    """Everything a policy may consult when a failure interrupts the run."""

    failure: NodeFailure
    time_s: float
    iteration_index: int
    partial_iteration_s: float
    alive_nodes: int
    iters_since_checkpoint: int
    tokens_since_checkpoint: int
    time_since_checkpoint_s: float


@dataclass(frozen=True)
class RecoveryAction:
    """A policy's verdict: how long recovery takes and what state survives.

    Attributes
    ----------
    downtime_s:
        Wall-clock pause before training resumes (restart / replan cost).
    rollback_iterations:
        Completed iterations whose results are discarded and must be redone
        (work since the last checkpoint for checkpoint-restart).
    drop_node:
        Continue without the failed node (elastic) instead of replacing it.
    """

    downtime_s: float
    rollback_iterations: int = 0
    drop_node: bool = False

    def __post_init__(self) -> None:
        check_non_negative("downtime_s", self.downtime_s)
        check_non_negative("rollback_iterations", self.rollback_iterations)


class RecoveryPolicy(abc.ABC):
    """Decides how a training run resumes after a node failure.

    ``checkpoint_interval`` (iterations between checkpoints) and
    ``checkpoint_cost_s`` describe the policy's steady-state overhead; the
    driver charges the cost each time a checkpoint is taken.  Policies that
    never checkpoint leave ``checkpoint_interval`` as ``None``.
    """

    name: str = "recovery"
    checkpoint_interval: int | None = None
    checkpoint_cost_s: float = 0.0

    @abc.abstractmethod
    def recover(self, ctx: FailureContext) -> RecoveryAction:
        """The action taken for one failure."""

    def describe(self) -> str:
        """One-line description used in experiment output."""
        return self.name


@RECOVERIES.register(
    "checkpoint_restart",
    description="roll back to the last checkpoint, restart on the full cluster",
)
@dataclass
class CheckpointRestart(RecoveryPolicy):
    """Periodic checkpoints; on failure, restart from the last one.

    The failed node is assumed to be replaced by a hot spare during the
    restart, so the cluster returns at full capacity but all progress since
    the last checkpoint is recomputed.
    """

    checkpoint_interval: int = 8
    checkpoint_cost_s: float = 1.0
    restart_cost_s: float = 60.0
    name: str = field(default="checkpoint_restart", init=False)

    def __post_init__(self) -> None:
        check_positive("checkpoint_interval", self.checkpoint_interval)
        check_non_negative("checkpoint_cost_s", self.checkpoint_cost_s)
        check_non_negative("restart_cost_s", self.restart_cost_s)

    def recover(self, ctx: FailureContext) -> RecoveryAction:
        return RecoveryAction(
            downtime_s=self.restart_cost_s,
            rollback_iterations=ctx.iters_since_checkpoint,
        )


@RECOVERIES.register(
    "elastic",
    description="drop the failed node and replan remaining work on the survivors",
)
@dataclass
class ElasticRepartition(RecoveryPolicy):
    """Continue on the surviving ranks after a brief replanning pause.

    Only the interrupted iteration is redone (optimizer state is assumed
    redundantly replicated); the sequence partitioner replans every following
    batch onto the smaller cluster, so throughput degrades gracefully instead
    of pausing for a full restart.
    """

    replan_cost_s: float = 15.0
    name: str = field(default="elastic", init=False)

    def __post_init__(self) -> None:
        check_non_negative("replan_cost_s", self.replan_cost_s)

    def recover(self, ctx: FailureContext) -> RecoveryAction:
        return RecoveryAction(downtime_s=self.replan_cost_s, drop_node=True)


def as_policy(recovery: "RecoveryPolicy | str", **kwargs: Any) -> RecoveryPolicy:
    """Normalise the ``recovery=`` argument accepted by the public API."""
    if isinstance(recovery, RecoveryPolicy):
        if kwargs:
            raise ValueError("recovery kwargs only apply when passing a policy name")
        return recovery
    return RECOVERIES.get(recovery).obj(**kwargs)


def scale_session(session: "Session", num_nodes: int) -> "Session":
    """The elastic scale primitive: replan onto a ``num_nodes``-node cluster.

    Derives a session for the resized cluster (cached by configuration in the
    session family), so every strategy replans through its ordinary
    ``Strategy.plan_layer`` machinery and repeated visits to a node count
    reuse the derived session's batch/plan caches.  This is the one step both
    consumers of elasticity share: :func:`run_resilient` shrinking after an
    :class:`ElasticRepartition` failure, and the serve autoscaler
    (:mod:`repro.serve.scale`) growing/shrinking the virtual cluster with
    load.
    """
    check_positive("num_nodes", num_nodes)
    if num_nodes == session.config.num_nodes:
        return session
    return session.derive(num_gpus=num_nodes * session.cluster.gpus_per_node)


@dataclass(frozen=True)
class ResilienceReport:
    """Raw outcome of one resilience run (wrapped by ``repro.results``).

    ``useful_tokens`` counts only tokens whose work survived to the end of the
    run (rolled-back iterations are discounted), so
    ``goodput = useful_tokens / wall_time`` is the metric the paper's regime
    cares about: training progress per wall-clock second under faults.
    """

    strategy: str
    recovery: str
    wall_time_s: float  # repro: allow(S001) virtual seconds, deterministic per seed
    useful_tokens: int
    time_lost_s: float
    restart_count: int
    num_failures: int
    completed_iterations: int
    num_iterations: int
    final_num_nodes: int
    cluster_died: bool

    @property
    def goodput_tokens_per_second(self) -> float:
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.useful_tokens / self.wall_time_s


def run_resilient(
    session: "Session",
    strategy: str,
    schedule: PerturbationSchedule,
    policy: RecoveryPolicy,
    num_iterations: int = 32,
    **strategy_kwargs: Any,
) -> ResilienceReport:
    """Simulate ``num_iterations`` training iterations under a perturbation
    schedule, applying ``policy`` whenever a node fails.

    The run cycles over the session's sampled batches.  Iteration times come
    from the discrete-event engine with the slowdown state active at the
    iteration's start; after an elastic shrink, plans are rebuilt for the
    surviving cluster through ``session.derive`` (same batches, fewer ranks),
    i.e. the strategy's own ``plan_layer``.  Everything is deterministic given
    the session seed and the schedule; the ambient telemetry hub
    (observational only) receives one ``failure``/``recovery`` event pair
    per handled fault.
    """
    check_positive("num_iterations", num_iterations)
    telemetry = current_telemetry()
    config = session.config
    full_nodes = config.num_nodes
    batches = session.batches

    # (nodes, batch index, active-factor state) -> iteration seconds.  The
    # condition changes only at perturbation onsets and failures, so nearly
    # every iteration is a cache hit.  A miss simulates the iteration once,
    # on the plans the session plan caches hold; their compiled forms
    # memoise every makespan they have finished, so a state an earlier run
    # of this process simulated (the healthy run, or another point facing
    # the same straggler draw) is not simulated again.
    iteration_cache: dict[tuple, float] = {}

    def iteration_time(nodes: int, batch_index: int, clock: float) -> float:
        factors = schedule.active_factors(clock)
        key = (nodes, batch_index, tuple(sorted(factors.items())))
        cached = iteration_cache.get(key)
        if cached is None:
            sess = scale_session(session, nodes)
            cached = iteration_cache[key] = simulate_iteration(
                sess.strategy(strategy, **strategy_kwargs),
                batches[batch_index],
                factors,
            ).iteration_time_s
        return cached

    pending_failures = list(schedule.failures)
    clock = 0.0
    useful_tokens = 0
    time_lost = 0.0
    restarts = 0
    failures_seen = 0
    alive_nodes = full_nodes
    # (tokens, duration) of each completed-but-not-yet-checkpointed iteration,
    # newest last; a rollback discards entries from the tail.
    since_ckpt: list[tuple[int, float]] = []
    i = 0
    cluster_died = False

    while i < num_iterations:
        batch_index = i % len(batches)
        duration = iteration_time(alive_nodes, batch_index, clock)

        failure = None
        if pending_failures and pending_failures[0].time_s < clock + duration:
            failure = pending_failures.pop(0)

        if failure is None:
            clock += duration
            tokens = batches[batch_index].total_tokens
            useful_tokens += tokens
            i += 1
            since_ckpt.append((tokens, duration))
            interval = policy.checkpoint_interval
            if interval is not None and len(since_ckpt) >= interval:
                clock += policy.checkpoint_cost_s
                since_ckpt.clear()
            continue

        # A failure lands inside this iteration (or happened during the
        # previous recovery's downtime, in which case it strikes immediately).
        effective_time = max(failure.time_s, clock)
        partial = effective_time - clock
        failures_seen += 1
        telemetry.event(
            "failure",
            node=failure.node_id,
            vt=round(effective_time, 6),
            iteration=i,
        )
        ctx = FailureContext(
            failure=failure,
            time_s=effective_time,
            iteration_index=i,
            partial_iteration_s=partial,
            alive_nodes=alive_nodes,
            iters_since_checkpoint=len(since_ckpt),
            tokens_since_checkpoint=sum(t for t, _ in since_ckpt),
            time_since_checkpoint_s=sum(d for _, d in since_ckpt),
        )
        action = policy.recover(ctx)
        telemetry.event(
            "recovery",
            policy=policy.name,
            downtime_s=round(action.downtime_s, 6),
            rollback=int(action.rollback_iterations),
            drop_node=action.drop_node,
        )
        restarts += 1
        clock = effective_time + action.downtime_s
        time_lost += partial + action.downtime_s
        rollback = min(action.rollback_iterations, len(since_ckpt))
        for _ in range(rollback):
            tokens, iter_duration = since_ckpt.pop()
            i -= 1
            useful_tokens -= tokens
            time_lost += iter_duration
        if action.drop_node:
            alive_nodes -= 1
            if alive_nodes == 0:
                cluster_died = True
                break

    return ResilienceReport(
        strategy=strategy.lower(),
        recovery=policy.name,
        wall_time_s=clock,
        useful_tokens=useful_tokens,
        time_lost_s=time_lost,
        restart_count=restarts,
        num_failures=failures_seen,
        completed_iterations=i,
        num_iterations=num_iterations,
        final_num_nodes=alive_nodes,
        cluster_died=cluster_died,
    )
