"""Telemetry-driven autoscaling of the serving cluster.

A :class:`ScalePolicy` watches the serve driver's *streaming* signals —
queue depth, the windowed completion rate and the live latency sketch (the
same objects :mod:`repro.obs` exports as gauges) — and decides, between
dispatches, how many nodes the virtual cluster should have.  The scale
primitive is :func:`repro.dynamics.recovery.scale_session`: growing or
shrinking replans every strategy onto the resized cluster through derived
sessions, exactly like an ``elastic`` recovery shrink, so repeated visits to
a capacity level reuse cached plans.

Policies register with ``@SCALES.register`` (and are listed by ``repro
list``); the built-in ``queue_depth`` policy adds a node while the queue
stays above its high watermark and removes one when the system is draining
below its low watermark, with a cooldown between steps.  Everything runs in
virtual time, so scaling decisions are deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.registry import SCALES
from repro.utils.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sketch import LatencySketch, WindowedRate


@dataclass
class ScaleContext:
    """One autoscaling decision point: load signals plus capacity bounds.

    ``latency`` and ``completion_rate`` are the driver's live streaming
    sketches; ``queue_depth``/``in_flight`` are instantaneous.  ``nodes`` is
    the current capacity; decisions are clamped to
    ``[min_nodes, max_nodes]`` by the driver, so a policy may return any
    target.
    """

    now_s: float
    nodes: int
    min_nodes: int
    max_nodes: int
    gpus_per_node: int
    queue_depth: int
    in_flight: int
    concurrency: int
    slo_s: float | None = None
    latency: "LatencySketch | None" = None
    completion_rate: "WindowedRate | None" = None
    time_since_scale_s: float = field(default=float("inf"))

    @property
    def gpus(self) -> int:
        return self.nodes * self.gpus_per_node


class ScalePolicy:
    """Base class: a target node count per decision point.

    :meth:`decide` returns the node count the cluster *should* have; the
    driver moves at most one rung of its capacity ladder (doublings of the
    minimum, capped at the maximum) toward that target per decision, and
    enforces :attr:`cooldown_s` of virtual time between capacity changes
    (decisions inside the cooldown are ignored).  Policies are consulted
    between dispatches only — in-flight executions always finish at the
    capacity they started on.
    """

    name = "abstract"
    cooldown_s: float = 5.0

    def decide(self, ctx: ScaleContext) -> int:
        """The desired node count given the current signals."""
        raise NotImplementedError


@SCALES.register(
    "queue_depth",
    description="grow on a deep queue, shrink when idle (watermarks + cooldown)",
)
class QueueDepthScaler(ScalePolicy):
    """Hysteresis scaler on instantaneous queue depth.

    Grows by one node while ``queue_depth >= high_watermark`` and shrinks by
    one while the system is nearly idle (``queue_depth <= low_watermark``
    and no more work in flight than the concurrency limit would refill
    immediately).  The gap between the watermarks plus the cooldown gives
    hysteresis, so capacity tracks sustained pressure instead of chattering
    on every burst.
    """

    name = "queue_depth"

    def __init__(
        self,
        high_watermark: int = 8,
        low_watermark: int = 0,
        cooldown_s: float = 5.0,
    ):
        check_positive("high_watermark", high_watermark)
        check_non_negative("low_watermark", low_watermark)
        check_non_negative("cooldown_s", cooldown_s)
        if low_watermark >= high_watermark:
            raise ValueError(
                f"low_watermark {low_watermark} must be below "
                f"high_watermark {high_watermark}"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.cooldown_s = cooldown_s

    def decide(self, ctx: ScaleContext) -> int:
        if ctx.queue_depth >= self.high_watermark:
            return ctx.nodes + 1
        if ctx.queue_depth <= self.low_watermark and ctx.in_flight == 0:
            return ctx.nodes - 1
        return ctx.nodes


def as_scale_policy(policy: "str | ScalePolicy | None") -> ScalePolicy | None:
    """Normalise the ``scale_policy`` argument of the serve driver."""
    if policy is None or isinstance(policy, ScalePolicy):
        return policy
    instance = SCALES.get(policy).obj()
    if instance.name == ScalePolicy.name:
        # A registered policy that never set ``name`` still reports its
        # registry key in ServeResult.scale_policy.
        instance.name = policy
    return instance
