"""Virtual-time request queue with pluggable admission and a concurrency cap.

The :class:`RequestQueue` holds requests that have arrived but not yet been
dispatched, ordered by an :class:`AdmissionPolicy` sort key.  Policies see
one :class:`AdmissionContext` — a snapshot of queue state, the driver's
streaming latency/completion sketches and per-cell cost estimates — and may
both *order* the queue (:meth:`AdmissionPolicy.key`) and *shed* requests
predicted to be not worth serving (:meth:`AdmissionPolicy.admit`).

Three policies register with :mod:`repro.registry`:

* ``fifo`` — strict arrival order,
* ``priority`` — higher :attr:`RequestCell.priority` first, arrival order
  within a priority class, and
* ``slo_aware`` — sheds requests whose predicted completion (queue-wait
  estimate plus the cached cell cost) misses the run's ``slo_s``, and
  orders survivors least-slack-first.

The queue also owns the serving concurrency limit: the driver asks
:meth:`RequestQueue.can_dispatch` before starting another batch execution,
so at most ``concurrency`` executions are ever in flight.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.registry import ADMISSIONS
from repro.serve.arrivals import Request, RequestCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sketch import LatencySketch, WindowedRate


@dataclass
class AdmissionContext:
    """Everything an admission policy may consult for one decision.

    A fresh snapshot is built by the serve driver per admission; all times
    are virtual seconds of the serving clock, so decisions are deterministic
    per seed.  ``latency`` and ``completion_rate`` are the driver's *live*
    streaming sketches (the same objects feeding telemetry and the final
    :class:`~repro.results.ServeResult`), not copies — a policy subscribes
    to the signals that are already measured instead of growing new
    plumbing.

    Attributes
    ----------
    now_s:
        The virtual time of the decision.
    queue_depth / queue:
        Requests currently waiting, and the queue holding them (``None``
        outside a run).
    queued_work_s:
        The estimated seconds of service the queued requests represent
        (:meth:`RequestQueue.queued_work_s`; cells without a cost estimate
        yet contribute 0, and so does a context without a queue).  Computed
        on first read, so policies that never read it never scan the queue;
        the queue must not change between building the context and that
        read.  :meth:`RequestQueue.offer` consults the policy before it
        inserts, so a read there sees the queue the arrival found.
    in_flight / concurrency:
        Executions currently running and the driver's limit.
    slo_s:
        The run's latency objective, if any.
    latency / completion_rate:
        The driver's streaming :class:`~repro.obs.sketch.LatencySketch` and
        :class:`~repro.obs.sketch.WindowedRate` (``None`` outside a run).
    cost_estimate:
        Per-cell service-time estimates from the batcher's result cache
        (``None`` until a cell has executed once).
    """

    now_s: float = 0.0
    queue_depth: int = 0
    in_flight: int = 0
    concurrency: int = 1
    slo_s: float | None = None
    latency: "LatencySketch | None" = None
    completion_rate: "WindowedRate | None" = None
    cost_estimate: "Callable[[RequestCell], float | None] | None" = field(
        default=None, repr=False
    )
    queue: "RequestQueue | None" = field(default=None, repr=False)

    @functools.cached_property
    def queued_work_s(self) -> float:
        """Estimated seconds of queued service, summed on first read."""
        if self.queue is None or self.cost_estimate is None:
            return 0.0
        return self.queue.queued_work_s(self.cost_estimate)

    def estimated_cost_s(self, cell: RequestCell) -> float | None:
        """The cached service-time estimate for ``cell`` (``None`` if unseen)."""
        if self.cost_estimate is None:
            return None
        return self.cost_estimate(cell)

    def estimated_wait_s(self) -> float:
        """Queue-wait estimate: queued work spread over the service slots."""
        return self.queued_work_s / max(1, self.concurrency)


class AdmissionPolicy:
    """Base class: total order plus an admit/shed verdict over requests.

    ``key(request, ctx)`` orders the queue (smallest key dispatches first;
    include ``request.rid`` as the final tie-breaker so the order is total
    and deterministic).  ``admit(request, ctx)`` runs once on arrival; a
    ``False`` verdict sheds the request — it never queues, never executes,
    and is reported in :class:`~repro.results.ServeResult.shed_count`.
    ``ctx`` may be ``None`` when the queue is used standalone (tests,
    tools); policies must tolerate that by falling back to request-only
    ordering.
    """

    name = "abstract"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        """Sort key; the smallest key is dispatched first."""
        raise NotImplementedError

    def admit(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        """Whether the request should be queued at all (default: always)."""
        return True


@ADMISSIONS.register("fifo", description="first-in, first-out admission (default)")
class FifoAdmission(AdmissionPolicy):
    """Serve requests strictly in arrival order."""

    name = "fifo"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        return (request.arrival_s, request.rid)


@ADMISSIONS.register(
    "priority", description="higher-priority cells first, FIFO within a class"
)
class PriorityAdmission(AdmissionPolicy):
    """Serve the highest-priority queued request first."""

    name = "priority"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        return (-request.priority, request.arrival_s, request.rid)


@ADMISSIONS.register(
    "slo_aware",
    description="shed requests predicted to miss the SLO; least slack first",
)
class SloAwareAdmission(AdmissionPolicy):
    """Shed predicted SLO misses; order survivors by deadline slack.

    The completion prediction is ``queue wait + cell cost``: the wait comes
    from the work already queued (cost estimates cached by the batcher)
    spread over the concurrency slots, the cost from the cell's last
    execution.  A cell that has never executed has no estimate and is
    admitted optimistically — the first request of each cell always pays its
    way in, priming the estimate for everyone behind it.  With no ``slo_s``
    on the run the policy degrades to FIFO.
    """

    name = "slo_aware"

    def predicted_latency_s(
        self, request: Request, ctx: AdmissionContext
    ) -> float | None:
        """Predicted completion latency, or ``None`` when the cost is unknown."""
        cost = ctx.estimated_cost_s(request.cell)
        if cost is None:
            return None
        return ctx.estimated_wait_s() + cost

    def admit(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        if ctx is None or ctx.slo_s is None:
            return True
        predicted = self.predicted_latency_s(request, ctx)
        return predicted is None or predicted <= ctx.slo_s

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        # Least slack first: order by the latest start that still meets the
        # SLO (deadline minus service estimate).  Unknown costs and SLO-less
        # runs fall back to arrival order.
        if ctx is not None and ctx.slo_s is not None:
            cost = ctx.estimated_cost_s(request.cell)
            if cost is not None:
                return (request.arrival_s + ctx.slo_s - cost, request.rid)
        return (request.arrival_s, request.rid)


def as_admission(admission: "str | AdmissionPolicy | None") -> AdmissionPolicy:
    """Normalise the ``admission`` argument of the serve driver.

    Instances pass through, registry names resolve to a fresh policy, and
    ``None`` means ``fifo``.
    """
    if admission is None:
        return FifoAdmission()
    if isinstance(admission, str):
        return ADMISSIONS.get(admission).obj()
    return admission


class RequestQueue:
    """Admission-ordered queue of waiting requests.

    Kept as a key-sorted list; every operation is deterministic because
    admission keys are unique.  An arrival costs one admission verdict, one
    key and a binary insert; a dispatch scans the queue once to coalesce
    same-cell requests (:meth:`take_matching`).  Queued work
    (:meth:`queued_work_s`) is a scan with one cost lookup per request, and
    only policies that read :attr:`AdmissionContext.queued_work_s` pay it.
    """

    def __init__(self, admission: "str | AdmissionPolicy | None" = None, concurrency: int = 4):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.admission = as_admission(admission)
        self.concurrency = concurrency
        self._items: list[tuple[tuple[Any, ...], Request]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        return len(self._items)

    def can_dispatch(self, in_flight: int) -> bool:
        """Whether another execution may start given ``in_flight`` running."""
        return self.depth > 0 and in_flight < self.concurrency

    def offer(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        """Admit-or-shed entry point: queue the request unless policy rejects it."""
        if not self.admission.admit(request, ctx):
            return False
        self.push(request, ctx)
        return True

    def push(self, request: Request, ctx: AdmissionContext | None = None) -> None:
        entry = (self.admission.key(request, ctx), request)
        bisect.insort(self._items, entry, key=lambda item: item[0])

    def peek(self) -> Request:
        """The next request in admission order, without removing it."""
        if not self._items:
            raise IndexError("peek on an empty request queue")
        return self._items[0][1]

    def pop(self) -> Request:
        """Remove and return the next request in admission order."""
        if not self._items:
            raise IndexError("pop from an empty request queue")
        return self._items.pop(0)[1]

    def count_matching(self, cell: Any) -> int:
        """Queued requests sharing ``cell`` (what one batch could coalesce)."""
        return sum(1 for _, request in self._items if request.cell == cell)

    def queued_work_s(
        self, cost_estimate: "Callable[[RequestCell], float | None]"
    ) -> float:
        """Estimated service seconds represented by the queued requests.

        Cells without an estimate yet (never executed) contribute nothing —
        the estimate is a floor, which keeps shedding conservative.
        """
        total = 0.0
        for _, request in self._items:
            cost = cost_estimate(request.cell)
            if cost is not None:
                total += cost
        return total

    def take_matching(self, cell: Any, limit: int) -> list[Request]:
        """Remove up to ``limit`` queued requests with the given cell.

        Used by the batcher to coalesce compatible requests; matches are
        taken in admission order.
        """
        if limit <= 0:
            return []
        taken: list[Request] = []
        kept: list[tuple[tuple[Any, ...], Request]] = []
        for entry in self._items:
            if len(taken) < limit and entry[1].cell == cell:
                taken.append(entry[1])
            else:
                kept.append(entry)
        self._items = kept
        return taken
