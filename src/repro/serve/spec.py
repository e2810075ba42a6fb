"""Declarative serving runs: the frozen :class:`ServeSpec`.

``Session.serve`` had grown a dozen loose keyword knobs (rate, duration,
arrival, admission, concurrency, batching, SLO...) and the closed-loop /
autoscaling work adds more.  :class:`ServeSpec` packages them the same way
:class:`~repro.exec.spec.SweepSpec` packages a grid: validated on
construction and immutable, with :meth:`~ServeSpec.replace` for variants.

``Session.serve(spec)`` is the primary signature; the old kwarg form is a
thin shim that builds a :class:`ServeSpec`, and ``repro serve`` flag parsing
is likewise re-expressed as spec construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Sequence

from repro.serve.arrivals import ArrivalProcess, RequestMix, as_arrival, as_mix
from repro.serve.batcher import DEFAULT_CACHE_HIT_COST_S
from repro.serve.queue import AdmissionPolicy, as_admission
from repro.serve.scale import ScalePolicy, as_scale_policy
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ServeSpec:
    """One serving workload, fully specified.

    Attributes
    ----------
    mix:
        The request mix — anything :func:`~repro.serve.arrivals.as_mix`
        accepts (normalised to a :class:`RequestMix` on construction;
        ``None`` means the standard comparison, equally weighted).
    rate / duration_s:
        Mean open-loop arrival rate (req per virtual second; ignored by
        ``closed``/``trace``) and the arrival window (the queue then drains).
    arrival:
        ``"poisson"`` (default), ``"trace"``, ``"closed"``, any registered
        name, or an :class:`ArrivalProcess` instance.
    clients / think_time_s:
        Closed-loop pool size and mean think time (used by
        ``arrival="closed"``; inert otherwise).
    admission:
        ``"fifo"`` (default), ``"priority"``, ``"slo_aware"``, any
        registered name, or an :class:`AdmissionPolicy` instance.
    concurrency / max_batch:
        Serving limits: simultaneous executions and requests per batch.
    coalesce_s:
        Deadline-driven batching window: a dispatch may be held up to this
        long past the head request's arrival to coalesce same-cell arrivals,
        but never past the head's deadline slack (``slo_s`` minus the cell's
        estimated cost).  0 (default) dispatches immediately.
    cache / cache_hit_cost_s:
        The in-run result cache toggle and the virtual service time of a
        cache hit.
    slo_s:
        Latency objective: goodput counts only requests meeting it, and the
        ``slo_aware`` policy sheds predicted misses against it.
    scale_policy / min_gpus / max_gpus:
        Autoscaling: a registered :class:`~repro.serve.scale.ScalePolicy`
        name (or instance) consulted between dispatches, and the GPU bounds
        it may scale within (``None`` bounds default to the serving
        session's own size).
    trace_times / trace_period:
        Arrival offsets for ``arrival="trace"``.
    """

    mix: Any = None
    rate: float = 10.0
    duration_s: float = 60.0
    arrival: "str | ArrivalProcess | None" = None
    clients: int = 32
    think_time_s: float = 1.0
    admission: "str | AdmissionPolicy | None" = "fifo"
    concurrency: int = 4
    max_batch: int = 8
    coalesce_s: float = 0.0
    cache: bool = True
    cache_hit_cost_s: float = DEFAULT_CACHE_HIT_COST_S
    slo_s: float | None = None
    scale_policy: "str | ScalePolicy | None" = None
    min_gpus: int | None = None
    max_gpus: int | None = None
    trace_times: Sequence[float] = ()
    trace_period: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix", as_mix(self.mix) if self.mix is not None else None)
        check_positive("rate", self.rate)
        check_positive("duration_s", self.duration_s)
        check_positive("clients", self.clients)
        check_positive("think_time_s", self.think_time_s)
        check_positive("concurrency", self.concurrency)
        check_positive("max_batch", self.max_batch)
        check_non_negative("coalesce_s", self.coalesce_s)
        check_non_negative("cache_hit_cost_s", self.cache_hit_cost_s)
        if self.slo_s is not None:
            check_positive("slo_s", self.slo_s)
        if self.min_gpus is not None:
            check_positive("min_gpus", self.min_gpus)
        if self.max_gpus is not None:
            check_positive("max_gpus", self.max_gpus)
        if (
            self.min_gpus is not None
            and self.max_gpus is not None
            and self.min_gpus > self.max_gpus
        ):
            raise ValueError(
                f"min_gpus {self.min_gpus} must not exceed max_gpus {self.max_gpus}"
            )
        object.__setattr__(self, "trace_times", tuple(float(t) for t in self.trace_times))

    # -- normalised components ---------------------------------------------------

    def resolved_mix(self, default: Any = None) -> RequestMix:
        """The run's :class:`RequestMix` (``default`` when no mix was given)."""
        if self.mix is not None:
            return self.mix
        return as_mix(default)

    def build_arrival(self) -> ArrivalProcess:
        """Instantiate the arrival process the spec describes."""
        return as_arrival(
            self.arrival,
            rate=self.rate,
            trace_times=self.trace_times,
            trace_period=self.trace_period,
            clients=self.clients,
            think_time_s=self.think_time_s,
        )

    def build_admission(self) -> AdmissionPolicy:
        """Instantiate the admission policy (instances pass through)."""
        return as_admission(self.admission)

    def build_scale_policy(self) -> ScalePolicy | None:
        """Instantiate the autoscale policy, or ``None`` for fixed capacity."""
        return as_scale_policy(self.scale_policy)

    def replace(self, **overrides: Any) -> "ServeSpec":
        """A copy of this spec with some fields overridden (re-validated)."""
        return dataclasses.replace(self, **overrides)
