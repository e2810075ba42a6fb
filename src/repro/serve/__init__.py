"""Online serving workloads over the planning/simulation stack.

``repro.serve`` turns the compiled-plan engine into a traffic simulator,
configured by one frozen :class:`~repro.serve.spec.ServeSpec`: a seeded
:class:`~repro.serve.arrivals.ArrivalProcess` emits evaluation requests
drawn from a weighted :class:`~repro.serve.arrivals.RequestMix` of (model,
context, strategy) cells — open-loop (``poisson``/``trace``) or closed-loop
(``closed``: virtual users re-issuing after a think time); a virtual-time
:class:`~repro.serve.queue.RequestQueue` admits or *sheds* them through an
:class:`~repro.serve.queue.AdmissionContext`-aware policy under a
concurrency limit; the :class:`~repro.serve.batcher.Batcher` coalesces
compatible queued requests into shared plan executions (held at most to
each request's deadline slack); an optional
:class:`~repro.serve.scale.ScalePolicy` grows and shrinks the virtual
cluster with load; and the driver (:func:`~repro.serve.driver.run_serve`)
reuses the :class:`~repro.api.Session` plan caches and an in-run result
cache so repeated cells are near-free.  Metrics (throughput, goodput,
latency percentiles, queue depth and capacity over time, shed counts,
cache hit rate) come back as a frozen :class:`~repro.results.ServeResult`.

Entry points: :meth:`repro.api.Session.serve` and the ``repro serve`` CLI
subcommand.  Arrival processes, admission policies and scale policies are
registry-driven (``@ARRIVALS.register`` / ``@ADMISSIONS.register`` /
``@SCALES.register``) and listed by ``repro list``.
"""

from repro.serve.arrivals import (
    ArrivalProcess,
    ClosedLoopArrivals,
    PoissonArrivals,
    Request,
    RequestCell,
    RequestMix,
    TraceArrivals,
    as_arrival,
    as_mix,
)
from repro.serve.batcher import Batcher
from repro.serve.driver import ServeSimulation, run_serve
from repro.serve.queue import (
    AdmissionContext,
    AdmissionPolicy,
    FifoAdmission,
    PriorityAdmission,
    RequestQueue,
    SloAwareAdmission,
    as_admission,
)
from repro.serve.scale import QueueDepthScaler, ScaleContext, ScalePolicy, as_scale_policy
from repro.serve.spec import ServeSpec

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "ClosedLoopArrivals",
    "TraceArrivals",
    "Request",
    "RequestCell",
    "RequestMix",
    "as_arrival",
    "as_mix",
    "AdmissionContext",
    "AdmissionPolicy",
    "FifoAdmission",
    "PriorityAdmission",
    "SloAwareAdmission",
    "RequestQueue",
    "as_admission",
    "ScaleContext",
    "ScalePolicy",
    "QueueDepthScaler",
    "as_scale_policy",
    "ServeSpec",
    "Batcher",
    "ServeSimulation",
    "run_serve",
]
