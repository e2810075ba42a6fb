"""``repro.obs`` — unified, dependency-free instrumentation.

One subsystem answers "where did this run spend its time" across every
layer of the stack:

* :mod:`repro.obs.core` — the :class:`Telemetry` hub: nestable ``span()``
  timers, monotonic counters and gauges.  Producers emit to the ambient hub
  (:func:`current_telemetry`), which is the :data:`TELEMETRY_OFF` no-op
  singleton unless a ``with telemetry_scope(hub):`` block (or the CLI's
  ``--telemetry PATH``) installs one, so instrumented hot paths pay
  near-zero overhead unless a run opts in.
* :mod:`repro.obs.sketch` — O(1)-memory streaming statistics: the P²
  quantile estimator, a latency sketch that keeps exact percentiles under a
  size threshold, and windowed rate counters.
* :mod:`repro.obs.events` — the versioned, schema-stable JSON-lines event
  vocabulary (sweep points, cache hits, cluster job lifecycle, serve
  request lifecycle, recovery actions).
* :mod:`repro.obs.export` — the JSONL file sink and the
  ``repro obs report`` run summary.

Telemetry never enters result identity: every result is byte-identical per
seed with telemetry on or off (wall-clock observability lives in dedicated
``meta["timing"]`` subtrees that serialisation can drop).
"""

from repro.obs.core import (
    TELEMETRY_OFF,
    Telemetry,
    current_telemetry,
    telemetry_scope,
)
from repro.obs.events import EVENT_SCHEMA_VERSION, validate_event
from repro.obs.export import JsonlSink, read_events, summarize_events
from repro.obs.sketch import LatencySketch, P2Quantile, WindowedRate

__all__ = [
    "TELEMETRY_OFF",
    "Telemetry",
    "current_telemetry",
    "telemetry_scope",
    "EVENT_SCHEMA_VERSION",
    "validate_event",
    "JsonlSink",
    "read_events",
    "summarize_events",
    "LatencySketch",
    "P2Quantile",
    "WindowedRate",
]
