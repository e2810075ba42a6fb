"""The versioned telemetry event vocabulary.

Every telemetry event is one JSON object (one line in a JSONL sink) with
three envelope fields —

* ``v`` — the schema version (:data:`EVENT_SCHEMA_VERSION`),
* ``type`` — one of the :data:`EVENT_TYPES` below,
* ``t`` — seconds since the emitting :class:`~repro.obs.core.Telemetry`
  hub was created (wall clock, *never* part of result identity),

— plus the type's required fields and any number of extra context fields.
The vocabulary is deliberately closed: producers may add fields freely but
may not invent types without registering them here, so consumers (the
``repro obs report`` aggregator, CI schema checks, external log pipelines)
can rely on a stable, enumerable stream instead of free-form log lines.

:func:`validate_event` is the single checker used by tests, the CI
telemetry smoke step and :func:`repro.obs.export.read_events`.
"""

from __future__ import annotations

from typing import Any, Mapping

EVENT_SCHEMA_VERSION = 1

# type -> required fields (beyond the v/type/t envelope).  Extra fields are
# always allowed; missing required fields are a schema violation.
EVENT_TYPES: dict[str, frozenset[str]] = {
    # generic instrumentation
    "span": frozenset({"name", "dur_s"}),
    "counter": frozenset({"name", "value"}),
    "gauge": frozenset({"name", "value"}),
    # sweep driver (repro.exec)
    "sweep_start": frozenset({"backend", "num_points"}),
    "sweep_finish": frozenset({"backend", "num_points", "executed", "dur_s"}),
    "point_start": frozenset({"index"}),
    "point_finish": frozenset({"index", "dur_s"}),
    "cache_hit": frozenset({"scope"}),
    "cache_miss": frozenset({"scope"}),
    # cluster backend (repro.exec.cluster)
    "round_start": frozenset({"round", "jobs", "payloads"}),
    "round_finish": frozenset(
        {"round", "completed_jobs", "failed_jobs", "dur_s"}
    ),
    "job_submit": frozenset({"job", "attempt"}),
    "job_complete": frozenset({"job"}),
    "job_fail": frozenset({"job", "reason"}),
    "job_resubmit": frozenset({"job", "attempt"}),
    "job_cancel": frozenset({"job", "reason"}),
    # batch simulation entry points (repro.sim.batch)
    "batch_simulate": frozenset({"lanes"}),
    # serving (repro.serve) — vt is *virtual* time inside the run
    "request_enqueue": frozenset({"request", "vt"}),
    "request_dispatch": frozenset({"request", "vt", "batch_size", "served_by"}),
    "request_complete": frozenset({"request", "vt", "latency_s"}),
    "request_shed": frozenset({"request", "vt"}),
    # serving autoscaler (repro.serve.scale) — capacity changes in GPUs
    "scale_up": frozenset({"vt", "gpus"}),
    "scale_down": frozenset({"vt", "gpus"}),
    # dynamics (repro.dynamics) — failures and recovery actions
    "failure": frozenset({"node", "vt", "iteration"}),
    "recovery": frozenset({"policy", "downtime_s", "rollback", "drop_node"}),
}


def make_event(type: str, t: float, **fields: Any) -> dict[str, Any]:
    """Assemble one schema-valid event document (validated at build time)."""
    doc = {"v": EVENT_SCHEMA_VERSION, "type": type, "t": round(t, 6), **fields}
    validate_event(doc)
    return doc


def validate_event(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a schema-valid event."""
    version = doc.get("v")
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported event schema version {version!r} "
            f"(this build reads v{EVENT_SCHEMA_VERSION})"
        )
    event_type = doc.get("type")
    required = EVENT_TYPES.get(event_type)
    if required is None:
        raise ValueError(
            f"unknown event type {event_type!r}; known: "
            f"{', '.join(sorted(EVENT_TYPES))}"
        )
    if "t" not in doc:
        raise ValueError(f"event {event_type!r} is missing its timestamp 't'")
    missing = required - doc.keys()
    if missing:
        raise ValueError(
            f"event {event_type!r} is missing required field(s) "
            f"{', '.join(sorted(missing))}"
        )
