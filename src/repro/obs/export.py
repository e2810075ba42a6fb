"""Telemetry export: the JSONL sink and run reports.

Two consumers of one event vocabulary (:mod:`repro.obs.events`):

* :class:`JsonlSink` — the file sink a :class:`~repro.obs.core.Telemetry`
  hub writes through: one compact JSON object per line, flushed on close.
* :func:`read_events` / :func:`summarize_events` / :func:`render_report` —
  the ``repro obs report PATH`` pipeline: parse and validate a JSONL event
  log, aggregate it (event counts, span time breakdown, cache/job/request
  tallies), and render the human summary tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.events import validate_event


class JsonlSink:
    """Append schema-valid events to a JSON-lines file, one object per line."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._file = self.path.open("w", encoding="utf-8")

    def emit(self, doc: Mapping[str, Any]) -> None:
        if self._file is None:
            raise ValueError(f"sink {self.path} is closed")
        self._file.write(json.dumps(doc, separators=(",", ":")) + "\n")

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class ListSink:
    """In-memory sink collecting events (tests and programmatic consumers)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, doc: Mapping[str, Any]) -> None:
        self.events.append(dict(doc))


def read_events(path: "str | Path", validate: bool = True) -> list[dict[str, Any]]:
    """Parse a JSONL event log, optionally validating every line's schema.

    Raises ``ValueError`` naming the offending line for unparseable or (when
    ``validate``) schema-invalid entries — a telemetry file must be either
    trustworthy or loudly broken, never silently partial.
    """
    events: list[dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable event: {exc}") from exc
            if validate:
                try:
                    validate_event(doc)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
            events.append(doc)
    return events


def summarize_events(events: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate an event stream into the ``repro obs report`` summary.

    Returns a plain dict: per-type event counts, a span time breakdown
    (count, inclusive ``total_s`` and ``self_s`` per span path, where self
    time excludes the direct children ``path/<name>``), cache hit/miss
    tallies by scope, cluster job lifecycle totals, request latency
    aggregates, batched simulation totals, and the final values of any
    flushed counters/gauges.
    """
    type_counts: dict[str, int] = {}
    spans: dict[str, dict[str, float]] = {}
    cache: dict[str, dict[str, int]] = {}
    jobs = {
        "submitted": 0,
        "completed": 0,
        "failed": 0,
        "resubmitted": 0,
        "cancelled": 0,
    }
    requests = {"completed": 0, "latency_sum_s": 0.0, "latency_max_s": 0.0}
    batch = {"calls": 0, "lanes": 0, "deduped": 0, "structures": 0}
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    first_t: float | None = None
    last_t = 0.0

    for doc in events:
        event_type = doc["type"]
        type_counts[event_type] = type_counts.get(event_type, 0) + 1
        t = float(doc.get("t", 0.0))
        first_t = t if first_t is None else min(first_t, t)
        last_t = max(last_t, t)
        if event_type == "span":
            entry = spans.setdefault(doc["name"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += float(doc["dur_s"])
        elif event_type in ("cache_hit", "cache_miss"):
            scope = cache.setdefault(doc["scope"], {"hits": 0, "misses": 0})
            scope["hits" if event_type == "cache_hit" else "misses"] += 1
        elif event_type == "job_submit":
            jobs["submitted"] += 1
        elif event_type == "job_complete":
            jobs["completed"] += 1
        elif event_type == "job_fail":
            jobs["failed"] += 1
        elif event_type == "job_resubmit":
            jobs["resubmitted"] += 1
        elif event_type == "job_cancel":
            jobs["cancelled"] += 1
        elif event_type == "request_complete":
            requests["completed"] += 1
            latency = float(doc["latency_s"])
            requests["latency_sum_s"] += latency
            requests["latency_max_s"] = max(requests["latency_max_s"], latency)
        elif event_type == "batch_simulate":
            batch["calls"] += 1
            batch["lanes"] += int(doc["lanes"])
            batch["deduped"] += int(doc["deduped"])
            batch["structures"] += int(doc["structures"])
        elif event_type == "counter":
            counters[doc["name"]] = int(doc["value"])
        elif event_type == "gauge":
            gauges[doc["name"]] = float(doc["value"])

    for entry in spans.values():
        entry["self_s"] = entry["total_s"]
    for name, entry in spans.items():
        parent = spans.get(name.rpartition("/")[0])
        if parent is not None:
            parent["self_s"] -= entry["total_s"]
    for entry in spans.values():
        # Children run in parallel workers can outlast their parent's wall time.
        entry["self_s"] = max(0.0, entry["self_s"])

    return {
        "num_events": sum(type_counts.values()),
        "duration_s": round(max(0.0, last_t - (first_t or 0.0)), 6),
        "event_counts": dict(sorted(type_counts.items())),
        "spans": {name: spans[name] for name in sorted(spans)},
        "cache": {scope: cache[scope] for scope in sorted(cache)},
        "jobs": jobs,
        "requests": requests,
        "batch": batch,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }


def render_report(summary: Mapping[str, Any]) -> str:
    """Render :func:`summarize_events` output as the human report tables."""
    from repro.utils.tables import render_table

    parts: list[str] = [
        f"{summary['num_events']} events over {summary['duration_s']:.2f}s"
    ]
    if summary["event_counts"]:
        rows = [[name, count] for name, count in summary["event_counts"].items()]
        parts.append(render_table(["event", "count"], rows))
    if summary["spans"]:
        # Shares of self time, so nested span paths add up to 100%.
        grand_total = sum(s["self_s"] for s in summary["spans"].values())
        rows = [
            [
                name,
                int(entry["count"]),
                f"{entry['total_s']:.3f}",
                f"{entry['self_s']:.3f}",
                (
                    f"{100.0 * entry['self_s'] / grand_total:.1f}%"
                    if grand_total
                    else "-"
                ),
            ]
            for name, entry in summary["spans"].items()
        ]
        parts.append(
            render_table(["span", "count", "total_s", "self_s", "share"], rows)
        )
    if summary["cache"]:
        rows = [
            [scope, entry["hits"], entry["misses"]]
            for scope, entry in summary["cache"].items()
        ]
        parts.append(render_table(["cache scope", "hits", "misses"], rows))
    if any(summary["jobs"].values()):
        rows = [[name, count] for name, count in summary["jobs"].items()]
        parts.append(render_table(["cluster jobs", "count"], rows))
    if summary.get("batch", {}).get("calls"):
        batch = summary["batch"]
        rows = [
            ["calls", batch["calls"]],
            ["lanes", batch["lanes"]],
            ["deduped", batch["deduped"]],
            ["structures", batch["structures"]],
        ]
        parts.append(render_table(["batch simulate", "count"], rows))
    if summary["requests"]["completed"]:
        completed = summary["requests"]["completed"]
        rows = [
            ["completed", completed],
            [
                "mean_latency_s",
                round(summary["requests"]["latency_sum_s"] / completed, 6),
            ],
            ["max_latency_s", round(summary["requests"]["latency_max_s"], 6)],
        ]
        parts.append(render_table(["requests", "value"], rows))
    if summary["counters"]:
        rows = [[name, value] for name, value in summary["counters"].items()]
        parts.append(render_table(["counter", "value"], rows))
    return "\n\n".join(parts)
