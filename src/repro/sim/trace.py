"""Execution traces: per-task spans and per-rank timeline accounting (Fig. 12).

The simulator records one span per executed task.  The trace answers the
questions the paper's timeline analysis asks: how long each rank spends in
attention compute, intra-node communication and inter-node communication, how
much of the communication is hidden behind compute, and what the per-round
costs look like.

Storage is *columnar*: the engine's hot loop appends plain values to parallel
arrays via :meth:`Trace.record` instead of constructing a :class:`TraceSpan`
object per task.  ``trace.spans`` materialises the span objects lazily (and
caches them), so every existing consumer — timeline rendering, Chrome-trace
export, the Fig. 12 / Table 3 accounting — sees the same list-of-spans API as
before.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.plan import TaskKind


@dataclass(frozen=True)
class TraceSpan:
    """One executed task: when it ran, where, and what kind of work it was.

    ``aborted`` marks a task that was cut short by a resource failure; its
    ``end_s`` is the failure time, not a natural completion.  Only the frozen
    reference engine (:mod:`repro.sim._reference`) simulates failures, so
    spans of the live engine always read ``False``.
    """

    task_id: int
    name: str
    kind: TaskKind
    rank: int
    start_s: float
    end_s: float
    aborted: bool = False

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "name": self.name,
            "kind": self.kind.value,
            "rank": self.rank,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "aborted": self.aborted,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpan":
        return cls(
            task_id=data["task_id"],
            name=data["name"],
            kind=TaskKind(data["kind"]),
            rank=data["rank"],
            start_s=data["start_s"],
            end_s=data["end_s"],
            aborted=data.get("aborted", False),
        )


class Trace:
    """All spans of one simulated plan, stored as parallel per-field arrays."""

    __slots__ = ("_task_ids", "_names", "_kinds", "_ranks", "_starts", "_ends", "_aborted", "_spans")

    def __init__(self, spans: list[TraceSpan] | None = None) -> None:
        self._task_ids: list[int] = []
        self._names: list[str] = []
        self._kinds: list[TaskKind] = []
        self._ranks: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._aborted: list[bool] = []
        self._spans: list[TraceSpan] | None = None
        for span in spans or ():
            self.add(span)

    def record(
        self,
        task_id: int,
        name: str,
        kind: TaskKind,
        rank: int,
        start_s: float,
        end_s: float,
        aborted: bool = False,
    ) -> None:
        """Append one span by columns (the engine's fast path)."""
        self._spans = None
        self._task_ids.append(task_id)
        self._names.append(name)
        self._kinds.append(kind)
        self._ranks.append(rank)
        self._starts.append(start_s)
        self._ends.append(end_s)
        self._aborted.append(aborted)

    def add(self, span: TraceSpan) -> None:
        """Append one span object (columnar under the hood)."""
        self.record(
            span.task_id, span.name, span.kind, span.rank,
            span.start_s, span.end_s, span.aborted,
        )

    @property
    def spans(self) -> list[TraceSpan]:
        """The spans as objects, materialised lazily and cached.

        The returned list is a snapshot view — mutate the trace through
        :meth:`add`/:meth:`record`, not by appending to this list.
        """
        if self._spans is None:
            self._spans = [
                TraceSpan(
                    task_id=tid, name=name, kind=kind, rank=rank,
                    start_s=start, end_s=end, aborted=aborted,
                )
                for tid, name, kind, rank, start, end, aborted in zip(
                    self._task_ids, self._names, self._kinds, self._ranks,
                    self._starts, self._ends, self._aborted,
                )
            ]
        return self._spans

    def __len__(self) -> int:
        return len(self._task_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.spans == other.spans

    @property
    def makespan_s(self) -> float:
        """Wall-clock span of the trace (latest end time)."""
        return max(self._ends, default=0.0)

    @property
    def aborted_spans(self) -> list[TraceSpan]:
        """Spans cut short by a resource failure."""
        return [s for s in self.spans if s.aborted]

    # -- export -----------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """JSON-safe span rows, in recording order."""
        return [s.to_dict() for s in self.spans]

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the trace (e.g. for offline timeline tooling)."""
        return json.dumps(self.to_dicts(), indent=indent)

    def to_chrome_dict(self, process_name: str = "repro simulation") -> dict:
        """Chrome-trace (``chrome://tracing`` / Perfetto) event form.

        Ranks map to threads of a single process; every span becomes one
        complete (``"ph": "X"``) event with microsecond timestamps, the task
        kind as its category, and task id / abort status in ``args``.
        Aborted spans are tinted via ``cname`` so failures stand out in the
        timeline.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for rank in sorted({s.rank for s in self.spans}):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": rank,
                    "args": {"name": f"rank {rank}" if rank >= 0 else "global"},
                }
            )
        for span in self.spans:
            event = {
                "name": span.name,
                "cat": span.kind.value,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 0,
                "tid": span.rank,
                "args": {"task_id": span.task_id, "aborted": span.aborted},
            }
            if span.aborted:
                event["cname"] = "terrible"
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(
        self, indent: int | None = None, process_name: str = "repro simulation"
    ) -> str:
        """Serialise for ``chrome://tracing`` / Perfetto (see ``repro trace``)."""
        return json.dumps(self.to_chrome_dict(process_name=process_name), indent=indent)

    @classmethod
    def from_dicts(cls, rows: list[dict]) -> "Trace":
        """Rebuild a trace from :meth:`to_dicts` output."""
        trace = cls()
        for row in rows:
            trace.add(TraceSpan.from_dict(row))
        return trace

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Rebuild a trace from :meth:`to_json` output."""
        return cls.from_dicts(json.loads(text))

    def spans_for_rank(self, rank: int) -> list[TraceSpan]:
        """Spans attributed to a rank, ordered by start time."""
        return sorted(
            (s for s in self.spans if s.rank == rank), key=lambda s: s.start_s
        )

    def busy_time(self, rank: int, kinds: set[TaskKind] | None = None) -> float:
        """Total busy time of a rank, optionally restricted to task kinds.

        Overlapping spans (e.g. a compute task and a NIC transfer attributed to
        the same rank) are merged so the result never exceeds the makespan.
        """
        intervals = [
            (s.start_s, s.end_s)
            for s in self.spans
            if s.rank == rank and (kinds is None or s.kind in kinds) and s.end_s > s.start_s
        ]
        if not intervals:
            return 0.0
        intervals.sort()
        merged_total = 0.0
        cur_start, cur_end = intervals[0]
        for start, end in intervals[1:]:
            if start <= cur_end:
                cur_end = max(cur_end, end)
            else:
                merged_total += cur_end - cur_start
                cur_start, cur_end = start, end
        merged_total += cur_end - cur_start
        return merged_total

    def time_by_kind(self) -> dict[TaskKind, float]:
        """Total (non-overlap-merged) duration by task kind."""
        totals: dict[TaskKind, float] = {}
        for s in self.spans:
            totals[s.kind] = totals.get(s.kind, 0.0) + s.duration_s
        return totals

    def communication_exposed_s(self, rank: int) -> float:
        """Communication time of a rank not hidden behind its compute.

        Computed as the union of the rank's communication spans minus the parts
        overlapping any of its compute spans — the "bubbles" of Fig. 12.
        """
        comm = [
            (s.start_s, s.end_s)
            for s in self.spans
            if s.rank == rank and s.kind.is_communication and s.end_s > s.start_s
        ]
        compute = [
            (s.start_s, s.end_s)
            for s in self.spans
            if s.rank == rank and not s.kind.is_communication and s.end_s > s.start_s
        ]
        if not comm:
            return 0.0
        exposed = 0.0
        for c_start, c_end in comm:
            segments = [(c_start, c_end)]
            for k_start, k_end in compute:
                next_segments = []
                for s_start, s_end in segments:
                    if k_end <= s_start or k_start >= s_end:
                        next_segments.append((s_start, s_end))
                        continue
                    if k_start > s_start:
                        next_segments.append((s_start, k_start))
                    if k_end < s_end:
                        next_segments.append((k_end, s_end))
                segments = next_segments
            exposed += sum(e - s for s, e in segments)
        return exposed


def summarize_trace(trace: Trace, ranks: list[int] | None = None) -> dict[str, float]:
    """Aggregate statistics used by the Fig. 12 / Table 3 reproductions."""
    if ranks is None:
        ranks = sorted({s.rank for s in trace.spans if s.rank >= 0})
    by_kind = trace.time_by_kind()
    compute_kinds = {TaskKind.ATTENTION, TaskKind.LINEAR}
    summary = {
        "makespan_s": trace.makespan_s,
        "total_attention_s": by_kind.get(TaskKind.ATTENTION, 0.0),
        "total_linear_s": by_kind.get(TaskKind.LINEAR, 0.0),
        "total_intra_comm_s": by_kind.get(TaskKind.INTRA_COMM, 0.0)
        + by_kind.get(TaskKind.DISPATCH, 0.0)
        + by_kind.get(TaskKind.COMBINE, 0.0),
        "total_inter_comm_s": by_kind.get(TaskKind.INTER_COMM, 0.0),
        "total_remap_s": by_kind.get(TaskKind.REMAP, 0.0),
    }
    if ranks:
        busy = [trace.busy_time(r, kinds=compute_kinds) for r in ranks]
        exposed = [trace.communication_exposed_s(r) for r in ranks]
        summary["max_rank_compute_s"] = max(busy)
        summary["min_rank_compute_s"] = min(busy)
        summary["mean_rank_compute_s"] = sum(busy) / len(busy)
        summary["max_rank_exposed_comm_s"] = max(exposed)
        summary["mean_rank_exposed_comm_s"] = sum(exposed) / len(exposed)
    return summary
