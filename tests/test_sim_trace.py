"""Tests for trace recording and timeline accounting."""

import pytest

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim.engine import simulate
from repro.sim.trace import Trace, TraceSpan, summarize_trace


def span(task_id, kind, rank, start, end, name="t"):
    return TraceSpan(task_id=task_id, name=name, kind=kind, rank=rank, start_s=start, end_s=end)


class TestTrace:
    def test_makespan(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 1.0))
        trace.add(span(1, TaskKind.LINEAR, 0, 1.0, 3.0))
        assert trace.makespan_s == 3.0

    def test_busy_time_merges_overlaps(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 2.0))
        trace.add(span(1, TaskKind.ATTENTION, 0, 1.0, 3.0))
        assert trace.busy_time(0) == pytest.approx(3.0)

    def test_busy_time_filters_by_kind(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 1.0))
        trace.add(span(1, TaskKind.INTER_COMM, 0, 2.0, 5.0))
        assert trace.busy_time(0, kinds={TaskKind.ATTENTION}) == pytest.approx(1.0)

    def test_exposed_communication(self):
        trace = Trace()
        # Compute from 0-2, comm from 1-4: 2 seconds of comm are exposed.
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 2.0))
        trace.add(span(1, TaskKind.INTER_COMM, 0, 1.0, 4.0))
        assert trace.communication_exposed_s(0) == pytest.approx(2.0)

    def test_fully_hidden_communication(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 5.0))
        trace.add(span(1, TaskKind.INTRA_COMM, 0, 1.0, 2.0))
        assert trace.communication_exposed_s(0) == pytest.approx(0.0)

    def test_no_communication(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 5.0))
        assert trace.communication_exposed_s(0) == 0.0

    def test_spans_for_rank_sorted(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 1, 2.0, 3.0))
        trace.add(span(1, TaskKind.ATTENTION, 1, 0.0, 1.0))
        starts = [s.start_s for s in trace.spans_for_rank(1)]
        assert starts == sorted(starts)

    def test_time_by_kind(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 1.0))
        trace.add(span(1, TaskKind.ATTENTION, 1, 0.0, 2.0))
        trace.add(span(2, TaskKind.REMAP, 0, 0.0, 0.5))
        by_kind = trace.time_by_kind()
        assert by_kind[TaskKind.ATTENTION] == pytest.approx(3.0)
        assert by_kind[TaskKind.REMAP] == pytest.approx(0.5)


class TestTraceExport:
    def test_span_dict_round_trip(self):
        original = span(3, TaskKind.REMAP, 1, 0.5, 2.0, name="remap:0->1")
        restored = TraceSpan.from_dict(original.to_dict())
        assert restored == original

    def test_trace_json_round_trip(self):
        trace = Trace()
        trace.add(span(0, TaskKind.ATTENTION, 0, 0.0, 1.0))
        trace.add(span(1, TaskKind.INTER_COMM, 1, 0.5, 2.5))
        restored = Trace.from_json(trace.to_json())
        assert restored.spans == trace.spans
        assert restored.makespan_s == trace.makespan_s

    def test_round_trip_preserves_aborted_flag(self):
        trace = Trace()
        trace.add(
            TraceSpan(
                task_id=0, name="t", kind=TaskKind.LINEAR, rank=2,
                start_s=0.0, end_s=1.5, aborted=True,
            )
        )
        restored = Trace.from_json(trace.to_json())
        assert restored.spans[0].aborted
        assert restored.aborted_spans == trace.aborted_spans

    def test_missing_aborted_key_defaults_false(self):
        # Traces exported before the dynamics subsystem lack the flag.
        row = span(0, TaskKind.ATTENTION, 0, 0.0, 1.0).to_dict()
        del row["aborted"]
        assert not TraceSpan.from_dict(row).aborted


class TestSummarizeTrace:
    def test_summary_from_simulated_plan(self):
        plan = ExecutionPlan()
        a = plan.add("attn", TaskKind.ATTENTION, 2.0, ("compute:0",), rank=0)
        plan.add("comm", TaskKind.INTER_COMM, 1.0, ("nic:0:tx",), deps=[a], rank=0)
        plan.add("attn1", TaskKind.ATTENTION, 1.5, ("compute:1",), rank=1)
        result = simulate(plan)
        summary = summarize_trace(result.trace)
        assert summary["makespan_s"] == pytest.approx(3.0)
        assert summary["total_attention_s"] == pytest.approx(3.5)
        assert summary["total_inter_comm_s"] == pytest.approx(1.0)
        assert summary["max_rank_compute_s"] == pytest.approx(2.0)

    def test_summary_of_empty_trace(self):
        summary = summarize_trace(Trace())
        assert summary["makespan_s"] == 0.0
        assert "max_rank_compute_s" not in summary
