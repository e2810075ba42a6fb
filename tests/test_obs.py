"""Tests for repro.obs: hub, sketches, events, export, and non-interference.

The load-bearing guarantees pinned here:

* the P² :class:`LatencySketch` stays O(1) past its exact threshold while
  keeping p50/p95/p99 within 1% of exact on a million-sample stream;
* every emitted event validates against the versioned schema;
* telemetry never changes a result byte — sweeps, serves and resilience
  runs produce identical JSON with telemetry on or off;
* producers report to one channel, the ambient hub installed by
  ``telemetry_scope`` — no entry point takes a ``telemetry`` argument, and
  forked process-backend workers write nothing to the parent's log.
"""

import inspect
import json
import math
import random
from collections import Counter

import pytest

from repro.api import Session
from repro.cli import main
from repro.dynamics import (
    ElasticRepartition,
    NodeFailure,
    PerturbationSchedule,
    run_resilient,
)
from repro.exec import SweepSpec, execute_payload, execute_point, run_sweep
from repro.exec.backends import ExecutionBackend
from repro.exec.worker import SessionPool
from repro.exec.cluster import run_jobs
from repro.obs import (
    TELEMETRY_OFF,
    EVENT_SCHEMA_VERSION,
    LatencySketch,
    P2Quantile,
    Telemetry,
    WindowedRate,
    current_telemetry,
    telemetry_scope,
    validate_event,
)
from repro.obs.core import NullTelemetry, SpanHandle
from repro.obs.events import make_event
from repro.obs.export import (
    JsonlSink,
    ListSink,
    read_events,
    render_report,
    summarize_events,
)
from repro.obs.sketch import exact_percentile
from repro.serve import ServeSimulation, ServeSpec, run_serve
from repro.serve.batcher import Batcher
from repro.sim.batch import simulate_batch, simulate_many


def tiny_spec(strategies=("te_cp", "zeppelin")):
    return SweepSpec(
        base={
            "model": "3b",
            "num_gpus": 8,
            "total_context": 32 * 1024,
            "num_steps": 1,
            "seed": 0,
            "strategy_kwargs": {},
            "label": None,
            "perturbation": None,
            "recovery": "checkpoint_restart",
            "num_iterations": 4,
        },
        axes={"strategy": tuple(strategies)},
    )


class TestExactPercentile:
    def test_matches_numpy_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(values, 0) == 1.0
        assert exact_percentile(values, 50) == 2.5
        assert exact_percentile(values, 100) == 4.0
        assert exact_percentile([], 95) == 0.0
        assert exact_percentile([7.0], 42) == 7.0

    def test_rejects_nan_and_bad_q(self):
        with pytest.raises(ValueError, match="NaN"):
            exact_percentile([1.0, float("nan")], 50)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            exact_percentile([1.0], 150)

    def test_exact_rank_sidesteps_inf_times_zero(self):
        # frac == 0.0 must not interpolate: inf * 0.0 is nan.
        assert exact_percentile([1.0, 2.0, float("inf")], 50) == 2.0
        assert exact_percentile([1.0, float("inf")], 100) == float("inf")


class TestP2Quantile:
    def test_exact_below_six_samples(self):
        est = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            est.add(v)
        assert est.value() == 3.0
        assert P2Quantile(0.9).value() == 0.0  # empty stream

    def test_rejects_nan_and_bad_quantile(self):
        with pytest.raises(ValueError, match="NaN"):
            P2Quantile(0.5).add(float("nan"))
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            P2Quantile(1.0)

    def test_deterministic(self):
        rng = random.Random(3)
        values = [rng.expovariate(1.0) for _ in range(5000)]
        a, b = P2Quantile(0.95), P2Quantile(0.95)
        for v in values:
            a.add(v)
            b.add(v)
        assert a.value() == b.value()


class TestLatencySketch:
    def test_exact_below_threshold(self):
        rng = random.Random(11)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(500)]
        sketch = LatencySketch()
        for v in values:
            sketch.add(v)
        assert sketch.exact
        for q in (50.0, 95.0, 99.0):
            assert sketch.quantile(q) == exact_percentile(values, q)
        summary = sketch.summary()
        assert summary["mean_latency_s"] == pytest.approx(sum(values) / len(values))
        assert summary["max_latency_s"] == max(values)

    def test_million_samples_o1_memory_within_one_percent(self):
        # The acceptance bar: 1e6 samples, no sample list retained, and
        # p50/p95/p99 each within 1% of the exact percentile.
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(1_000_000)]
        sketch = LatencySketch()
        for v in values:
            sketch.add(v)
        assert not sketch.exact  # the sample list was dropped: O(1) state
        assert sketch._samples is None
        assert sketch.count == len(values)
        ordered = sorted(values)
        for q in (50.0, 95.0, 99.0):
            exact = exact_percentile(ordered, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) / exact < 0.01, (q, estimate, exact)

    def test_untracked_quantile_raises_past_threshold(self):
        sketch = LatencySketch(exact_threshold=4)
        for v in range(10):
            sketch.add(float(v))
        with pytest.raises(KeyError, match="not tracked"):
            sketch.quantile(42.0)

    def test_summary_shape_matches_serve_metrics(self):
        assert set(LatencySketch().summary()) == {
            "mean_latency_s",
            "p50_latency_s",
            "p95_latency_s",
            "p99_latency_s",
            "max_latency_s",
        }


class TestWindowedRate:
    def test_trailing_window_rate(self):
        rate = WindowedRate(window_s=10.0, buckets=10)
        for t in range(10):
            rate.add(float(t))
        # All ten events are inside the window; the stream is 9s old.
        assert rate.rate(9.0) == pytest.approx(10.0 / 9.0)
        assert rate.total == 10

    def test_old_buckets_expire(self):
        rate = WindowedRate(window_s=10.0, buckets=10)
        rate.add(0.0, n=100)
        rate.add(50.0)
        assert rate.rate(50.0) == pytest.approx(1.0 / 10.0)

    def test_young_stream_uses_actual_age(self):
        rate = WindowedRate(window_s=10.0, buckets=10)
        rate.add(0.5, n=4)
        assert rate.rate(2.0) == pytest.approx(2.0)  # 4 events / 2s, not /10s

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedRate(window_s=0.0)
        with pytest.raises(ValueError):
            WindowedRate(buckets=0)


class TestTelemetryHub:
    def test_spans_nest_and_time(self):
        clock = iter([0.0, 0.0, 1.0, 3.0, 6.0]).__next__
        tele = Telemetry(clock=clock)
        with tele.span("sweep") as outer:
            with tele.span("point") as inner:
                pass
        assert inner.path == "sweep/point"
        assert inner.elapsed_s == pytest.approx(2.0)
        assert outer.path == "sweep"
        assert outer.elapsed_s == pytest.approx(6.0)

    def test_counters_and_gauges(self):
        tele = Telemetry()
        tele.counter("hits")
        tele.counter("hits", 2)
        tele.gauge("depth", 3.0)
        tele.gauge("depth", 1.0)
        assert tele.counters == {"hits": 3}
        assert tele.gauges == {"depth": 1.0}

    def test_events_reach_sink_and_validate(self):
        sink = ListSink()
        tele = Telemetry(sink=sink)
        tele.event("cache_hit", scope="sweep", index=3)
        with tele.span("sweep"):
            pass
        tele.counter("points_executed", 5)
        tele.close()  # flushes final counter values
        assert [e["type"] for e in sink.events] == ["cache_hit", "span", "counter"]
        for event in sink.events:
            validate_event(event)
        assert sink.events[0]["v"] == EVENT_SCHEMA_VERSION

    def test_null_hub_is_inert(self):
        off = TELEMETRY_OFF
        assert not off.enabled
        with off.span("anything") as span:
            pass
        assert span.elapsed_s == 0.0
        off.counter("x")
        off.gauge("y", 1.0)
        off.event("cache_hit", scope="s")
        assert off.counters == {} and off.gauges == {}

    def test_stopwatch_always_measures(self):
        tele = Telemetry()
        assert tele.stopwatch() is tele
        watch = TELEMETRY_OFF.stopwatch()
        assert watch is not TELEMETRY_OFF and watch.enabled

    def test_scope_installs_and_restores_the_ambient_hub(self):
        hub = Telemetry()
        assert current_telemetry() is TELEMETRY_OFF  # ambient default is off
        with telemetry_scope(hub):
            assert current_telemetry() is hub
            with telemetry_scope(TELEMETRY_OFF):
                assert current_telemetry() is TELEMETRY_OFF
            assert current_telemetry() is hub
        assert current_telemetry() is TELEMETRY_OFF
        with pytest.raises(RuntimeError):
            with telemetry_scope(hub):
                raise RuntimeError("boom")
        assert current_telemetry() is TELEMETRY_OFF

    def test_context_manager_closes_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Telemetry(sink=JsonlSink(path)) as tele:
            tele.event("cache_miss", scope="sweep")
        events = read_events(path)
        assert [e["type"] for e in events] == ["cache_miss"]


class TestEventSchema:
    def test_make_event_envelope(self):
        event = make_event("cache_hit", 1.5, scope="sweep")
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["type"] == "cache_hit"
        assert event["t"] == 1.5
        validate_event(event)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            make_event("made_up", 0.0)
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"v": 1, "type": "made_up", "t": 0.0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            validate_event({"v": 1, "type": "cache_hit", "t": 0.0})

    def test_extra_fields_allowed(self):
        validate_event(
            {"v": 1, "type": "cache_hit", "t": 0.0, "scope": "s", "extra": 1}
        )

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            validate_event({"v": 999, "type": "cache_hit", "t": 0.0, "scope": "s"})


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.emit(make_event("sweep_start", 0.0, backend="serial", num_points=2))
        sink.emit(make_event("cache_hit", 0.1, scope="sweep"))
        sink.close()
        events = read_events(path)
        assert len(events) == 2
        assert events[0]["backend"] == "serial"
        with pytest.raises(ValueError, match="closed"):
            sink.emit({})

    def test_read_events_flags_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1, "type": "cache_hit", "t": 0.0}\n')  # no scope
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_events(path)
        assert len(read_events(path, validate=False)) == 1
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_events(path)
        with pytest.raises(ValueError):  # parse errors raise even unvalidated
            read_events(path, validate=False)
        path.write_text("")
        assert read_events(path) == []

    def test_summarize_and_render_report(self):
        events = [
            make_event("sweep_start", 0.0, backend="serial", num_points=2),
            make_event("cache_hit", 0.1, scope="sweep"),
            make_event("cache_miss", 0.2, scope="sweep"),
            make_event("span", 0.5, name="sweep/point", dur_s=0.25),
            make_event("job_submit", 0.6, job="j0", attempt=0),
            make_event("job_complete", 0.9, job="j0"),
            make_event("request_complete", 1.0, request=1, vt=1.0, latency_s=0.5),
            make_event("batch_simulate", 1.1, lanes=64, deduped=12, structures=2),
            make_event("counter", 1.2, name="points_executed", value=2),
        ]
        summary = summarize_events(events)
        assert summary["num_events"] == 9
        assert summary["duration_s"] == pytest.approx(1.2)
        assert summary["cache"]["sweep"] == {"hits": 1, "misses": 1}
        assert summary["jobs"]["submitted"] == 1
        assert summary["jobs"]["completed"] == 1
        assert summary["requests"]["completed"] == 1
        assert summary["batch"] == {
            "calls": 1,
            "lanes": 64,
            "deduped": 12,
            "structures": 2,
        }
        assert summary["spans"]["sweep/point"]["total_s"] == pytest.approx(0.25)
        report = render_report(summary)
        assert "sweep/point" in report
        assert "points_executed" in report
        assert "batch simulate" in report

    def test_nested_spans_report_self_time(self):
        events = [
            make_event("span", 0.1, name="sweep/point/execute", dur_s=0.5),
            make_event("span", 0.2, name="sweep/point/execute", dur_s=0.25),
            make_event("span", 0.3, name="sweep/point", dur_s=1.0),
            make_event("span", 0.4, name="sweep", dur_s=2.0),
            make_event("span", 0.5, name="sweep/cache", dur_s=0.5),
        ]
        spans = summarize_events(events)["spans"]
        assert spans["sweep/point/execute"]["total_s"] == pytest.approx(0.75)
        assert spans["sweep/point/execute"]["self_s"] == pytest.approx(0.75)
        assert spans["sweep/point"]["self_s"] == pytest.approx(0.25)
        # Direct children only: sweep/point/execute is not subtracted twice.
        assert spans["sweep"]["self_s"] == pytest.approx(0.5)
        assert spans["sweep/cache"]["self_s"] == pytest.approx(0.5)
        assert sum(e["self_s"] for e in spans.values()) == pytest.approx(2.0)
        cells = [
            [cell.strip() for cell in line.split("|")]
            for line in render_report(summarize_events(events)).splitlines()
        ]
        rows = {row[0]: row[1:] for row in cells if row[0].startswith("sweep")}
        # count, total_s, self_s, share: shares come from self time.
        assert rows["sweep"] == ["1", "2.000", "0.500", "25.0%"]
        assert rows["sweep/point"] == ["1", "1.000", "0.250", "12.5%"]
        assert rows["sweep/point/execute"] == ["2", "0.750", "0.750", "37.5%"]
        assert rows["sweep/cache"] == ["1", "0.500", "0.500", "25.0%"]


class TestTelemetryNeverChangesResults:
    def test_sweep_results_byte_identical(self):
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = run_sweep(tiny_spec())
        plain = run_sweep(tiny_spec())
        assert observed.to_json(include_timing=False) == plain.to_json(
            include_timing=False
        )
        types = {e["type"] for e in sink.events}
        assert {"sweep_start", "point_start", "point_finish", "sweep_finish"} <= types
        for event in sink.events:
            validate_event(event)

    def test_serve_results_byte_identical(self):
        session = Session(model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1)
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = session.serve(("te_cp",), rate=4, duration_s=5)
        plain = Session(
            model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1
        ).serve(("te_cp",), rate=4, duration_s=5)
        assert observed.to_json() == plain.to_json()
        types = {e["type"] for e in sink.events}
        assert {"request_enqueue", "request_dispatch", "request_complete"} <= types
        for event in sink.events:
            validate_event(event)
        completes = [e for e in sink.events if e["type"] == "request_complete"]
        assert len(completes) == observed.completed

    def test_serve_shed_and_scale_events_validate(self):
        spec = ServeSpec(
            mix=("zeppelin",),
            arrival="closed",
            clients=64,
            think_time_s=0.05,
            duration_s=20.0,
            slo_s=2.0,
            admission="slo_aware",
            scale_policy="queue_depth",
            min_gpus=16,
            max_gpus=64,
        )

        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = Session(
                model="3b",
                num_gpus=16,
                total_context=32 * 1024,
                num_steps=1,
                seed=3,
            ).serve(spec)
        plain = Session(
            model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1, seed=3
        ).serve(spec)
        assert observed.to_json() == plain.to_json()
        for event in sink.events:
            validate_event(event)
        sheds = [e for e in sink.events if e["type"] == "request_shed"]
        ups = [e for e in sink.events if e["type"] == "scale_up"]
        downs = [e for e in sink.events if e["type"] == "scale_down"]
        assert len(sheds) == observed.shed_count > 0
        assert len(ups) == observed.scale_up_count > 0
        assert len(downs) == observed.scale_down_count
        assert all(e["gpus"] in (16, 32, 64) for e in ups + downs)

    def test_cluster_sweep_job_events_and_identity(self, tmp_path):
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = run_sweep(
                tiny_spec(),
                backend="cluster",
                jobs=2,
                backend_options={
                    "batch_system": "fake",
                    "workdir": tmp_path / "a",
                    "cache_dir": tmp_path / "a-cache",
                },
            )
        plain = run_sweep(
            tiny_spec(),
            backend="cluster",
            jobs=2,
            backend_options={
                "batch_system": "fake",
                "workdir": tmp_path / "b",
                "cache_dir": tmp_path / "b-cache",
            },
        )
        a = json.loads(observed.to_json(include_timing=False))
        b = json.loads(plain.to_json(include_timing=False))
        for doc in (a, b):
            doc["meta"].pop("workdir")
            doc["meta"].pop("point_cache_dir")
        assert a == b  # telemetry-on is byte-identical modulo paths/timing
        for event in sink.events:
            validate_event(event)
        types = {e["type"] for e in sink.events}
        assert {"round_start", "round_finish", "job_submit", "job_complete"} <= types
        submits = [e for e in sink.events if e["type"] == "job_submit"]
        completes = [e for e in sink.events if e["type"] == "job_complete"]
        assert len(submits) == len(completes) == 2  # one lifecycle per job

    def test_resilience_events_and_identity(self):
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = Session(
                model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1
            ).run("zeppelin", perturbation={"mttf_s": 5.0}, num_iterations=8)
        plain = Session(
            model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1
        ).run("zeppelin", perturbation={"mttf_s": 5.0}, num_iterations=8)
        assert observed.to_json() == plain.to_json()
        failures = [e for e in sink.events if e["type"] == "failure"]
        recoveries = [e for e in sink.events if e["type"] == "recovery"]
        assert len(failures) == observed.num_failures > 0
        assert len(recoveries) == observed.restart_count
        for event in sink.events:
            validate_event(event)

    def test_no_entry_point_takes_a_telemetry_argument(self):
        entry_points = (
            Session.__init__,
            run_sweep,
            execute_point,
            execute_payload,
            run_jobs,
            ServeSimulation.__init__,
            run_serve,
            Batcher.__init__,
            run_resilient,
            simulate_batch,
            simulate_many,
        )
        for fn in entry_points:
            assert "telemetry" not in inspect.signature(fn).parameters, fn
        with pytest.raises(TypeError, match="telemetry"):
            Session(model="3b", num_gpus=8, telemetry=Telemetry())
        session = Session(model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1)
        with pytest.raises(TypeError, match="telemetry"):
            session.serve(("te_cp",), rate=4, duration_s=5, telemetry=Telemetry())
        assert not hasattr(session, "telemetry")
        assert not hasattr(ExecutionBackend, "telemetry")
        assert not hasattr(Telemetry(), "span_totals")
        assert not hasattr(SpanHandle, "checkpoint")

    def test_meta_timing_isolated(self):
        sweep = run_sweep(tiny_spec())
        assert sweep.meta["timing"]["wall_time_s"] > 0
        assert "wall_time_s" not in sweep.meta
        doc = json.loads(sweep.to_json(include_timing=False))
        assert "timing" not in doc["meta"]


class TestAmbientChannel:
    """Every producer reports to the hub installed by ``telemetry_scope``."""

    def test_execute_point_reports_once_to_the_ambient_hub(self):
        point = tiny_spec().points()[0]
        plain = execute_point(point).to_dict()
        sink = ListSink()
        # A fresh pool: the plans the first call left in the default pool
        # would answer every simulation from their makespan memos.
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = execute_point(point, pool=SessionPool()).to_dict()
        assert observed == plain
        assert tele.counters["points_executed"] == 1
        spans = [e["name"] for e in sink.events if e["type"] == "span"]
        assert spans == ["execute"]
        # The batch kernel reaches the same hub without a second scope.
        kernel = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert len(kernel) == 1
        assert tele.counters["batch_lanes"] == kernel[0]["lanes"]

    def test_process_worker_entry_runs_unobserved(self):
        from repro.exec.backends import _execute_unobserved

        payload = tiny_spec().points()[1].to_dict()
        plain = execute_payload(payload)
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = _execute_unobserved(payload)
            assert current_telemetry() is tele  # the parent's hub is back
        assert observed == plain
        assert sink.events == []
        assert tele.counters == {}

    def test_process_sweep_is_observed_at_sweep_level(self):
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            observed = run_sweep(tiny_spec(), backend="process", jobs=2)
        plain = run_sweep(tiny_spec())
        a = json.loads(observed.to_json(include_timing=False))
        b = json.loads(plain.to_json(include_timing=False))
        assert (a["meta"].pop("backend"), b["meta"].pop("backend")) == (
            "process",
            "serial",
        )
        a["meta"].pop("jobs")
        b["meta"].pop("jobs")
        assert a == b
        counts = Counter(e["type"] for e in sink.events)
        assert counts["sweep_start"] == counts["sweep_finish"] == 1
        for worker_event in ("point_start", "point_finish", "batch_simulate"):
            assert counts[worker_event] == 0
        assert "points_executed" not in tele.counters

    def test_serial_sweep_emits_one_point_lifecycle_per_executed_point(self):
        spec = tiny_spec(strategies=("te_cp", "zeppelin", "te_cp"))
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            sweep = run_sweep(spec)
        assert sweep.meta["deduped"] == 1
        starts = [e["index"] for e in sink.events if e["type"] == "point_start"]
        finishes = [e["index"] for e in sink.events if e["type"] == "point_finish"]
        assert starts == finishes == [0, 1]
        spans = Counter(e["name"] for e in sink.events if e["type"] == "span")
        assert spans == {"sweep": 1, "sweep/point": 2, "sweep/point/execute": 2}
        assert tele.counters["points_executed"] == 2
        finish = [e for e in sink.events if e["type"] == "sweep_finish"][0]
        assert finish["executed"] == 2

    def test_serve_simulation_reads_the_hub_when_it_runs(self):
        session = Session(model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1)
        simulation = ServeSimulation(
            session, ServeSpec(mix=("te_cp", "zeppelin"), rate=4, duration_s=5)
        )
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            result = simulation.run()
        completes = [e for e in sink.events if e["type"] == "request_complete"]
        assert len(completes) == result.completed > 0
        # The batcher's executions report through the same hub: one
        # executed point per simulation, none for cache hits.
        assert tele.counters["points_executed"] == result.simulations > 0
        assert result.simulations == simulation.batcher.simulations_executed

    def test_derived_session_reports_to_the_ambient_hub(self):
        session = Session(model="3b", num_gpus=8, total_context=32 * 1024, num_steps=1)
        child = session.derive(num_gpus=16)
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            child.run("te_cp")
        assert [e["type"] for e in sink.events].count("batch_simulate") == 1
        assert tele.counters["batch_lanes"] > 0
        assert current_telemetry() is TELEMETRY_OFF
        sink.events.clear()
        child.run("te_cp")  # outside the scope nothing reaches the hub
        assert sink.events == []

    def test_run_resilient_reports_each_handled_fault(self):
        session = Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)
        schedule = PerturbationSchedule(events=(NodeFailure(time_s=0.5, node_id=1),))
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            report = run_resilient(
                session,
                "zeppelin",
                schedule=schedule,
                policy=ElasticRepartition(replan_cost_s=1.0),
                num_iterations=6,
            )
        failures = [e for e in sink.events if e["type"] == "failure"]
        recoveries = [e for e in sink.events if e["type"] == "recovery"]
        assert len(failures) == report.num_failures == 1
        assert len(recoveries) == report.restart_count == 1
        for event in failures + recoveries:
            validate_event(event)


class TestObsCli:
    _SWEEP = [
        "sweep", "--model", "3b", "--gpus", "8", "--context-k", "32",
        "--steps", "1", "--strategies", "te_cp", "zeppelin", "--no-cache",
    ]

    def test_sweep_telemetry_flag_and_report(self, tmp_path, capsys):
        log = tmp_path / "tel.jsonl"
        assert main(self._SWEEP + ["--telemetry", str(log), "--json"]) == 0
        observed = json.loads(capsys.readouterr().out)
        events = read_events(log)  # validates every line against the schema
        types = {e["type"] for e in events}
        assert {"sweep_start", "sweep_finish", "point_start", "counter"} <= types
        assert main(self._SWEEP + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        observed["meta"].pop("timing")
        plain["meta"].pop("timing")
        assert observed == plain  # telemetry never enters the result
        assert main(["obs", "report", str(log)]) == 0
        report = capsys.readouterr().out
        assert "sweep/point" in report and "event" in report

    def test_process_sweep_workers_write_nothing_to_the_log(self, tmp_path, capsys):
        # Large enough that a forked worker emitting events would fill, and
        # so flush, the buffer of the JSONL sink it inherits: the parent's
        # buffered sweep_start would reach the log again with the worker's
        # own batch_simulate events.
        grid = [
            "sweep", "--model", "3b", "--gpus", "8",
            "--context-k", *(str(k) for k in range(4, 81, 2)),
            "--datasets", "arxiv", "github",
            "--strategies", "te_cp", "llama_cp", "hybrid_dp",
            "--steps", "1", "--jobs", "2", "--no-cache", "--json",
        ]
        log = tmp_path / "proc.jsonl"
        assert main(grid + ["--telemetry", str(log)]) == 0
        observed = json.loads(capsys.readouterr().out)
        assert observed["meta"]["backend"] == "process"
        assert observed["meta"]["executed_points"] == 234
        counts = Counter(e["type"] for e in read_events(log))
        assert counts["sweep_start"] == 1
        assert counts["sweep_finish"] == 1
        assert counts["batch_simulate"] == 0
        assert main(grid) == 0
        plain = json.loads(capsys.readouterr().out)
        observed["meta"].pop("timing")
        plain["meta"].pop("timing")
        assert observed == plain

    def test_obs_report_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert main(["obs", "report", str(bad)]) == 2
        assert "unparseable" in capsys.readouterr().err

    def test_progress_requires_cluster_backend(self, capsys):
        assert main(self._SWEEP + ["--progress"]) == 2
        assert "--progress" in capsys.readouterr().err
