"""Tests for repro.serve: arrivals, queueing, batching, metrics and the CLI."""

import collections
import json
import random

import pytest

from repro.api import Session
from repro.cli import CONFIG_ERROR_EXIT_CODE, build_parser, main
from repro.exec.spec import SweepPoint
from repro.results import ServeResult, result_from_dict
from repro.serve.arrivals import (
    ClosedLoopArrivals,
    PoissonArrivals,
    Request,
    RequestCell,
    TraceArrivals,
    as_arrival,
    as_mix,
)
from repro.serve.batcher import Batcher
from repro.serve.driver import ServeSimulation
from repro.serve.metrics import QueueDepthTracker, percentile
from repro.serve.queue import (
    AdmissionContext,
    RequestQueue,
    as_admission,
)
from repro.serve.spec import ServeSpec


def tiny_session(seed=0, **overrides):
    """A fast serving session: 3B model, 16 GPUs, 32k context, one step."""
    params = dict(
        model="3b",
        num_gpus=16,
        dataset="arxiv",
        total_context=32 * 1024,
        num_steps=1,
        seed=seed,
    )
    params.update(overrides)
    return Session(**params)


MIX = {"zeppelin": 2.0, "te_cp": 1.0}


@pytest.fixture
def call_counts(monkeypatch):
    """Count identity encodes and queued-work sums for the test's duration."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        SweepPoint,
        "canonical_json",
        counted("canonical_json", SweepPoint.canonical_json),
    )
    monkeypatch.setattr(
        RequestQueue,
        "queued_work_s",
        counted("queued_work_s", RequestQueue.queued_work_s),
    )
    return counts


class TestArrivals:
    def test_same_seed_same_schedule(self):
        mix = as_mix(MIX)
        process = PoissonArrivals(rate=25.0)
        a = process.schedule(mix, duration_s=10.0, seed=7)
        b = process.schedule(mix, duration_s=10.0, seed=7)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.cell for r in a] == [r.cell for r in b]

    def test_different_seed_different_schedule(self):
        mix = as_mix(MIX)
        process = PoissonArrivals(rate=25.0)
        a = process.schedule(mix, duration_s=10.0, seed=0)
        b = process.schedule(mix, duration_s=10.0, seed=1)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_schedule_sorted_within_window_and_rids_sequential(self):
        schedule = PoissonArrivals(rate=50.0).schedule(as_mix("zeppelin"), 5.0, seed=3)
        times = [r.arrival_s for r in schedule]
        assert times == sorted(times)
        assert all(0 <= t < 5.0 for t in times)
        assert [r.rid for r in schedule] == list(range(len(schedule)))

    def test_rate_scales_request_count(self):
        mix = as_mix("zeppelin")
        low = PoissonArrivals(rate=2.0).schedule(mix, 30.0, seed=0)
        high = PoissonArrivals(rate=40.0).schedule(mix, 30.0, seed=0)
        assert len(high) > 5 * len(low)

    def test_mix_draws_follow_weights(self):
        mix = as_mix({"zeppelin": 9.0, "te_cp": 1.0})
        schedule = PoissonArrivals(rate=100.0).schedule(mix, 20.0, seed=0)
        strategies = [r.cell.strategy for r in schedule]
        assert set(strategies) == {"zeppelin", "te_cp"}
        assert strategies.count("zeppelin") > strategies.count("te_cp") * 3

    def test_trace_replay_once(self):
        trace = TraceArrivals([0.5, 1.5, 2.5])
        assert trace.arrival_times(2.0, random.Random(0)) == [0.5, 1.5]

    def test_trace_tiles_with_period(self):
        trace = TraceArrivals([0.0, 0.25], period=1.0)
        assert trace.arrival_times(2.0, random.Random(0)) == [0.0, 0.25, 1.0, 1.25]

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            TraceArrivals([])
        with pytest.raises(ValueError):
            TraceArrivals([-1.0])
        with pytest.raises(ValueError):
            TraceArrivals([0.0, 2.0], period=1.5)

    def test_as_arrival_builds_poisson_by_default(self):
        assert as_arrival(None, rate=3.0).rate == 3.0
        assert as_arrival("poisson", rate=5.0).rate == 5.0
        with pytest.raises(ValueError):
            as_arrival("trace")

    def test_cell_rejects_unknown_override_and_bad_weight(self):
        with pytest.raises(ValueError, match="override"):
            RequestCell("zeppelin", overrides={"not_a_field": 1})
        with pytest.raises(ValueError, match="weight"):
            RequestCell("zeppelin", weight=0.0)

    def test_cell_overrides_every_session_field_but_the_seed(self):
        """The seed belongs to the serve run, not to a request."""
        from repro.exec.spec import SESSION_FIELDS

        for field in SESSION_FIELDS:
            if field == "seed":
                with pytest.raises(ValueError, match="override"):
                    RequestCell("zeppelin", overrides={field: 1})
            else:
                cell = RequestCell("zeppelin", overrides={field: 1})
                assert cell.override_dict() == {field: 1}

    def test_as_mix_forms(self):
        from_names = as_mix(("te_cp", "zeppelin"))
        assert [c.strategy for c in from_names.cells] == ["te_cp", "zeppelin"]
        from_mapping = as_mix({"zeppelin": 2.0})
        assert from_mapping.cells[0].weight == 2.0
        with pytest.raises(ValueError):
            as_mix(())


class TestQueueAndAdmission:
    @staticmethod
    def _request(rid, arrival_s, priority=0, strategy="zeppelin"):
        return Request(
            rid=rid,
            arrival_s=arrival_s,
            cell=RequestCell(strategy, priority=priority),
        )

    def test_fifo_pops_in_arrival_order(self):
        queue = RequestQueue("fifo", concurrency=1)
        for rid, t in ((0, 2.0), (1, 0.5), (2, 1.0)):
            queue.push(self._request(rid, t))
        assert [queue.pop().rid for _ in range(3)] == [1, 2, 0]

    def test_priority_pops_high_priority_first(self):
        queue = RequestQueue("priority", concurrency=1)
        queue.push(self._request(0, 0.0, priority=0))
        queue.push(self._request(1, 1.0, priority=5))
        queue.push(self._request(2, 2.0, priority=5))
        assert [queue.pop().rid for _ in range(3)] == [1, 2, 0]

    def test_can_dispatch_respects_concurrency(self):
        queue = RequestQueue("fifo", concurrency=2)
        queue.push(self._request(0, 0.0))
        assert queue.can_dispatch(in_flight=0)
        assert queue.can_dispatch(in_flight=1)
        assert not queue.can_dispatch(in_flight=2)
        queue.pop()
        assert not queue.can_dispatch(in_flight=0)  # nothing queued

    def test_take_matching_removes_only_matching_up_to_limit(self):
        queue = RequestQueue("fifo", concurrency=1)
        for rid in range(4):
            queue.push(self._request(rid, float(rid), strategy="zeppelin"))
        queue.push(self._request(9, 0.25, strategy="te_cp"))
        cell = RequestCell("zeppelin")
        taken = queue.take_matching(cell, limit=2)
        assert [r.rid for r in taken] == [0, 1]
        assert queue.depth == 3
        assert queue.pop().rid == 9  # the te_cp request was untouched

    def test_as_admission_and_validation(self):
        assert as_admission(None).name == "fifo"
        for name in ("fifo", "priority", "slo_aware"):
            assert as_admission(name).name == name
        with pytest.raises(ValueError):
            RequestQueue("fifo", concurrency=0)


class TestMetrics:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == 2.5
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101)

    def test_percentile_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, float("nan"), 3.0], 50)

    def test_percentile_handles_infinities(self):
        values = [1.0, 2.0, float("inf")]
        # p50 lands exactly on the middle rank: no inf * 0.0 -> nan blowup.
        assert percentile(values, 50) == 2.0
        assert percentile(values, 100) == float("inf")
        assert percentile([float("-inf"), 0.0, 1.0], 0) == float("-inf")

    def test_queue_depth_tracker_integrates(self):
        tracker = QueueDepthTracker()
        tracker.sample(1.0, 2)  # depth 0 over [0, 1)
        tracker.sample(3.0, 0)  # depth 2 over [1, 3)
        assert tracker.max_depth == 2
        assert tracker.mean_depth(4.0) == pytest.approx(1.0)  # 4 depth-seconds / 4
        assert tracker.timeline() == ((0.0, 0), (1.0, 2), (3.0, 0))

    def test_queue_depth_tracker_rejects_time_backwards(self):
        tracker = QueueDepthTracker()
        tracker.sample(3.0, 1)
        with pytest.raises(ValueError, match="time went backwards"):
            tracker.sample(2.0, 1)
        # Equal timestamps are fine: multiple events at one virtual instant.
        tracker.sample(3.0, 2)
        assert tracker.max_depth == 2


class TestServeSimulation:
    def test_no_request_starts_before_arrival_and_all_complete(self):
        sim = ServeSimulation(
            tiny_session(), ServeSpec(mix=MIX, rate=30.0, duration_s=5.0)
        )
        result = sim.run()
        assert result.completed == result.num_requests == len(sim.requests)
        for request in sim.requests:
            assert request.start_s is not None and request.finish_s is not None
            assert request.start_s >= request.arrival_s
            assert request.finish_s >= request.start_s

    def test_concurrency_limit_never_exceeded(self):
        # A large cache-hit cost keeps executions long so the limit binds.
        sim = ServeSimulation(
            tiny_session(),
            ServeSpec(
                mix=MIX,
                rate=40.0,
                duration_s=4.0,
                concurrency=2,
                max_batch=1,
                cache_hit_cost_s=0.2,
            ),
        )
        sim.run()
        events = []
        for batch in sim.executions:
            events.append((batch.start_s, 1))
            events.append((batch.finish_s, -1))
        active = peak = 0
        # A finish at time t frees its slot before a start at the same t.
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            active += delta
            peak = max(peak, active)
        assert peak <= 2
        assert len(sim.executions) > 2  # the limit actually bound

    def test_batcher_coalesces_same_cell_requests(self):
        sim = ServeSimulation(
            tiny_session(),
            ServeSpec(
                mix={"zeppelin": 1.0},
                rate=50.0,
                duration_s=4.0,
                concurrency=1,
                cache=False,
                max_batch=8,
            ),
        )
        result = sim.run()
        sizes = [batch.size for batch in sim.executions]
        assert max(sizes) > 1  # bursts were coalesced
        assert all(size <= 8 for size in sizes)
        assert result.batched_requests == sum(s - 1 for s in sizes)
        assert result.simulations == len(sim.executions)

    def test_priority_admission_never_overtaken_by_lower_priority(self):
        mix = (
            RequestCell("te_cp", weight=1.0, priority=0),
            RequestCell("zeppelin", weight=1.0, priority=5),
        )
        sim = ServeSimulation(
            tiny_session(),
            ServeSpec(
                mix=mix,
                rate=40.0,
                duration_s=3.0,
                admission="priority",
                concurrency=1,
                max_batch=1,
                cache_hit_cost_s=0.15,
            ),
        )
        sim.run()
        for batch in sim.executions:
            head = batch.requests[0]
            waiting = [
                r
                for r in sim.requests
                if r.arrival_s <= batch.start_s and r.start_s > batch.start_s
            ]
            assert all(w.priority <= head.priority for w in waiting)

    def test_cache_is_causal_no_answer_before_producing_simulation(self):
        # A dense single-cell burst: the first dispatch simulates, everyone
        # else must join that in-flight execution (or hit the cache after it
        # finishes) — nobody may complete before the producing simulation's
        # virtual finish.
        sim = ServeSimulation(
            tiny_session(),
            ServeSpec(
                mix={"zeppelin": 1.0},
                rate=50.0,
                duration_s=2.0,
                concurrency=4,
                max_batch=1,
            ),
        )
        sim.run()
        first = sim.executions[0]
        assert first.requests[0].served_by == "simulate"
        assert min(r.finish_s for r in sim.requests) >= first.finish_s
        joined = [b for b in sim.executions if b.requests[0].served_by == "batch"]
        hits = [b for b in sim.executions if b.cache_hit]
        assert joined and hits  # both regimes occurred
        for batch in joined:
            assert batch.start_s < first.finish_s <= batch.finish_s
        for batch in hits:
            assert batch.start_s >= first.finish_s

    def test_warm_cache_executes_fewer_simulations_than_cold(self):
        warm = ServeSimulation(
            tiny_session(), ServeSpec(mix=MIX, rate=25.0, duration_s=6.0, cache=True)
        ).run()
        cold = ServeSimulation(
            tiny_session(), ServeSpec(mix=MIX, rate=25.0, duration_s=6.0, cache=False)
        ).run()
        # Same schedule either way; the cache collapses repeated cells to one
        # simulation each while the cold run pays per batch.
        assert warm.num_requests == cold.num_requests
        assert warm.simulations == len(MIX)
        assert cold.simulations > warm.simulations
        assert warm.cache_hits > 0
        assert warm.cache_hit_rate == pytest.approx(
            warm.cache_hits / warm.completed
        )

    def test_serve_reuses_session_plan_cache(self):
        session = tiny_session()
        session.serve(MIX, rate=10.0, duration_s=2.0)
        warmed = session.plan_cache_size
        assert warmed > 0
        # A second serve over the same cells replans nothing.
        session.serve(MIX, rate=10.0, duration_s=2.0)
        assert session.plan_cache_size == warmed

    def test_slo_splits_goodput_from_throughput(self):
        session = tiny_session()
        result = session.serve(
            MIX, rate=30.0, duration_s=4.0, slo_s=1e-9, cache=False
        )
        assert result.goodput_rps < result.throughput_rps
        no_slo = session.serve(MIX, rate=30.0, duration_s=4.0, cache=False)
        assert no_slo.goodput_rps == no_slo.throughput_rps

    def test_trace_arrival_by_name_through_session_serve(self):
        result = tiny_session().serve(
            {"zeppelin": 1.0},
            arrival="trace",
            trace_times=(0.0, 0.5, 1.0),
            duration_s=2.0,
        )
        assert result.arrival == "trace"
        assert result.num_requests == 3

    def test_deterministic_across_fresh_sessions(self):
        a = tiny_session().serve(MIX, rate=20.0, duration_s=4.0)
        b = tiny_session().serve(MIX, rate=20.0, duration_s=4.0)
        assert a.to_json() == b.to_json()
        c = tiny_session(seed=1).serve(MIX, rate=20.0, duration_s=4.0)
        assert a.to_json() != c.to_json()

    def test_unknown_strategy_fails_before_simulating(self):
        with pytest.raises((ValueError, KeyError)):
            ServeSimulation(
                tiny_session(), ServeSpec(mix={"warp_drive": 1.0}, duration_s=1.0)
            )

    def test_invalid_knobs_rejected(self):
        session = tiny_session()
        with pytest.raises(ValueError):
            ServeSimulation(session, ServeSpec(mix=MIX, duration_s=0.0))
        with pytest.raises(ValueError):
            ServeSimulation(session, ServeSpec(mix=MIX, duration_s=1.0, slo_s=-1.0))
        with pytest.raises(ValueError):
            ServeSimulation(session, ServeSpec(mix=MIX, duration_s=1.0, max_batch=0))


class TestServeResult:
    def test_to_dict_to_json_round_trip(self):
        result = tiny_session().serve(MIX, rate=20.0, duration_s=3.0, slo_s=0.5)
        rebuilt = result_from_dict(json.loads(result.to_json()))
        assert isinstance(rebuilt, ServeResult)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.to_json() == result.to_json()

    def test_reported_metric_keys(self):
        data = tiny_session().serve(MIX, rate=10.0, duration_s=2.0).to_dict()
        for key in (
            "throughput_rps",
            "goodput_rps",
            "p50_latency_s",
            "p95_latency_s",
            "p99_latency_s",
            "cache_hit_rate",
            "mean_queue_depth",
            "max_queue_depth",
            "queue_depth_timeline",
        ):
            assert key in data

    def test_config_and_mix_are_frozen(self):
        mix = (RequestCell("zeppelin", overrides={"total_context": 16 * 1024}),)
        result = tiny_session().serve(mix, rate=10.0, duration_s=2.0)
        with pytest.raises(TypeError):
            result.config["model"] = "30b"
        with pytest.raises(TypeError):
            result.mix[0]["weight"] = 99.0
        # The freeze is deep: nested override dicts are immutable too.
        with pytest.raises(TypeError):
            result.mix[0]["overrides"]["total_context"] = 999
        json.loads(result.to_json())  # frozen views still serialise


SERVE_CLI = [
    "serve",
    "--model", "3b",
    "--context-k", "32",
    "--steps", "1",
    "--rate", "20",
    "--duration", "3",
]


class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.rate == 10.0
        assert args.duration == 60.0
        assert args.arrival == "poisson"
        assert args.admission == "fifo"
        assert args.concurrency == 4
        assert args.mix is None
        assert args.json is False

    def test_serve_json_reports_metrics(self, capsys):
        assert main(SERVE_CLI + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_requests"] == data["completed"] > 0
        assert data["throughput_rps"] > 0
        assert "p99_latency_s" in data and "cache_hit_rate" in data

    def test_serve_json_deterministic(self, capsys):
        assert main(SERVE_CLI + ["--seed", "0", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(SERVE_CLI + ["--seed", "0", "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_serve_table_output(self, capsys):
        assert main(SERVE_CLI + ["--mix", "zeppelin=3", "te_cp"]) == 0
        out = capsys.readouterr().out
        assert "p99_latency_s" in out
        assert "simulations" in out

    def test_unknown_mix_strategy_is_config_error(self, capsys):
        assert main(SERVE_CLI + ["--mix", "warp"]) == CONFIG_ERROR_EXIT_CODE
        assert "unknown strategy" in capsys.readouterr().err

    def test_trace_arrival_requires_file(self, capsys):
        code = main(SERVE_CLI + ["--arrival", "trace"])
        assert code == CONFIG_ERROR_EXIT_CODE
        assert "--trace-file" in capsys.readouterr().err

    def test_trace_arrival_from_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([0.0, 0.5, 1.0, 1.5]))
        code = main(SERVE_CLI + ["--arrival", "trace", "--trace-file", str(trace), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_requests"] == 4
        assert data["arrival"] == "trace"

    def test_list_shows_serving_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "arrival processes:" in out
        assert "admission policies:" in out
        assert "scale policies:" in out
        assert "poisson" in out and "trace" in out and "closed" in out
        assert "fifo" in out and "priority" in out and "slo_aware" in out
        assert "queue_depth" in out
        assert "fig14_serving" in out

    def test_closed_loop_autoscale_cli_json(self, capsys):
        cli = SERVE_CLI + [
            "--arrival", "closed",
            "--clients", "8",
            "--think-time", "0.2",
            "--slo", "3",
            "--admission", "slo_aware",
            "--scale-policy", "queue_depth",
            "--max-gpus", "32",
            "--json",
        ]
        assert main(cli) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["arrival"] == "closed"
        assert data["admission"] == "slo_aware"
        assert data["scale_policy"] == "queue_depth"
        assert data["capacity_timeline"][0] == [0.0, 16]
        assert data["completed"] + data["shed_count"] == data["num_requests"]


class TestServeSpec:
    def test_spec_and_kwarg_shim_byte_identical(self):
        spec = ServeSpec(mix=MIX, rate=20.0, duration_s=4.0, slo_s=1.0)
        via_spec = tiny_session().serve(spec)
        via_kwargs = tiny_session().serve(MIX, rate=20.0, duration_s=4.0, slo_s=1.0)
        assert via_spec.to_json() == via_kwargs.to_json()

    def test_spec_rejects_extra_knobs(self):
        spec = ServeSpec(duration_s=1.0)
        with pytest.raises(ValueError, match="knobs"):
            tiny_session().serve(spec, rate=5.0)

    def test_validation_on_construction(self):
        with pytest.raises(ValueError):
            ServeSpec(duration_s=0.0)
        with pytest.raises(ValueError):
            ServeSpec(slo_s=-1.0)
        with pytest.raises(ValueError):
            ServeSpec(coalesce_s=-0.1)
        with pytest.raises(ValueError):
            ServeSpec(clients=0)
        with pytest.raises(ValueError, match="min_gpus"):
            ServeSpec(min_gpus=64, max_gpus=16)
        with pytest.raises(TypeError):
            ServeSpec(bogus_knob=1)

    def test_replace_revalidates(self):
        spec = ServeSpec(mix=MIX, arrival="closed", clients=8)
        bigger = spec.replace(clients=16)
        assert bigger.clients == 16
        assert bigger == ServeSpec(mix=MIX, arrival="closed", clients=16)
        with pytest.raises(ValueError):
            spec.replace(clients=0)

    def test_component_instances_pass_through(self):
        spec = ServeSpec(arrival=PoissonArrivals(rate=3.0), admission="priority")
        assert spec.build_arrival().rate == 3.0


class TestClosedLoop:
    def test_runs_are_byte_identical_per_seed(self):
        spec = ServeSpec(
            mix=MIX, arrival="closed", clients=8, think_time_s=0.3, duration_s=6.0
        )
        a = tiny_session().serve(spec)
        b = tiny_session().serve(spec)
        assert a.arrival == "closed"
        assert a.to_json() == b.to_json()
        c = tiny_session(seed=1).serve(spec)
        assert a.to_json() != c.to_json()

    def test_clients_pace_on_their_own_completions(self):
        sim = ServeSimulation(
            tiny_session(),
            spec=ServeSpec(
                mix={"zeppelin": 1.0},
                arrival="closed",
                clients=4,
                think_time_s=0.2,
                duration_s=5.0,
            ),
        )
        sim.run()
        assert sim.requests and all(r.client is not None for r in sim.requests)
        by_client = {}
        for request in sim.requests:
            by_client.setdefault(request.client, []).append(request)
        assert len(by_client) <= 4
        for series in by_client.values():
            # A client's next request is issued only after its previous one
            # finished (or was shed) — never overlapping itself.
            for prev, nxt in zip(series, series[1:]):
                assert prev.finish_s is None or nxt.arrival_s > prev.finish_s
        # No arrivals past the horizon; completions may drain later.
        assert all(r.arrival_s < 5.0 for r in sim.requests)

    def test_pool_size_scales_offered_load(self):
        small = tiny_session().serve(
            ServeSpec(mix=MIX, arrival="closed", clients=2, duration_s=6.0)
        )
        large = tiny_session().serve(
            ServeSpec(mix=MIX, arrival="closed", clients=32, duration_s=6.0)
        )
        assert large.num_requests > 3 * small.num_requests

    def test_closed_arrival_has_no_precomputed_schedule(self):
        process = ClosedLoopArrivals(clients=3, think_time_s=0.5)
        assert process.schedule(as_mix(MIX), 5.0, seed=0) == ()
        clients = process.clients(as_mix(MIX), seed=0)
        assert [c.cid for c in clients] == [0, 1, 2]
        with pytest.raises(NotImplementedError):
            process.arrival_times(5.0, random.Random(0))


class TestSloAwareAdmission:
    TIGHT = ServeSpec(
        mix={"zeppelin": 1.0},
        arrival="closed",
        think_time_s=0.05,
        duration_s=6.0,
        slo_s=0.5,
        admission="slo_aware",
        clients=4,  # overridden per test via replace()
    )

    def test_shed_requests_never_execute_and_are_counted(self):
        result = tiny_session().serve(self.TIGHT.replace(clients=32))
        assert result.shed_count > 0
        assert result.completed + result.shed_count == result.num_requests
        assert result.admission == "slo_aware"

    def test_shed_rate_monotone_under_rising_load(self):
        rates = []
        for clients in (2, 16, 96):
            result = tiny_session().serve(self.TIGHT.replace(clients=clients))
            rates.append(result.shed_count / result.num_requests)
        assert rates == sorted(rates)
        assert rates[-1] > rates[0]

    def test_goodput_counts_only_slo_meeting_completions(self):
        result = tiny_session().serve(self.TIGHT.replace(clients=16))
        assert result.goodput_rps <= result.throughput_rps

    def test_unseen_cell_admitted_optimistically(self):
        policy = as_admission("slo_aware")
        ctx = AdmissionContext(slo_s=0.1, cost_estimate=lambda cell: None)
        request = Request(rid=0, arrival_s=0.0, cell=RequestCell("zeppelin"))
        assert policy.admit(request, ctx)
        # Known-too-expensive cell is shed.
        ctx = AdmissionContext(slo_s=0.1, cost_estimate=lambda cell: 5.0)
        assert not policy.admit(request, ctx)

    def test_cache_off_still_estimates_costs_and_sheds(self):
        # Every simulation records its cell's cost, so the estimate slo_aware
        # sheds on does not depend on the result cache answering requests.
        batcher = Batcher(tiny_session(), cache=False)
        cell = RequestCell("zeppelin")
        assert batcher.cost_estimate(cell) is None
        batch = batcher.execute([Request(rid=0, arrival_s=0.0, cell=cell)], 0.0)
        assert batcher.cost_estimate(cell) == batch.finish_s > 0
        result = tiny_session().serve(self.TIGHT.replace(clients=32, cache=False))
        assert result.cache_hits == 0
        assert result.shed_count > 0
        assert result.completed + result.shed_count == result.num_requests


class TestLoadIndependence:
    """Per-request host work must not grow with the queue.

    Counted, not timed: a cost that scales with queue depth shows up as
    calls that scale with the offered load.
    """

    SPEC = ServeSpec(mix={"te_cp": 2.0, "llama_cp": 1.0}, duration_s=1.0)

    def test_fifo_identity_encodes_do_not_grow_with_load(self, call_counts):
        session = tiny_session()
        encodes, depths = [], []
        for rate in (100.0, 800.0):
            call_counts.clear()
            result = session.serve(self.SPEC.replace(rate=rate))
            encodes.append(call_counts["canonical_json"])
            depths.append(result.max_queue_depth)
        assert depths[1] > 4 * depths[0]  # the backlog really got deeper
        assert encodes[0] == encodes[1]

    @pytest.mark.parametrize("admission", ["fifo", "priority"])
    def test_ordering_policies_never_sum_queued_work(self, call_counts, admission):
        spec = self.SPEC.replace(
            rate=400.0, admission=admission, slo_s=1.0, coalesce_s=0.05
        )
        result = tiny_session().serve(spec)
        assert result.max_queue_depth > 100
        assert call_counts["queued_work_s"] == 0

    def test_slo_aware_sums_queued_work_at_most_once_per_arrival(self, call_counts):
        spec = self.SPEC.replace(rate=400.0, admission="slo_aware", slo_s=1.0)
        result = tiny_session().serve(spec)
        assert result.shed_count > 0
        assert 0 < call_counts["queued_work_s"] <= result.num_requests

    def test_queued_work_is_summed_on_first_read_only(self, call_counts):
        queue = RequestQueue("fifo")
        cell = RequestCell("te_cp")
        for rid in range(3):
            queue.push(Request(rid=rid, arrival_s=float(rid), cell=cell))
        ctx = AdmissionContext(concurrency=2, cost_estimate=lambda _: 0.5, queue=queue)
        assert call_counts["queued_work_s"] == 0
        assert ctx.estimated_wait_s() == 0.75
        assert ctx.queued_work_s == 1.5
        assert call_counts["queued_work_s"] == 1
        assert AdmissionContext().queued_work_s == 0.0

    def test_identity_encoded_once_per_capacity_and_cell(self, call_counts):
        session = tiny_session()
        batcher = Batcher(session)
        cell = RequestCell("te_cp")
        call_counts.clear()
        for _ in range(5):
            batcher.point_for(cell)
            assert batcher.cost_estimate(cell) is None
        assert call_counts["canonical_json"] == 1
        batcher.rescale(session.derive(num_gpus=32).config)
        batcher.cost_estimate(cell)
        assert call_counts["canonical_json"] == 3  # the config, then the cell at it

    def test_cells_resolving_to_one_point_share_a_cache_entry(self):
        # A cell pinning num_gpus is the same execution at every capacity.
        session = tiny_session()
        batcher = Batcher(session)
        pinned = RequestCell("te_cp", overrides={"num_gpus": 16})
        first = batcher.execute([Request(rid=0, arrival_s=0.0, cell=pinned)], 0.0)
        batcher.rescale(session.derive(num_gpus=32).config)
        assert batcher.cost_estimate(pinned) == first.finish_s
        again = batcher.execute([Request(rid=1, arrival_s=9.0, cell=pinned)], 9.0)
        assert again.cache_hit and batcher.simulations_executed == 1


class TestDeadlineBatcher:
    def test_coalescing_grows_batches(self):
        base = ServeSpec(mix={"zeppelin": 1.0}, rate=20.0, duration_s=4.0)
        held = tiny_session().serve(base.replace(coalesce_s=0.25))
        eager = tiny_session().serve(base)
        assert held.batched_requests > eager.batched_requests
        assert held.completed == held.num_requests

    def test_deadline_slack_caps_the_hold(self):
        # With a near-zero SLO the slack is ~0 once the cell's cost estimate
        # exists, so far fewer dispatches may be held than the window alone
        # would allow (the estimate-free warmup still coalesces optimistically).
        base = ServeSpec(mix={"zeppelin": 1.0}, rate=20.0, duration_s=4.0)
        held = tiny_session().serve(base.replace(coalesce_s=0.25))
        tight = tiny_session().serve(base.replace(coalesce_s=0.25, slo_s=1e-9))
        assert tight.batched_requests < held.batched_requests
        assert tight.completed == tight.num_requests


class TestAutoscale:
    SPEC = ServeSpec(
        mix={"zeppelin": 1.0},
        arrival="closed",
        clients=64,
        think_time_s=0.05,
        duration_s=20.0,
        scale_policy="queue_depth",
        min_gpus=16,
        max_gpus=64,
    )

    def test_grow_shrink_round_trip_returns_to_baseline(self):
        result = tiny_session(seed=3).serve(self.SPEC)
        timeline = result.capacity_timeline
        assert timeline[0] == (0.0, 16)
        assert timeline[-1][1] == 16  # back at baseline capacity
        assert max(gpus for _, gpus in timeline) > 16  # it actually grew
        assert result.scale_up_count == result.scale_down_count >= 1
        assert result.scale_policy == "queue_depth"

    def test_autoscale_runs_are_byte_identical(self):
        a = tiny_session(seed=3).serve(self.SPEC)
        b = tiny_session(seed=3).serve(self.SPEC)
        assert a.to_json() == b.to_json()

    def test_capacity_moves_on_doubling_ladder(self):
        result = tiny_session(seed=3).serve(self.SPEC)
        gpus = [g for _, g in result.capacity_timeline]
        assert set(gpus) <= {16, 32, 64}
        for prev, nxt in zip(gpus, gpus[1:]):
            assert nxt in (prev * 2, prev // 2)  # one rung per step

    def test_fixed_capacity_without_policy(self):
        result = tiny_session().serve(
            ServeSpec(mix={"zeppelin": 1.0}, rate=10.0, duration_s=2.0)
        )
        assert result.scale_policy is None
        assert result.capacity_timeline == ()
        assert result.scale_up_count == result.scale_down_count == 0

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="ladder|bounds"):
            tiny_session().serve(
                self.SPEC.replace(min_gpus=32, max_gpus=64)
            )  # base 16 below the floor
        with pytest.raises(ValueError, match="multiple"):
            tiny_session().serve(self.SPEC.replace(max_gpus=20))
