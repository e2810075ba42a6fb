"""The batched lane-parallel kernel: bit-identical to sequential simulation.

:func:`repro.sim.batch.simulate_batch` promises results byte-identical to N
sequential :meth:`Simulator.run` calls, whichever path a lane takes
(schedule replay, or the engine's one dispatch loop with or without
schedule capture).  These tests compare the kernel against the engine on
random DAGs (dyadic durations, so ties are exact — the regime where replay
verification has to be perfect; a zero-heavy variant makes equal-instant
groups common), on every registered strategy's real plans, and through the
producers that funnel into it (`simulate_iterations`,
`simulate_iteration_states`, `measure_throughput`).  The captured schedule
is checked directly: replaying a run's own capture reproduces that run, and
a lane that fails replay becomes the pilot of the next.  Lane dedup,
structure grouping, `structure_key` invalidation and the `batch_simulate`
telemetry are pinned down alongside.
"""

import dataclasses
import random

import pytest

from repro.core.plan import ExecutionPlan, TaskKind
from repro.obs.core import Telemetry
from repro.obs.export import ListSink
from repro.sim.batch import (
    Lane,
    SimRequest,
    _lane_rates,
    _replay,
    simulate_batch,
    simulate_many,
)
from repro.sim.compile import compile_plan
from repro.sim.engine import Simulator, _simulate
from repro.sim.events import ResourceEvent

_KINDS = list(TaskKind)


def _random_plan(
    rng: random.Random, zero_frac: float = 0.0, barrier_frac: float = 0.1
) -> ExecutionPlan:
    """A random DAG with shared resources and dyadic durations (incl. zero).

    ``zero_frac`` forces that share of durations to zero on top of the
    dyadic draw; with the default the draws (and plans) are unchanged.
    """
    plan = ExecutionPlan()
    num_tasks = rng.randint(1, 40)
    resources = [f"res:{i}" for i in range(rng.randint(1, 6))]
    for tid in range(num_tasks):
        num_deps = rng.randint(0, min(3, tid))
        deps = rng.sample(range(tid), num_deps) if num_deps else []
        if rng.random() < barrier_frac:
            held = ()  # zero-cost barrier
        else:
            held = tuple(rng.sample(resources, rng.randint(1, min(2, len(resources)))))
        kind = rng.choice(_KINDS)
        duration = rng.randint(0, 64) / 64.0
        if zero_frac and rng.random() < zero_frac:
            duration = 0.0
        plan.add(
            f"t{tid}",
            kind,
            duration,
            held,
            deps=deps,
            rank=rng.randint(-1, 3),
            priority=rng.randint(0, 4),
        )
    return plan


def _duration_lanes(rng: random.Random, base: tuple[float, ...]) -> list[Lane]:
    """Duration variants of one structure: identical, scaled, jittered, shuffled.

    All arithmetic stays dyadic so same-instant ties either survive a
    variant exactly or break cleanly — both replay-verification regimes.
    """
    lanes = [Lane()]  # structure's own durations
    lanes.append(Lane(durations=base))  # explicitly identical (dedup bait)
    for scale in (0.5, 1.5, 2.0, 0.25):
        lanes.append(Lane(durations=tuple(d * scale for d in base)))
    for _ in range(4):  # per-task dyadic jitter: regroups ties
        lanes.append(
            Lane(
                durations=tuple(
                    d + rng.randint(0, 16) / 64.0 for d in base
                )
            )
        )
    shuffled = list(base)
    rng.shuffle(shuffled)
    lanes.append(Lane(durations=tuple(shuffled)))
    return lanes


def _reference(cp, lane: Lane, record_trace: bool = False):
    """What the lane should equal: the engine, run sequentially."""
    lane_cp = cp
    if lane.durations is not None and lane.durations is not cp.durations:
        lane_cp = dataclasses.replace(cp, durations=lane.durations)
    return Simulator(record_trace=record_trace).run(
        lane_cp, events=lane.events, start_time_s=lane.start_time_s
    )


def _assert_identical(new, old, context):
    assert new.makespan_s == old.makespan_s, context
    assert new.start_times == old.start_times, context
    assert new.end_times == old.end_times, context
    assert new.aborted_task_ids == old.aborted_task_ids, context
    assert new.stranded_task_ids == old.stranded_task_ids, context
    assert new.failed_resources == old.failed_resources, context
    assert new.trace.spans == old.trace.spans, context


def _zero_heavy_case(seed: int, factors: bool):
    """A DAG full of zero-duration tasks and barriers, plus its lanes.

    A task that takes no time completes at the instant it starts, so the
    dispatch after one drained instant pushes completions at that same
    instant: the engine drains them as a second, equal-time group — the case
    replay's equal-instant rule exists for.  With ``factors`` every lane
    also carries an initial speed factor on one resource.
    """
    rng = random.Random(6000 + seed)
    cp = compile_plan(_random_plan(rng, zero_frac=0.4, barrier_frac=0.3))
    lanes = _duration_lanes(rng, cp.durations)
    # Coarse grids make distinct pilot instants collide in later lanes.
    for step in (0.25, 0.5):
        coarse = tuple(step * round(d / step) for d in cp.durations)
        lanes.append(Lane(durations=coarse))
    if factors and cp.resource_names:
        lanes = [
            dataclasses.replace(
                lane,
                events=(
                    ResourceEvent(
                        0.0,
                        (rng.choice(cp.resource_names),),
                        2.0 ** rng.randint(-3, 1),
                    ),
                ),
            )
            for lane in lanes
        ]
    return cp, lanes


class TestRandomDagEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_duration_lanes_bit_identical(self, seed):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        lanes = _duration_lanes(rng, cp.durations)
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), (seed, i))

    @pytest.mark.parametrize("seed", range(20))
    def test_factor_event_lanes_bit_identical(self, seed):
        """Initial speed factors (the lean path's dynamic case)."""
        rng = random.Random(2000 + seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        names = sorted({r for t in plan.tasks for r in t.resources})
        lanes = [Lane()]
        for _ in range(6):
            if not names:
                break
            targets = tuple(rng.sample(names, rng.randint(1, min(2, len(names)))))
            factor = 2.0 ** rng.randint(-3, 1)
            lanes.append(Lane(events=(ResourceEvent(0.0, targets, factor),)))
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), (seed, i))

    @pytest.mark.parametrize("factors", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_zero_heavy_lanes_bit_identical(self, seed, factors):
        """Equal-instant groups, with and without initial speed factors."""
        cp, lanes = _zero_heavy_case(seed, factors)
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), (seed, factors, i))

    @pytest.mark.parametrize("seed", range(20))
    def test_engine_fallback_lanes_bit_identical(self, seed):
        """Timed perturbations and failures delegate to the real engine."""
        rng = random.Random(3000 + seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        names = sorted({r for t in plan.tasks for r in t.resources})
        lanes = [Lane()]
        for _ in range(4):
            if not names:
                break
            targets = tuple(rng.sample(names, 1))
            time_s = rng.randint(1, 640) / 64.0
            factor = None if rng.random() < 0.3 else 2.0 ** rng.randint(-3, 0)
            lanes.append(Lane(events=(ResourceEvent(time_s, targets, factor),)))
        # Mixed batch: lean lanes and fallback lanes in one call.
        lanes.append(Lane(durations=tuple(d * 0.5 for d in cp.durations)))
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), (seed, i))

    @pytest.mark.parametrize("seed", range(10))
    def test_record_trace_lanes_bit_identical(self, seed):
        rng = random.Random(4000 + seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        lanes = [Lane(), Lane(durations=tuple(d * 2.0 for d in cp.durations))]
        results = simulate_batch(cp, lanes, record_trace=True)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane, record_trace=True), i)
            assert result.trace.spans  # the trace actually recorded

    def test_start_time_offset(self):
        rng = random.Random(77)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        lanes = [
            Lane(start_time_s=4.0),
            Lane(
                durations=tuple(d * 0.5 for d in cp.durations),
                events=(ResourceEvent(0.0, (plan.tasks[0].resources or ("res:0",))[:1], 0.5),),
                start_time_s=4.0,
            ),
        ]
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)


class TestScheduleCapture:
    """The schedule the engine captures is exactly what replay retraces."""

    def test_replaying_a_capture_reproduces_its_run(self):
        equal_instant_groups = 0
        slowed_lanes = 0
        for factors in (False, True):
            for seed in range(20):
                cp, lanes = _zero_heavy_case(seed, factors)
                for i, lane in enumerate(lanes):
                    context = (seed, factors, i)
                    lane_cp = dataclasses.replace(
                        cp, durations=lane.durations or cp.durations
                    )
                    schedule = []
                    run = _simulate(
                        lane_cp, lane.events, lane.start_time_s, False, schedule
                    )
                    # Capturing does not change the run.
                    _assert_identical(run, _reference(cp, lane), context)
                    rates = _lane_rates(cp, lane)
                    slowed_lanes += bool(rates)
                    replay = _replay(schedule, lane_cp.durations, rates, cp.plan)
                    assert replay is not None, context
                    assert replay.start_times == run.start_times, context
                    assert replay.end_times == run.end_times, context
                    assert replay.makespan_s == run.makespan_s, context
                    times = [run.end_times[done[0]] for done in schedule[2::2]]
                    equal_instant_groups += sum(
                        a == b for a, b in zip(times, times[1:])
                    )
        # The inputs really exercise the equal-instant rule and the rates.
        assert equal_instant_groups >= 100
        assert slowed_lanes >= 100

    def test_equal_instant_rule_rejects_merged_groups(self):
        """Two pilot instants that coincide in a lane must not replay.

        In the pilot ``x`` takes ``r2`` when ``a`` finishes, before ``b``
        frees ``y``.  When ``a`` and ``b`` finish together the engine drains
        them as one group and the higher-priority ``y`` takes ``r2`` first.
        """
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r0",))
        b = plan.add("b", TaskKind.OTHER, 2.0, ("r1",))
        plan.add("x", TaskKind.OTHER, 5.0, ("r2",), deps=[a], priority=1)
        plan.add("y", TaskKind.OTHER, 1.0, ("r2",), deps=[b], priority=0)
        cp = compile_plan(plan)
        lanes = [Lane(), Lane(durations=(2.0, 2.0, 5.0, 1.0))]
        with Telemetry(sink=ListSink()) as tele:
            results = simulate_batch(cp, lanes, telemetry=tele)
        assert tele.counters["batch_lanes_replayed"] == 0
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)
        assert results[1].start_times[3] < results[1].start_times[2]

    def test_failed_replay_lane_becomes_the_pilot(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r0",))
        b = plan.add("b", TaskKind.OTHER, 2.0, ("r1",))
        plan.add("c", TaskKind.OTHER, 1.0, ("r0", "r1"), deps=[a, b])
        cp = compile_plan(plan)
        lanes = [
            Lane(),  # the pilot: a finishes before b
            Lane(durations=(2.0, 1.0, 1.0)),  # b before a: replay fails
            Lane(durations=(4.0, 2.0, 2.0)),  # lane 2 scaled: fits its schedule
        ]
        with Telemetry(sink=ListSink()) as tele:
            results = simulate_batch(cp, lanes, telemetry=tele)
        assert tele.counters["batch_lanes_replayed"] == 1
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)
        # Only lane 2's schedule fits lane 3: the first pilot's rejects it.
        first_pilot = []
        _simulate(cp, (), 0.0, False, first_pilot)
        assert _replay(first_pilot, lanes[2].durations, (), plan) is None


class TestErrorParity:
    def test_deadlock_at_t0_raises(self):
        """Same guard as the engine: a corrupted plan nothing can start."""
        from repro.sim.compile import CompiledPlan

        plan = ExecutionPlan()
        plan.add("t", TaskKind.OTHER, 1.0, ("r",))
        corrupt = CompiledPlan(
            plan=plan,
            num_tasks=1,
            resource_names=("r",),
            resource_index={"r": 0},
            durations=(1.0,),
            task_resources=((0,),),
            dispatch_keys=((0, 0),),
            dep_counts=(1,),  # never satisfied: nothing can ever start
            dependents_indptr=(0, 0),
            dependents_ids=(),
            initial_ready=(),
        )
        with pytest.raises(RuntimeError, match="deadlock at time 0"):
            simulate_batch(corrupt, [Lane()])

    def test_unsatisfiable_dependency_raises(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r",))
        plan.add("b", TaskKind.OTHER, 1.0, ("r",), deps=[a])
        cp = compile_plan(plan)
        broken = dataclasses.replace(cp, dep_counts=(0, 2))
        with pytest.raises(RuntimeError, match="unsatisfiable dependency"):
            simulate_batch(broken, [Lane()])

    def test_empty_plan(self):
        cp = compile_plan(ExecutionPlan())
        results = simulate_batch(cp, [Lane(), Lane()])
        for result in results:
            assert result.makespan_s == 0.0
            assert result.end_times == {}


class TestLaneDedup:
    def test_identical_lanes_collapse_to_one_result(self):
        rng = random.Random(5)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        sink = ListSink()
        with Telemetry(sink=sink) as tele:
            lanes = [Lane() for _ in range(8)]
            lanes.append(Lane(durations=tuple(d * 0.5 for d in cp.durations)))
            results = simulate_batch(cp, lanes, telemetry=tele)
        # Deduped lanes share one result object; values match sequential.
        assert all(results[i] is results[0] for i in range(8))
        assert results[8] is not results[0]
        for i, lane in enumerate(lanes):
            _assert_identical(results[i], _reference(cp, lane), i)
        events = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert len(events) == 1
        assert events[0]["lanes"] == 9
        assert events[0]["deduped"] == 7
        assert events[0]["structures"] == 1
        assert tele.counters["batch_lanes"] == 9
        assert tele.counters["batch_lanes_deduped"] == 7

    def test_dedup_off_simulates_every_lane(self):
        rng = random.Random(6)
        cp = compile_plan(_random_plan(rng))
        sink = ListSink()
        with Telemetry(sink=sink) as tele:
            results = simulate_batch(
                cp, [Lane(), Lane()], dedup=False, telemetry=tele
            )
        assert results[0] is not results[1]
        assert results[0].end_times == results[1].end_times
        event = [e for e in sink.events if e["type"] == "batch_simulate"][-1]
        assert event["deduped"] == 0


class TestStructureKey:
    def test_same_structure_different_durations_share_key(self):
        rng = random.Random(9)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        variant = dataclasses.replace(
            cp, durations=tuple(d * 3.0 for d in cp.durations)
        )
        assert variant.structure_key == cp.structure_key

    def test_add_invalidates_structure_key(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.OTHER, 1.0, ("r",))
        before = compile_plan(plan)
        plan.add("b", TaskKind.OTHER, 1.0, ("r",))
        after = compile_plan(plan)
        assert after is not before
        assert after.structure_key != before.structure_key

    def test_different_shape_different_key(self):
        a = ExecutionPlan()
        a.add("a", TaskKind.OTHER, 1.0, ("r",))
        b = ExecutionPlan()
        b.add("a", TaskKind.OTHER, 1.0, ("r", "s"))
        assert compile_plan(a).structure_key != compile_plan(b).structure_key


class TestSimulateMany:
    def test_mixed_structures_return_in_request_order(self):
        rng = random.Random(21)
        plan_a = _random_plan(rng)
        plan_b = _random_plan(rng)
        # Interleave requests over two structures; results must land back
        # in request order, each identical to its own sequential run.
        requests = [
            SimRequest(plan=plan_a),
            SimRequest(plan=plan_b),
            SimRequest(plan=plan_a, events=(ResourceEvent(0.0, ("res:0",), 0.5),)),
            SimRequest(plan=plan_b),
            SimRequest(plan=plan_a),
        ]
        sink = ListSink()
        with Telemetry(sink=sink) as tele:
            results = simulate_many(requests, telemetry=tele)
        sim = Simulator(record_trace=False)
        for i, (request, result) in enumerate(zip(requests, results)):
            ref = sim.run(request.plan, events=request.events)
            _assert_identical(result, ref, i)
            assert result.plan is request.plan
        event = [e for e in sink.events if e["type"] == "batch_simulate"][-1]
        assert event["lanes"] == 5
        assert event["structures"] == len(
            {compile_plan(p).structure_key for p in (plan_a, plan_b)}
        )

    def test_compiled_plan_requests(self):
        rng = random.Random(22)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        results = simulate_many([SimRequest(plan=cp), SimRequest(plan=plan)])
        _assert_identical(results[0], Simulator(record_trace=False).run(cp), 0)
        assert results[1] is results[0]  # same identity -> deduped


class TestStrategyEquivalence:
    """Every registered strategy's real plans through the batched kernel."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)

    def test_all_registered_strategies_bit_identical(self, session):
        from repro.registry import STRATEGIES

        event_sets = [
            (),
            (ResourceEvent(0.0, ("compute:3",), 0.5),),
            (
                ResourceEvent(0.001, ("compute:3",), 0.5),
                ResourceEvent(0.002, ("nic:0:tx", "nic:0:rx"), 0.25),
            ),
        ]
        sim = Simulator()
        for name in STRATEGIES.names():
            strategy = session.strategy(name)
            for phase in ("forward", "backward"):
                plan = strategy.plan_layer(batch=session.batches[0], phase=phase)
                cp = compile_plan(plan)
                lanes = [Lane(events=events) for events in event_sets]
                lanes += [
                    Lane(durations=tuple(d * s for d in cp.durations))
                    for s in (0.5, 1.25)
                ]
                results = simulate_batch(cp, lanes)
                for i, (lane, result) in enumerate(zip(lanes, results)):
                    _assert_identical(
                        result, _reference(cp, lane), (name, phase, i)
                    )

    def test_simulate_iterations_matches_sequential(self, session):
        from repro.training.iteration import simulate_iteration, simulate_iterations

        strategy = session.strategy("zeppelin")
        batches = session.batches[:1] * 3  # same batch thrice: dedup regime
        batched = simulate_iterations(strategy, batches)
        for batch, result in zip(batches, batched):
            sequential = simulate_iteration(strategy, batch, record_trace=False)
            assert result.iteration_time_s == sequential.iteration_time_s
            assert (
                result.forward_result.end_times
                == sequential.forward_result.end_times
            )
            assert (
                result.backward_result.end_times
                == sequential.backward_result.end_times
            )

    def test_simulate_iteration_states_matches_sequential(self, session):
        from repro.training.iteration import (
            simulate_iteration,
            simulate_iteration_states,
        )

        strategy = session.strategy("te_cp")
        batch = session.batches[0]
        states = [
            (),
            (ResourceEvent(0.0, ("compute:1",), 0.5),),
            (ResourceEvent(0.0, ("compute:1",), 0.25),),
        ]
        batched = simulate_iteration_states(strategy, batch, states)
        for events, result in zip(states, batched):
            sequential = simulate_iteration(
                strategy, batch, record_trace=False, events=list(events) or None
            )
            assert result.iteration_time_s == sequential.iteration_time_s

    def test_measure_throughput_unchanged(self, session):
        """The batched funnel keeps measured throughput bit-identical."""
        from repro.training.iteration import simulate_iteration
        from repro.training.throughput import measure_throughput

        strategy = session.strategy("te_cp")
        batches = session.batches[:2]
        measured = measure_throughput(strategy, batches, record_trace=False)
        total_tokens = sum(b.total_tokens for b in batches)
        total_time = sum(
            simulate_iteration(strategy, b, record_trace=False).iteration_time_s
            for b in batches
        )
        assert measured.tokens_per_second == total_tokens / total_time
