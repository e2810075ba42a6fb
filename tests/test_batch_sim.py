"""The batch entry points: bit-identical to sequential simulation.

:func:`repro.sim.batch.simulate_batch` and :func:`~repro.sim.batch.simulate_many`
run every lane or request through the engine's one dispatch loop, so their
results must equal N sequential :meth:`Simulator.run` calls byte for byte.
These tests compare them against the engine on random DAGs (dyadic
durations, so ties are exact; a zero-heavy variant makes equal-instant groups
common), on every registered strategy's real plans, and through the
producers that funnel into them (`simulate_iterations`,
`simulate_iteration_states`, `measure_throughput`), and against traced
engine runs, whose times must not move.  Every lane is its own engine run,
and the `batch_simulate` telemetry is pinned down alongside.  So is the
makespan memo in front of them (`simulate_makespans`): a hit equals a fresh
engine run, duplicates within one call simulate once, a state is its
compiled plan and speed map together, a plan that grows or is retimed
re-simulates, a failed run is not remembered, and a resilience grid reaches
the engine once per distinct (plan, speeds).
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, TaskKind
from repro.obs.core import Telemetry, telemetry_scope
from repro.obs.export import ListSink
from repro.sim.batch import (
    Lane,
    SimRequest,
    simulate_batch,
    simulate_makespans,
    simulate_many,
)
from repro.sim.compile import compile_plan
from repro.sim.engine import Simulator

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
    """Duration variants of one plan: identical, scaled, jittered, shuffled.

    All arithmetic stays dyadic so same-instant ties either survive a
    variant exactly or break cleanly.
    """
    lanes = [Lane()]  # the plan's own durations
    lanes.append(Lane(durations=base))  # explicitly identical
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


def _reference(cp, lane: Lane):
    """What the lane should equal: the engine, run sequentially."""
    lane_cp = cp
    if lane.durations is not None and lane.durations is not cp.durations:
        lane_cp = dataclasses.replace(cp, durations=lane.durations)
    return Simulator(record_trace=False).run(lane_cp, speeds=dict(lane.speeds))


def _assert_same_times(new, old, context):
    assert new.makespan_s == old.makespan_s, context
    assert new.start_times == old.start_times, context
    assert new.end_times == old.end_times, context
    assert new.aborted_task_ids == old.aborted_task_ids, context
    assert new.stranded_task_ids == old.stranded_task_ids, context
    assert new.failed_resources == old.failed_resources, context


def _assert_identical(new, old, context):
    _assert_same_times(new, old, context)
    assert new.trace.spans == old.trace.spans, context


def _zero_heavy_case(seed: int, factors: bool):
    """A DAG full of zero-duration tasks and barriers, plus its lanes.

    A task that takes no time completes at the instant it starts, so the
    dispatch after one drained instant pushes completions at that same
    instant: the engine drains them as a second, equal-time group.  With
    ``factors`` every lane also carries a speed factor on one resource.
    """
    rng = random.Random(6000 + seed)
    cp = compile_plan(_random_plan(rng, zero_frac=0.4, barrier_frac=0.3))
    lanes = _duration_lanes(rng, cp.durations)
    # Coarse grids make distinct instants of one lane collide in another.
    for step in (0.25, 0.5):
        coarse = tuple(step * round(d / step) for d in cp.durations)
        lanes.append(Lane(durations=coarse))
    if factors and cp.resource_names:
        lanes = [
            dataclasses.replace(
                lane,
                speeds=((rng.choice(cp.resource_names), 2.0 ** rng.randint(-3, 1)),),
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
    def test_speed_lanes_bit_identical(self, seed):
        """Speed maps (persistent slowdowns)."""
        rng = random.Random(2000 + seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        names = sorted({r for t in plan.tasks for r in t.resources})
        lanes = [Lane()]
        for _ in range(6):
            if not names:
                break
            targets = sorted(rng.sample(names, rng.randint(1, min(2, len(names)))))
            factor = 2.0 ** rng.randint(-3, 1)
            lanes.append(Lane(speeds=tuple((r, factor) for r in targets)))
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), (seed, i))

    @pytest.mark.parametrize("seed", range(20))
    def test_mixed_speed_and_duration_lanes_bit_identical(self, seed):
        """Speed lanes, duration lanes and lanes carrying both, in one call.

        The speed maps may name a resource the plan lacks and factors of
        exactly 1.0; a lane's speeds apply to its own durations.
        """
        rng = random.Random(3000 + seed)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        halved = tuple(d * 0.5 for d in cp.durations)
        lanes = [Lane(), Lane(durations=halved)]
        for _ in range(4):
            speeds = _random_speeds(rng, plan)
            lanes.append(Lane(speeds=speeds))
            lanes.append(Lane(durations=halved, speeds=speeds))
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

    @pytest.mark.parametrize("seed", range(10))
    def test_traced_engine_runs_match_lanes(self, seed):
        """Recording a trace changes no time: only the spans differ.

        The batch entry points never record a trace, so a caller that wants
        spans runs :class:`Simulator` with ``record_trace=True``, and its
        times must equal the lanes' bit for bit.
        """
        rng = random.Random(4000 + seed)
        cp = compile_plan(_random_plan(rng))
        lanes = [Lane(), Lane(durations=tuple(d * 2.0 for d in cp.durations))]
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            lane_cp = dataclasses.replace(cp, durations=lane.durations or cp.durations)
            traced = Simulator(record_trace=True).run(lane_cp)
            _assert_same_times(result, traced, (seed, i))
            assert traced.trace.spans  # the trace actually recorded
            assert not result.trace.spans


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


class TestSimulateBatch:
    """Every lane runs the engine's loop on its own durations and speeds."""

    def test_every_lane_reaches_the_engine(self, monkeypatch):
        import repro.sim.batch as batch

        rng = random.Random(6)
        cp = compile_plan(_random_plan(rng))
        lanes = [Lane(), Lane(), Lane(durations=cp.durations)]
        reached = []
        simulate = batch._simulate

        def counting(lane_cp, speeds, record_trace):
            reached.append(lane_cp.durations)
            return simulate(lane_cp, speeds, record_trace)

        monkeypatch.setattr(batch, "_simulate", counting)
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            results = simulate_batch(cp, lanes)
        # Identical lanes are not collapsed: each one is its own run.
        assert reached == [cp.durations] * 3
        assert len({id(result) for result in results}) == 3
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)
        assert tele.counters["batch_lanes"] == 3
        events = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert [e["lanes"] for e in events] == [3]

    def test_coinciding_completions_drain_as_one_group(self):
        """Tasks that finish at one instant are dispatched after all of them.

        With the plan's durations ``x`` takes ``r2`` when ``a`` finishes,
        before ``b`` frees ``y``.  When ``a`` and ``b`` finish together the
        engine drains them as one group and the higher-priority ``y`` takes
        ``r2`` first.
        """
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r0",))
        b = plan.add("b", TaskKind.OTHER, 2.0, ("r1",))
        plan.add("x", TaskKind.OTHER, 5.0, ("r2",), deps=[a], priority=1)
        plan.add("y", TaskKind.OTHER, 1.0, ("r2",), deps=[b], priority=0)
        cp = compile_plan(plan)
        lanes = [Lane(), Lane(durations=(2.0, 2.0, 5.0, 1.0))]
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)
        assert results[0].start_times == {0: 0.0, 1: 0.0, 2: 1.0, 3: 6.0}
        assert results[0].makespan_s == 7.0
        assert results[1].start_times == {0: 0.0, 1: 0.0, 2: 3.0, 3: 2.0}
        assert results[1].makespan_s == 8.0

    def test_lanes_with_different_completion_orders(self):
        """One lane's order of completions does not leak into the next."""
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r0",))
        b = plan.add("b", TaskKind.OTHER, 2.0, ("r1",))
        plan.add("c", TaskKind.OTHER, 1.0, ("r0", "r1"), deps=[a, b])
        cp = compile_plan(plan)
        lanes = [
            Lane(),  # a finishes before b
            Lane(durations=(2.0, 1.0, 1.0)),  # b before a
            Lane(durations=(4.0, 2.0, 2.0)),  # the previous lane, scaled
        ]
        results = simulate_batch(cp, lanes)
        for i, (lane, result) in enumerate(zip(lanes, results)):
            _assert_identical(result, _reference(cp, lane), i)
        assert [list(result.end_times) for result in results] == [
            [0, 1, 2],
            [1, 0, 2],
            [1, 0, 2],
        ]
        assert [result.makespan_s for result in results] == [3.0, 3.0, 6.0]


class TestSimulateMany:
    def test_mixed_structures_return_in_request_order(self):
        rng = random.Random(21)
        plan_a = _random_plan(rng)
        plan_b = _random_plan(rng)
        # Interleave requests over two plans; results must land back in
        # request order, each identical to its own sequential run.
        requests = [
            SimRequest(plan=plan_a),
            SimRequest(plan=plan_b),
            SimRequest(plan=plan_a, speeds=(("res:0", 0.5),)),
            SimRequest(plan=plan_b),
            SimRequest(plan=plan_a),
        ]
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            results = simulate_many(requests)
        sim = Simulator(record_trace=False)
        for i, (request, result) in enumerate(zip(requests, results)):
            ref = sim.run(request.plan, speeds=dict(request.speeds))
            _assert_identical(result, ref, i)
            assert result.plan is request.plan
        events = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert [e["lanes"] for e in events] == [5]
        assert tele.counters["batch_lanes"] == 5

    def test_compiled_plan_requests(self):
        rng = random.Random(22)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        results = simulate_many([SimRequest(plan=cp), SimRequest(plan=plan)])
        reference = Simulator(record_trace=False).run(cp)
        for i, result in enumerate(results):
            _assert_identical(result, reference, i)
            assert result.plan is plan


class TestStrategyEquivalence:
    """Every registered strategy's real plans through the batched kernel."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)

    def test_all_registered_strategies_bit_identical(self, session):
        from repro.registry import STRATEGIES

        speed_sets = [
            (),
            (("compute:3", 0.5),),
            (("compute:3", 0.5), ("nic:0:rx", 0.25), ("nic:0:tx", 0.25)),
        ]
        for name in STRATEGIES.names():
            strategy = session.strategy(name)
            for phase in ("forward", "backward"):
                plan = strategy.plan_layer(batch=session.batches[0], phase=phase)
                cp = compile_plan(plan)
                lanes = [Lane(speeds=speeds) for speeds in speed_sets]
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
        from repro.api import Session
        from repro.training.iteration import simulate_iteration, simulate_iterations

        strategy = session.strategy("zeppelin")
        batches = session.batches[:1] * 3  # same batch thrice: one simulation
        batched = simulate_iterations(strategy, batches)
        # A fresh session's plans carry no memo, so these runs simulate.
        fresh = Session(session.config).strategy("zeppelin")
        for batch, result in zip(batches, batched):
            sequential = simulate_iteration(fresh, batch)
            assert result.iteration_time_s == sequential.iteration_time_s
            for phase, layer_s in (
                ("forward", result.forward_layer_s),
                ("backward", result.backward_layer_s),
            ):
                plan = fresh.plan_layer(batch, phase=phase)
                assert layer_s == Simulator(record_trace=False).run(plan).makespan_s
        # Per-task end times at kernel level: the lanes simulate_iterations
        # hands the kernel equal sequential engine runs task for task.
        plans = [
            strategy.plan_layer(batch, phase=phase)
            for batch in batches
            for phase in ("forward", "backward")
        ]
        kernel = simulate_many([SimRequest(plan=plan) for plan in plans])
        for i, (plan, result) in enumerate(zip(plans, kernel)):
            _assert_identical(result, Simulator(record_trace=False).run(plan), i)

    def test_simulate_iteration_states_matches_sequential(self, session):
        from repro.api import Session
        from repro.training.iteration import (
            simulate_iteration,
            simulate_iteration_states,
        )

        strategy = session.strategy("te_cp")
        batch = session.batches[0]
        states = [{}, {"compute:1": 0.5}, {"compute:1": 0.25}]
        batched = simulate_iteration_states(strategy, batch, states)
        fresh = Session(session.config).strategy("te_cp")
        for speeds, result in zip(states, batched):
            sequential = simulate_iteration(fresh, batch, speeds=speeds or None)
            assert result.iteration_time_s == sequential.iteration_time_s

    def test_equal_speed_maps_in_any_order_are_one_state(self, session, monkeypatch):
        """A producer's map is sorted into its key, so insertion order
        cannot split one state into two engine runs."""
        import repro.sim.batch as batch_module
        from repro.api import Session
        from repro.training.iteration import simulate_iteration_states

        reached = []
        simulate = batch_module._simulate

        def counting(cp, speeds, record_trace):
            reached.append(speeds)
            return simulate(cp, speeds, record_trace)

        monkeypatch.setattr(batch_module, "_simulate", counting)
        # A fresh session's plans carry empty memos.
        strategy = Session(session.config).strategy("te_cp")
        states = [
            {"compute:1": 0.5, "nic:0:tx": 0.25},
            {"nic:0:tx": 0.25, "compute:1": 0.5},
        ]
        with Telemetry() as tele, telemetry_scope(tele):
            first, second = simulate_iteration_states(
                strategy, session.batches[0], states
            )
        key = (("compute:1", 0.5), ("nic:0:tx", 0.25))
        assert reached == [key, key]  # the forward and backward plan, once each
        assert tele.counters["makespan_memo_hits"] == 2
        assert first == second

    def test_invalid_speed_raises_through_simulate_iteration(self, session):
        from repro.training.iteration import simulate_iteration

        strategy = session.strategy("te_cp")
        with pytest.raises(ValueError, match="compute:1"):
            simulate_iteration(
                strategy, session.batches[0], speeds={"compute:1": float("inf")}
            )

    def test_measure_throughput_unchanged(self, session):
        """The batched funnel keeps measured throughput bit-identical."""
        from repro.api import Session
        from repro.training.iteration import simulate_iteration
        from repro.training.throughput import measure_throughput

        strategy = session.strategy("te_cp")
        batches = session.batches[:2]
        measured = measure_throughput(strategy, batches)
        fresh = Session(session.config).strategy("te_cp")
        total_tokens = sum(b.total_tokens for b in batches)
        total_time = sum(
            simulate_iteration(fresh, b).iteration_time_s for b in batches
        )
        assert measured.tokens_per_second == total_tokens / total_time


def _random_speeds(rng: random.Random, plan: ExecutionPlan) -> dict[str, float]:
    """A speed map on ``plan``, maybe naming a resource it lacks.

    Factors of exactly 1.0 are drawn too: they change no time but are still
    a state of their own.
    """
    names = sorted(plan.resource_index) + ["res:unused"]
    return {
        rng.choice(names): rng.choice((1.0, 2.0 ** rng.randint(-3, 1)))
        for _ in range(rng.randint(0, 5))
    }


class TestMakespanMemo:
    """``simulate_makespans`` answers a state its compiled plan finished."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_miss_and_hit_equal_a_fresh_engine_run(self, seed):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        speeds = _random_speeds(rng, plan)
        request = SimRequest(plan=plan, speeds=speeds)
        fresh = Simulator(record_trace=False).run(plan, speeds=dict(speeds))
        with Telemetry() as tele, telemetry_scope(tele):
            miss = simulate_makespans([request])
            assert tele.counters["makespan_memo_hits"] == 0
            hit = simulate_makespans([request])
            assert tele.counters["makespan_memo_hits"] == 1
        assert [m.hex() for m in miss + hit] == [fresh.makespan_s.hex()] * 2

    def test_speed_maps_normalise_to_one_key(self):
        """Requests and lanes sort a speed map once, so equal maps in any
        order, or given as pairs, are one memo key."""
        plan = ExecutionPlan()
        key = (("compute:1", 0.5), ("nic:0:tx", 0.25))
        for speeds in (
            {"compute:1": 0.5, "nic:0:tx": 0.25},
            {"nic:0:tx": 0.25, "compute:1": 0.5},
            (("nic:0:tx", 0.25), ("compute:1", 0.5)),
        ):
            assert SimRequest(plan=plan, speeds=speeds).speeds == key
            assert Lane(speeds=speeds).speeds == key
        assert SimRequest(plan=plan, speeds=None).speeds == ()
        assert Lane(speeds={}).speeds == ()

    def test_add_after_a_memoised_run_resimulates(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r",))
        before = simulate_makespans([SimRequest(plan=plan)])
        assert plan.compiled().makespans
        plan.add("b", TaskKind.OTHER, 2.0, ("r",), deps=[a])
        assert not plan.compiled().makespans  # the memo went with the compile
        with Telemetry() as tele, telemetry_scope(tele):
            after = simulate_makespans([SimRequest(plan=plan)])
        assert tele.counters["makespan_memo_hits"] == 0
        assert before == [1.0]
        assert after == [Simulator(record_trace=False).run(plan).makespan_s] == [3.0]

    def test_hits_reach_the_ambient_hub_without_a_kernel_call(self):
        rng = random.Random(31)
        plan_a, plan_b = _random_plan(rng), _random_plan(rng)
        slow = (("res:0", 0.5),)
        requests = [
            SimRequest(plan=plan_a),
            SimRequest(plan=plan_b),
            SimRequest(plan=plan_a, speeds=slow),
        ]
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            first = simulate_makespans(requests)
            again = simulate_makespans(requests[::-1])
        assert tele.counters["makespan_memo_hits"] == 3
        assert tele.counters["batch_lanes"] == 3
        kernel = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert len(kernel) == 1  # the hits ran nothing
        assert again == first[::-1]
        sim = Simulator(record_trace=False)
        assert first == [
            sim.run(r.plan, speeds=dict(r.speeds)).makespan_s for r in requests
        ]

    def test_results_identical_with_telemetry_off_and_on(self):
        from repro.api import Session

        def run(session):
            return [
                session.run(
                    "te_cp",
                    perturbation={"straggler_frac": 0.25, "mttf_s": 30.0},
                    recovery=recovery,
                    num_iterations=12,
                ).to_dict()
                for recovery in ("checkpoint_restart", "elastic")
            ]

        config = dict(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=2)
        off = run(Session(**config))
        with Telemetry(sink=ListSink()) as tele, telemetry_scope(tele):
            on = run(Session(**config))
        assert on == off
        # The second policy faces the same straggler draw, so its states
        # before the first failure are memo hits, and the hub sees them.
        assert tele.counters["makespan_memo_hits"] > 0

    def test_duplicate_requests_in_one_call_simulate_once(self, monkeypatch):
        """One call reaches the engine once per distinct state.

        The repeats count as memo hits, and every requester gets the
        makespan a sequential engine run gives.
        """
        import repro.sim.batch as batch

        rng = random.Random(5)
        plan = _random_plan(rng)
        slow = (("res:0", 0.5),)
        requests = [SimRequest(plan=plan) for _ in range(8)]
        requests.append(SimRequest(plan=plan, speeds=slow))
        # The compiled form of the same plan is the same state.
        requests.append(SimRequest(plan=plan.compiled(), speeds=slow))
        reached = []
        simulate = batch._simulate

        def counting(cp, speeds, record_trace):
            reached.append((id(cp), speeds))
            return simulate(cp, speeds, record_trace)

        monkeypatch.setattr(batch, "_simulate", counting)
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            makespans = simulate_makespans(requests)
        assert len(reached) == len(set(reached)) == 2
        assert tele.counters["makespan_memo_hits"] == 8
        assert tele.counters["batch_lanes"] == 2
        kernel = [e for e in sink.events if e["type"] == "batch_simulate"]
        assert [e["lanes"] for e in kernel] == [2]
        sim = Simulator(record_trace=False)
        assert makespans == [
            sim.run(r.plan, speeds=dict(r.speeds)).makespan_s for r in requests
        ]
        assert makespans[0] != makespans[-1]

    def test_distinct_plans_in_one_state_each_simulate(self, monkeypatch):
        """Equal speeds on two plans are two states."""
        import repro.sim.batch as batch

        rng = random.Random(43)
        plans = [_random_plan(rng) for _ in range(3)]
        slow = (("res:0", 0.5),)
        reached = []
        simulate = batch._simulate

        def counting(cp, speeds, record_trace):
            reached.append(cp.plan)
            return simulate(cp, speeds, record_trace)

        monkeypatch.setattr(batch, "_simulate", counting)
        requests = [SimRequest(plan=p, speeds=slow) for p in plans]
        with Telemetry() as tele, telemetry_scope(tele):
            makespans = simulate_makespans(requests)
        assert len(reached) == 3
        assert all(got is want for got, want in zip(reached, plans))
        assert tele.counters["makespan_memo_hits"] == 0
        sim = Simulator(record_trace=False)
        assert makespans == [sim.run(p, speeds=dict(slow)).makespan_s for p in plans]

    def test_duration_variant_keeps_its_own_memo(self):
        """A retimed compile shares the lowering of its base, not its memo."""
        rng = random.Random(41)
        cp = _random_plan(rng).compiled()
        base = simulate_makespans([SimRequest(plan=cp)])
        variant = dataclasses.replace(
            cp, durations=tuple(2.0 * d + 1.0 for d in cp.durations)
        )
        assert cp.makespans and not variant.makespans
        with Telemetry() as tele, telemetry_scope(tele):
            retimed = simulate_makespans([SimRequest(plan=variant)])
        assert tele.counters["makespan_memo_hits"] == 0
        assert retimed == [Simulator(record_trace=False).run(variant).makespan_s]
        assert retimed != base
        assert simulate_makespans([SimRequest(plan=cp)]) == base

    def test_empty_request_list_runs_nothing(self):
        sink = ListSink()
        with Telemetry(sink=sink) as tele, telemetry_scope(tele):
            assert simulate_makespans([]) == []
        assert not [e for e in sink.events if e["type"] == "batch_simulate"]
        assert tele.counters.get("batch_lanes", 0) == 0
        assert tele.counters.get("makespan_memo_hits", 0) == 0

    def test_failed_simulation_enters_no_memo(self):
        """A state the engine rejects is not remembered, so it raises again."""
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ("r",))
        plan.add("b", TaskKind.OTHER, 1.0, ("r",), deps=[a])
        broken = dataclasses.replace(compile_plan(plan), dep_counts=(0, 2))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="unsatisfiable dependency"):
                simulate_makespans([SimRequest(plan=broken)])
        assert not broken.makespans

    @pytest.mark.parametrize(
        "factor", [0.0, -0.5, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_speed_raises_and_enters_no_memo(self, factor):
        """A bad speed fails its whole call, and no state of it is kept."""
        rng = random.Random(53)
        plan = _random_plan(rng)
        cp = compile_plan(plan)
        requests = [
            SimRequest(plan=plan),
            SimRequest(plan=plan, speeds=(("res:0", factor),)),
        ]
        for _ in range(2):
            with pytest.raises(ValueError, match="res:0"):
                simulate_makespans(requests)
        assert not cp.makespans

    def test_resilience_grid_reaches_the_engine_once_per_state(self, monkeypatch):
        """fig13 simulates each distinct (plan, speeds) exactly once.

        Every engine run (``_simulate``, whether a batch entry point or a
        direct ``Simulator.run`` called it) is logged with its state.  A
        fresh default session pool keeps earlier tests' memos out.
        """
        import repro.sim.batch as batch
        import repro.sim.engine as engine
        from repro.exec.worker import SessionPool
        from repro.experiments import fig13_resilience

        compiled: list = []  # keeps every keyed compile alive, so ids stay unique
        reached: list[tuple] = []

        def counting(cp, speeds, record_trace):
            compiled.append(cp)
            reached.append((id(cp), tuple(speeds)))
            return simulate(cp, speeds, record_trace)

        simulate = engine._simulate
        monkeypatch.setattr(engine, "_simulate", counting)
        monkeypatch.setattr(batch, "_simulate", counting)
        monkeypatch.setattr("repro.exec.worker._DEFAULT_POOL", SessionPool())
        fig13_resilience.run(seed=0)
        assert reached
        assert len(reached) == len(set(reached))
