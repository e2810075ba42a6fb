"""Equivalence guard: the compiled-plan engine vs the frozen reference.

The engine rewrite (interned resources, indexed waiter dispatch, one mode
taking a per-resource speed map) must not change scheduling semantics.
These tests compare :class:`repro.sim.engine.Simulator` against the verbatim
pre-refactor engine in :mod:`repro.sim._reference` on randomly generated DAGs
and on every registered strategy's real plans — start times, end times and
trace spans, all bit-identical.  A speed map reaches the reference as one
``ResourceEvent(0.0, (resource,), factor)`` per entry, which sets that
resource's speed from the start of its dynamic path.

One deliberate semantic fix rides the rewrite: same-timestamp events are
drained by *exact* comparison on the pushed completion times instead of an
absolute ``1e-15`` epsilon (which merges distinct instants a few ulp apart at
small clocks and is scale-dependent).  The reference engine exposes the same
fix behind ``exact_drain=True``, so the strategy-level comparisons run both
engines under identical drain semantics; the random-DAG tests use dyadic
durations and power-of-two speed factors (exact in binary floating point),
where the two drain policies coincide, so they compare against both and
therefore also cover the *old* ordering semantics.  ``TestExactDrain`` pins
down the intended behaviour change.
"""

import random

import pytest

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim._reference import ReferenceSimulator
from repro.sim.compile import CompiledPlan
from repro.sim.engine import Simulator
from repro.sim.events import ResourceEvent

_KINDS = list(TaskKind)


def _random_plan(rng: random.Random) -> ExecutionPlan:
    """A random DAG with shared resources, varied priorities and barriers.

    Durations are multiples of 1/64 (dyadic rationals), so every simulated
    timestamp is exact in binary floating point: events coincide exactly or
    differ by far more than the old drain epsilon, making the comparison
    independent of the drain policy.
    """
    plan = ExecutionPlan()
    num_tasks = rng.randint(1, 40)
    resources = [f"res:{i}" for i in range(rng.randint(1, 6))]
    for tid in range(num_tasks):
        num_deps = rng.randint(0, min(3, tid))
        deps = rng.sample(range(tid), num_deps) if num_deps else []
        if rng.random() < 0.1:
            held = ()  # zero-cost barrier
        else:
            held = tuple(rng.sample(resources, rng.randint(1, min(2, len(resources)))))
        plan.add(
            f"t{tid}",
            rng.choice(_KINDS),
            rng.randint(0, 64) / 64.0,
            held,
            deps=deps,
            rank=rng.randint(-1, 3),
            priority=rng.randint(0, 4),
        )
    return plan


def _random_speeds(rng: random.Random, plan: ExecutionPlan) -> dict[str, float]:
    """A random speed map over some of the plan's resources.

    Factors are powers of two, keeping every re-timed duration dyadic (see
    :func:`_random_plan`).
    """
    names = sorted(plan.resource_index)
    targets = rng.sample(names, rng.randint(0, min(4, len(names))))
    return {r: rng.choice((2.0, 1.0, 0.5, 0.25, 0.125)) for r in targets}


def _as_events(speeds) -> list[ResourceEvent] | None:
    """The reference engine's spelling of a speed map (``None`` stays)."""
    if speeds is None:
        return None
    return [ResourceEvent(0.0, (r,), f) for r, f in sorted(dict(speeds).items())]


def _retimed(plan: ExecutionPlan, speeds: dict[str, float]) -> ExecutionPlan:
    """``plan`` with each task's duration over its slowest held resource.

    Unlisted resources run at 1.0, and a task holding none keeps its time.
    """
    retimed = ExecutionPlan()
    for t in plan.tasks:
        factor = min((speeds.get(r, 1.0) for r in t.resources), default=1.0)
        retimed.add(
            t.name,
            t.kind,
            t.duration_s / factor,
            t.resources,
            deps=t.deps,
            rank=t.rank,
            priority=t.priority,
        )
    return retimed


def _assert_identical(new, old, context):
    assert new.makespan_s == old.makespan_s, context
    assert new.start_times == old.start_times, context
    assert new.end_times == old.end_times, context
    assert new.aborted_task_ids == old.aborted_task_ids, context
    assert new.stranded_task_ids == old.stranded_task_ids, context
    assert new.failed_resources == old.failed_resources, context
    assert new.trace.spans == old.trace.spans, context


class TestRandomDagEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_static_and_speed_maps_identical_to_reference(self, seed):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        # ``None`` runs the reference's static path, ``{}`` its dynamic path
        # with no events, a speed map its dynamic path with initial factors.
        for speeds in (None, {}, _random_speeds(rng, plan)):
            new = Simulator().run(plan, speeds=speeds)
            # Dyadic timestamps: old and exact drain coincide, so this also
            # certifies equivalence under the old-ordering semantics.
            for exact_drain in (False, True):
                old = ReferenceSimulator(exact_drain=exact_drain).run(
                    plan, events=_as_events(speeds)
                )
                _assert_identical(new, old, (seed, speeds, exact_drain))

    @pytest.mark.parametrize("seed", range(20))
    def test_speed_map_equals_retimed_plan_on_reference(self, seed):
        """A speed map is a retiming: the reference's static path, with no
        events at all, gives the same schedule once each task's duration is
        divided by its slowest held resource's factor."""
        rng = random.Random(1000 + seed)
        plan = _random_plan(rng)
        speeds = _random_speeds(rng, plan)
        speeds["res:unused"] = 0.5  # a resource the plan lacks changes nothing
        new = Simulator().run(plan, speeds=speeds)
        old = ReferenceSimulator(exact_drain=True).run(_retimed(plan, speeds))
        _assert_identical(new, old, (seed, speeds))


class TestStrategyEquivalence:
    """Real plans: every registered strategy, both phases, with and without
    slowdowns, bit-identical under the (fixed) exact drain semantics."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)

    def test_all_registered_strategies_bit_identical(self, session):
        from repro.dynamics.models import PerturbationConfig, PerturbationModel
        from repro.registry import STRATEGIES

        schedule = PerturbationModel(
            PerturbationConfig(
                straggler_frac=0.25, nic_degrade_frac=0.3, mttf_s=30.0, max_failures=3
            )
        ).generate(session.cluster, seed=1)
        speed_maps = [
            None,
            {},
            schedule.active_factors(0.0),
            {"compute:3": 0.5, "nic:0:tx": 0.25, "nic:0:rx": 0.25, "nvl:7:tx": 0.7},
        ]
        assert speed_maps[2], "the schedule drew no slowdown at t=0"
        for name in STRATEGIES.names():
            strategy = session.strategy(name)
            for phase in ("forward", "backward"):
                plan = strategy.plan_layer(batch=session.batches[0], phase=phase)
                for i, speeds in enumerate(speed_maps):
                    new = Simulator().run(plan, speeds=speeds)
                    old = ReferenceSimulator(exact_drain=True).run(
                        plan, events=_as_events(speeds)
                    )
                    _assert_identical(new, old, (name, phase, i))

    def test_resilience_result_bit_identical(self, session, monkeypatch):
        """ResilienceResults match the reference engine end to end."""
        from repro.api import Session
        from repro.results import ResilienceResult

        def run(on):
            return on.run(
                "zeppelin",
                perturbation={"mttf_s": 40.0, "straggler_frac": 0.25, "max_failures": 2},
                recovery="elastic",
                num_iterations=8,
            )

        with_new = run(session)
        reference_runs = []

        def reference_many(requests):
            simulator = ReferenceSimulator(record_trace=False, exact_drain=True)
            reference_runs.extend(requests)
            return [
                simulator.run(r.plan, events=_as_events(r.speeds)) for r in requests
            ]

        # Every simulation the makespan memo misses goes to simulate_many;
        # rerouting that through the reference engine sequentially keeps
        # this an end-to-end old-vs-new comparison.  A fresh session's plans
        # carry empty memos, so every state reaches the reference engine.
        monkeypatch.setattr("repro.sim.batch.simulate_many", reference_many)
        with_old = run(Session(session.config))
        assert reference_runs, "the reference engine never ran"
        assert isinstance(with_new, ResilienceResult)
        assert with_new.to_dict() == with_old.to_dict()


class TestUnifiedPathGuards:
    def test_deadlock_at_t0_raises_on_unified_path(self):
        """The unified engine keeps the deadlock-at-t0 guard.

        Plans built through ``ExecutionPlan.add`` cannot deadlock at t0 (task
        0 always has no dependencies and free resources), so the guard is
        exercised with a hand-corrupted compiled plan whose dependency counts
        can never be satisfied.
        """
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
            Simulator().run(corrupt)

    def test_unsatisfiable_dependency_still_raises(self):
        import dataclasses

        plan = ExecutionPlan()
        plan.add("a", TaskKind.OTHER, 1.0, ("r",))
        plan.add("b", TaskKind.OTHER, 1.0, ("r",), deps=[0])
        cp = plan.compiled()
        # Sever the a->b edge but keep b's dependency count: b never readies.
        corrupt = dataclasses.replace(
            cp, dependents_indptr=(0, 0, 0), dependents_ids=()
        )
        with pytest.raises(RuntimeError, match="unsatisfiable"):
            Simulator().run(corrupt)


class TestExactDrain:
    """The one intended behaviour change: same-timestamp draining is exact."""

    def test_near_equal_completions_are_not_merged(self):
        # 0.1 + 0.2 != 0.3 in binary floating point (they differ by one ulp);
        # the old epsilon drain recorded both completions at the earlier
        # instant, silently rewriting b's end time.
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 0.1, ("x",))
        b = plan.add("b", TaskKind.OTHER, 0.2, ("x",), deps=[a])
        plan.add("c", TaskKind.OTHER, 0.3, ("y",))
        result = Simulator().run(plan)
        assert result.end_times[b] == 0.1 + 0.2  # the true pushed time
        assert result.end_times[b] != 0.3
        merged = ReferenceSimulator().run(plan)
        assert merged.end_times[b] == 0.3  # the old epsilon pulled it earlier

    def test_drain_behaviour_is_scale_invariant(self):
        # The absolute epsilon made merging depend on the clock magnitude;
        # exact comparison treats t and 1000+t identically.  Simultaneity
        # from identical arithmetic (two 0.25s tasks started together) is
        # still recognised at any clock.
        for offset in (0.0, 1000.0):
            plan = ExecutionPlan()
            lead = plan.add("lead", TaskKind.OTHER, offset, ("x",))
            p = plan.add("p", TaskKind.OTHER, 0.25, ("x",), deps=[lead])
            q = plan.add("q", TaskKind.OTHER, 0.25, ("y",), deps=[lead])
            plan.add("join", TaskKind.OTHER, 0.25, ("x", "y"), deps=[p, q])
            result = Simulator().run(plan)
            assert result.end_times[p] == result.end_times[q] == offset + 0.25
            assert result.makespan_s == offset + 0.5
