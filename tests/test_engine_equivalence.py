"""Equivalence guard: the unified compiled-plan engine vs the frozen reference.

The engine rewrite (interned resources, indexed waiter dispatch, one core for
the static and dynamic cases) must not change scheduling semantics.  These
tests compare :class:`repro.sim.engine.Simulator` against the verbatim
pre-refactor engine in :mod:`repro.sim._reference` on randomly generated DAGs
and on every registered strategy's real plans — start times, end times,
aborted/stranded sets, failed resources and trace spans, all bit-identical.

One deliberate semantic fix rides the rewrite: same-timestamp events are
drained by *exact* comparison on the pushed completion times instead of an
absolute ``1e-15`` epsilon (which merges distinct instants a few ulp apart at
small clocks and is scale-dependent).  The reference engine exposes the same
fix behind ``exact_drain=True``, so the strategy-level comparisons run both
engines under identical drain semantics; the random-DAG tests use dyadic
durations (exact in binary floating point), where the two drain policies
coincide and the comparison therefore also covers the *old* ordering
semantics.  ``TestExactDrain`` pins down the intended behaviour change.
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


def _random_events(rng: random.Random, plan: ExecutionPlan) -> list[ResourceEvent]:
    """Random slowdowns, recoveries and failures over the plan's resources.

    Times are dyadic and factors are powers of two, keeping all re-timing
    arithmetic exact (see :func:`_random_plan`).
    """
    names = sorted({r for t in plan.tasks for r in t.resources})
    if not names:
        return []
    events = []
    for _ in range(rng.randint(0, 5)):
        targets = tuple(rng.sample(names, rng.randint(1, min(2, len(names)))))
        time_s = rng.randint(0, 640) / 64.0
        roll = rng.random()
        if roll < 0.25:
            events.append(ResourceEvent(time_s, targets, None))  # failure
        elif roll < 0.75:
            events.append(ResourceEvent(time_s, targets, rng.choice((0.5, 0.25, 0.125))))
        else:
            events.append(ResourceEvent(time_s, targets, 1.0))  # recovery
    return events


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
    def test_static_and_dynamic_identical_to_reference(self, seed):
        rng = random.Random(seed)
        plan = _random_plan(rng)
        events = _random_events(rng, plan)
        for ev in (None, [], events):
            new = Simulator().run(plan, events=ev)
            # Dyadic timestamps: old and exact drain coincide, so this also
            # certifies equivalence under the old-ordering semantics.
            old = ReferenceSimulator().run(plan, events=ev)
            _assert_identical(new, old, (seed, "events" if ev else ev))

    @pytest.mark.parametrize("seed", range(20))
    def test_start_time_offset_identical_to_reference(self, seed):
        rng = random.Random(1000 + seed)
        plan = _random_plan(rng)
        events = _random_events(rng, plan)
        new = Simulator().run(plan, events=events, start_time_s=4.0)
        old = ReferenceSimulator().run(plan, events=events, start_time_s=4.0)
        _assert_identical(new, old, seed)


class TestStrategyEquivalence:
    """Real plans: every registered strategy, both phases, with and without
    perturbations, bit-identical under the (fixed) exact drain semantics."""

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
        event_sets = [
            None,
            [],
            schedule.active_resource_events(0.0, session.cluster),
            [
                ResourceEvent(0.001, ("compute:3",), 0.5),
                ResourceEvent(0.002, ("nic:0:tx", "nic:0:rx"), 0.25),
                ResourceEvent(0.004, ("compute:7", "nvl:7:tx", "nvl:7:rx"), None),
                ResourceEvent(0.006, ("compute:3",), 1.0),
            ],
        ]
        for name in STRATEGIES.names():
            strategy = session.strategy(name)
            for phase in ("forward", "backward"):
                plan = strategy.plan_layer(batch=session.batches[0], phase=phase)
                for i, events in enumerate(event_sets):
                    new = Simulator().run(plan, events=events)
                    old = ReferenceSimulator(exact_drain=True).run(plan, events=events)
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

        def reference_many(requests, record_trace=False, **kwargs):
            simulator = ReferenceSimulator(record_trace=record_trace, exact_drain=True)
            reference_runs.extend(requests)
            return [
                simulator.run(
                    r.plan, events=r.events, start_time_s=r.start_time_s
                )
                for r in requests
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

    def test_failure_at_t0_is_not_a_deadlock(self):
        """All-stranded at t0 returns a failed result instead of raising."""
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        result = Simulator().run(plan, events=[ResourceEvent(0.0, ("compute:0",), None)])
        assert result.failed
        assert result.stranded_task_ids == (0,)

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
