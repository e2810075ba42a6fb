"""Tests for the discrete-event simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim.engine import Simulator, simulate
from repro.sim.events import EventQueue, ResourceEvent


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(3.0, 1)
        q.push(1.0, 2)
        q.push(2.0, 3)
        assert [q.pop().task_id for _ in range(3)] == [2, 3, 1]

    def test_ties_preserve_insertion_order(self):
        q = EventQueue()
        q.push(1.0, 10)
        q.push(1.0, 20)
        assert q.pop().task_id == 10
        assert q.pop().task_id == 20

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, 0)


class TestSimulator:
    def test_empty_plan(self):
        assert simulate(ExecutionPlan()).makespan_s == 0.0

    def test_independent_tasks_on_different_resources_overlap(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 2.0, ("compute:0",))
        plan.add("b", TaskKind.INTER_COMM, 2.0, ("nic:0:tx",))
        assert simulate(plan).makespan_s == pytest.approx(2.0)

    def test_tasks_on_same_resource_serialize(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 2.0, ("compute:0",))
        plan.add("b", TaskKind.ATTENTION, 3.0, ("compute:0",))
        assert simulate(plan).makespan_s == pytest.approx(5.0)

    def test_dependencies_are_respected(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        b = plan.add("b", TaskKind.INTER_COMM, 1.0, ("nic:0:tx",), deps=[a])
        plan.add("c", TaskKind.ATTENTION, 1.0, ("compute:1",), deps=[b])
        result = simulate(plan)
        assert result.makespan_s == pytest.approx(3.0)
        assert result.start_times[2] >= result.end_times[1]

    def test_priority_breaks_ties_for_a_contended_resource(self):
        plan = ExecutionPlan()
        plan.add("low", TaskKind.ATTENTION, 1.0, ("compute:0",), priority=5)
        plan.add("high", TaskKind.ATTENTION, 1.0, ("compute:0",), priority=0)
        result = simulate(plan)
        assert result.start_times[1] == pytest.approx(0.0)
        assert result.start_times[0] == pytest.approx(1.0)

    def test_multi_resource_task_holds_all_resources(self):
        plan = ExecutionPlan()
        plan.add("xfer", TaskKind.INTER_COMM, 2.0, ("nic:0:tx", "nic:4:rx"))
        plan.add("other_tx", TaskKind.INTER_COMM, 1.0, ("nic:0:tx",))
        plan.add("other_rx", TaskKind.INTER_COMM, 1.0, ("nic:4:rx",))
        result = simulate(plan)
        # Both follow-up transfers must wait for the two-resource task.
        assert result.start_times[1] >= 2.0
        assert result.start_times[2] >= 2.0

    def test_zero_duration_tasks_complete(self):
        plan = ExecutionPlan()
        a = plan.add("barrier", TaskKind.OTHER, 0.0, ())
        plan.add("next", TaskKind.ATTENTION, 1.0, ("compute:0",), deps=[a])
        assert simulate(plan).makespan_s == pytest.approx(1.0)

    def test_makespan_at_least_critical_path(self):
        plan = ExecutionPlan()
        prev = None
        for i in range(5):
            deps = [prev] if prev is not None else []
            prev = plan.add(f"t{i}", TaskKind.ATTENTION, 0.5, ("compute:0",), deps=deps)
        result = simulate(plan)
        assert result.makespan_s >= plan.critical_path_lower_bound() - 1e-12

    def test_trace_recording_can_be_disabled(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        result = Simulator(record_trace=False).run(plan)
        assert result.makespan_s == pytest.approx(1.0)
        assert not result.trace.spans

    def test_all_tasks_have_start_and_end_times(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        plan.add("b", TaskKind.LINEAR, 1.0, ("compute:0",), deps=[a])
        result = simulate(plan)
        assert set(result.start_times) == {0, 1}
        assert set(result.end_times) == {0, 1}


def _chain_plan() -> ExecutionPlan:
    """a(2s) -> b(3s), both on compute:0."""
    plan = ExecutionPlan()
    a = plan.add("a", TaskKind.ATTENTION, 2.0, ("compute:0",))
    plan.add("b", TaskKind.LINEAR, 3.0, ("compute:0",), deps=[a])
    return plan


class TestDynamicSimulator:
    def test_resource_event_validation(self):
        with pytest.raises(ValueError):
            ResourceEvent(0.0, ("compute:0",), 0.0)
        with pytest.raises(ValueError):
            ResourceEvent(0.0, (), 0.5)
        assert ResourceEvent(0.0, ("compute:0",), None).is_failure

    def test_empty_events_matches_static_path_exactly(self):
        plan = _chain_plan()
        assert simulate(plan, events=[]).makespan_s == simulate(plan).makespan_s

    def test_empty_events_matches_static_for_all_registered_strategies(self):
        """Regression guard: the dynamic path with no perturbations is the
        identity — bit-for-bit equal makespans for every strategy's plans."""
        from repro.api import Session
        from repro.registry import STRATEGIES

        session = Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)
        batch = session.batches[0]
        for name in STRATEGIES.names():
            strategy = session.strategy(name)
            for phase in ("forward", "backward"):
                plan = strategy.plan_layer(batch, phase=phase)
                static = Simulator(record_trace=False).run(plan)
                dynamic = Simulator(record_trace=False).run(plan, events=[])
                assert dynamic.makespan_s == static.makespan_s, (name, phase)
                assert dynamic.end_times == static.end_times, (name, phase)

    def test_slowdown_from_start_scales_durations(self):
        result = simulate(_chain_plan(), events=[ResourceEvent(0.0, ("compute:0",), 0.5)])
        assert result.makespan_s == pytest.approx(10.0)

    def test_mid_task_slowdown_retimes_remaining_work(self):
        # 1s of "a" at full speed, 1s of work left at half speed (2s), then
        # all of "b" at half speed (6s): 1 + 2 + 6 = 9.
        result = simulate(_chain_plan(), events=[ResourceEvent(1.0, ("compute:0",), 0.5)])
        assert result.makespan_s == pytest.approx(9.0)

    def test_recovery_speedup_mid_task(self):
        # Slow from the start, back to full speed at t=2: 1s of work done by
        # t=2, remaining 1s + 3s at full speed.
        events = [
            ResourceEvent(0.0, ("compute:0",), 0.5),
            ResourceEvent(2.0, ("compute:0",), 1.0),
        ]
        result = simulate(_chain_plan(), events=events)
        assert result.makespan_s == pytest.approx(6.0)

    def test_task_speed_is_min_over_resources(self):
        plan = ExecutionPlan()
        plan.add("xfer", TaskKind.INTER_COMM, 2.0, ("nic:0:tx", "nic:1:rx"))
        events = [
            ResourceEvent(0.0, ("nic:0:tx",), 0.8),
            ResourceEvent(0.0, ("nic:1:rx",), 0.25),
        ]
        assert simulate(plan, events=events).makespan_s == pytest.approx(8.0)

    def test_events_for_unknown_resources_are_ignored(self):
        result = simulate(
            _chain_plan(),
            events=[
                ResourceEvent(0.0, ("compute:99",), 0.1),
                ResourceEvent(1.0, ("nic:7:tx",), None),
            ],
        )
        assert result.makespan_s == pytest.approx(5.0)
        assert not result.failed

    def test_start_time_offsets_the_schedule(self):
        # Event at absolute t=11 with the plan starting at t=10 lands 1s in.
        result = simulate(
            _chain_plan(),
            events=[ResourceEvent(11.0, ("compute:0",), 0.5)],
            start_time_s=10.0,
        )
        assert result.makespan_s == pytest.approx(9.0)
        # An event from before the start sets the initial state.
        result = simulate(
            _chain_plan(),
            events=[ResourceEvent(3.0, ("compute:0",), 0.5)],
            start_time_s=10.0,
        )
        assert result.makespan_s == pytest.approx(10.0)

    def test_failure_aborts_in_flight_task(self):
        plan = _chain_plan()
        result = simulate(plan, events=[ResourceEvent(1.0, ("compute:0",), None)])
        assert result.failed
        assert result.aborted_task_ids == (0,)
        assert result.completed_tasks == 0
        assert result.failed_resources == ("compute:0",)
        (span,) = result.trace.spans
        assert span.aborted and span.end_s == pytest.approx(1.0)

    def test_failure_strands_dependent_and_waiting_tasks(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        plan.add("b", TaskKind.LINEAR, 1.0, ("compute:0",), deps=[a])
        plan.add("c", TaskKind.ATTENTION, 5.0, ("compute:1",))
        result = simulate(plan, events=[ResourceEvent(0.5, ("compute:0",), None)])
        assert result.failed
        assert result.aborted_task_ids == (0,)
        # The dependent of the aborted task is stranded, not lost track of.
        assert result.stranded_task_ids == (1,)
        # "c" on the surviving resource still completes.
        assert result.end_times[2] == pytest.approx(5.0)
        assert result.completed_tasks == 1

    def test_unaffected_resources_keep_running_after_failure(self):
        plan = ExecutionPlan()
        plan.add("dead", TaskKind.ATTENTION, 10.0, ("compute:0",))
        plan.add("alive", TaskKind.ATTENTION, 10.0, ("compute:1",))
        result = simulate(plan, events=[ResourceEvent(2.0, ("compute:0",), None)])
        assert result.end_times[1] == pytest.approx(10.0)
        assert result.makespan_s == pytest.approx(10.0)

    def test_task_finishing_at_failure_instant_counts_completed(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 2.0, ("compute:0",))
        result = simulate(plan, events=[ResourceEvent(2.0, ("compute:0",), None)])
        assert result.completed_tasks == 1
        assert not result.trace.spans[0].aborted

    def test_failure_before_start_strands_everything(self):
        plan = _chain_plan()
        result = simulate(plan, events=[ResourceEvent(0.0, ("compute:0",), None)])
        assert result.failed
        assert result.completed_tasks == 0
        assert result.stranded_task_ids == (0, 1)

    def test_every_task_is_completed_aborted_or_stranded(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 2.0, ("compute:0",))
        plan.add("b", TaskKind.LINEAR, 1.0, ("compute:0",), deps=[a])
        plan.add("c", TaskKind.ATTENTION, 0.5, ("compute:1",))
        result = simulate(plan, events=[ResourceEvent(1.0, ("compute:0",), None)])
        accounted = (
            set(result.end_times)
            | set(result.aborted_task_ids)
            | set(result.stranded_task_ids)
        )
        assert accounted == {0, 1, 2}

    def test_multi_resource_task_aborts_if_any_resource_dies(self):
        plan = ExecutionPlan()
        plan.add("xfer", TaskKind.INTER_COMM, 4.0, ("nic:0:tx", "nic:1:rx"))
        result = simulate(plan, events=[ResourceEvent(1.0, ("nic:1:rx",), None)])
        assert result.aborted_task_ids == (0,)

    def test_dynamic_run_reports_full_completion_when_healthy(self):
        plan = _chain_plan()
        result = Simulator().run(plan, events=[])
        assert result.completed_tasks == plan.num_tasks
        assert not result.failed
        assert result.aborted_task_ids == ()
        assert result.stranded_task_ids == ()


class TestSimulatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=20
        ),
        num_resources=st.integers(min_value=1, max_value=4),
    )
    def test_property_makespan_bounds(self, durations, num_resources):
        """Makespan lies between max duration and the serial sum."""
        plan = ExecutionPlan()
        for i, d in enumerate(durations):
            plan.add(
                f"t{i}",
                TaskKind.ATTENTION,
                d,
                (f"compute:{i % num_resources}",),
            )
        result = simulate(plan)
        assert result.makespan_s <= sum(durations) + 1e-9
        assert result.makespan_s >= max(durations) - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.1, max_value=2.0), min_size=2, max_size=10
        )
    )
    def test_property_chain_equals_sum(self, durations):
        """A pure dependency chain is exactly the sum of durations."""
        plan = ExecutionPlan()
        prev = None
        for i, d in enumerate(durations):
            deps = [prev] if prev is not None else []
            prev = plan.add(f"t{i}", TaskKind.OTHER, d, ("compute:0",), deps=deps)
        result = simulate(plan)
        assert result.makespan_s == pytest.approx(sum(durations))
