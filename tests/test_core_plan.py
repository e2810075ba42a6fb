"""Tests for the execution-plan task graph."""

import pytest

import repro.core.plan as plan_module
from repro.core.plan import ExecutionPlan, TaskKind


class TestPlanConstruction:
    def test_ids_are_sequential(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        b = plan.add("b", TaskKind.LINEAR, 2.0, ("compute:0",), deps=[a])
        assert (a, b) == (0, 1)
        assert plan.num_tasks == 2

    def test_forward_dependency_rejected(self):
        plan = ExecutionPlan()
        with pytest.raises(ValueError):
            plan.add("bad", TaskKind.OTHER, 1.0, (), deps=[0])

    def test_negative_duration_rejected(self):
        plan = ExecutionPlan()
        with pytest.raises(ValueError):
            plan.add("bad", TaskKind.OTHER, -1.0, ())

    def test_validate_passes_for_well_formed_plan(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",))
        plan.add("b", TaskKind.INTER_COMM, 0.5, ("nic:0:tx",), deps=[a])
        plan.validate()

    def test_task_rows_keep_rank_and_resource_names(self):
        plan = ExecutionPlan()
        plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:3",), rank=3)
        plan.add("b", TaskKind.ATTENTION, 1.0, ("compute:5",), rank=5)
        plan.add("c", TaskKind.LINEAR, 1.0, ("compute:3",), deps=[0], rank=3)
        assert [t.name for t in plan.tasks if t.rank == 3] == ["a", "c"]
        # Resource names are interned to ids and read back by name.
        assert plan.tasks[2].resources == ("compute:3",)
        assert plan.tasks[2].deps == (0,)


class TestNoTaskObjectsOnTheHotPath:
    def test_plan_compile_and_simulate_build_no_task(self, monkeypatch):
        """Planning, compiling and simulating every registered strategy reads
        the plan's columns; ``Task`` rows exist only once ``plan.tasks`` is
        read, and then each row is built once."""
        from repro.api import Session
        from repro.registry import STRATEGIES
        from repro.sim.engine import simulate

        built = []

        class CountingTask(plan_module.Task):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(plan_module, "Task", CountingTask)
        session = Session(model="3b", num_gpus=16, total_context=32 * 1024, num_steps=1)
        batch = session.batches[0]
        plans = []
        for name in STRATEGIES.names():
            plan = session.strategy(name).plan_layer(batch)
            simulate(plan.compiled(), record_trace=False)
            plans.append(plan)
        assert len(built) == 0
        for plan in plans:
            assert plan.tasks is plan.tasks
            assert all(type(t) is CountingTask for t in plan.tasks)
        assert len(built) == sum(plan.num_tasks for plan in plans) > 0


class TestCriticalPath:
    def test_chain_sums_durations(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ())
        b = plan.add("b", TaskKind.OTHER, 2.0, (), deps=[a])
        plan.add("c", TaskKind.OTHER, 3.0, (), deps=[b])
        assert plan.critical_path_lower_bound() == pytest.approx(6.0)

    def test_parallel_branches_take_the_longest(self):
        plan = ExecutionPlan()
        a = plan.add("a", TaskKind.OTHER, 1.0, ())
        plan.add("b", TaskKind.OTHER, 5.0, (), deps=[a])
        plan.add("c", TaskKind.OTHER, 2.0, (), deps=[a])
        assert plan.critical_path_lower_bound() == pytest.approx(6.0)

    def test_empty_plan(self):
        assert ExecutionPlan().critical_path_lower_bound() == 0.0


class TestResourceNames:
    def test_compute_resource(self):
        assert ExecutionPlan.compute_resource(7) == "compute:7"

    def test_nic_and_nvlink_resources(self):
        assert ExecutionPlan.nic_resource(3, "tx") == "nic:3:tx"
        assert ExecutionPlan.nvlink_resource(2, "rx") == "nvl:2:rx"

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            ExecutionPlan.nic_resource(0, "sideways")
        with pytest.raises(ValueError):
            ExecutionPlan.nvlink_resource(0, "up")


class TestTaskKind:
    def test_communication_classification(self):
        assert TaskKind.INTER_COMM.is_communication
        assert TaskKind.DISPATCH.is_communication
        assert TaskKind.REMAP.is_communication
        assert not TaskKind.ATTENTION.is_communication
        assert not TaskKind.LINEAR.is_communication
