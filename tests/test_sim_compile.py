"""Tests for the compiled-plan representation (:mod:`repro.sim.compile`)."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim.compile import CompiledPlan, compile_plan


def _diamond_plan() -> ExecutionPlan:
    """a -> (b, c) -> d with two shared resources."""
    plan = ExecutionPlan()
    a = plan.add("a", TaskKind.ATTENTION, 1.0, ("compute:0",), priority=2)
    b = plan.add("b", TaskKind.INTER_COMM, 2.0, ("nic:0:tx",), deps=[a])
    c = plan.add("c", TaskKind.LINEAR, 3.0, ("compute:0",), deps=[a], priority=1)
    plan.add("d", TaskKind.OTHER, 0.0, (), deps=[b, c])
    return plan


class TestCompiledPlan:
    def test_resource_ids_are_dense_and_stable(self):
        cp = compile_plan(_diamond_plan())
        assert cp.resource_names == ("compute:0", "nic:0:tx")
        assert cp.resource_index == {"compute:0": 0, "nic:0:tx": 1}
        assert cp.num_resources == 2
        assert cp.task_resources == ((0,), (1,), (0,), ())

    def test_dependents_csr_matches_deps(self):
        plan = _diamond_plan()
        cp = compile_plan(plan)
        # Brute-force dependents from the task list.
        expected = {t.task_id: [] for t in plan.tasks}
        for t in plan.tasks:
            for d in t.deps:
                expected[d].append(t.task_id)
        for tid in range(cp.num_tasks):
            assert list(cp.dependents_of(tid)) == expected[tid]
        assert cp.dependents_indptr[0] == 0
        assert cp.dependents_indptr[-1] == len(cp.dependents_ids)

    def test_dispatch_keys_and_dep_counts(self):
        cp = compile_plan(_diamond_plan())
        assert cp.dispatch_keys == ((2, 0), (0, 1), (1, 2), (0, 3))
        assert cp.dep_counts == (0, 1, 1, 2)
        assert cp.initial_ready == (0,)

    def test_empty_plan_compiles(self):
        cp = compile_plan(ExecutionPlan())
        assert cp.num_tasks == 0
        assert cp.resource_names == ()
        assert cp.initial_ready == ()

    @pytest.mark.parametrize(
        "duration_s, deps",
        [
            (1.0, [5]),  # forward dependency
            (1.0, [4]),  # self dependency: the next task id is 4
            (1.0, [-1]),  # negative dependency
            (-1.0, [0]),  # negative duration
            (math.nan, [0]),  # would never drain from the engine's heap
            (math.inf, [0]),
            (-math.inf, [0]),
        ],
        ids=[
            "forward-dep",
            "self-dep",
            "negative-dep",
            "negative-duration",
            "nan-duration",
            "inf-duration",
            "negative-inf-duration",
        ],
    )
    def test_add_rejects_malformed_task_and_leaves_plan_unchanged(
        self, duration_s, deps
    ):
        plan = _diamond_plan()
        cached = plan.compiled()
        with pytest.raises(ValueError):
            plan.add("bad", TaskKind.OTHER, duration_s, ("fresh:0",), deps=deps)
        assert plan.num_tasks == 4
        assert "fresh:0" not in plan.resource_index
        assert plan.compiled() is cached


class TestCompileCache:
    def test_compiled_is_cached_on_the_plan(self):
        plan = _diamond_plan()
        assert plan.compiled() is plan.compiled()
        assert plan.compiled() is compile_plan(plan)

    def test_add_invalidates_the_cache(self):
        plan = _diamond_plan()
        first = plan.compiled()
        plan.add("e", TaskKind.OTHER, 1.0, ("compute:1",))
        second = plan.compiled()
        assert second is not first
        assert second.num_tasks == first.num_tasks + 1
        assert "compute:1" in second.resource_index

    def test_tasks_view_cannot_change_the_plan(self):
        plan = _diamond_plan()
        cached = plan.compiled()
        with pytest.raises(AttributeError):
            plan.tasks.append(plan.tasks[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.tasks[0].duration_s = 5.0
        assert plan.compiled() is cached

    def test_simulation_reuses_the_cache(self):
        from repro.sim.engine import simulate

        plan = _diamond_plan()
        simulate(plan)
        cp = plan.compiled()
        simulate(plan)
        assert plan.compiled() is cp

    def test_compiled_plan_accepted_by_simulator(self):
        from repro.sim.engine import simulate

        plan = _diamond_plan()
        by_plan = simulate(plan)
        by_compiled = simulate(plan.compiled())
        assert by_compiled.makespan_s == by_plan.makespan_s
        assert by_compiled.end_times == by_plan.end_times
        assert by_compiled.plan is plan


# -- property: the compile equals a brute-force lowering ------------------------

RESOURCE_POOL = (
    "compute:0", "compute:1", "nvl:0:tx", "nvl:1:rx", "nic:0:tx", "nic:0:rx"
)
KINDS = tuple(TaskKind)
_ROW = st.tuples(
    st.sampled_from(KINDS),
    st.just(0.0) | st.floats(0.0, 10.0),
    st.lists(st.sampled_from(RESOURCE_POOL), max_size=3).map(tuple),
    st.lists(st.integers(0, 59), max_size=3),
    st.integers(-1, 3),
    st.integers(-2, 3),
)


def _dag_rows(rows):
    """Rows ``(name, kind, duration, resources, deps, rank, priority)`` of a DAG.

    Each drawn dependency is folded onto an earlier task.
    """
    return [
        (f"t{tid}", kind, duration, resources, [d % tid for d in deps] if tid else [])
        + (rank, priority)
        for tid, (kind, duration, resources, deps, rank, priority) in enumerate(rows)
    ]


TASK_ROWS = (
    st.integers(0, 60)
    .flatmap(lambda n: st.lists(_ROW, min_size=n, max_size=n))
    .map(_dag_rows)
)


def _build(rows) -> ExecutionPlan:
    plan = ExecutionPlan()
    for row in rows:
        plan.add(*row)
    return plan


def _brute_force_lowering(plan: ExecutionPlan) -> dict:
    tasks = plan.tasks
    index: dict[str, int] = {}
    for t in tasks:
        for r in t.resources:
            index.setdefault(r, len(index))
    dependents: list[list[int]] = [[] for _ in tasks]
    for t in tasks:
        for d in t.deps:
            dependents[d].append(t.task_id)
    return {
        "resource_index": index,
        "durations": tuple(t.duration_s for t in tasks),
        "task_resources": tuple(tuple(index[r] for r in t.resources) for t in tasks),
        "dep_counts": tuple(len(t.deps) for t in tasks),
        "dependents": [tuple(ds) for ds in dependents],
        "initial_ready": tuple(t.task_id for t in tasks if not t.deps),
        "dispatch_keys": tuple((t.priority, t.task_id) for t in tasks),
    }


def _without_plan(cp: CompiledPlan, *also: str) -> dict:
    skip = {"plan", *also}
    return {
        f.name: getattr(cp, f.name) for f in dataclasses.fields(cp) if f.name not in skip
    }


def _columns(rows) -> list[list]:
    """Rows ``(name, kind, duration, resources, deps, rank, priority)`` as the
    seven columns :meth:`ExecutionPlan.extend` takes."""
    return [list(column) for column in zip(*rows)] if rows else [[]] * 7


def _stored(plan: ExecutionPlan) -> tuple:
    """Everything a plan stores: its seven columns and its interned resources."""
    return (
        list(plan._names),
        list(plan._kinds),
        list(plan._durations),
        list(plan._resources),
        list(plan._deps),
        list(plan._ranks),
        list(plan._priorities),
        list(plan.resource_index.items()),
    )


# A malformed row for task ``tid``: (duration, deps).
BAD_ROWS = {
    "forward-dep": lambda tid: (1.0, [tid + 1]),
    "self-dep": lambda tid: (1.0, [tid]),
    "negative-dep": lambda tid: (1.0, [-1]),
    "negative-duration": lambda tid: (-1.0, []),
    "nan-duration": lambda tid: (math.nan, []),
    "inf-duration": lambda tid: (math.inf, []),
    "negative-inf-duration": lambda tid: (-math.inf, []),
}


class TestBlockAppend:
    @settings(max_examples=100, deadline=None)
    @given(TASK_ROWS, st.lists(st.integers(0, 60), max_size=6))
    def test_blocks_equal_one_add_per_row(self, rows, cuts):
        """Rows cut into blocks (empty ones included) build the plan that one
        ``add()`` per row builds: columns, interning order and compile."""
        one_by_one = _build(rows)
        blocked = ExecutionPlan()
        bounds = [0, *sorted(c % (len(rows) + 1) for c in cuts), len(rows)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert blocked.extend(*_columns(rows[lo:hi])) == range(lo, hi)
        assert _stored(blocked) == _stored(one_by_one)
        assert blocked.tasks == one_by_one.tasks
        assert _without_plan(blocked.compiled()) == _without_plan(one_by_one.compiled())

    @settings(max_examples=100, deadline=None)
    @given(
        TASK_ROWS,
        TASK_ROWS,
        st.integers(0, 60),
        st.sampled_from(sorted(BAD_ROWS)),
    )
    def test_a_bad_row_rejects_its_whole_block(self, prefix, block, k, bad):
        """A block whose k-th row is malformed raises and leaves the plan, its
        interned resources and its cached compile as they were."""
        plan = _build(prefix)
        cached = plan.compiled()
        before = _stored(plan)
        first = len(prefix)
        k %= len(block) + 1
        rows = [
            (name, kind, duration, resources, [first + d for d in deps], rank, priority)
            for name, kind, duration, resources, deps, rank, priority in block
        ]
        duration, deps = BAD_ROWS[bad](first + k)
        rows.insert(k, ("bad", TaskKind.OTHER, duration, ("fresh:0",), deps, -1, 0))
        with pytest.raises(ValueError):
            plan.extend(*_columns(rows))
        assert _stored(plan) == before
        assert plan.compiled() is cached

    def test_columns_of_unequal_length_are_rejected(self):
        plan = _diamond_plan()
        with pytest.raises(ValueError, match="one entry per task"):
            plan.extend(["x", "y"], [TaskKind.OTHER], [0.0], [()], [()], [-1], [0])
        assert plan.num_tasks == 4


class TestCompileProperties:
    @settings(max_examples=100, deadline=None)
    @given(TASK_ROWS)
    def test_compile_equals_brute_force_lowering(self, rows):
        plan = _build(rows)
        cp = plan.compiled()
        expected = _brute_force_lowering(plan)
        assert cp.num_tasks == len(rows)
        assert cp.resource_index == expected["resource_index"]
        assert cp.resource_names == tuple(expected["resource_index"])
        assert cp.durations == expected["durations"]
        assert cp.task_resources == expected["task_resources"]
        assert cp.dep_counts == expected["dep_counts"]
        assert [cp.dependents_of(t) for t in range(cp.num_tasks)] == expected[
            "dependents"
        ]
        assert cp.dependents_indptr[0] == 0
        assert cp.dependents_indptr[-1] == len(cp.dependents_ids)
        assert cp.initial_ready == expected["initial_ready"]
        assert cp.dispatch_keys == expected["dispatch_keys"]
        # Dense columns hold plain Python ints, never numpy scalars.
        for column in (
            cp.dep_counts,
            cp.dependents_indptr,
            cp.dependents_ids,
            cp.initial_ready,
        ):
            assert all(type(v) is int for v in column)

    @settings(max_examples=50, deadline=None)
    @given(TASK_ROWS)
    def test_structure_ignores_durations_and_survives_a_rebuild(self, rows):
        plan = _build(rows)
        retimed = _build([(n, k, 2.0 * d + 1.0, *rest) for n, k, d, *rest in rows])
        assert _without_plan(retimed.compiled(), "durations") == _without_plan(
            plan.compiled(), "durations"
        )
        fresh = ExecutionPlan()
        for t in plan.tasks:
            fresh.add(
                t.name, t.kind, t.duration_s, t.resources, t.deps, t.rank, t.priority
            )
        assert _without_plan(fresh.compiled()) == _without_plan(plan.compiled())
