"""The discrete-event engine that executes an :class:`ExecutionPlan`.

Scheduling policy: a task becomes *ready* once all its dependencies have
completed; a ready task *starts* as soon as every resource it needs is free,
with ties broken by (priority, insertion order).  This is list scheduling over
exclusive resources — the same greedy policy a CUDA stream manager implements —
so the resulting makespan reflects genuine overlap and genuine contention (two
transfers sharing a NIC serialise; compute and communication on different
resources overlap).

Slowdowns (:mod:`repro.dynamics`) enter through ``speeds``: a map from
resource name to a finite, positive speed factor that holds for the whole
run.  A task runs at the minimum factor over the resources it holds, so it
takes its duration divided by that factor; resources the plan never
mentions are ignored and unlisted ones run at 1.0.  Timed perturbations and
failures are not simulated: the resilience driver charges failures per
iteration and times each iteration under the slowdowns active at its start.

There is ONE dispatch loop, :func:`_simulate`: :meth:`Simulator.run` calls
it, and so does every simulation :mod:`repro.sim.batch` runs for the
makespan memo's misses; nothing else simulates.  The loop runs over the
plan's :class:`~repro.sim.compile.CompiledPlan` — interned resource ids
backing a plain ``busy`` array, CSR dependent adjacency, and precomputed
``(priority, task_id)`` dispatch keys.  Dispatch is *indexed*: a task
blocked on a busy resource parks in that resource's waiter list and is only
reconsidered when the resource actually frees, so a completion touches the
tasks it can unblock instead of re-sorting the whole ready set.
Same-timestamp completions are drained by exact comparison on the pushed
finish times (an absolute epsilon would mis-merge distinct instants once
the simulation clock grows past the point where one ulp exceeds it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Mapping

from repro.core.plan import ExecutionPlan
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of simulating one plan.

    ``aborted_task_ids``/``stranded_task_ids``/``failed_resources`` (and
    :attr:`failed`) are the frozen reference engine's failure vocabulary
    (:mod:`repro.sim._reference`); the live engine simulates no failures and
    leaves them empty.
    """

    makespan_s: float
    trace: Trace
    plan: ExecutionPlan
    start_times: dict[int, float] = field(default_factory=dict)
    end_times: dict[int, float] = field(default_factory=dict)
    aborted_task_ids: tuple[int, ...] = ()
    stranded_task_ids: tuple[int, ...] = ()
    failed_resources: tuple[str, ...] = ()

    @property
    def num_tasks(self) -> int:
        return self.plan.num_tasks

    @property
    def completed_tasks(self) -> int:
        return len(self.end_times)

    @property
    def failed(self) -> bool:
        """True when a resource failure prevented the plan from completing."""
        return bool(self.failed_resources) and self.completed_tasks < self.num_tasks


class Simulator:
    """Executes plans over exclusive resources.

    The simulator is stateless between :meth:`run` calls; all per-plan
    precomputation lives in the :class:`CompiledPlan` cached on the plan, so
    re-simulating a memoised plan (sweeps, resilience iterations) skips
    straight to the event loop.
    """

    def __init__(self, record_trace: bool = True) -> None:
        self.record_trace = record_trace

    def run(
        self,
        plan: ExecutionPlan | CompiledPlan,
        speeds: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        """Simulate ``plan`` and return the makespan and trace.

        Parameters
        ----------
        plan:
            The task graph to execute — an :class:`ExecutionPlan` (compiled on
            first use, cached on the plan) or an already-compiled plan.
        speeds:
            Optional speed factor per resource name (``compute:3``,
            ``nic:1:tx``...), each finite and positive; ``None`` and an empty
            map both mean every resource runs at 1.0.
        """
        cp = plan if isinstance(plan, CompiledPlan) else compile_plan(plan)
        return _simulate(cp, speeds.items() if speeds else (), self.record_trace)


def _simulate(
    cp: CompiledPlan,
    speeds: Iterable[tuple[str, float]],
    record_trace: bool,
) -> SimulationResult:
    """The dispatch loop: :meth:`Simulator.run` and every batch simulation.

    ``speeds`` holds a speed map's ``(resource, factor)`` pairs.
    """
    durations = cp.durations
    task_res = cp.task_resources
    num_res = cp.num_resources
    speed = None
    for resource, factor in speeds:
        if not 0.0 < factor < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"speed of {resource!r} must be finite and positive, got {factor!r}"
            )
        rid = cp.resource_index.get(resource)
        if rid is not None:
            if speed is None:
                speed = [1.0] * num_res
            speed[rid] = factor
    if speed is not None:
        # Speeds hold for the whole run, so each task's time is fixed up
        # front: its duration over the slowest resource it holds.
        durations = [
            d / min((speed[rid] for rid in res), default=1.0)
            for d, res in zip(durations, task_res)
        ]

    n = cp.num_tasks
    trace = Trace()
    if n == 0:
        return SimulationResult(makespan_s=0.0, trace=trace, plan=cp.plan)

    names, kinds, ranks = cp.plan._names, cp.plan._kinds, cp.plan._ranks
    busy = [False] * num_res
    keys = cp.dispatch_keys
    remaining_deps = list(cp.dep_counts)
    dep_indptr = cp.dependents_indptr
    dep_ids = cp.dependents_ids

    # The completion heap holds (finish time, seq, task id); ``seq`` is a
    # monotonic counter, so equal finish times pop in push order.
    heap: list[tuple[float, int, int]] = []
    seq = 0
    # Indexed dispatch: a blocked task parks in the waiter list of the
    # first busy resource that blocked it, and is reconsidered only when
    # that resource frees.  Every waiting task sits in exactly one list.
    waiters: list[list[int]] = [[] for _ in range(num_res)]
    start_times: dict[int, float] = {}
    end_times: dict[int, float] = {}
    now = 0.0

    def dispatch(candidates: list[int]) -> None:
        """Start every candidate whose resources are free, in priority order.

        Candidates are the tasks a drained instant could have unblocked:
        the newly dependency-free plus the parked waiters of every resource
        the instant freed.
        """
        nonlocal seq
        candidates.sort(key=keys.__getitem__)
        for tid in candidates:
            res = task_res[tid]
            for rid in res:
                if busy[rid]:
                    waiters[rid].append(tid)
                    break
            else:
                for rid in res:
                    busy[rid] = True
                start_times[tid] = now
                heappush(heap, (now + durations[tid], seq, tid))
                seq += 1

    dispatch(list(cp.initial_ready))

    if not heap:
        raise RuntimeError("deadlock at time 0: ready tasks cannot acquire resources")

    while heap:
        now = heap[0][0]
        candidates: list[int] = []
        # Drain every completion at this exact instant before re-dispatching,
        # so freed resources go to the highest-priority waiter.  Comparison
        # is exact on the pushed times: equal instants arise from identical
        # float arithmetic, and an absolute epsilon would spuriously merge
        # distinct completions at large clocks.
        while heap and heap[0][0] == now:
            tid = heappop(heap)[2]
            end_times[tid] = now
            for rid in task_res[tid]:
                busy[rid] = False
                freed = waiters[rid]
                if freed:
                    candidates.extend(freed)
                    waiters[rid] = []
            if record_trace:
                trace.record(
                    tid, names[tid], kinds[tid], ranks[tid], start_times[tid], now
                )
            for j in range(dep_indptr[tid], dep_indptr[tid + 1]):
                dep_tid = dep_ids[j]
                remaining_deps[dep_tid] -= 1
                if remaining_deps[dep_tid] == 0:
                    candidates.append(dep_tid)
        dispatch(candidates)

    if len(end_times) != n:
        raise RuntimeError(
            f"simulation finished with {len(end_times)}/{n} tasks completed; "
            "the plan contains an unsatisfiable dependency"
        )
    return SimulationResult(
        makespan_s=max(end_times.values()),
        trace=trace,
        plan=cp.plan,
        start_times=start_times,
        end_times=end_times,
    )


def simulate(
    plan: ExecutionPlan | CompiledPlan,
    record_trace: bool = True,
    speeds: Mapping[str, float] | None = None,
) -> SimulationResult:
    """Convenience wrapper: simulate a plan with a fresh :class:`Simulator`."""
    return Simulator(record_trace=record_trace).run(plan, speeds=speeds)
