"""Frozen pre-refactor discrete-event engine (reference semantics).

This module is a verbatim copy of the engine as it stood before the
compiled-plan rewrite (PR 4).  It is **not** part of the public API and is
never used on hot paths; it exists so the equivalence tests and the hot-loop
benchmark can check, bit for bit, that the unified engine in
:mod:`repro.sim.engine` reproduces the original scheduling semantics
(start/end times, aborts, stranding) and to quantify the speedup.

Original module docstring follows.

Scheduling policy: a task becomes *ready* once all its dependencies have
completed; a ready task *starts* as soon as every resource it needs is free,
with ties broken by (priority, insertion order).  This is list scheduling over
exclusive resources — the same greedy policy a CUDA stream manager implements —
so the resulting makespan reflects genuine overlap and genuine contention (two
transfers sharing a NIC serialise; compute and communication on different
resources overlap).

Dynamic conditions (:mod:`repro.dynamics`) enter through ``events``: a list of
:class:`~repro.sim.events.ResourceEvent` giving resources time-varying speed
factors or killing them outright.  A task's execution rate is the minimum
speed factor over the resources it holds; when a factor changes mid-task the
remaining work is re-timed at the new rate, and when a resource fails every
in-flight task holding it is aborted (recorded in the trace with
``aborted=True``) while tasks that require a dead resource are stranded and
never start.  With no events the dynamic path reproduces the static path's
makespans bit for bit.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.core.plan import ExecutionPlan, Task
from repro.sim.engine import SimulationResult
from repro.sim.events import EventQueue, ResourceEvent
from repro.sim.trace import Trace, TraceSpan


class ReferenceSimulator:
    """Executes plans over exclusive resources.

    The simulator is stateless between :meth:`run` calls; resources are derived
    from the plan itself (any resource name a task mentions).

    ``exact_drain`` is the one deliberate deviation switch: the original
    engine drained same-timestamp events with an absolute
    ``abs(t - now) < 1e-15`` epsilon, which spuriously merges distinct
    completion instants that differ by a few ulp (and stops merging anything
    non-identical once the clock exceeds ~4.5, where one ulp outgrows the
    epsilon).  The unified engine compares pushed completion times exactly;
    passing ``exact_drain=True`` applies the same fix here so equivalence
    tests can compare the two engines under identical drain semantics.
    """

    def __init__(self, record_trace: bool = True, exact_drain: bool = False) -> None:
        self.record_trace = record_trace
        self.exact_drain = exact_drain

    def run(
        self,
        plan: ExecutionPlan,
        events: Sequence[ResourceEvent] | None = None,
        start_time_s: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``plan`` and return the makespan and trace.

        Parameters
        ----------
        plan:
            The task graph to execute.
        events:
            Optional resource perturbations (slowdowns / failures).  ``None``
            selects the static fast path; an empty sequence runs the dynamic
            path and yields identical makespans.
        start_time_s:
            Absolute time the plan starts at; event times are interpreted
            relative to it (events at or before the start set the initial
            resource state).
        """
        if events is not None:
            return self._run_dynamic(plan, events, start_time_s)
        plan.validate()
        tasks = plan.tasks
        n = len(tasks)
        trace = Trace()
        if n == 0:
            return SimulationResult(makespan_s=0.0, trace=trace, plan=plan)

        remaining_deps = [len(t.deps) for t in tasks]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for t in tasks:
            for d in t.deps:
                dependents[d].append(t.task_id)

        resource_busy: dict[str, bool] = {}
        for t in tasks:
            for r in t.resources:
                resource_busy.setdefault(r, False)

        # Ready tasks waiting for resources, kept sorted by (priority, id) at
        # dispatch time.  A simple list is sufficient: the ready set stays small
        # because dependency chains serialise most of the plan.
        ready: list[int] = []
        events = EventQueue()
        start_times: dict[int, float] = {}
        end_times: dict[int, float] = {}
        running: set[int] = set()
        completed = 0
        now = 0.0

        def try_start(candidates: list[int]) -> None:
            """Start every candidate whose resources are free, in priority order."""
            nonlocal ready
            candidates.sort(key=lambda tid: (tasks[tid].priority, tid))
            still_waiting: list[int] = []
            for tid in candidates:
                task = tasks[tid]
                if any(resource_busy[r] for r in task.resources):
                    still_waiting.append(tid)
                    continue
                for r in task.resources:
                    resource_busy[r] = True
                start_times[tid] = now
                running.add(tid)
                events.push(now + task.duration_s, tid)
            ready = still_waiting

        for t in tasks:
            if remaining_deps[t.task_id] == 0:
                ready.append(t.task_id)
        try_start(ready)

        if not running and ready:
            raise RuntimeError("deadlock at time 0: ready tasks cannot acquire resources")

        while events:
            event = events.pop()
            now = event.time_s
            finished = [event.task_id]
            # Drain all events at the same timestamp before re-dispatching, so
            # freed resources are assigned to the highest-priority waiter.
            while events and (
                events._heap[0].time_s == now
                if self.exact_drain
                else abs(events._heap[0].time_s - now) < 1e-15
            ):
                finished.append(events.pop().task_id)

            newly_ready: list[int] = []
            for tid in finished:
                task = tasks[tid]
                running.discard(tid)
                end_times[tid] = now
                completed += 1
                for r in task.resources:
                    resource_busy[r] = False
                if self.record_trace:
                    trace.add(
                        TraceSpan(
                            task_id=tid,
                            name=task.name,
                            kind=task.kind,
                            rank=task.rank,
                            start_s=start_times[tid],
                            end_s=now,
                        )
                    )
                for dep_tid in dependents[tid]:
                    remaining_deps[dep_tid] -= 1
                    if remaining_deps[dep_tid] == 0:
                        newly_ready.append(dep_tid)

            try_start(ready + newly_ready)

        if completed != n:
            raise RuntimeError(
                f"simulation finished with {completed}/{n} tasks completed; "
                "the plan contains an unsatisfiable dependency"
            )
        makespan = max(end_times.values()) if end_times else 0.0
        return SimulationResult(
            makespan_s=makespan,
            trace=trace,
            plan=plan,
            start_times=start_times,
            end_times=end_times,
        )

    # -- dynamic path (time-varying speeds, failures) ---------------------------

    # Event-kind ordering within one timestamp: completions settle before
    # perturbations apply, so a task finishing exactly when its resource dies
    # counts as completed.
    _FINISH = 0
    _PERTURB = 1

    def _run_dynamic(
        self,
        plan: ExecutionPlan,
        events: Sequence[ResourceEvent],
        start_time_s: float,
    ) -> SimulationResult:
        """List scheduling under time-varying resource speeds and failures."""
        plan.validate()
        tasks = plan.tasks
        n = len(tasks)
        trace = Trace()
        if n == 0:
            return SimulationResult(makespan_s=0.0, trace=trace, plan=plan)

        remaining_deps = [len(t.deps) for t in tasks]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for t in tasks:
            for d in t.deps:
                dependents[d].append(t.task_id)

        resource_busy: dict[str, bool] = {}
        resource_speed: dict[str, float] = {}
        resource_alive: dict[str, bool] = {}
        for t in tasks:
            for r in t.resources:
                resource_busy.setdefault(r, False)
                resource_speed.setdefault(r, 1.0)
                resource_alive.setdefault(r, True)

        # Compile the schedule: apply events at/before the start as initial
        # state, queue the rest in plan-local time.  Resources the plan never
        # mentions are irrelevant and dropped.
        heap: list[tuple[float, int, int, tuple]] = []
        seq = 0
        for event in sorted(events, key=lambda e: e.time_s):
            relevant = tuple(r for r in event.resources if r in resource_busy)
            if not relevant:
                continue
            local = event.time_s - start_time_s
            if local <= 0.0:
                for r in relevant:
                    if event.is_failure:
                        resource_alive[r] = False
                    else:
                        resource_speed[r] = event.factor
            else:
                heapq.heappush(
                    heap, (local, self._PERTURB, seq, (event.factor, relevant))
                )
                seq += 1

        def task_speed(task: Task) -> float:
            return min((resource_speed[r] for r in task.resources), default=1.0)

        ready: list[int] = []
        stranded: set[int] = set()
        start_times: dict[int, float] = {}
        end_times: dict[int, float] = {}
        # tid -> [segment start, remaining work (s at speed 1), current speed].
        running: dict[int, list[float]] = {}
        generation = [0] * n  # invalidates stale completion events
        aborted: list[int] = []
        completed = 0
        now = 0.0

        def push_completion(tid: int) -> None:
            nonlocal seq
            seg_start, remaining, speed = running[tid]
            heapq.heappush(
                heap,
                (seg_start + remaining / speed, self._FINISH, seq, (tid, generation[tid])),
            )
            seq += 1

        def try_start(candidates: list[int]) -> None:
            """Start every candidate whose resources are free, in priority order."""
            nonlocal ready
            candidates.sort(key=lambda tid: (tasks[tid].priority, tid))
            still_waiting: list[int] = []
            for tid in candidates:
                task = tasks[tid]
                if any(not resource_alive[r] for r in task.resources):
                    stranded.add(tid)
                    continue
                if any(resource_busy[r] for r in task.resources):
                    still_waiting.append(tid)
                    continue
                for r in task.resources:
                    resource_busy[r] = True
                start_times[tid] = now
                running[tid] = [now, task.duration_s, task_speed(task)]
                push_completion(tid)
            ready = still_waiting

        for t in tasks:
            if remaining_deps[t.task_id] == 0:
                ready.append(t.task_id)
        try_start(ready)

        if not running and ready and not heap:
            raise RuntimeError("deadlock at time 0: ready tasks cannot acquire resources")

        while heap:
            now = heap[0][0]
            finished: list[int] = []
            perturbations: list[tuple] = []
            # Drain all events at this timestamp (completions first, by kind
            # order) before re-dispatching, so freed resources go to the
            # highest-priority waiter and same-instant failures see final state.
            while heap and (
                heap[0][0] == now
                if self.exact_drain
                else abs(heap[0][0] - now) < 1e-15
            ):
                _, kind, _, payload = heapq.heappop(heap)
                if kind == self._FINISH:
                    tid, gen = payload
                    if tid in running and generation[tid] == gen:
                        finished.append(tid)
                else:
                    perturbations.append(payload)

            newly_ready: list[int] = []
            for tid in finished:
                task = tasks[tid]
                del running[tid]
                end_times[tid] = now
                completed += 1
                for r in task.resources:
                    resource_busy[r] = False
                if self.record_trace:
                    trace.add(
                        TraceSpan(
                            task_id=tid,
                            name=task.name,
                            kind=task.kind,
                            rank=task.rank,
                            start_s=start_times[tid],
                            end_s=now,
                        )
                    )
                for dep_tid in dependents[tid]:
                    remaining_deps[dep_tid] -= 1
                    if remaining_deps[dep_tid] == 0:
                        newly_ready.append(dep_tid)

            for factor, resources in perturbations:
                if factor is None:
                    for r in resources:
                        resource_alive[r] = False
                    dead = set(resources)
                    for tid in [t for t in running if set(tasks[t].resources) & dead]:
                        task = tasks[tid]
                        generation[tid] += 1
                        del running[tid]
                        aborted.append(tid)
                        for r in task.resources:
                            resource_busy[r] = False
                        if self.record_trace:
                            trace.add(
                                TraceSpan(
                                    task_id=tid,
                                    name=task.name,
                                    kind=task.kind,
                                    rank=task.rank,
                                    start_s=start_times[tid],
                                    end_s=now,
                                    aborted=True,
                                )
                            )
                else:
                    changed = set(resources)
                    for r in resources:
                        resource_speed[r] = factor
                    for tid, record in running.items():
                        task = tasks[tid]
                        if not changed & set(task.resources):
                            continue
                        seg_start, remaining, speed = record
                        remaining = max(0.0, remaining - (now - seg_start) * speed)
                        record[0] = now
                        record[1] = remaining
                        record[2] = task_speed(task)
                        generation[tid] += 1
                        push_completion(tid)

            try_start(ready + newly_ready)

        failed_resources = tuple(sorted(r for r, alive in resource_alive.items() if not alive))
        if completed != n and not failed_resources:
            raise RuntimeError(
                f"simulation finished with {completed}/{n} tasks completed; "
                "the plan contains an unsatisfiable dependency"
            )
        # Once the event queue drains, every task that neither completed nor
        # aborted can never run — it waits on a dead resource or (transitively)
        # on an aborted task.  Account for the whole stranded subtree, not just
        # the tasks that became ready.
        aborted_set = set(aborted)
        stranded = {
            t.task_id
            for t in tasks
            if t.task_id not in end_times and t.task_id not in aborted_set
        }
        makespan = max(end_times.values()) if end_times else 0.0
        return SimulationResult(
            makespan_s=makespan,
            trace=trace,
            plan=plan,
            start_times=start_times,
            end_times=end_times,
            aborted_task_ids=tuple(aborted),
            stranded_task_ids=tuple(sorted(stranded)),
            failed_resources=failed_resources,
        )

