"""The discrete-event engine that executes an :class:`ExecutionPlan`.

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
never start.

There is ONE dispatch loop, :func:`_simulate`: :meth:`Simulator.run` calls
it, and so does every simulation :mod:`repro.sim.batch` runs for the
makespan memo's misses; nothing else simulates.  The static case is simply
the dynamic case with an empty event schedule (speeds stay 1.0, nothing
dies), so both produce bit-identical makespans by construction.  The loop
runs over the plan's :class:`~repro.sim.compile.CompiledPlan` —
interned resource ids backing plain ``busy``/``speed``/``alive`` arrays, CSR
dependent adjacency, and precomputed ``(priority, task_id)`` dispatch keys.
Dispatch is *indexed*: a task blocked on a busy resource parks in that
resource's waiter list and is only reconsidered when the resource actually
frees, so an event touches the tasks it can unblock instead of re-sorting
the whole ready set.  Same-timestamp events are drained by exact comparison
on the pushed completion times (an absolute epsilon would mis-merge distinct
events once the simulation clock grows past the point where one ulp exceeds
it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from repro.core.plan import ExecutionPlan
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.events import FINISH, PERTURB, ResourceEvent, compile_resource_events
from repro.sim.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of simulating one plan.

    ``aborted_task_ids``/``stranded_task_ids``/``failed_resources`` are only
    populated when a resource failure interrupts the plan; ``failed`` is then
    true and ``makespan_s`` covers the work that did finish.
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
        events: Sequence[ResourceEvent] | None = None,
        start_time_s: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``plan`` and return the makespan and trace.

        Parameters
        ----------
        plan:
            The task graph to execute — an :class:`ExecutionPlan` (compiled on
            first use, cached on the plan) or an already-compiled plan.
        events:
            Optional resource perturbations (slowdowns / failures).  ``None``
            and an empty sequence are equivalent: the engine is one core and
            a run without perturbations is bit-identical either way.
        start_time_s:
            Absolute time the plan starts at; event times are interpreted
            relative to it (events at or before the start set the initial
            resource state).
        """
        cp = plan if isinstance(plan, CompiledPlan) else compile_plan(plan)
        return _simulate(cp, events, start_time_s, self.record_trace)


def _simulate(
    cp: CompiledPlan,
    events: Sequence[ResourceEvent] | None,
    start_time_s: float,
    record_trace: bool,
) -> SimulationResult:
    """The dispatch loop: :meth:`Simulator.run` and every batch simulation."""
    n = cp.num_tasks
    trace = Trace()
    if n == 0:
        return SimulationResult(makespan_s=0.0, trace=trace, plan=cp.plan)

    names, kinds, ranks = cp.plan._names, cp.plan._kinds, cp.plan._ranks
    num_res = cp.num_resources
    busy = [False] * num_res
    speed = [1.0] * num_res
    alive = [True] * num_res
    any_dead = False

    # The event heap holds flat tuples (time, kind, seq, a, b): completions
    # are (t, FINISH, seq, task_id, generation), perturbations are
    # (t, PERTURB, seq, factor, resource_ids).  ``seq`` is a single
    # monotonic counter, so ties within one (time, kind) pop in push order.
    heap: list[tuple] = []
    seq = 0
    has_perturbations = False
    if events:
        initial, timed = compile_resource_events(
            events, cp.resource_index, start_time_s
        )
        for factor, rids in initial:
            for rid in rids:
                if factor is None:
                    alive[rid] = False
                    any_dead = True
                else:
                    speed[rid] = factor
        for local, factor, rids in timed:
            heap.append((local, PERTURB, seq, factor, rids))
            seq += 1
        # Entries were appended in sorted (time, seq) order: already a heap.
        has_perturbations = bool(heap) or any(s != 1.0 for s in speed)

    durations = cp.durations
    task_res = cp.task_resources
    keys = cp.dispatch_keys
    remaining_deps = list(cp.dep_counts)
    dep_indptr = cp.dependents_indptr
    dep_ids = cp.dependents_ids

    # Indexed dispatch: a blocked task parks in the waiter list of the
    # first busy resource that blocked it, and is reconsidered only when
    # that resource frees.  Every waiting task sits in exactly one list.
    waiters: list[list[int]] = [[] for _ in range(num_res)]

    start_times: dict[int, float] = {}
    end_times: dict[int, float] = {}
    # tid -> current execution rate, for every task in flight.  A re-timed
    # task's current segment (start, remaining work at speed 1) lives in
    # ``segments``; until then it is (its start time, its duration).
    running: dict[int, float] = {}
    segments: dict[int, tuple[float, float]] = {}
    generation = [0] * n  # invalidates stale completion events
    aborted: list[int] = []
    completed = 0
    now = 0.0

    def dispatch(candidates: list[int]) -> None:
        """Start every candidate whose resources are free, in priority order.

        Candidates are the tasks an event batch could have unblocked: the
        newly dependency-free plus the parked waiters of every resource
        the batch freed.  Tasks needing a dead resource are dropped here
        and accounted as stranded in the final sweep.
        """
        nonlocal seq
        candidates.sort(key=keys.__getitem__)
        for tid in candidates:
            res = task_res[tid]
            startable = True
            for rid in res:
                if not alive[rid]:
                    startable = False  # stranded: never starts
                    break
                if busy[rid]:
                    waiters[rid].append(tid)
                    startable = False
                    break
            if not startable:
                continue
            for rid in res:
                busy[rid] = True
            start_times[tid] = now
            if has_perturbations:
                rate = min((speed[rid] for rid in res), default=1.0)
                finish_at = now + durations[tid] / rate
            else:
                rate = 1.0
                finish_at = now + durations[tid]
            running[tid] = rate
            heappush(heap, (finish_at, FINISH, seq, tid, generation[tid]))
            seq += 1

    dispatch(list(cp.initial_ready))

    if not running and not heap and not any_dead:
        raise RuntimeError(
            "deadlock at time 0: ready tasks cannot acquire resources"
        )

    while heap:
        now = heap[0][0]
        finished: list[int] = []
        perturbations: list[tuple] = []
        # Drain all events at this exact timestamp (completions first, by
        # kind order) before re-dispatching, so freed resources go to the
        # highest-priority waiter and same-instant failures see final
        # state.  Comparison is exact on the pushed times: equal
        # completion instants arise from identical float arithmetic, and
        # an absolute epsilon would spuriously merge distinct events at
        # large clocks.  A completion is current iff its generation is:
        # aborting or re-timing a task bumps it, orphaning the old event.
        while heap and heap[0][0] == now:
            _, kind, _, a, b = heappop(heap)
            if kind == FINISH:
                if generation[a] == b:
                    finished.append(a)
            else:
                perturbations.append((a, b))

        candidates: list[int] = []
        for tid in finished:
            del running[tid]
            end_times[tid] = now
            completed += 1
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

        for factor, rids in perturbations:
            if factor is None:
                for rid in rids:
                    alive[rid] = False
                any_dead = True
                dead = set(rids)
                for tid in [
                    t for t in running if not dead.isdisjoint(task_res[t])
                ]:
                    generation[tid] += 1
                    del running[tid]
                    aborted.append(tid)
                    for rid in task_res[tid]:
                        busy[rid] = False
                        freed = waiters[rid]
                        if freed:
                            candidates.extend(freed)
                            waiters[rid] = []
                    if record_trace:
                        trace.record(
                            tid, names[tid], kinds[tid], ranks[tid],
                            start_times[tid], now, aborted=True,
                        )
            else:
                changed = set(rids)
                for rid in rids:
                    speed[rid] = factor
                for tid, rate in running.items():
                    res = task_res[tid]
                    if changed.isdisjoint(res):
                        continue
                    seg_start, remaining = segments.get(tid) or (
                        start_times[tid], durations[tid]
                    )
                    remaining = max(0.0, remaining - (now - seg_start) * rate)
                    rate = min((speed[rid] for rid in res), default=1.0)
                    running[tid] = rate
                    segments[tid] = (now, remaining)
                    generation[tid] += 1
                    heappush(
                        heap,
                        (now + remaining / rate, FINISH, seq, tid, generation[tid]),
                    )
                    seq += 1

        dispatch(candidates)

    failed_resources: tuple[str, ...] = ()
    stranded: tuple[int, ...] = ()
    if any_dead:
        names = cp.resource_names
        failed_resources = tuple(
            sorted(names[rid] for rid in range(num_res) if not alive[rid])
        )
    if completed != n:
        if not failed_resources:
            raise RuntimeError(
                f"simulation finished with {completed}/{n} tasks completed; "
                "the plan contains an unsatisfiable dependency"
            )
        # Once the event queue drains, every task that neither completed
        # nor aborted can never run — it waits on a dead resource or
        # (transitively) on an aborted task.  Account for the whole
        # stranded subtree here; nothing needs tracking during dispatch.
        aborted_set = set(aborted)
        stranded = tuple(
            sorted(
                tid
                for tid in range(n)
                if tid not in end_times and tid not in aborted_set
            )
        )
    makespan = max(end_times.values()) if end_times else 0.0
    return SimulationResult(
        makespan_s=makespan,
        trace=trace,
        plan=cp.plan,
        start_times=start_times,
        end_times=end_times,
        aborted_task_ids=tuple(aborted),
        stranded_task_ids=stranded,
        failed_resources=failed_resources,
    )


def simulate(
    plan: ExecutionPlan | CompiledPlan,
    record_trace: bool = True,
    events: Sequence[ResourceEvent] | None = None,
    start_time_s: float = 0.0,
) -> SimulationResult:
    """Convenience wrapper: simulate a plan with a fresh :class:`Simulator`."""
    return Simulator(record_trace=record_trace).run(
        plan, events=events, start_time_s=start_time_s
    )
