"""Batched lane-parallel simulation over one shared ``CompiledPlan`` structure.

The workloads this repo sweeps are dominated by re-simulating *nearly
identical* plans: sweep grids that vary only scalar durations, serve mixes
that re-execute the same handful of cells, and resilience drivers that
re-time one DAG under different speed schedules.  :class:`CompiledPlan`
amortised *compilation* across those runs; this module amortises the
simulation itself.  :func:`simulate_batch` executes K duration/event
variants ("lanes") of one compiled structure in a single pass:

* **lane dedup** — lanes with identical ``(durations, events, start)`` over
  the same structure collapse to one simulation whose result is fanned back
  out to every requester (the serve/replica case);
* **schedule replay** — the first simulated lane (the *pilot*) runs the
  engine's dispatch loop (:func:`repro.sim.engine._simulate`), which also
  captures its *schedule*: the grouping of same-instant completions and
  the dispatch decisions each group triggered.  Engine decisions depend on
  durations only through the grouping and ordering of completion instants,
  so a later lane whose completion times produce the same grouping is
  replayed arithmetically: one ``end = start + duration`` (or ``/rate``)
  per task instead of a full event loop.  Replay *verifies* the grouping
  on the fly — every member of a group must land on the bitwise-identical
  instant, group times must be non-decreasing, and an equal-time group
  must have been dispatched by its predecessor — and when any check fails
  the lane runs the engine instead, becoming the new pilot.

Results are bit-identical to N sequential :meth:`Simulator.run` calls by
construction: every lane that is not replayed runs the engine's one
dispatch loop, and the replay verification accepts exactly the lanes whose
loop would retrace the pilot's decisions.  Lanes replay cannot take —
timed perturbations, failures, trace recording — always run the engine.  A
pilot captures its schedule only while a later replayable lane could still
read it, so the last simulated lane pays nothing for capture.

:func:`simulate_many` accepts requests over *different* plans, groups them
by :attr:`CompiledPlan.structure_key`, and runs one batch per structure.
:func:`simulate_makespans` is the producer-facing entry in front of it: each
compiled plan memoises the makespans it has finished, keyed by
``(events, start_time_s)``, so only requests no earlier call answered reach
:func:`simulate_many`.  ``repro.training`` — and through it
``repro.serve.batcher`` (via the sweep worker) and
``repro.dynamics.recovery`` — funnels through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.core.plan import ExecutionPlan
from repro.obs.core import current_telemetry
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.engine import SimulationResult, _simulate
from repro.sim.events import ResourceEvent, compile_resource_events
from repro.sim.trace import Trace


@dataclass(frozen=True)
class Lane:
    """One variant of a shared plan structure: durations, events, attribution.

    ``durations`` of ``None`` means "the batch structure's own durations".
    ``plan`` is the plan results are attributed to (``SimulationResult.plan``
    and trace names); it defaults to the batch structure's plan and must
    share its structure.
    """

    durations: tuple[float, ...] | None = None
    events: tuple[ResourceEvent, ...] = ()
    start_time_s: float = 0.0
    plan: ExecutionPlan | None = None


@dataclass(frozen=True)
class SimRequest:
    """One simulation a producer wants: a plan plus its dynamic conditions."""

    plan: "ExecutionPlan | CompiledPlan"
    events: tuple[ResourceEvent, ...] = ()
    start_time_s: float = 0.0


def _lane_rates(cp: CompiledPlan, lane: Lane) -> "list[float] | tuple[()] | None":
    """Per-task execution rates of a replayable lane, or ``None`` if ineligible.

    Replay handles lanes whose events all reduce to *initial* speed factors
    (the shape ``dynamics`` produces for persistent slowdowns); ``()`` means
    every resource runs at speed 1.  Timed perturbations and failures are
    never replayed.
    """
    if not lane.events:
        return ()
    initial, timed = compile_resource_events(
        lane.events, cp.resource_index, lane.start_time_s
    )
    if timed:
        return None
    speed = [1.0] * cp.num_resources
    for factor, rids in initial:
        if factor is None:  # failure: dispatch semantics change
            return None
        for rid in rids:
            speed[rid] = factor
    if all(s == 1.0 for s in speed):
        return ()
    return [min((speed[rid] for rid in res), default=1.0) for res in cp.task_resources]


def _replay(schedule, durations, rates, plan):
    """Arithmetic replay of a pilot schedule, or ``None`` if it diverges.

    ``schedule`` is what :func:`repro.sim.engine._simulate` captured for the
    pilot lane.  Verification accepts a lane iff its completion times
    reproduce the pilot's grouping and ordering — exactly the information
    the engine's decisions consume beyond structure:

    * every member of a group ends at the bitwise-identical instant (a split
      or foreign-time member fails here);
    * group times are non-decreasing (a reordering fails here);
    * a group at the *same* instant as its predecessor consists only of
      tasks the predecessor dispatched (the zero-duration / same-instant
      push case — anything else would have been drained into the earlier
      group by the engine).
    """
    pairs = iter(schedule)
    next(pairs)  # nothing completes before the dispatch at t=0
    starters = next(pairs)
    ends: dict[int, float] = {}
    start_times: dict[int, float] = {}
    end_times: dict[int, float] = {}
    for tid in starters:
        start_times[tid] = 0.0
        ends[tid] = durations[tid] / rates[tid] if rates else durations[tid]
    prev_t = -1.0
    for members, next_starters in zip(pairs, pairs):
        t = ends[members[0]]
        if t < prev_t:
            return None
        if t == prev_t and not set(starters).issuperset(members):
            return None
        for tid in members:
            if ends[tid] != t:
                return None
            end_times[tid] = t
        prev_t = t
        starters = next_starters
        if rates:
            for tid in starters:
                start_times[tid] = t
                ends[tid] = t + durations[tid] / rates[tid]
        else:
            for tid in starters:
                start_times[tid] = t
                ends[tid] = t + durations[tid]
    return SimulationResult(
        makespan_s=prev_t if end_times else 0.0,
        trace=Trace(),
        plan=plan,
        start_times=start_times,
        end_times=end_times,
    )


def _simulate_group(
    cp: CompiledPlan,
    lanes: Sequence[Lane],
    record_trace: bool,
    dedup: bool,
) -> tuple[list["SimulationResult | None"], int, int]:
    """Simulate one structure's lanes; returns (results, deduped, replayed)."""
    results: list[SimulationResult | None] = [None] * len(lanes)
    slots: dict[tuple, list[int]] = {}
    for i, lane in enumerate(lanes):
        if dedup:
            key = (
                lane.durations if lane.durations is not None else cp.durations,
                lane.events,
                lane.start_time_s,
                id(lane.plan) if lane.plan is not None else id(cp.plan),
            )
        else:
            key = (i,)
        slots.setdefault(key, []).append(i)
    deduped = len(lanes) - len(slots)

    # Trace recording, timed perturbations, failures and empty plans are
    # never replayed.  A pilot captures its schedule only while a later
    # replayable lane could read it.
    lane_rates = [
        None if record_trace or cp.num_tasks == 0 else _lane_rates(cp, lanes[s[0]])
        for s in slots.values()
    ]
    last_replayable = max(
        (k for k, rates in enumerate(lane_rates) if rates is not None), default=-1
    )
    schedule: list | None = None
    replayed = 0
    for k, indices in enumerate(slots.values()):
        lane = lanes[indices[0]]
        durations = lane.durations if lane.durations is not None else cp.durations
        plan = lane.plan if lane.plan is not None else cp.plan
        rates = lane_rates[k]
        result = None
        if schedule is not None and rates is not None:
            result = _replay(schedule, durations, rates, plan)
            if result is not None:
                replayed += 1
        if result is None:
            # The engine runs this lane; it becomes the pilot if a later lane
            # could replay it.
            capture = [] if rates is not None and k < last_replayable else None
            lane_cp = (
                cp
                if durations is cp.durations and plan is cp.plan
                else dataclasses.replace(cp, plan=plan, durations=durations)
            )
            result = _simulate(
                lane_cp, lane.events, lane.start_time_s, record_trace, capture
            )
            if capture is not None:
                schedule = capture
        for i in indices:
            results[i] = result
    return results, deduped, replayed


def _emit(lanes: int, deduped: int, structures: int, replayed: int) -> None:
    tele = current_telemetry()
    tele.counter("batch_lanes", lanes)
    tele.counter("batch_lanes_deduped", deduped)
    tele.counter("batch_lanes_replayed", replayed)
    tele.event(
        "batch_simulate",
        lanes=lanes,
        deduped=deduped,
        structures=structures,
        replayed=replayed,
    )


def simulate_batch(
    compiled: "ExecutionPlan | CompiledPlan",
    lanes: Sequence[Lane],
    *,
    record_trace: bool = False,
    dedup: bool = True,
) -> list[SimulationResult]:
    """Simulate K lanes of one shared structure; results in lane order.

    Bit-identical to running each lane through :meth:`Simulator.run`
    sequentially (deduped lanes share one result *object*; its values are
    identical).  Each call reports one ``batch_simulate`` event to the
    ambient hub.
    """
    cp = compiled if isinstance(compiled, CompiledPlan) else compile_plan(compiled)
    results, deduped, replayed = _simulate_group(cp, lanes, record_trace, dedup)
    _emit(len(lanes), deduped, 1, replayed)
    return results  # type: ignore[return-value]


def simulate_many(
    requests: Sequence[SimRequest],
    *,
    record_trace: bool = False,
    dedup: bool = True,
) -> list[SimulationResult]:
    """Simulate arbitrary plans, batching the ones that share structure.

    Requests are grouped by :attr:`CompiledPlan.structure_key`; each group
    runs as one :func:`simulate_batch`-style pass (per-lane durations come
    from each request's own compiled plan), results return in request order.
    """
    compiled = [
        r.plan if isinstance(r.plan, CompiledPlan) else compile_plan(r.plan)
        for r in requests
    ]
    groups: dict[tuple, list[int]] = {}
    for i, cp in enumerate(compiled):
        groups.setdefault(cp.structure_key, []).append(i)

    results: list[SimulationResult | None] = [None] * len(requests)
    deduped = 0
    replayed = 0
    for indices in groups.values():
        cp0 = compiled[indices[0]]
        lanes = [
            Lane(
                durations=compiled[i].durations,
                events=tuple(requests[i].events),
                start_time_s=requests[i].start_time_s,
                plan=compiled[i].plan,
            )
            for i in indices
        ]
        group_results, group_deduped, group_replayed = _simulate_group(
            cp0, lanes, record_trace, dedup
        )
        deduped += group_deduped
        replayed += group_replayed
        for i, result in zip(indices, group_results):
            results[i] = result
    _emit(len(requests), deduped, len(groups), replayed)
    return results  # type: ignore[return-value]


def simulate_makespans(requests: Sequence[SimRequest]) -> list[float]:
    """The makespan of every request, simulating each distinct state once.

    A request is answered from :attr:`CompiledPlan.makespans` when its
    compiled plan has already finished ``(events, start_time_s)``; the
    misses run as one :func:`simulate_many` call and enter the memo.  The
    memo lives and dies with its compile (:meth:`ExecutionPlan.add` drops
    both), and simulation is deterministic, so a hit equals a fresh
    :meth:`Simulator.run` bit for bit.  Each call adds its hits to the
    ambient hub's ``makespan_memo_hits`` counter.
    """
    compiled = [
        r.plan if isinstance(r.plan, CompiledPlan) else compile_plan(r.plan)
        for r in requests
    ]
    keys = [(tuple(r.events), r.start_time_s) for r in requests]
    makespans = [cp.makespans.get(key) for cp, key in zip(compiled, keys)]
    misses = [i for i, makespan in enumerate(makespans) if makespan is None]
    if misses:
        results = simulate_many([requests[i] for i in misses])
        for i, result in zip(misses, results):
            makespans[i] = compiled[i].makespans[keys[i]] = result.makespan_s
    current_telemetry().counter("makespan_memo_hits", len(requests) - len(misses))
    return makespans  # type: ignore[return-value]
