"""Many simulations in one call, each run once through the engine's loop.

Producers hand their simulations over in bulk.  :func:`simulate_makespans`
is the producer-facing entry: each compiled plan memoises the makespans it
has finished, keyed by the request's speed map, so a request some earlier
call answered is not simulated again, and duplicates within one call run
once.  Only the misses reach :func:`simulate_many`, which runs every request
through the engine's one dispatch loop (:func:`repro.sim.engine._simulate`)
in request order.  ``repro.training`` — and through it
``repro.serve.batcher`` (via the sweep worker) and
``repro.dynamics.recovery`` — funnels through it.

:func:`simulate_batch` runs duration/speed variants ("lanes") of one
compiled plan the same way.  Every result is bit-identical to a sequential
:meth:`Simulator.run` call because it *is* that call's loop.  Each call of
:func:`simulate_many` or :func:`simulate_batch` reports one
``batch_simulate`` event and its lane count to the ambient hub.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.plan import ExecutionPlan
from repro.obs.core import current_telemetry
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.engine import SimulationResult, _simulate

# A speed map as lanes, requests and the makespan memo carry it: sorted
# ``(resource, factor)`` pairs, so equal maps are equal keys.
Speeds = tuple[tuple[str, float], ...]


def _speed_key(speeds: "Mapping[str, float] | Speeds | None") -> Speeds:
    return tuple(sorted(dict(speeds).items())) if speeds else ()


@dataclass(frozen=True)
class Lane:
    """One variant of a compiled plan: durations and resource speeds.

    ``durations`` of ``None`` means "the compiled plan's own durations".
    ``speeds`` takes a ``{resource: factor}`` mapping (or its pairs) and
    stores it as :data:`Speeds`.
    """

    durations: tuple[float, ...] | None = None
    speeds: Speeds = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "speeds", _speed_key(self.speeds))


@dataclass(frozen=True)
class SimRequest:
    """One simulation a producer wants: a plan plus its resource speeds.

    ``speeds`` takes a ``{resource: factor}`` mapping (or its pairs) and
    stores it as :data:`Speeds`, the makespan memo's key, so equal maps in
    any order are one state.
    """

    plan: "ExecutionPlan | CompiledPlan"
    speeds: Speeds = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "speeds", _speed_key(self.speeds))


def _compiled(plan: "ExecutionPlan | CompiledPlan") -> CompiledPlan:
    return plan if isinstance(plan, CompiledPlan) else compile_plan(plan)


def _emit(lanes: int) -> None:
    tele = current_telemetry()
    tele.counter("batch_lanes", lanes)
    tele.event("batch_simulate", lanes=lanes)


def simulate_batch(
    compiled: "ExecutionPlan | CompiledPlan", lanes: Sequence[Lane]
) -> list[SimulationResult]:
    """Simulate K lanes of one compiled plan; results in lane order."""
    cp = _compiled(compiled)
    results = []
    for lane in lanes:
        lane_cp = cp
        if lane.durations is not None:
            lane_cp = dataclasses.replace(cp, durations=lane.durations)
        results.append(_simulate(lane_cp, lane.speeds, False))
    _emit(len(lanes))
    return results


def simulate_many(requests: Sequence[SimRequest]) -> list[SimulationResult]:
    """Simulate arbitrary plans; results in request order."""
    results = [_simulate(_compiled(r.plan), r.speeds, False) for r in requests]
    _emit(len(requests))
    return results


def simulate_makespans(requests: Sequence[SimRequest]) -> list[float]:
    """The makespan of every request, simulating each distinct state once.

    A request is answered from :attr:`CompiledPlan.makespans` when its
    compiled plan has already finished its speeds; the distinct misses run
    as one :func:`simulate_many` call and enter the memo, so a request
    repeated within the call runs once too.  The memo lives and dies with
    its compile (:meth:`ExecutionPlan.add` drops both), and simulation is
    deterministic, so a hit equals a fresh :meth:`Simulator.run` bit for
    bit.  Each call adds every request it did not simulate to the ambient
    hub's ``makespan_memo_hits`` counter.
    """
    compiled = [_compiled(r.plan) for r in requests]
    misses: dict[tuple, int] = {}  # (compile, speeds) -> first request index
    for i, (cp, r) in enumerate(zip(compiled, requests)):
        if r.speeds not in cp.makespans:
            misses.setdefault((id(cp), r.speeds), i)
    if misses:
        results = simulate_many([requests[i] for i in misses.values()])
        for i, result in zip(misses.values(), results):
            compiled[i].makespans[requests[i].speeds] = result.makespan_s
    current_telemetry().counter("makespan_memo_hits", len(requests) - len(misses))
    return [cp.makespans[r.speeds] for cp, r in zip(compiled, requests)]
