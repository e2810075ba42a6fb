"""Batching and execution: shared plan runs over the Session machinery.

The :class:`Batcher` turns the head of the queue into an execution batch by
coalescing every queued request with the *same cell* (identical strategy and
session overrides) up to ``max_batch``, so a burst of identical requests
costs one simulation.  Execution funnels through the same
:func:`repro.exec.worker.execute_payload` path sweeps use — requests become
:class:`~repro.exec.spec.SweepPoint`\\ s resolved against a
:class:`~repro.exec.worker.SessionPool` rooted at the serving session, so
plan compilation and batch sampling are shared across requests exactly like
across sweep points — plus an in-run result cache keyed by the point's
canonical JSON (the same identity :mod:`repro.exec.cache` hashes), so a cell
seen twice skips the simulation entirely.  That identity is encoded once per
(capacity config, cell) and memoised beside the point, so a served request
costs dictionary lookups, never a JSON encode.

Below the cache sits the makespan memo: a cell's simulation runs through
:func:`~repro.training.throughput.measure_throughput`, whose per-step
iterations go to :func:`repro.sim.batch.simulate_makespans` in one call — a
sampled batch repeated within the cell, or a plan state another cell already
simulated, runs the engine once.  The ``batch_simulate`` events of those
calls go to the same ambient hub as the driver's request lifecycle events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.api import Session
from repro.exec.spec import SweepPoint
from repro.exec.worker import SessionPool, execute_payload
from repro.registry import STRATEGIES
from repro.serve.arrivals import Request, RequestCell
from repro.serve.queue import RequestQueue

# Virtual service time of a request answered from the in-run result cache
# (a lookup, not a simulation).
DEFAULT_CACHE_HIT_COST_S = 0.002


@dataclass
class ExecutionBatch:
    """One shared execution: the requests it serves and its timing."""

    requests: list[Request]
    cell: RequestCell
    start_s: float
    finish_s: float
    cache_hit: bool

    @property
    def size(self) -> int:
        return len(self.requests)


class Batcher:
    """Group compatible queued requests and execute them as one plan run."""

    def __init__(
        self,
        session: Session,
        *,
        max_batch: int = 8,
        cache: bool = True,
        cache_hit_cost_s: float = DEFAULT_CACHE_HIT_COST_S,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.session = session
        self.max_batch = max_batch
        self.cache = cache
        self.cache_hit_cost_s = cache_hit_cost_s
        self.pool = SessionPool(session)
        self.simulations_executed = 0
        # key -> (virtual time the producing execution finishes, result dict),
        # stored by every simulation.  With the cache on, entries also answer
        # requests, causally: before ready_at_s a later batch joins the
        # in-flight execution.
        self._results: dict[str, tuple[float, dict[str, Any]]] = {}
        # The config new dispatches resolve against.  The autoscaler swaps it
        # via rescale(); points are keyed per (config, cell) so each capacity
        # level keeps its own execution identity (and thus cache entries).
        self._config_dict = session.config.to_dict()
        self._config_key = SweepPoint(self._config_dict).canonical_json()
        # (config key, cell) -> (point, the point's canonical JSON).  The JSON
        # is the result-cache key, so pairs that resolve to equal points (a
        # cell pinning num_gpus, seen at two capacities) share one entry.
        self._points: dict[tuple[str, RequestCell], tuple[SweepPoint, str]] = {}

    # -- capacity ----------------------------------------------------------------

    def rescale(self, config: Any) -> None:
        """Point subsequent dispatches at a resized session config.

        Called by the serve driver when an autoscale step changes the
        cluster; in-flight executions are unaffected (their points are
        already built), and revisiting a previously seen capacity reuses its
        cached points and results.
        """
        self._config_dict = config.to_dict()
        self._config_key = SweepPoint(self._config_dict).canonical_json()

    # -- request -> execution identity -------------------------------------------

    def point_for(self, cell: RequestCell) -> SweepPoint:
        """The sweep point a cell executes as (memoised per config and cell).

        Resolves the cell's strategy through the registry on first sight, so
        a bad mix fails before any request is simulated.
        """
        return self._resolve(cell)[0]

    def _resolve(self, cell: RequestCell) -> tuple[SweepPoint, str]:
        """The cell's point and result-cache key at the current capacity."""
        entry = self._points.get((self._config_key, cell))
        if entry is None:
            STRATEGIES.get(cell.strategy)
            values = {
                **self._config_dict,
                **cell.override_dict(),
                "strategy": cell.strategy,
                "strategy_kwargs": {},
                "label": None,
                "perturbation": None,
                "recovery": "checkpoint_restart",
                "num_iterations": 32,
            }
            point = SweepPoint(values)
            entry = (point, point.canonical_json())
            self._points[(self._config_key, cell)] = entry
        return entry

    def cost_estimate(self, cell: RequestCell) -> float | None:
        """Measured service time of ``cell`` at the current capacity, if known.

        ``None`` until the cell has been simulated once on the current config
        (or on any config resolving to the same point), after which the last
        measured iteration time is the estimate.  Every simulation records
        it, with the result cache on or off.  This is what SLO-aware
        admission and the deadline batcher consult — no separate model, and
        two dictionary lookups per call.
        """
        entry = self._results.get(self._resolve(cell)[1])
        if entry is None:
            return None
        return float(entry[1]["iteration_time_s"])

    # -- batching ----------------------------------------------------------------

    def collect(self, queue: RequestQueue, head: Request) -> list[Request]:
        """The batch served together with ``head``: same-cell queued requests."""
        return [head] + queue.take_matching(head.cell, self.max_batch - 1)

    # -- execution ---------------------------------------------------------------

    def execute(self, requests: list[Request], now_s: float) -> ExecutionBatch:
        """Serve one batch starting at virtual time ``now_s``.

        Causal cache semantics: a completed entry answers the batch after
        :attr:`cache_hit_cost_s` of virtual time; an entry whose producing
        execution is still in flight at ``now_s`` makes the batch *join* it
        (shared-future semantics — the batch holds its slot and completes at
        the producer's finish, never before the result virtually exists); a
        miss runs the cell's simulation (through the session pool, so plan
        caches are shared) and takes the measured iteration time.  With the
        cache off every batch simulates, and each simulation still records
        the cell's measured cost for :meth:`cost_estimate`.
        """
        cell = requests[0].cell
        point, key = self._resolve(cell)
        cached = self._results.get(key) if self.cache else None
        if cached is not None:
            ready_at_s, _ = cached
            if ready_at_s <= now_s:
                finish_s = now_s + self.cache_hit_cost_s
                served_by = "cache"
            else:
                finish_s = ready_at_s
                served_by = "batch"
        else:
            result = execute_payload(point.to_dict(), pool=self.pool)
            self.simulations_executed += 1
            finish_s = now_s + float(result["iteration_time_s"])
            self._results[key] = (finish_s, result)
            served_by = "simulate"
        for i, request in enumerate(requests):
            request.start_s = now_s
            request.finish_s = finish_s
            # The head of a fresh simulation pays for it; everyone else
            # shared an execution ("batch") or a completed entry ("cache").
            if served_by == "simulate":
                request.served_by = "simulate" if i == 0 else "batch"
            else:
                request.served_by = served_by
        return ExecutionBatch(
            requests=requests,
            cell=cell,
            start_s=now_s,
            finish_s=finish_s,
            cache_hit=served_by == "cache",
        )
