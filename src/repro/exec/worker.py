"""The shared sweep worker: one :class:`SweepPoint` in, one result out.

Every backend funnels through :func:`execute_payload`, a module-level,
picklable function so process pools can ship it to child workers.  The worker
resolves each point's session through a :class:`SessionPool`, which builds one
:class:`~repro.api.Session` per distinct configuration (cluster, model,
dataset...) and reuses it — so all points sharing a configuration also share
its sampled batches and per-(strategy, batch, phase) plan cache, exactly like
repeated :meth:`Session.compare` calls do.  Because the engine's
:class:`~repro.sim.compile.CompiledPlan` is cached on each plan object, that
sharing also amortises plan compilation: only the first point simulating a
given (strategy, batch, phase) pays the compile, every other point goes
straight to the hot loop.  Simulation itself is batched too: a point's
measurement funnels through :mod:`repro.sim.batch`, so the iterations of
plans sharing a structure within the pool execute as lanes of one
lane-parallel event loop instead of N sequential ones.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api import Session, SessionConfig
from repro.exec.spec import SweepPoint
from repro.obs.core import current_telemetry
from repro.results import ResilienceResult, RunResult


class SessionPool:
    """Build-once, reuse-everywhere store of sessions keyed by configuration.

    With a ``root`` session the pool resolves configurations through
    :meth:`Session.derive`, so sweeps launched from a session share its
    existing batch/plan caches.  Without one (the per-process default pool)
    it keeps its own family of sessions.
    """

    def __init__(self, root: Session | None = None):
        self._root = root
        self._sessions: dict[tuple[Any, ...], Session] = {}

    def get(self, config: SessionConfig) -> Session:
        if self._root is not None:
            return self._root.derive(**config.to_dict())
        key = config.cache_key()
        session = self._sessions.get(key)
        if session is None:
            session = Session(config)
            self._sessions[key] = session
        return session

    def __len__(self) -> int:
        return len(self._sessions)


# Default pool of the process; child workers of the process backend each grow
# their own copy, giving per-worker session and plan reuse across points.
_DEFAULT_POOL = SessionPool()


def execute_point(
    point: SweepPoint,
    pool: SessionPool | None = None,
) -> RunResult | ResilienceResult:
    """Execute one sweep point and return its structured result.

    The ambient hub times the strategy execution (an ``execute`` span,
    nested under the driver's ``sweep/point`` span when one is open) and
    counts executed points, without touching the result.
    """
    pool = pool if pool is not None else _DEFAULT_POOL
    session = pool.get(SessionConfig(**point.session_fields()))
    strategy = point.get("strategy")
    if strategy is None:
        raise ValueError(f"sweep point has no 'strategy' field: {point!r}")
    kwargs = dict(point.get("strategy_kwargs") or {})
    tele = current_telemetry()
    tele.counter("points_executed")
    with tele.span("execute", strategy=strategy):
        return session.run(
            strategy,
            label=point.get("label"),
            perturbation=point.get("perturbation"),
            recovery=point.get("recovery", "checkpoint_restart"),
            num_iterations=point.get("num_iterations", 32),
            **kwargs,
        )


def execute_payload(
    payload: Mapping[str, Any],
    pool: SessionPool | None = None,
) -> dict[str, Any]:
    """Picklable worker entry point: point dict in, result dict out.

    Both serial and process backends go through this function, so every
    result crosses the same ``to_dict()`` boundary regardless of backend —
    a serial and a process run of the same grid produce identical
    :class:`~repro.exec.result.SweepResult`\\ s.
    """
    return execute_point(SweepPoint(dict(payload)), pool=pool).to_dict()
