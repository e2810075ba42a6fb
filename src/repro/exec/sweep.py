"""The sweep driver: expand a spec, consult the cache, fan out, collect.

:func:`run_sweep` is the single execution path behind
:meth:`Session.compare`, :meth:`Session.sweep`, the experiment modules and
the ``repro sweep`` CLI subcommand.  It expands the grid, short-circuits
cached points, hands the misses to the selected backend and reassembles
everything — cached and fresh — into a :class:`SweepResult` in expansion
order, with cache/backend observability in ``meta``.  Before fan-out the
driver also collapses points whose execution identity (canonical JSON, tags
excluded) is the same — tagged replicas of one configuration execute once
and share the result, with the collapsed count reported as
``meta["deduped"]``.

Wall-clock observability is kept apart from everything else: every
wall-time measurement lands under the ``meta["timing"]`` subtree (and only
there), so identity-sensitive consumers can drop one key to get
deterministic, byte-comparable sweep JSON.  Timing is measured through
:mod:`repro.obs` spans; with an ambient hub installed (``with
telemetry_scope(hub):``, or the CLI's ``--telemetry``), the driver also
emits sweep/point lifecycle and cache hit/miss events.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Mapping

from repro.exec import worker as _worker
from repro.exec.backends import ExecutionBackend
from repro.exec.cache import ResultCache, as_cache, point_key
from repro.exec.result import SweepResult
from repro.exec.spec import SweepSpec
from repro.exec.worker import SessionPool
from repro.obs.core import current_telemetry
from repro.registry import BACKENDS
from repro.results import result_from_dict


def resolve_backend(
    backend: "str | ExecutionBackend | None",
    jobs: int = 1,
    options: "Mapping[str, Any] | None" = None,
) -> ExecutionBackend:
    """Backend instance from a name, an instance, or ``None``.

    ``None`` selects ``serial`` for one job and ``process`` for several, so
    ``--jobs 4`` alone is enough to parallelise.  ``options`` are extra
    constructor keywords for backends resolved by name (the ``cluster``
    backend's ``batch_system``/``batch_options``/``workdir``...); passing
    them alongside an already-built instance is a usage error.
    """
    if isinstance(backend, ExecutionBackend):
        if options:
            raise ValueError(
                "backend options were given alongside an already-constructed "
                f"backend instance ({backend.name!r}); pass them to its "
                "constructor instead"
            )
        return backend
    if backend is None:
        backend = "process" if jobs > 1 else "serial"
    return BACKENDS.get(backend).obj(jobs=jobs, **dict(options or {}))


def run_sweep(
    spec: SweepSpec,
    *,
    backend: "str | ExecutionBackend | None" = None,
    jobs: int = 1,
    cache: "bool | str | Path | ResultCache | None" = False,
    pool: SessionPool | None = None,
    backend_options: "Mapping[str, Any] | None" = None,
    dedup: bool = True,
) -> SweepResult:
    """Execute every point of ``spec`` and collect a :class:`SweepResult`.

    Parameters
    ----------
    spec:
        The declarative grid to expand.
    backend:
        Backend name or instance; ``None`` picks ``serial``/``process`` by
        ``jobs``.
    jobs:
        Worker count for backends that parallelise.
    cache:
        ``False`` (default) disables caching; ``True`` uses the default
        ``.repro_cache`` directory (or ``$REPRO_CACHE_DIR``); a path or
        :class:`ResultCache` selects an explicit store.
    pool:
        Optional :class:`SessionPool` for in-process execution — sweeps
        launched from a :class:`Session` pass a pool rooted there so its
        batch/plan caches are reused.  Process workers always use their own
        per-process pool.
    backend_options:
        Extra constructor keywords for a backend resolved by name, e.g.
        ``run_sweep(spec, backend="cluster", jobs=50,
        backend_options={"batch_system": "slurm", "workdir": "/nfs/sweep"})``.
    dedup:
        Collapse points with identical execution identity before fan-out
        (default).  ``False`` ships every uncached point to a worker —
        useful when the fan-out itself is the point, e.g. load-testing a
        backend.  Results are identical either way.

    Events go to the ambient hub; results are byte-identical with telemetry
    on or off.
    """
    tele = current_telemetry()
    # Wall time is always measured through an obs span; stopwatch() hands
    # back a measuring hub even when telemetry is off, so meta["timing"]
    # stays populated.
    stopwatch = tele.stopwatch()
    points = spec.points()
    backend_obj = resolve_backend(backend, jobs=jobs, options=backend_options)
    cache_obj = as_cache(cache)
    tele.event(
        "sweep_start", backend=backend_obj.name, num_points=len(points)
    )

    with stopwatch.span("sweep", backend=backend_obj.name) as sweep_span:
        result_dicts: list[dict[str, Any] | None] = [None] * len(points)
        hits = 0
        keys: list[str | None] = [None] * len(points)
        if cache_obj is not None:
            for i, point in enumerate(points):
                keys[i] = point_key(point)
                cached = cache_obj.get(keys[i])
                if cached is not None:
                    result_dicts[i] = cached
                    hits += 1
                    tele.event("cache_hit", scope="sweep", index=i)
                else:
                    tele.event("cache_miss", scope="sweep", index=i)
            tele.counter("sweep_cache_hits", hits)
            tele.counter("sweep_cache_misses", len(points) - hits)

        pending = [i for i in range(len(points)) if result_dicts[i] is None]
        unique: list[int] = []
        duplicate_of: dict[int, int] = {}
        if pending:
            # Driver-side dedup: points with identical execution identity
            # (canonical JSON — tags excluded) collapse to one payload
            # before fan-out, so tagged replicas never ship to a worker
            # just to resolve via the shared cache.
            if dedup:
                first_by_identity: dict[str, int] = {}
                for i in pending:
                    identity = points[i].canonical_json()
                    first = first_by_identity.get(identity)
                    if first is None:
                        first_by_identity[identity] = i
                        unique.append(i)
                    else:
                        duplicate_of[i] = first
            else:
                unique = list(pending)
            payloads = [points[i].to_dict() for i in unique]
            # Per-point lifecycle for backends that execute in-process
            # (serial; process/cluster backends run the module-level worker
            # in children and are observed at sweep or round/job level).
            position = itertools.count()

            def run_one(payload: Mapping[str, Any]) -> dict[str, Any]:
                index = unique[next(position)]
                tele.event("point_start", index=index)
                with tele.span("point") as span:
                    result = _worker.execute_payload(payload, pool=pool)
                tele.event("point_finish", index=index, dur_s=round(span.elapsed_s, 6))
                return result

            executed = backend_obj.map(payloads, run_one)
            for i, result in zip(unique, executed):
                result_dicts[i] = result
                if cache_obj is not None and keys[i] is not None:
                    cache_obj.put(keys[i], points[i].to_dict(), result)
            # Fan the executed results back out to the collapsed replicas.
            for i, first in duplicate_of.items():
                result_dicts[i] = result_dicts[first]

        results = tuple(result_from_dict(d) for d in result_dicts)

    timing: dict[str, Any] = {"wall_time_s": round(sweep_span.elapsed_s, 6)}
    meta = {
        "backend": backend_obj.name,
        "jobs": backend_obj.jobs,
        "num_points": len(points),
        "cache_enabled": cache_obj is not None,
        "cache_hits": hits,
        "cache_misses": len(pending),
        "executed_points": len(unique),
        "deduped": len(duplicate_of),
        "timing": timing,
    }
    # Backend-specific observability (e.g. the cluster backend's per-round
    # job/cache stats) rides along; driver keys take precedence, and a
    # backend's own wall-clock measurements merge into the timing subtree.
    for key, value in backend_obj.observability().items():
        if key == "timing":
            for timing_key, timing_value in value.items():
                timing.setdefault(timing_key, timing_value)
        else:
            meta.setdefault(key, value)
    tele.event(
        "sweep_finish",
        backend=backend_obj.name,
        num_points=len(points),
        executed=len(unique),
        dur_s=timing["wall_time_s"],
    )
    return SweepResult(points=points, results=results, meta=meta)
