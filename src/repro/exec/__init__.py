"""Declarative sweep execution: specs, backends, caching, structured results.

The experiment surface of the repo is built on this package: a frozen
:class:`SweepSpec` declares a grid (axes of strategies, cluster presets,
models, datasets, perturbation configs — with ``zip``/``where``/``derived``
support so grids need not be full cross-products), a pluggable backend
registry executes its points (``serial`` in-process, ``process`` via
``multiprocessing``, ``cluster`` over slurm/sge-style batch systems — see
:mod:`repro.exec.cluster`; register more with ``@BACKENDS.register`` from
:mod:`repro.registry`), a content-hash result cache under ``.repro_cache/``
short-circuits already-simulated points, and everything lands in a
:class:`SweepResult` with per-point results and execution meta.

Quickstart::

    from repro.exec import SweepSpec, run_sweep

    spec = SweepSpec(
        base={"model": "3b", "num_steps": 1},
        axes={
            "dataset": ("arxiv", "github"),
            "num_gpus": (16, 32),
            "strategy": ("te_cp", "zeppelin"),
        },
        derived={"total_context": lambda v: 4096 * v["num_gpus"]},
    )
    sweep = run_sweep(spec, jobs=4, cache=True)
    print(sweep.pivot(("dataset", "num_gpus"), "strategy"))
    print(sweep.meta)  # backend, cache hits/misses, wall time
"""

from repro.exec.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.exec.cache import ResultCache, cache_salt, point_key
from repro.exec.cluster import ClusterBackend
from repro.exec.result import SweepResult
from repro.exec.spec import RUN_FIELDS, SESSION_FIELDS, SweepPoint, SweepSpec
from repro.exec.sweep import resolve_backend, run_sweep
from repro.exec.worker import SessionPool, execute_payload, execute_point

__all__ = [
    "ClusterBackend",
    "ExecutionBackend",
    "ProcessBackend",
    "ResultCache",
    "RUN_FIELDS",
    "SESSION_FIELDS",
    "SerialBackend",
    "SessionPool",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "cache_salt",
    "execute_payload",
    "execute_point",
    "point_key",
    "resolve_backend",
    "run_sweep",
]
