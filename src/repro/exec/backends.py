"""Pluggable sweep execution backends.

A backend maps a list of point payloads to a list of result dicts, in order.
Backends register with ``@BACKENDS.register`` and are selected by name (CLI
``--backend``/``--jobs``), so new execution substrates (a thread pool, a job
queue, a remote cluster) plug in without touching the sweep driver:

1. Subclass :class:`ExecutionBackend` and implement ``map(payloads, worker)``.
2. Decorate it with ``@BACKENDS.register("my_backend", description="...")``.
3. Import the module (or add it to ``_BUILTIN_BACKEND_MODULES`` in
   :mod:`repro.registry` for lazy discovery).
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Mapping, Sequence

from repro.exec.worker import execute_payload
from repro.obs.core import TELEMETRY_OFF, telemetry_scope
from repro.registry import BACKENDS

Payload = Mapping[str, Any]
Worker = Callable[[Payload], dict]


class ExecutionBackend:
    """Base class for sweep execution backends.

    Backends with internal structure worth observing (the cluster backend's
    rounds and job lifecycle) emit events to the ambient hub
    (:func:`~repro.obs.current_telemetry`).
    """

    name = "abstract"

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def map(self, payloads: Sequence[Payload], worker: Worker) -> list[dict]:
        """Execute every payload, returning result dicts in payload order.

        ``worker`` is the in-process worker closure (it may carry a session
        pool); backends that cross a process boundary fall back to the
        module-level :func:`~repro.exec.worker.execute_payload`.
        """
        raise NotImplementedError

    def observability(self) -> "dict[str, Any]":
        """Extra metadata about the last :meth:`map` call for ``SweepResult.meta``.

        Backends with execution structure worth surfacing (the ``cluster``
        backend's rounds, for instance) override this; keys must not collide
        with the sweep driver's own meta keys.
        """
        return {}


@BACKENDS.register("serial", description="in-process sequential execution (default)")
class SerialBackend(ExecutionBackend):
    """Run every point sequentially in the calling process."""

    name = "serial"

    def map(self, payloads: Sequence[Payload], worker: Worker) -> list[dict]:
        return [worker(payload) for payload in payloads]


def _execute_unobserved(payload: Payload) -> dict:
    """:func:`execute_payload` with the ambient hub switched off.

    A forked worker inherits the parent's ambient hub together with its
    unflushed sink buffer: events emitted in the child would rewrite the
    parent's buffered events into the log and lose the rest at exit.  The
    process backend is observed at sweep level only.
    """
    with telemetry_scope(TELEMETRY_OFF):
        return execute_payload(payload)


@BACKENDS.register(
    "process", description="parallel execution via a multiprocessing pool (--jobs N)"
)
class ProcessBackend(ExecutionBackend):
    """Fan points out over a ``multiprocessing`` pool of ``jobs`` workers.

    Child workers run the module-level worker against their own per-process
    session pool, so each worker still reuses sessions and plan caches across
    the points it executes.  Results come back in point order.  Workers emit
    no telemetry (see :func:`_execute_unobserved`).
    """

    name = "process"

    @staticmethod
    def chunksize(num_payloads: int, jobs: int) -> int:
        """Points handed to a worker per pool task.

        ``chunksize=1`` on a 10k-point grid is pure IPC overhead; one chunk
        per worker starves the pool when point costs are skewed.  Aim for
        ~4 chunks per worker, capped so a single chunk never holds a large
        slice of the grid hostage behind one slow worker.  ``pool.map``
        returns results in submission order for any chunksize, so ordering
        and determinism are unaffected.
        """
        return max(1, min(32, -(-num_payloads // (jobs * 4))))

    def map(self, payloads: Sequence[Payload], worker: Worker) -> list[dict]:
        jobs = min(self.jobs, len(payloads))
        if jobs <= 1:
            return [worker(payload) for payload in payloads]
        # The platform default start method: fork on Linux (cheap, inherits
        # runtime registrations), spawn where fork is unsafe or unavailable
        # (macOS, Windows).  On spawn platforms, strategies/backends
        # registered at runtime (e.g. in a __main__ block) must be importable
        # by child processes to be visible there.
        ctx = multiprocessing.get_context(multiprocessing.get_start_method())
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(
                _execute_unobserved,
                [dict(p) for p in payloads],
                chunksize=self.chunksize(len(payloads), jobs),
            )
