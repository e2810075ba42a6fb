"""Precompiled plan representation for the discrete-event engine.

An :class:`~repro.core.plan.ExecutionPlan` stores its tasks as columns, with
resource names already interned to dense ids (``0..num_resources-1``), so the
engine's busy state and speed lowering are plain array indexing.  :class:`CompiledPlan`
freezes those columns and adds what the engine needs on top:

* the dependent edges (who becomes ready when I finish), flattened into a
  CSR-style pair of arrays (``dependents_indptr`` / ``dependents_ids``) in
  one numpy pass;
* the dispatch tie-break key ``(priority, task_id)`` of every task.

Compiling checks nothing: :meth:`ExecutionPlan.extend` rejected every
malformed task as it arrived.  The result is cached on the plan object
(dropped by every append); because :class:`repro.api.Session` memoises plans
per (strategy, batch, phase) and ``repro.exec``'s ``SessionPool`` shares
sessions across sweep points, one compile serves every perturbation state
that plan is simulated under.  The compile also carries :attr:`makespans`,
the memo :func:`repro.sim.batch.simulate_makespans` answers repeated
(plan, speeds) requests from, so a state simulated once is never simulated
again while its plan lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.plan import ExecutionPlan


@dataclass(frozen=True)
class CompiledPlan:
    """Dense, engine-ready form of one :class:`ExecutionPlan`.

    All arrays are indexed by ``task_id`` (or resource id where noted); the
    original plan stays reachable as :attr:`plan` for trace attribution and
    result reporting.
    """

    plan: ExecutionPlan
    num_tasks: int
    # -- interned resources -----------------------------------------------------
    resource_names: tuple[str, ...]  # dense id -> name
    resource_index: dict[str, int]  # name -> dense id
    # -- per-task columns -------------------------------------------------------
    durations: tuple[float, ...]
    task_resources: tuple[tuple[int, ...], ...]  # resource ids held by each task
    dispatch_keys: tuple[tuple[int, int], ...]  # (priority, task_id)
    dep_counts: tuple[int, ...]  # number of dependencies per task
    # -- dependent adjacency, CSR-flattened -------------------------------------
    dependents_indptr: tuple[int, ...]  # len == num_tasks + 1
    dependents_ids: tuple[int, ...]  # concatenated dependents of each task
    # -- initial state ----------------------------------------------------------
    initial_ready: tuple[int, ...]  # zero-dependency tasks, in id order
    # -- finished simulations: sorted (resource, factor) pairs -> makespan ------
    # Floats only: a memo of results would keep per-task dicts alive.
    makespans: dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_resources(self) -> int:
        return len(self.resource_names)

    def dependents_of(self, task_id: int) -> tuple[int, ...]:
        """The tasks unblocked (in part) by ``task_id`` finishing."""
        lo = self.dependents_indptr[task_id]
        hi = self.dependents_indptr[task_id + 1]
        return self.dependents_ids[lo:hi]


def compile_plan(plan: ExecutionPlan) -> CompiledPlan:
    """Lower ``plan`` to a :class:`CompiledPlan`, reusing the cached compile.

    The cache lives on the plan object itself (``plan._compiled``) and is
    dropped whenever :meth:`ExecutionPlan.extend` appends tasks.  Callers
    normally go through :meth:`ExecutionPlan.compiled`.
    """
    compiled = plan._compiled
    if compiled is None:
        compiled = plan._compiled = _compile(plan)
    return compiled


def _compile(plan: ExecutionPlan) -> CompiledPlan:
    n = plan.num_tasks
    deps = plan._deps
    dep_counts = np.fromiter(map(len, deps), dtype=np.int64, count=n)
    # Edge e runs from sources[e] to targets[e], in increasing target order;
    # a stable sort by source keeps each task's dependents in id order.
    sources = np.fromiter(
        chain.from_iterable(deps), dtype=np.int64, count=int(dep_counts.sum())
    )
    targets = np.repeat(np.arange(n, dtype=np.int64), dep_counts)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    dependents = targets[np.argsort(sources, kind="stable")]

    return CompiledPlan(
        plan=plan,
        num_tasks=n,
        resource_names=tuple(plan.resource_index),
        resource_index=dict(plan.resource_index),
        durations=tuple(plan._durations),
        task_resources=tuple(plan._resources),
        dispatch_keys=tuple(zip(plan._priorities, range(n))),
        dep_counts=tuple(dep_counts.tolist()),
        dependents_indptr=tuple(indptr.tolist()),
        dependents_ids=tuple(dependents.tolist()),
        initial_ready=tuple(np.flatnonzero(dep_counts == 0).tolist()),
    )
