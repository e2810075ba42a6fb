"""Execution plans: the task graph a strategy emits and the simulator runs.

A plan is a DAG of tasks.  Each task has a fixed duration (computed
analytically by the strategy from the cost models), a set of *resources* it
must hold exclusively while running (a GPU compute stream, a NIC direction, an
NVSwitch port), and dependencies on earlier tasks.  The plan stores its tasks
as parallel columns (one entry per task id) with one write path:
:meth:`ExecutionPlan.extend` checks a block of rows, then appends all of them
(or, if any row is malformed, none), and :meth:`ExecutionPlan.add` is its
one-row case.  Read-only :class:`Task` rows are materialised only when
:attr:`ExecutionPlan.tasks` is read.  The
discrete-event simulator (:mod:`repro.sim.engine`) schedules tasks greedily as
their dependencies complete and their resources free up, which is exactly how
overlap between computation and communication arises in the real system's
multi-stream execution.

Resource naming conventions (all strings):

* ``compute:{rank}`` — the GPU's compute stream,
* ``nvl:{rank}:tx`` / ``nvl:{rank}:rx`` — the GPU's NVSwitch egress / ingress,
* ``nic:{nic_id}:tx`` / ``nic:{nic_id}:rx`` — a NIC direction.

The per-direction split models full-duplex links: a send and a receive on the
same NIC do not contend, but two sends do — which is how the simulator exposes
the Cluster A "2 GPUs share one NIC" bottleneck.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from math import inf


class TaskKind(enum.Enum):
    """Category of work a task performs; used for trace accounting (Fig. 12)."""

    ATTENTION = "attention"
    LINEAR = "linear"
    INTRA_COMM = "intra_comm"
    INTER_COMM = "inter_comm"
    DISPATCH = "dispatch"
    COMBINE = "combine"
    REMAP = "remap"
    ALLGATHER = "allgather"
    OTHER = "other"

    @property
    def is_communication(self) -> bool:
        return self in {
            TaskKind.INTRA_COMM,
            TaskKind.INTER_COMM,
            TaskKind.DISPATCH,
            TaskKind.COMBINE,
            TaskKind.REMAP,
            TaskKind.ALLGATHER,
        }


@dataclass(frozen=True)
class Task:
    """One unit of work in an execution plan (a read-only row of its columns).

    Attributes
    ----------
    task_id:
        Unique id within the plan (assigned by :class:`ExecutionPlan.add`).
    name:
        Human-readable name used in traces.
    kind:
        Task category.
    duration_s:
        Execution time in seconds once started.
    resources:
        Resource names held exclusively for the task's duration.  An empty
        tuple means the task only synchronises (zero-cost barrier).
    deps:
        Ids of tasks that must complete before this task may start.
    rank:
        Global rank the task is attributed to in traces (-1 for none).
    priority:
        Lower values start first when several ready tasks compete for a
        resource; strategies use this to encode the inter -> intra -> local
        queue ordering of §3.2.
    """

    task_id: int
    name: str
    kind: TaskKind
    duration_s: float
    resources: tuple[str, ...]
    deps: tuple[int, ...] = ()
    rank: int = -1
    priority: int = 0


class ExecutionPlan:
    """A DAG of tasks describing (part of) one training iteration.

    Plans are typically built per transformer layer and per pass direction;
    :mod:`repro.training.iteration` scales the simulated layer time to the full
    model.

    :meth:`extend` alone appends to the task columns (one entry per task
    id), which :mod:`repro.sim.compile` and the engine read directly;
    :meth:`add` appends one task through it.
    """

    def __init__(self, name: str = "plan", metadata: dict | None = None) -> None:
        self.name = name
        self.metadata = {} if metadata is None else metadata
        # Resource names interned to dense ids in first-use order.
        self.resource_index: dict[str, int] = {}
        self._names: list[str] = []
        self._kinds: list[TaskKind] = []
        self._durations: list[float] = []
        self._resources: list[tuple[int, ...]] = []  # resource ids per task
        self._deps: list[tuple[int, ...]] = []
        self._ranks: list[int] = []
        self._priorities: list[int] = []
        self._tasks: tuple[Task, ...] | None = None
        self._compiled = None

    def add(
        self,
        name: str,
        kind: TaskKind,
        duration_s: float,
        resources: tuple[str, ...] = (),
        deps: tuple[int, ...] | list[int] = (),
        rank: int = -1,
        priority: int = 0,
    ) -> int:
        """Append a task and return its id; a rejected task changes nothing."""
        return self.extend(
            [name], [kind], [duration_s], [tuple(resources)], [deps], [rank], [priority]
        ).start

    def extend(
        self,
        names: Sequence[str],
        kinds: Sequence[TaskKind],
        durations_s: Sequence[float],
        resources: Sequence[tuple[str, ...]],
        deps: Sequence[Sequence[int]],
        ranks: Sequence[int],
        priorities: Sequence[int],
    ) -> range:
        """Append a block of tasks given as columns and return their ids.

        Row ``k`` of the block becomes task ``num_tasks + k``, so a row may
        depend on earlier rows of the same block.  Every row is checked (a
        finite, non-negative duration; dependencies on earlier tasks only)
        before any is appended: a rejected block changes nothing.  Resource
        names are interned in first-use order, exactly as one :meth:`add`
        per row would intern them.
        """
        first = len(self._names)
        n = len(names)
        columns = (kinds, durations_s, resources, deps, ranks, priorities)
        if any(len(column) != n for column in columns):
            raise ValueError("every column of a block must have one entry per task")
        deps = list(map(tuple, deps))
        resources = list(map(tuple, resources))
        for task_id, duration_s, task_deps in zip(count(first), durations_s, deps):
            for d in task_deps:
                if d < 0 or d >= task_id:
                    raise ValueError(
                        f"dependency {d} of task {task_id} does not refer to an "
                        f"earlier task"
                    )
            if not 0.0 <= duration_s < inf:
                raise ValueError(
                    f"duration_s must be finite and >= 0, got {duration_s!r}"
                )
        # Each distinct resource tuple, in first-appearance order, interns its
        # names: the same first-use order as interning row by row.
        interned = dict.fromkeys(resources)
        index = self.resource_index
        for held in interned:
            interned[held] = tuple([index.setdefault(r, len(index)) for r in held])
        self._resources.extend(map(interned.__getitem__, resources))
        self._names.extend(names)
        self._kinds.extend(kinds)
        self._durations.extend(durations_s)
        self._deps.extend(deps)
        self._ranks.extend(ranks)
        self._priorities.extend(priorities)
        self._tasks = None
        self._compiled = None
        return range(first, first + n)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks as frozen :class:`Task` rows, built on first read and
        cached until the next append."""
        if self._tasks is None:
            names = tuple(self.resource_index)
            columns = zip(
                self._names,
                self._kinds,
                self._durations,
                self._resources,
                self._deps,
                self._ranks,
                self._priorities,
            )
            self._tasks = tuple(
                Task(tid, name, kind, duration, tuple([names[r] for r in rids]), *rest)
                for tid, (name, kind, duration, rids, *rest) in enumerate(columns)
            )
        return self._tasks

    # -- compiled form ---------------------------------------------------------

    def compiled(self):
        """The dense :class:`~repro.sim.compile.CompiledPlan` of this plan.

        Built on first use and cached on the plan object, so every simulation
        of a memoised plan (session plan caches, sweep pools, resilience
        iterations) shares one compile.  An append drops the cache, and
        appending is the only way to change a plan.
        """
        from repro.sim.compile import compile_plan

        return compile_plan(self)

    # -- introspection ---------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self._names)

    def critical_path_lower_bound(self) -> float:
        """Longest dependency chain duration — a lower bound on the makespan.

        Ignores resource contention, so the simulated makespan is always at
        least this value; used as a sanity check in tests.
        """
        finish: list[float] = []  # deps always point to earlier tasks
        for deps, duration in zip(self._deps, self._durations):
            finish.append(max((finish[d] for d in deps), default=0.0) + duration)
        return max(finish, default=0.0)

    def validate(self) -> None:
        """A no-op: :meth:`extend` rejects every malformed task as it arrives."""

    # -- resource helpers --------------------------------------------------------

    @staticmethod
    def compute_resource(rank: int) -> str:
        """Resource name of a rank's compute stream."""
        return f"compute:{rank}"

    @staticmethod
    def nvlink_resource(rank: int, direction: str) -> str:
        """Resource name of a rank's NVSwitch port (direction ``"tx"``/``"rx"``)."""
        if direction not in ("tx", "rx"):
            raise ValueError("direction must be 'tx' or 'rx'")
        return f"nvl:{rank}:{direction}"

    @staticmethod
    def nic_resource(nic_id: int, direction: str) -> str:
        """Resource name of a NIC direction (``"tx"``/``"rx"``)."""
        if direction not in ("tx", "rx"):
            raise ValueError("direction must be 'tx' or 'rx'")
        return f"nic:{nic_id}:{direction}"
