"""Execution plans: the task graph a strategy emits and the simulator runs.

A plan is a DAG of tasks.  Each task has a fixed duration (computed
analytically by the strategy from the cost models), a set of *resources* it
must hold exclusively while running (a GPU compute stream, a NIC direction, an
NVSwitch port), and dependencies on earlier tasks.  The plan stores its tasks
as parallel columns (one entry per task id), checks each task as
:meth:`ExecutionPlan.add` appends it, and materialises read-only :class:`Task`
rows only when :attr:`ExecutionPlan.tasks` is read.  The
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
from dataclasses import dataclass


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

    :meth:`add` alone appends to the task columns (one entry per task id),
    which :mod:`repro.sim.compile` and the engine read directly.
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
        task_id = len(self._names)
        deps = tuple(deps)
        for d in deps:
            if d < 0 or d >= task_id:
                raise ValueError(
                    f"dependency {d} of task {task_id} does not refer to an "
                    f"earlier task"
                )
        if duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {duration_s!r}")
        index = self.resource_index
        rids = tuple([index.setdefault(r, len(index)) for r in resources])
        self._resources.append(rids)
        self._names.append(name)
        self._kinds.append(kind)
        self._durations.append(duration_s)
        self._deps.append(deps)
        self._ranks.append(rank)
        self._priorities.append(priority)
        self._tasks = None
        self._compiled = None
        return task_id

    @property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks as frozen :class:`Task` rows, built on first read and
        cached until the next :meth:`add`."""
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
        iterations) shares one compile.  :meth:`add` drops the cache, and it
        is the only way to change a plan.
        """
        from repro.sim.compile import compile_plan

        return compile_plan(self)

    # -- introspection ---------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self._names)

    def total_duration_by_kind(self) -> dict[TaskKind, float]:
        """Sum of task durations grouped by kind (not wall-clock: ignores overlap)."""
        totals: dict[TaskKind, float] = {}
        for kind, duration in zip(self._kinds, self._durations):
            totals[kind] = totals.get(kind, 0.0) + duration
        return totals

    def tasks_for_rank(self, rank: int) -> list[Task]:
        """Tasks attributed to a given rank, in insertion order."""
        return [t for t in self.tasks if t.rank == rank]

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
        """A no-op: :meth:`add` rejects every malformed task as it arrives."""

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
