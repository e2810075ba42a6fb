"""The frozen reference engine's event vocabulary.

:mod:`repro.sim._reference` keeps the engine as it stood before the
compiled-plan rewrite, and these are the types it speaks:
:class:`ResourceEvent` (a timed speed change or failure of some resources)
and :class:`EventQueue` (its completion heap).  The live engine
(:mod:`repro.sim.engine`) takes a per-resource speed map instead and keeps
its own flat heap of ``(finish time, seq, task id)`` tuples; the
equivalence tests hand the reference one ``ResourceEvent(0.0, (resource,),
factor)`` per speed-map entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ResourceEvent:
    """A timed change to the state of one or more simulator resources.

    Only the frozen reference engine reads these; the live engine and
    :mod:`repro.dynamics` speak speed maps.

    Attributes
    ----------
    time_s:
        Absolute time the change takes effect.  The reference engine converts
        it to plan-local time via its ``start_time_s`` argument; events at or
        before the start of the simulation set the initial resource state.
    resources:
        Resource names affected (``compute:3``, ``nic:1:tx``...).  Names not
        used by the simulated plan are ignored.
    factor:
        New speed factor of the resources (1.0 = healthy, 0.5 = half speed).
        ``None`` means the resources *fail*: tasks holding them are aborted
        and tasks requiring them can never start.
    """

    time_s: float
    resources: tuple[str, ...]
    factor: float | None = 1.0

    def __post_init__(self) -> None:
        if self.factor is not None and not 0.0 < self.factor:
            raise ValueError("speed factor must be positive (use factor=None for failure)")
        if not self.resources:
            raise ValueError("a resource event must name at least one resource")

    @property
    def is_failure(self) -> bool:
        return self.factor is None


@dataclass(order=True)
class Event:
    """A task-completion event ordered by time (ties broken by sequence number)."""

    time_s: float
    sequence: int
    task_id: int = field(compare=False)


class EventQueue:
    """A min-heap of completion events."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = 0

    def push(self, time_s: float, task_id: int) -> None:
        """Schedule the completion of ``task_id`` at ``time_s``."""
        if time_s < 0:
            raise ValueError("event time must be non-negative")
        heapq.heappush(self._heap, Event(time_s=time_s, sequence=self._counter, task_id=task_id))
        self._counter += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
