"""Cluster-level perturbation events and their schedule.

Events speak the cluster's vocabulary (ranks, NICs, nodes).  The
:class:`PerturbationSchedule` turns the slowdowns in effect at one instant
into the engine's speed map (``compute:{rank}``, ``nic:{id}:tx``... to a
factor), so the discrete-event simulator stays ignorant of topology; node
failures never reach the engine, since the resilience driver charges them
per iteration.  All times are absolute seconds on the training run's global
clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import ExecutionPlan
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class GpuSlowdown:
    """A straggling GPU: rank ``rank`` computes at ``factor`` of healthy speed."""

    time_s: float
    rank: int
    factor: float

    def __post_init__(self) -> None:
        check_non_negative("time_s", self.time_s)
        check_non_negative("rank", self.rank)
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("slowdown factor must be in (0, 1]")


@dataclass(frozen=True)
class NicDegrade:
    """A degraded link: NIC ``nic_id`` moves bytes at ``factor`` of nominal rate."""

    time_s: float
    nic_id: int
    factor: float

    def __post_init__(self) -> None:
        check_non_negative("time_s", self.time_s)
        check_non_negative("nic_id", self.nic_id)
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")


@dataclass(frozen=True)
class NodeFailure:
    """Node ``node_id`` dies: its GPUs, NVSwitch ports and NICs all go down."""

    time_s: float
    node_id: int

    def __post_init__(self) -> None:
        check_non_negative("time_s", self.time_s)
        check_non_negative("node_id", self.node_id)


PerturbationEvent = GpuSlowdown | NicDegrade | NodeFailure


@dataclass(frozen=True)
class PerturbationSchedule:
    """A time-sorted, immutable sequence of perturbation events.

    Schedules are generated by :class:`~repro.dynamics.models.PerturbationModel`
    (seeded, so identical seeds give identical schedules) but can also be built
    by hand for targeted what-if experiments.
    """

    events: tuple[PerturbationEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time_s, type(e).__name__))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # -- views -------------------------------------------------------------------

    @property
    def failures(self) -> tuple[NodeFailure, ...]:
        """Node failures in time order."""
        return tuple(e for e in self.events if isinstance(e, NodeFailure))

    @property
    def slowdowns(self) -> tuple[PerturbationEvent, ...]:
        """Non-fatal events (GPU stragglers, NIC degradations) in time order."""
        return tuple(e for e in self.events if not isinstance(e, NodeFailure))

    # -- the engine's speed map --------------------------------------------------

    def active_factors(self, time_s: float) -> dict[str, float]:
        """Speed factor per resource for slowdowns in effect at ``time_s``.

        Later events override earlier ones for the same resource; failures are
        excluded (the resilience driver models them at the iteration level).
        """
        factors: dict[str, float] = {}
        for event in self.slowdowns:
            if event.time_s > time_s:
                break
            if isinstance(event, GpuSlowdown):
                factors[ExecutionPlan.compute_resource(event.rank)] = event.factor
            else:
                for direction in ("tx", "rx"):
                    nic = ExecutionPlan.nic_resource(event.nic_id, direction)
                    factors[nic] = event.factor
        return factors

    # -- serialisation -----------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """JSON-safe event rows (used in result payloads and reports)."""
        rows: list[dict] = []
        for event in self.events:
            if isinstance(event, GpuSlowdown):
                rows.append(
                    {"kind": "gpu_slowdown", "time_s": event.time_s,
                     "rank": event.rank, "factor": event.factor}
                )
            elif isinstance(event, NicDegrade):
                rows.append(
                    {"kind": "nic_degrade", "time_s": event.time_s,
                     "nic_id": event.nic_id, "factor": event.factor}
                )
            else:
                rows.append(
                    {"kind": "node_failure", "time_s": event.time_s,
                     "node_id": event.node_id}
                )
        return rows
