"""Cluster-level perturbation events and their compiled schedule.

Events speak the cluster's vocabulary (ranks, NICs, nodes); the
:class:`PerturbationSchedule` compiles them into the engine's resource
vocabulary (``compute:{rank}``, ``nic:{id}:tx``...) so the discrete-event
simulator stays ignorant of topology.  All times are absolute seconds on the
training run's global clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.topology import Cluster
from repro.core.plan import ExecutionPlan
from repro.sim.events import ResourceEvent
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


def _slowdown_resources(event: GpuSlowdown) -> tuple[str, ...]:
    return (ExecutionPlan.compute_resource(event.rank),)


def _degrade_resources(event: NicDegrade) -> tuple[str, ...]:
    return (
        ExecutionPlan.nic_resource(event.nic_id, "tx"),
        ExecutionPlan.nic_resource(event.nic_id, "rx"),
    )


def _failure_resources(event: NodeFailure, cluster: Cluster) -> tuple[str, ...]:
    """Every resource hosted on the failed node."""
    resources: list[str] = []
    for rank in cluster.ranks_on_node(event.node_id):
        resources.append(ExecutionPlan.compute_resource(rank))
        resources.append(ExecutionPlan.nvlink_resource(rank, "tx"))
        resources.append(ExecutionPlan.nvlink_resource(rank, "rx"))
    for nic in cluster.nodes[event.node_id].nics:
        resources.append(ExecutionPlan.nic_resource(nic.nic_id, "tx"))
        resources.append(ExecutionPlan.nic_resource(nic.nic_id, "rx"))
    return tuple(resources)


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

    # -- compilation to engine vocabulary ----------------------------------------

    def resource_events(self, cluster: Cluster) -> tuple[ResourceEvent, ...]:
        """The full schedule compiled to engine-level resource events."""
        compiled: list[ResourceEvent] = []
        for event in self.events:
            if isinstance(event, GpuSlowdown):
                compiled.append(
                    ResourceEvent(event.time_s, _slowdown_resources(event), event.factor)
                )
            elif isinstance(event, NicDegrade):
                compiled.append(
                    ResourceEvent(event.time_s, _degrade_resources(event), event.factor)
                )
            else:
                compiled.append(
                    ResourceEvent(
                        event.time_s, _failure_resources(event, cluster), None
                    )
                )
        return tuple(compiled)

    def active_factors(self, time_s: float, cluster: Cluster) -> dict[str, float]:
        """Speed factor per resource for slowdowns in effect at ``time_s``.

        Later events override earlier ones for the same resource; failures are
        excluded (the resilience driver models them at the iteration level).
        """
        factors: dict[str, float] = {}
        for event in self.slowdowns:
            if event.time_s > time_s:
                break
            if isinstance(event, GpuSlowdown):
                resources: Iterable[str] = _slowdown_resources(event)
                factor = event.factor
            else:
                resources = _degrade_resources(event)
                factor = event.factor
            for resource in resources:
                factors[resource] = factor
        return factors

    def active_resource_events(
        self, time_s: float, cluster: Cluster
    ) -> tuple[ResourceEvent, ...]:
        """Static engine events for the slowdown state in effect at ``time_s``."""
        return tuple(
            ResourceEvent(0.0, (resource,), factor)
            for resource, factor in sorted(self.active_factors(time_s, cluster).items())
        )

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
