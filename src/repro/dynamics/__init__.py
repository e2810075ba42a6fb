"""Fault and variability injection for the simulated cluster.

The dynamics subsystem perturbs the otherwise perfectly healthy, perfectly
uniform simulated cluster with the phenomena that dominate real large-scale
training: per-GPU stragglers, degraded NIC links, and node failures.

Three layers:

* :mod:`repro.dynamics.models` — a seeded, deterministic
  :class:`PerturbationModel` draws timed events from configurable MTTF /
  straggler distributions.
* :mod:`repro.dynamics.events` — the cluster-level event vocabulary
  (:class:`GpuSlowdown`, :class:`NicDegrade`, :class:`NodeFailure`) and the
  :class:`PerturbationSchedule` whose ``active_factors`` gives the engine
  the speed map (resource name to factor) in effect at one instant.
* :mod:`repro.dynamics.recovery` — recovery policies (checkpoint-restart,
  elastic re-partition) and the resilience run driver that walks a global
  training clock, timing each iteration under the slowdowns active at its
  start and applying the policy when a node failure lands inside it.

End-to-end entry points: ``Session.run(strategy, perturbation=...)``,
``repro run/compare --mttf ... --recovery ...`` and the ``fig13_resilience``
experiment.
"""

from repro.dynamics.events import (
    GpuSlowdown,
    NicDegrade,
    NodeFailure,
    PerturbationSchedule,
)
from repro.dynamics.models import PerturbationConfig, PerturbationModel, as_model
from repro.dynamics.recovery import (
    CheckpointRestart,
    ElasticRepartition,
    RecoveryPolicy,
    run_resilient,
)

__all__ = [
    "GpuSlowdown",
    "NicDegrade",
    "NodeFailure",
    "PerturbationSchedule",
    "PerturbationConfig",
    "PerturbationModel",
    "as_model",
    "RecoveryPolicy",
    "CheckpointRestart",
    "ElasticRepartition",
    "run_resilient",
]
