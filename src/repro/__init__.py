"""Zeppelin reproduction: balancing variable-length workloads in data-parallel training.

This package reproduces the system described in *Zeppelin: Balancing
Variable-length Workloads in Data Parallel Large Model Training* (EUROSYS
2026).  It provides:

* the four Zeppelin layers — hierarchical sequence partitioner, attention
  engine, communication routing layer and remapping layer (:mod:`repro.core`),
* the baselines the paper compares against (:mod:`repro.baselines`),
* the substrates they run on: a cluster topology model, analytical cost
  models, synthetic variable-length workloads, a NumPy reference attention
  stack and a discrete-event simulator,
* a registry-driven planning API (:mod:`repro.api`, :mod:`repro.registry`)
  with structured results (:mod:`repro.results`),
* fault & variability injection with recovery policies
  (:mod:`repro.dynamics`): stragglers, degraded links and node failures over
  a deterministic seeded schedule, with checkpoint-restart and elastic
  re-partition recovery,
* declarative sweep execution (:mod:`repro.exec`): frozen
  :class:`~repro.exec.SweepSpec` grids with zip/filter/derived axes,
  pluggable ``serial``/``process`` backends, a content-hash result cache
  under ``.repro_cache/`` and structured :class:`~repro.exec.SweepResult`
  output,
* open-loop online serving workloads (:mod:`repro.serve`): seeded arrival
  processes over a weighted request mix, admission queueing with a
  concurrency limit, cross-request batching and caching, and
  latency/goodput metrics in a :class:`~repro.results.ServeResult`, and
* one experiment module per paper figure/table (:mod:`repro.experiments`),
  plus the ``fig13_resilience`` fault sweep and the ``fig14_serving``
  load curve.

Quickstart::

    from repro.api import Session

    session = Session(model="7b", num_gpus=16, dataset="arxiv")
    result = session.compare(("te_cp", "llama_cp", "hybrid_dp", "zeppelin"))
    for row in result.rows():
        print(row["strategy"], round(row["tokens_per_second"]), f"{row['speedup']:.2f}x")
    print(result.to_json(indent=2))  # machine-readable form

Sessions cache sampled batches and per-(strategy, batch, phase) execution
plans, so repeated comparisons, ablations and :meth:`Session.sweep` grids
reuse plans instead of replanning.  New strategies plug in through the
registry — no core file changes needed::

    from repro import STRATEGIES, Strategy

    @STRATEGIES.register("my_strategy", description="what it does")
    class MyStrategy(Strategy):
        def plan_layer(self, batch, phase="forward"):
            ...

    Session(model="7b").run("my_strategy")
"""

from repro.api import DEFAULT_COMPARISON, Session, SessionConfig
from repro.cluster.presets import cluster_a, cluster_b, cluster_c, make_cluster
from repro.core.strategy import Strategy, StrategyContext
from repro.core.zeppelin import ZeppelinStrategy
from repro.data.sampler import Batch, Sequence
from repro.dynamics import PerturbationConfig, PerturbationModel
from repro.exec import SweepPoint, SweepResult, SweepSpec, run_sweep
from repro.model.spec import get_model
from repro.registry import (
    ADMISSIONS,
    ARRIVALS,
    BACKENDS,
    EXPERIMENTS,
    RECOVERIES,
    RULES,
    SCALES,
    STRATEGIES,
    SUBMITTERS,
)
from repro.results import CompareResult, ResilienceResult, RunResult, ServeResult

__version__ = "5.0.0"

__all__ = [
    "DEFAULT_COMPARISON",
    "Session",
    "SessionConfig",
    "cluster_a",
    "cluster_b",
    "cluster_c",
    "make_cluster",
    "Strategy",
    "StrategyContext",
    "ZeppelinStrategy",
    "Batch",
    "Sequence",
    "PerturbationConfig",
    "PerturbationModel",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "get_model",
    "ADMISSIONS",
    "ARRIVALS",
    "BACKENDS",
    "EXPERIMENTS",
    "RECOVERIES",
    "RULES",
    "SCALES",
    "STRATEGIES",
    "SUBMITTERS",
    "CompareResult",
    "ResilienceResult",
    "RunResult",
    "ServeResult",
    "__version__",
]
