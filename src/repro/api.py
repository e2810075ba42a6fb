"""Stable programmatic facade for the Zeppelin reproduction.

:class:`Session` is the long-lived entry point: it builds the cluster, model
spec and :class:`~repro.core.strategy.StrategyContext` once, lazily samples
and caches the evaluation batches, and memoises every
:class:`~repro.core.plan.ExecutionPlan` by (strategy configuration, batch,
phase) so repeated comparisons, ablations and sweeps reuse plans instead of
replanning.  Strategies are resolved through :mod:`repro.registry`, so
anything registered with ``@STRATEGIES.register`` is immediately runnable here
and visible to the CLI.

Quickstart::

    from repro.api import Session

    session = Session(model="7b", num_gpus=16, dataset="arxiv")
    result = session.compare(("te_cp", "llama_cp", "hybrid_dp", "zeppelin"))
    print(result.to_json(indent=2))

Sweeps fan one session out over the cartesian product of GPU counts, context
lengths and datasets::

    for cell in session.sweep(gpus=(16, 32), datasets=("arxiv", "github")):
        print(cell.config["num_gpus"], cell.config["dataset"],
              round(cell.speedup("zeppelin"), 2))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.cluster.presets import cluster_a, cluster_b, cluster_c
from repro.cluster.topology import Cluster
from repro.core.plan import ExecutionPlan
from repro.core.strategy import Strategy, StrategyContext
from repro.data.datasets import SyntheticDataset
from repro.data.sampler import Batch
from repro.model.spec import TransformerSpec, get_model
from repro.registry import STRATEGIES
from repro.results import CompareResult, ResilienceResult, RunResult, ServeResult
from repro.utils.validation import check_positive

# The paper's standard comparison order: TE CP is the speedup baseline.
DEFAULT_COMPARISON = ("te_cp", "llama_cp", "hybrid_dp", "zeppelin")


@dataclass(frozen=True)
class SessionConfig:
    """One evaluation configuration.

    Attributes
    ----------
    model:
        Model preset name or alias (``"7b"``, ``"llama-13b"``, ``"8x550m"``...).
    cluster_preset:
        ``"A"``, ``"B"`` or ``"C"`` (the paper's clusters).
    num_gpus:
        Total GPUs; must be a multiple of 8 (nodes are 8-GPU).
    dataset:
        Length-distribution name (``"arxiv"``, ``"github"``, ``"prolong64k"``).
    total_context:
        Total tokens per iteration (64k / 128k / 256k in the paper).
    tensor_parallel:
        Tensor-parallel degree (1 or 2 in the paper).
    num_steps:
        Number of batches to average throughput over.
    seed:
        Batch sampling seed.
    """

    model: str
    cluster_preset: str = "A"
    num_gpus: int = 16
    dataset: str = "arxiv"
    total_context: int = 64 * 1024
    tensor_parallel: int = 1
    num_steps: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_gpus", self.num_gpus)
        check_positive("total_context", self.total_context)
        check_positive("tensor_parallel", self.tensor_parallel)
        check_positive("num_steps", self.num_steps)
        if self.num_gpus % 8 != 0:
            raise ValueError("num_gpus must be a multiple of 8 (8-GPU nodes)")

    @property
    def num_nodes(self) -> int:
        return self.num_gpus // 8

    @property
    def tokens_per_gpu(self) -> int:
        return self.total_context // self.num_gpus

    @property
    def tokens_per_dp_rank(self) -> int:
        """Per-logical-rank token budget (the paper's ``L``)."""
        return self.total_context // (self.num_gpus // self.tensor_parallel)

    def replace(self, **overrides: Any) -> "SessionConfig":
        """A copy of this configuration with some fields overridden."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def cache_key(self) -> tuple[Any, ...]:
        """Hashable identity used for plan- and session-cache keys."""
        return dataclasses.astuple(self)


def build_cluster(config: SessionConfig) -> Cluster:
    """Instantiate the cluster preset for a configuration."""
    preset = config.cluster_preset.upper()
    if preset == "A":
        return cluster_a(num_nodes=config.num_nodes)
    if preset == "B":
        return cluster_b(num_nodes=config.num_nodes)
    if preset == "C":
        return cluster_c(num_nodes=config.num_nodes)
    raise ValueError(f"unknown cluster preset {config.cluster_preset!r}")


def _strategy_key(name: str, kwargs: Mapping[str, Any]) -> tuple[Any, ...]:
    """Hashable identity of one strategy configuration."""
    return (name.lower(), tuple(sorted((k, repr(v)) for k, v in kwargs.items())))


def _batch_key(batch: Batch) -> tuple[Any, ...]:
    """Hashable identity of a batch (plans depend only on the lengths)."""
    return (batch.dataset, batch.lengths)


class _CachedPlanStrategy:
    """Proxy routing ``plan_layer`` through the session's plan cache.

    Everything else (``name``, ``spec``, ``context``, ``describe()``...)
    delegates to the wrapped strategy, so the proxy is a drop-in anywhere a
    :class:`Strategy` is consumed.
    """

    def __init__(self, session: "Session", inner: Strategy, key: tuple[Any, ...]):
        self._session = session
        self._inner = inner
        self._key = key

    def plan_layer(self, batch: Batch, phase: str = "forward") -> ExecutionPlan:
        return self._session._cached_plan(self._key, self._inner, batch, phase)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._inner, attr)

    def __repr__(self) -> str:
        return f"<cached {self._inner!r}>"


class Session:
    """Long-lived planning session over one base configuration.

    The session owns the expensive immutable pieces — cluster topology, model
    spec, strategy context and sampled batches — plus two caches:

    * a strategy cache keyed by (name, kwargs), and
    * a plan cache keyed by (strategy configuration, batch, phase), so any
      path that replans an already-seen combination (repeated ``run()`` /
      ``compare()`` calls, ablation grids, sweeps) gets the identical
      :class:`ExecutionPlan` object back instead of replanning.  Each cached
      plan keeps its compiled form, and the compiled form memoises every
      makespan it has finished (:func:`repro.sim.batch.simulate_makespans`),
      so a repeated run or resilience state is not simulated again either.

    Derived sessions created by :meth:`derive`/:meth:`sweep` are themselves
    cached by configuration, so re-running a sweep is nearly free.

    Telemetry is observational and ambient: everything launched from a
    session reports to the hub installed by
    :func:`~repro.obs.telemetry_scope` (off by default), without ever
    affecting results.
    """

    def __init__(self, config: SessionConfig | None = None, /, **overrides: Any):
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.cluster = build_cluster(config)
        self.spec: TransformerSpec = get_model(config.model)
        self.context = StrategyContext(
            cluster=self.cluster,
            spec=self.spec,
            token_budget=config.tokens_per_dp_rank,
            tensor_parallel=config.tensor_parallel,
        )
        self._batches: list[Batch] | None = None
        self._strategies: dict[tuple[Any, ...], _CachedPlanStrategy] = {}
        self._plans: dict[tuple[Any, ...], ExecutionPlan] = {}
        self._children: dict[tuple[Any, ...], "Session"] = {}

    # -- cached building blocks -------------------------------------------------

    @property
    def batches(self) -> list[Batch]:
        """The sampled evaluation batches (sampled once, then reused)."""
        if self._batches is None:
            dataset = SyntheticDataset(
                name=self.config.dataset,
                total_context=self.config.total_context,
                seed=self.config.seed,
            )
            self._batches = dataset.batches(self.config.num_steps)
        return self._batches

    def strategy(self, name: str, **kwargs: Any) -> Strategy:
        """Build (or fetch) a strategy bound to this session's context.

        The returned object is a caching proxy: its ``plan_layer`` consults
        the session plan cache before planning.
        """
        key = _strategy_key(name, kwargs)
        if key not in self._strategies:
            entry = STRATEGIES.get(name)
            inner = entry.obj(self.context, **kwargs)
            self._strategies[key] = _CachedPlanStrategy(self, inner, key)
        return self._strategies[key]

    def _cached_plan(
        self,
        strategy_key: tuple[Any, ...],
        inner: Strategy,
        batch: Batch,
        phase: str,
    ) -> ExecutionPlan:
        key = (strategy_key, _batch_key(batch), phase)
        plan = self._plans.get(key)
        if plan is None:
            plan = inner.plan_layer(batch, phase=phase)
            # Warm the engine's compiled form while the plan enters the cache:
            # every later simulation of this memoised plan (repeated runs,
            # sweep points, resilience iterations) reuses one compile.
            plan.compiled()
            self._plans[key] = plan
        return plan

    @property
    def plan_cache_size(self) -> int:
        """Number of cached execution plans (diagnostic)."""
        return len(self._plans)

    # -- planning and measurement -----------------------------------------------

    def plan(
        self,
        strategy: str,
        batch: Batch | None = None,
        phase: str = "forward",
        **kwargs: Any,
    ) -> ExecutionPlan:
        """The (cached) one-layer plan of ``strategy`` for ``batch``.

        ``batch`` defaults to the first sampled batch of the session.
        Repeated calls with an equivalent (strategy, batch, phase) return the
        identical :class:`ExecutionPlan` object.
        """
        if batch is None:
            batch = self.batches[0]
        proxy = self.strategy(strategy, **kwargs)
        return proxy.plan_layer(batch, phase=phase)

    def run(
        self,
        strategy: str,
        *,
        label: str | None = None,
        perturbation: Any | None = None,
        recovery: Any = "checkpoint_restart",
        num_iterations: int = 32,
        **kwargs: Any,
    ) -> "RunResult | ResilienceResult":
        """Measure one strategy's throughput over the session batches.

        With ``perturbation`` set (a :class:`~repro.dynamics.PerturbationConfig`,
        :class:`~repro.dynamics.PerturbationModel`, or a mapping of config
        fields), the strategy instead trains ``num_iterations`` iterations on a
        cluster perturbed by a schedule drawn deterministically from the
        session seed, applying the ``recovery`` policy (registry name or
        :class:`~repro.dynamics.RecoveryPolicy` instance) whenever a node
        fails, and returns a :class:`~repro.results.ResilienceResult`.
        """
        from repro.training.throughput import measure_throughput

        proxy = self.strategy(strategy, **kwargs)
        report = measure_throughput(proxy, self.batches)
        result = RunResult(
            strategy=strategy.lower(),
            label=label if label is not None else report.strategy,
            tokens_per_second=report.tokens_per_second,
            iteration_time_s=report.iteration_time_s,
            total_tokens=report.total_tokens,
            num_batches=report.num_batches,
            config=self.config.to_dict(),
        )
        if perturbation is None:
            return result
        return self._run_resilient(
            strategy,
            healthy=result,
            perturbation=perturbation,
            recovery=recovery,
            num_iterations=num_iterations,
            **kwargs,
        )

    def _run_resilient(
        self,
        strategy: str,
        *,
        healthy: RunResult,
        perturbation: Any,
        recovery: Any,
        num_iterations: int,
        **kwargs: Any,
    ) -> "ResilienceResult":
        """Run the dynamics driver and wrap its report as a result."""
        from repro.dynamics.models import as_model
        from repro.dynamics.recovery import as_policy, run_resilient

        model = as_model(perturbation)
        schedule = model.generate(self.cluster, seed=self.config.seed)
        policy = as_policy(recovery)
        report = run_resilient(
            self,
            strategy,
            schedule=schedule,
            policy=policy,
            num_iterations=num_iterations,
            **kwargs,
        )
        return ResilienceResult(
            strategy=healthy.strategy,
            label=healthy.label,
            recovery=policy.name,
            goodput_tokens_per_second=report.goodput_tokens_per_second,
            healthy_tokens_per_second=healthy.tokens_per_second,
            wall_time_s=report.wall_time_s,
            time_lost_s=report.time_lost_s,
            restart_count=report.restart_count,
            num_failures=report.num_failures,
            completed_iterations=report.completed_iterations,
            num_iterations=report.num_iterations,
            final_num_nodes=report.final_num_nodes,
            total_tokens=report.useful_tokens,
            config=self.config.to_dict(),
            perturbation=model.config.to_dict(),
        )

    @staticmethod
    def _is_custom_model(perturbation: Any) -> bool:
        """True for PerturbationModel *subclasses*, whose behaviour (e.g. an
        overridden ``generate``) would be lost by flattening to a config dict."""
        from repro.dynamics.models import PerturbationModel

        return (
            isinstance(perturbation, PerturbationModel)
            and type(perturbation) is not PerturbationModel
        )

    def _run_base(
        self,
        perturbation: Any | None,
        recovery: str,
        num_iterations: int,
    ) -> dict[str, Any]:
        """Constant sweep-point fields shared by compare()/sweep() grids."""
        if perturbation is not None:
            from repro.dynamics.models import as_model

            perturbation = as_model(perturbation).config.to_dict()
        return {
            **self.config.to_dict(),
            "strategy_kwargs": {},
            "label": None,
            "perturbation": perturbation,
            # With no perturbation the recovery field is inert; normalise any
            # non-string to the default so the point stays JSON-representable.
            "recovery": recovery if isinstance(recovery, str) else "checkpoint_restart",
            "num_iterations": num_iterations,
        }

    def compare(
        self,
        strategies: Sequence[str] = DEFAULT_COMPARISON,
        baseline: str | None = None,
        *,
        perturbation: Any | None = None,
        recovery: Any = "checkpoint_restart",
        num_iterations: int = 32,
    ) -> CompareResult:
        """Measure several strategies on identical batches.

        The speedup baseline defaults to the first strategy (the paper
        normalises against TE CP, which comparisons list first).  With
        ``perturbation`` set, every strategy faces the identical perturbation
        schedule and recovery policy, and the comparison rows normalise
        *goodput* instead of raw throughput.

        Implemented as a one-axis sweep through :mod:`repro.exec`, executed
        serially against this session's own caches.
        """
        from repro.exec.spec import SweepSpec
        from repro.exec.sweep import run_sweep
        from repro.exec.worker import SessionPool

        if not strategies:
            raise ValueError("need at least one strategy to compare")
        if perturbation is not None and (
            not isinstance(recovery, str) or self._is_custom_model(perturbation)
        ):
            # A configured policy *instance* or a PerturbationModel subclass
            # cannot ride in a JSON sweep point without losing behaviour;
            # run it directly (same results, no sweep machinery).
            runs = tuple(
                self.run(
                    name,
                    perturbation=perturbation,
                    recovery=recovery,
                    num_iterations=num_iterations,
                )
                for name in strategies
            )
            return CompareResult(
                runs=runs,
                baseline=(baseline or strategies[0]).lower(),
                config=self.config.to_dict(),
            )
        spec = SweepSpec(
            base=self._run_base(perturbation, recovery, num_iterations),
            axes={"strategy": tuple(strategies)},
        )
        sweep = run_sweep(spec, backend="serial", pool=SessionPool(self))
        return CompareResult(
            runs=sweep.results,
            baseline=(baseline or strategies[0]).lower(),
            config=self.config.to_dict(),
        )

    def serve(self, spec_or_mix: Any = None, /, **knobs: Any) -> "ServeResult":
        """Drive a serving workload over this session.

        The primary form takes a frozen :class:`~repro.serve.ServeSpec` —
        the full workload description (mix, arrival process, admission
        policy, concurrency/batching limits, SLO, autoscaling), validated on
        construction::

            from repro.serve import ServeSpec

            spec = ServeSpec(mix={"zeppelin": 3, "te_cp": 1},
                             arrival="closed", clients=64, slo_s=2.0,
                             admission="slo_aware")
            result = session.serve(spec)

        A seeded arrival process emits evaluation requests drawn from the
        mix — open-loop (``poisson``/``trace``) or closed-loop (``closed``:
        a pool of virtual users that re-issue after a think time).  Requests
        are admitted or shed by the admission policy, queue under a
        ``concurrency`` limit, and compatible queued requests batch into
        shared plan executions that reuse this session's plan caches plus an
        in-run result cache, so repeated cells are near-free.  Returns a
        :class:`~repro.results.ServeResult` with throughput, goodput,
        latency percentiles, queue depth and capacity over time, shed
        counts and the cache hit rate.

        The legacy form — a mix plus loose knobs, e.g.
        ``session.serve("zeppelin", rate=20.0, slo_s=1.0)`` — remains as a
        thin shim that packages the knobs into a :class:`ServeSpec`.
        """
        from repro.serve.driver import run_serve
        from repro.serve.spec import ServeSpec

        if isinstance(spec_or_mix, ServeSpec):
            if knobs:
                raise ValueError(
                    f"with a ServeSpec, pass no extra knobs; got {sorted(knobs)}"
                )
            spec = spec_or_mix
        else:
            spec = ServeSpec(mix=spec_or_mix, **knobs)
        return run_serve(self, spec)

    # -- derived sessions and sweeps --------------------------------------------

    def derive(self, **overrides: Any) -> "Session":
        """A session for a modified configuration, cached by configuration.

        Sessions derived twice with the same overrides are the same object,
        so their batch and plan caches are reused across sweep repetitions.
        """
        config = self.config.replace(**overrides)
        if config == self.config:
            return self
        # Make this session reachable from its descendants before branching.
        self._children.setdefault(self.config.cache_key(), self)
        key = config.cache_key()
        child = self._children.get(key)
        if child is None:
            child = Session(config)
            child._children = self._children  # share the pool across the family
            self._children[key] = child
        return child

    def sweep(
        self,
        *,
        gpus: Sequence[int] | None = None,
        contexts: Sequence[int] | None = None,
        datasets: Sequence[str] | None = None,
        strategies: Sequence[str] = DEFAULT_COMPARISON,
        baseline: str | None = None,
        backend: Any = None,
        jobs: int = 1,
        cache: Any = False,
        backend_options: "Mapping[str, Any] | None" = None,
    ) -> tuple[CompareResult, ...]:
        """Compare strategies over the cartesian product of sweep axes.

        Any axis left as ``None`` stays at the session's configured value.
        Returns one :class:`CompareResult` per cell, in ``gpus`` x
        ``contexts`` x ``datasets`` order; each cell's configuration is in
        ``cell.config``.

        Declared as one :class:`~repro.exec.SweepSpec` grid over
        (gpus, contexts, datasets, strategy) and executed through
        :func:`~repro.exec.run_sweep` — pass ``backend``/``jobs``/``cache``
        to parallelise the fan-out or reuse cached points, and
        ``backend_options`` to configure a backend selected by name (e.g.
        ``backend="cluster", backend_options={"batch_system": "slurm"}``).
        """
        from repro.exec.spec import SweepSpec
        from repro.exec.sweep import run_sweep
        from repro.exec.worker import SessionPool

        if not strategies:
            raise ValueError("need at least one strategy to compare")
        spec = SweepSpec(
            base=self._run_base(None, "checkpoint_restart", 32),
            axes={
                "num_gpus": tuple(gpus) if gpus is not None else (self.config.num_gpus,),
                "total_context": (
                    tuple(contexts) if contexts is not None else (self.config.total_context,)
                ),
                "dataset": (
                    tuple(datasets) if datasets is not None else (self.config.dataset,)
                ),
                "strategy": tuple(strategies),
            },
        )
        pool = SessionPool(self) if backend in (None, "serial") and jobs == 1 else None
        sweep = run_sweep(
            spec,
            backend=backend,
            jobs=jobs,
            cache=cache,
            pool=pool,
            backend_options=backend_options,
        )
        cells = []
        for _, group in sweep.groups("num_gpus", "total_context", "dataset"):
            config = SessionConfig(**group.points[0].session_fields()).to_dict()
            cells.append(
                group.to_compare(
                    baseline=(baseline or strategies[0]).lower(), config=config
                )
            )
        return tuple(cells)
