"""Command-line interface for the Zeppelin reproduction.

Ten subcommands:

* ``run`` — measure one strategy on one configuration, optionally under
  faults (:mod:`repro.dynamics`)::

      python -m repro run zeppelin --model 7b --gpus 16
      python -m repro run zeppelin --mttf 60 --recovery elastic --json

* ``compare`` — run one evaluation cell (model, cluster, dataset, context,
  scale) and print the throughput of the selected strategies side by side::

      python -m repro compare --model 7b --dataset arxiv --gpus 16 --context-k 64

  ``--json`` emits the structured :class:`~repro.results.CompareResult`
  instead of the table.  The dynamics flags (``--mttf``,
  ``--straggler-frac``, ``--recovery``...) switch the comparison to goodput
  under the identical perturbation schedule for every strategy.

* ``sweep`` — declare a (clusters x gpus x contexts x datasets x strategies)
  grid and execute it through :mod:`repro.exec`, with backend fan-out and
  result caching::

      python -m repro sweep --gpus 16 32 --datasets arxiv github --jobs 4

  ``--batch-system slurm|sge|pbs|fake`` switches to the ``cluster`` backend
  (:mod:`repro.exec.cluster`): sweep points are serialised to job files
  under a network ``--workdir``, submitted with pass-through
  ``--batch-options``, and collected in shrinking rounds over the shared
  ``$REPRO_CACHE_DIR`` point cache::

      python -m repro sweep --batch-system slurm --jobs 50 \\
          --workdir /nfs/$USER/sweep --batch-options="--partition=long"

* ``experiment`` — regenerate one of the paper's tables/figures by name
  (module-basename aliases like ``fig09_scalability`` also work)::

      python -m repro experiment fig11
      python -m repro experiment fig09_scalability --jobs 4

  ``--backend``/``--jobs`` fan the experiment's sweep out over a backend;
  the result cache is on by default here and ``--no-cache`` disables it.

* ``trace`` — simulate one strategy's layer plan and export the execution
  timeline as Chrome-trace JSON (``chrome://tracing`` / Perfetto)::

      python -m repro trace zeppelin --model 3b --out timeline.json

* ``serve`` — drive an online serving workload (seeded open- or closed-loop
  arrivals, admission queue with SLO-aware shedding, request batching,
  optional telemetry-driven autoscaling) over the simulator and report
  throughput, goodput, latency percentiles, shed counts and cache
  behaviour.  Flags assemble a :class:`repro.serve.ServeSpec`::

      python -m repro serve --rate 5 --duration 60 --seed 0 --json
      python -m repro serve --mix zeppelin=3 te_cp=1 --admission priority
      python -m repro serve --arrival closed --clients 64 --slo 2 \\
          --admission slo_aware --scale-policy queue_depth --max-gpus 64

* ``obs`` — summarise a telemetry log written by ``--telemetry``::

      python -m repro obs report telemetry.jsonl

* ``dynamics`` — show the registered recovery policies and perturbation knobs.

* ``analyze`` — run the static determinism & invariant linter
  (:mod:`repro.analysis`) over the source tree; exits 1 on findings::

      python -m repro analyze src
      python -m repro analyze --rule D001 --json src

* ``list`` — show every registered model, dataset, strategy, experiment,
  recovery policy, execution backend, batch submitter, arrival process,
  admission policy and analysis rule (with descriptions), straight from the
  registries.

A single ``--seed`` drives every stochastic path — batch sampling *and* the
perturbation schedule — so any run is reproducible from one flag.  The
``run``/``compare``/``sweep``/``experiment``/``serve`` subcommands accept
``--telemetry PATH``: structured events (:mod:`repro.obs`) stream to a JSONL
file while the command runs, without changing any result byte.

Strategies, experiments, recovery policies, execution backends and the
other plug-ins are resolved through the :mod:`repro.registry` objects;
anything registered with ``@STRATEGIES.register`` /
``@EXPERIMENTS.register`` / ``@BACKENDS.register`` (and so on) shows up
here without touching this module.  The same functionality is available
programmatically through :class:`repro.api.Session` and :mod:`repro.exec`.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from typing import Any, Sequence

from repro.api import DEFAULT_COMPARISON, Session, SessionConfig
from repro.obs.core import Telemetry, telemetry_scope
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
    RegistryError,
)
from repro.utils.tables import render_table
from repro.utils.validation import check_positive

# Exit code for configuration errors (bad GPU count, unknown model/dataset...).
CONFIG_ERROR_EXIT_CODE = 2


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--telemetry PATH`` flag (observational JSONL event stream)."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="stream structured telemetry events to a JSONL file "
        "(summarise with `repro obs report PATH`; results are unaffected)",
    )


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """Evaluation-cell flags shared by ``run`` and ``compare``."""
    parser.add_argument("--model", default="7b", help="model preset (3b/7b/13b/30b/8x550m)")
    parser.add_argument("--cluster", default="A", choices=["A", "B", "C"], help="cluster preset")
    parser.add_argument("--gpus", type=int, default=16, help="total GPUs (multiple of 8)")
    parser.add_argument("--dataset", default="arxiv", help="length distribution name")
    parser.add_argument("--context-k", type=int, default=64, help="total context in k tokens")
    parser.add_argument("--tensor-parallel", type=int, default=1, help="TP degree")
    parser.add_argument("--steps", type=int, default=2, help="batches to average over")
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for all stochastic paths (batch sampling and dynamics)",
    )


def _add_dynamics_args(parser: argparse.ArgumentParser) -> None:
    """Fault/variability-injection flags shared by ``run`` and ``compare``."""
    group = parser.add_argument_group(
        "dynamics", "fault & variability injection (see `repro dynamics`)"
    )
    group.add_argument(
        "--mttf",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-node mean time to failure; enables node failures",
    )
    group.add_argument(
        "--max-failures", type=int, default=2, help="cap on injected node failures"
    )
    group.add_argument(
        "--straggler-frac",
        type=float,
        default=0.0,
        help="fraction of GPUs that are persistent stragglers",
    )
    group.add_argument(
        "--straggler-slowdown",
        type=float,
        default=0.7,
        help="mean speed factor of straggler GPUs",
    )
    group.add_argument(
        "--nic-degrade-frac",
        type=float,
        default=0.0,
        help="fraction of NICs that degrade during the run",
    )
    group.add_argument(
        "--nic-degrade-factor",
        type=float,
        default=0.5,
        help="bandwidth factor of a degraded NIC",
    )
    group.add_argument(
        "--recovery",
        default="checkpoint_restart",
        choices=list(RECOVERIES.names()),
        help="recovery policy applied on node failure",
    )
    group.add_argument(
        "--iterations",
        type=int,
        default=32,
        help="training iterations simulated in a resilience run",
    )


def _add_backend_args(parser: argparse.ArgumentParser, for_experiment: bool = False) -> None:
    """Sweep-execution flags shared by ``sweep`` and ``experiment``."""
    group = parser.add_argument_group(
        "execution", "sweep backend and result cache (see `repro list`)"
    )
    group.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS.names()),
        help="execution backend (default: serial, or process when --jobs > 1; "
        "--batch-system implies cluster)",
    )
    group.add_argument(
        "--jobs",
        type=int,
        default=None if for_experiment else 1,
        help="parallel workers for backends that fan out",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-hash result cache (.repro_cache/)",
    )
    group.add_argument(
        "--batch-system",
        default=None,
        choices=list(SUBMITTERS.names()),
        help="cluster-backend submitter (slurm/sge/pbs, or fake for local "
        "subprocesses); implies --backend cluster",
    )
    group.add_argument(
        "--batch-options",
        default=None,
        metavar="OPTS",
        help='extra scheduler options passed through verbatim, e.g. '
        '--batch-options="--partition=long --mem=16G"',
    )
    group.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="cluster-backend job/result directory; must be a network mount "
        "all batch nodes see (default: a local temporary directory)",
    )
    group.add_argument(
        "--progress",
        action="store_true",
        help="cluster backend: print a live per-job/per-round status line "
        "to stderr (output only, never enters results)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zeppelin reproduction: strategy comparison and paper experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="measure one strategy, optionally under injected faults"
    )
    run.add_argument(
        "strategy", choices=list(STRATEGIES.names()), help="strategy to run"
    )
    _add_config_args(run)
    _add_dynamics_args(run)
    _add_telemetry_arg(run)
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the structured result as JSON instead of a table",
    )

    compare = sub.add_parser("compare", help="compare strategies on one configuration")
    _add_config_args(compare)
    _add_dynamics_args(compare)
    compare.add_argument(
        "--strategies",
        nargs="+",
        default=list(DEFAULT_COMPARISON),
        choices=list(STRATEGIES.names()),
        help="strategies to compare (first is the speedup baseline)",
    )
    compare.add_argument(
        "--baseline",
        default=None,
        help="strategy to normalise speedups against (default: first listed)",
    )
    _add_telemetry_arg(compare)
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the structured CompareResult as JSON instead of a table",
    )

    sweep = sub.add_parser(
        "sweep", help="execute a declarative strategy/cluster/dataset grid"
    )
    sweep.add_argument("--model", default="7b", help="model preset (3b/7b/13b/30b/8x550m)")
    sweep.add_argument(
        "--clusters",
        nargs="+",
        default=["A"],
        choices=["A", "B", "C"],
        help="cluster preset axis",
    )
    sweep.add_argument(
        "--gpus", nargs="+", type=int, default=[16], help="GPU-count axis (multiples of 8)"
    )
    sweep.add_argument(
        "--context-k", nargs="+", type=int, default=[64], help="total-context axis (k tokens)"
    )
    sweep.add_argument(
        "--datasets", nargs="+", default=["arxiv"], help="length-distribution axis"
    )
    sweep.add_argument(
        "--strategies",
        nargs="+",
        default=list(DEFAULT_COMPARISON),
        choices=list(STRATEGIES.names()),
        help="strategy axis",
    )
    sweep.add_argument("--tensor-parallel", type=int, default=1, help="TP degree")
    sweep.add_argument("--steps", type=int, default=2, help="batches to average over")
    sweep.add_argument(
        "--seed", type=int, default=0, help="seed for all stochastic paths"
    )
    _add_dynamics_args(sweep)
    _add_backend_args(sweep)
    _add_telemetry_arg(sweep)
    sweep.add_argument(
        "--json",
        action="store_true",
        help="emit the structured SweepResult (points, results, meta) as JSON",
    )

    experiment = sub.add_parser("experiment", help="regenerate one paper table/figure")
    experiment.add_argument(
        "name",
        choices=list(EXPERIMENTS.names()) + sorted(EXPERIMENTS.aliases),
        metavar="name",
        help="experiment identifier (run `repro list` for the catalogue; "
        "module-basename aliases such as fig09_scalability also work)",
    )
    experiment.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the experiment's sampling/dynamics seed (if it takes one)",
    )
    _add_backend_args(experiment, for_experiment=True)
    _add_telemetry_arg(experiment)
    experiment.add_argument(
        "--json",
        action="store_true",
        help="emit the structured ExperimentResult as JSON instead of a table",
    )

    trace = sub.add_parser(
        "trace", help="export one strategy's simulated timeline as Chrome-trace JSON"
    )
    trace.add_argument(
        "strategy", choices=list(STRATEGIES.names()), help="strategy to trace"
    )
    _add_config_args(trace)
    trace.add_argument(
        "--phase",
        default="forward",
        choices=["forward", "backward"],
        help="which layer pass to trace",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write Chrome-trace JSON here and print a summary "
        "(default: print the JSON to stdout)",
    )

    serve = sub.add_parser(
        "serve", help="drive a serving workload over the simulator"
    )
    _add_config_args(serve)
    serving = serve.add_argument_group(
        "serving", "traffic shape, admission and autoscaling (see `repro list`)"
    )
    serving.add_argument(
        "--rate",
        type=float,
        default=10.0,
        help="mean arrival rate in requests per virtual second",
    )
    serving.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="arrival window in virtual seconds (the queue then drains)",
    )
    serving.add_argument(
        "--mix",
        nargs="+",
        default=None,
        metavar="STRATEGY[=WEIGHT]",
        help="request mix cells, e.g. --mix zeppelin=3 te_cp=1 "
        "(default: the standard comparison, equal weights)",
    )
    serving.add_argument(
        "--arrival",
        default="poisson",
        choices=list(ARRIVALS.names()),
        help="arrival process drawing the request schedule",
    )
    serving.add_argument(
        "--trace-file",
        default=None,
        metavar="FILE",
        help="JSON list of arrival timestamps (required for --arrival trace)",
    )
    serving.add_argument(
        "--admission",
        default="fifo",
        choices=list(ADMISSIONS.names()),
        help="admission policy ordering the request queue",
    )
    serving.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="maximum concurrent batch executions",
    )
    serving.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="maximum requests coalesced into one execution",
    )
    serving.add_argument(
        "--clients",
        type=int,
        default=32,
        help="closed-loop pool size (used by --arrival closed)",
    )
    serving.add_argument(
        "--think-time",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="mean closed-loop think time (used by --arrival closed)",
    )
    serving.add_argument(
        "--coalesce",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="deadline-capped batching window: hold a dispatch up to this "
        "long to coalesce same-cell arrivals (never past SLO slack)",
    )
    serving.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="latency objective; goodput counts only requests meeting it, "
        "and slo_aware admission sheds predicted misses",
    )
    serving.add_argument(
        "--scale-policy",
        default=None,
        choices=list(SCALES.names()),
        help="autoscale the virtual cluster with load (default: fixed size)",
    )
    serving.add_argument(
        "--min-gpus",
        type=int,
        default=None,
        help="autoscale floor in GPUs (default: the session's --gpus)",
    )
    serving.add_argument(
        "--max-gpus",
        type=int,
        default=None,
        help="autoscale ceiling in GPUs (default: the session's --gpus)",
    )
    serving.add_argument(
        "--no-request-cache",
        action="store_true",
        help="disable the in-run result cache (every batch simulates)",
    )
    _add_telemetry_arg(serve)
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the structured ServeResult as JSON instead of a table",
    )

    obs = sub.add_parser(
        "obs", help="summarise a telemetry JSONL log written by --telemetry"
    )
    obs.add_argument("action", choices=["report"], help="obs action")
    obs.add_argument("path", metavar="PATH", help="telemetry JSONL file")

    analyze = sub.add_parser(
        "analyze",
        help="run the static determinism & invariant linter (repro.analysis)",
    )
    from repro.analysis.driver import add_analyze_arguments

    add_analyze_arguments(analyze)

    sub.add_parser(
        "dynamics", help="list recovery policies and perturbation model knobs"
    )
    sub.add_parser(
        "list",
        help="list registered models, datasets, strategies, experiments, "
        "recovery policies, execution backends, batch submitters, arrival "
        "processes, admission policies and analysis rules",
    )
    return parser


def _config_error(exc: Exception) -> int:
    """Print a one-line configuration error and return the error exit code."""
    message = exc.args[0] if exc.args else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return CONFIG_ERROR_EXIT_CODE


def _session_config(args: argparse.Namespace) -> SessionConfig:
    return SessionConfig(
        model=args.model,
        cluster_preset=args.cluster,
        num_gpus=args.gpus,
        dataset=args.dataset,
        total_context=args.context_k * 1024,
        tensor_parallel=args.tensor_parallel,
        num_steps=args.steps,
        seed=args.seed,
    )


def _backend_selection(
    args: argparse.Namespace,
) -> "tuple[str | None, dict[str, Any] | None]":
    """The (backend, backend_options) implied by the execution flags.

    ``--batch-system`` alone is enough to select the cluster backend
    (partis-style); the batch flags with any *other* explicit backend are a
    configuration error.  Raises ``ValueError`` for the caller's config-error
    handling.
    """
    backend = args.backend
    if backend is None and args.batch_system is not None:
        backend = "cluster"
    batch_flags = (
        args.batch_system is not None
        or args.batch_options is not None
        or args.workdir is not None
        or args.progress
    )
    if batch_flags and backend != "cluster":
        raise ValueError(
            "--batch-system/--batch-options/--workdir/--progress apply only "
            "to the cluster backend (pass --backend cluster or "
            "--batch-system NAME)"
        )
    if backend != "cluster":
        return backend, None
    options: dict[str, Any] = {
        "batch_system": args.batch_system if args.batch_system else "fake"
    }
    if args.batch_options is not None:
        options["batch_options"] = args.batch_options
    if args.workdir is not None:
        options["workdir"] = args.workdir
    if args.progress:
        options["progress"] = True
    return backend, options


def _perturbation(args: argparse.Namespace):
    """The PerturbationConfig implied by the dynamics flags, or ``None``."""
    from repro.dynamics.models import PerturbationConfig

    config = PerturbationConfig(
        mttf_s=args.mttf,
        max_failures=args.max_failures,
        straggler_frac=args.straggler_frac,
        straggler_slowdown=args.straggler_slowdown,
        nic_degrade_frac=args.nic_degrade_frac,
        nic_degrade_factor=args.nic_degrade_factor,
    )
    return None if config.is_null else config


def _build_session(args: argparse.Namespace) -> tuple[Session, Any] | int:
    """Build and validate the session and perturbation, or return the
    config-error exit code.

    Only configuration validation runs inside the try: building the session,
    materialising the batches and constructing the perturbation surface every
    bad-input error (GPU count, unknown model/cluster/dataset, out-of-range
    dynamics knobs).  Bugs during the actual measurement should propagate as
    tracebacks, not masquerade as config errors.
    """
    try:
        session = Session(_session_config(args))
        session.batches
        check_positive("iterations", args.iterations)
        perturbation = _perturbation(args)
    except (ValueError, KeyError) as exc:
        return _config_error(exc)
    return session, perturbation


def run_run(args: argparse.Namespace) -> int:
    """Execute the ``run`` subcommand."""
    built = _build_session(args)
    if isinstance(built, int):
        return built
    session, perturbation = built
    result = session.run(
        args.strategy,
        perturbation=perturbation,
        recovery=args.recovery,
        num_iterations=args.iterations,
    )
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(session.cluster.describe())
    data = result.to_dict()
    data.pop("config", None)
    data.pop("perturbation", None)
    rows = [[key, value] for key, value in data.items()]
    print(render_table(["field", "value"], rows))
    return 0


def run_compare(args: argparse.Namespace) -> int:
    """Execute the ``compare`` subcommand."""
    if args.baseline is not None and args.baseline.lower() not in [
        s.lower() for s in args.strategies
    ]:
        return _config_error(
            ValueError(
                f"baseline {args.baseline!r} is not among the compared "
                f"strategies: {args.strategies}"
            )
        )
    built = _build_session(args)
    if isinstance(built, int):
        return built
    session, perturbation = built
    result = session.compare(
        tuple(args.strategies),
        baseline=args.baseline,
        perturbation=perturbation,
        recovery=args.recovery,
        num_iterations=args.iterations,
    )
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(session.cluster.describe())
    rows = [
        [r["strategy"], round(r["tokens_per_second"]), f"{r['speedup']:.2f}x"]
        for r in result.rows()
    ]
    rate = "goodput" if perturbation is not None else "tokens/second"
    print(render_table(["strategy", rate, "speedup"], rows))
    return 0


def run_sweep_cmd(args: argparse.Namespace) -> int:
    """Execute the ``sweep`` subcommand."""
    from repro.data.distributions import available_distributions
    from repro.exec import SweepSpec, run_sweep
    from repro.model.spec import get_model

    try:
        get_model(args.model)
        for gpus in args.gpus:
            check_positive("num_gpus", gpus)
            if gpus % 8 != 0:
                raise ValueError("num_gpus must be a multiple of 8 (8-GPU nodes)")
        for context_k in args.context_k:
            check_positive("total_context", context_k * 1024)
        check_positive("tensor_parallel", args.tensor_parallel)
        known = set(available_distributions())
        for dataset in args.datasets:
            if dataset not in known:
                raise ValueError(
                    f"unknown dataset {dataset!r}; available: {', '.join(sorted(known))}"
                )
        check_positive("steps", args.steps)
        check_positive("iterations", args.iterations)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        backend, backend_options = _backend_selection(args)
        perturbation = _perturbation(args)
    except (ValueError, KeyError) as exc:
        return _config_error(exc)

    spec = SweepSpec(
        base={
            "model": args.model,
            "tensor_parallel": args.tensor_parallel,
            "num_steps": args.steps,
            "seed": args.seed,
            "strategy_kwargs": {},
            "label": None,
            "perturbation": None if perturbation is None else perturbation.to_dict(),
            "recovery": args.recovery,
            "num_iterations": args.iterations,
        },
        axes={
            "cluster_preset": tuple(args.clusters),
            "num_gpus": tuple(args.gpus),
            "total_context": tuple(k * 1024 for k in args.context_k),
            "dataset": tuple(args.datasets),
            "strategy": tuple(args.strategies),
        },
    )
    result = run_sweep(
        spec,
        backend=backend,
        jobs=args.jobs,
        cache=not args.no_cache,
        backend_options=backend_options,
    )
    if args.json:
        print(result.to_json(indent=2))
        return 0
    rate = "goodput" if perturbation is not None else "tokens/second"
    rows = [
        [
            point["cluster_preset"],
            point["num_gpus"],
            f"{point['total_context'] // 1024}k",
            point["dataset"],
            point["strategy"],
            round(res.tokens_per_second),
        ]
        for point, res in result
    ]
    print(render_table(["cluster", "gpus", "context", "dataset", "strategy", rate], rows))
    meta = result.meta
    print(
        f"[{meta['num_points']} points via {meta['backend']} backend "
        f"(jobs={meta['jobs']}): {meta['cache_hits']} cached, "
        f"{meta['executed_points']} executed in "
        f"{meta['timing']['wall_time_s']:.2f}s]"
    )
    if "rounds" in meta:
        hits = sum(r["worker_cache_hits"] for r in meta["rounds"])
        print(
            f"[cluster: {meta['batch_system']} batch system, "
            f"{len(meta['rounds'])} round(s), "
            f"{sum(r['jobs'] for r in meta['rounds'])} jobs, "
            f"{meta['resubmissions']} resubmissions, "
            f"{hits} worker cache hits]"
        )
    return 0


def run_trace(args: argparse.Namespace) -> int:
    """Execute the ``trace`` subcommand."""
    from repro.sim.engine import Simulator
    from repro.sim.trace import summarize_trace

    built = _build_session_config_only(args)
    if isinstance(built, int):
        return built
    session = built
    strategy = session.strategy(args.strategy)
    plan = strategy.plan_layer(session.batches[0], phase=args.phase)
    sim_result = Simulator(record_trace=True).run(plan)
    trace = sim_result.trace
    process_name = (
        f"{args.strategy} {args.phase} layer — {args.model}, "
        f"{args.gpus} GPUs, cluster {args.cluster}"
    )
    payload = trace.to_chrome_json(indent=2, process_name=process_name)
    if args.out is None:
        print(payload)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(payload)
    summary = summarize_trace(trace)
    print(f"wrote {args.out} ({len(trace.spans)} spans)")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    rows = [
        ["makespan_ms", round(sim_result.makespan_s * 1000, 3)],
        ["attention_ms", round(summary["total_attention_s"] * 1000, 3)],
        ["intra_comm_ms", round(summary["total_intra_comm_s"] * 1000, 3)],
        ["inter_comm_ms", round(summary["total_inter_comm_s"] * 1000, 3)],
    ]
    print(render_table(["metric", "value"], rows))
    return 0


def _build_session_config_only(args: argparse.Namespace) -> Session | int:
    """Session for subcommands without dynamics flags, or the error code."""
    try:
        session = Session(_session_config(args))
        session.batches
    except (ValueError, KeyError) as exc:
        return _config_error(exc)
    return session


def run_experiment(args: argparse.Namespace) -> int:
    """Execute the ``experiment`` subcommand."""
    entry = EXPERIMENTS.get(args.name)
    params = inspect.signature(entry.obj).parameters
    kwargs = {}
    if args.seed is not None:
        if "seed" not in params:
            return _config_error(
                ValueError(f"experiment {args.name!r} does not take a seed")
            )
        kwargs["seed"] = args.seed
    # Sweep-execution flags forward only to experiments built on repro.exec;
    # default values stay silent so plain experiments keep working.
    supports_exec = "use_cache" in params
    if supports_exec:
        if args.jobs is not None and args.jobs < 1:
            return _config_error(ValueError("--jobs must be >= 1"))
        try:
            backend, backend_options = _backend_selection(args)
        except ValueError as exc:
            return _config_error(exc)
        kwargs["use_cache"] = not args.no_cache
        if backend_options is not None:
            # Experiments forward `backend` verbatim to run_sweep, which
            # accepts instances — so the cluster flags need no per-experiment
            # plumbing: hand over a fully-constructed backend.
            from repro.exec.sweep import resolve_backend

            kwargs["backend"] = resolve_backend(
                backend, jobs=args.jobs or 1, options=backend_options
            )
        elif backend is not None:
            kwargs["backend"] = backend
        if args.jobs is not None:
            kwargs["jobs"] = args.jobs
    elif (
        args.backend is not None
        or args.jobs is not None
        or args.no_cache
        or args.batch_system is not None
        or args.batch_options is not None
        or args.workdir is not None
    ):
        return _config_error(
            ValueError(
                f"experiment {args.name!r} does not support sweep execution "
                "flags (--backend/--jobs/--no-cache/--batch-system/"
                "--batch-options/--workdir)"
            )
        )
    if args.json:
        print(entry.obj(**kwargs).to_json(indent=2))
        return 0
    if kwargs:
        from repro.experiments.common import print_result

        print_result(entry.obj(**kwargs))
        return 0
    # The table path runs the module's ``main()`` so experiments keep any
    # auxiliary output they print beyond the result table (e.g. fig5's zone
    # thresholds); modules without one fall back to printing the table.
    module = importlib.import_module(entry.module)
    main_fn = getattr(module, "main", None)
    if main_fn is not None:
        main_fn()
    else:
        print(entry.obj().to_text())
        print()
    return 0


def _parse_mix(entries: "Sequence[str] | None") -> "dict[str, float] | None":
    """Parse ``--mix`` entries (``strategy`` or ``strategy=weight``)."""
    if entries is None:
        return None
    known = [s.lower() for s in STRATEGIES.names()]
    mix: dict[str, float] = {}
    for entry in entries:
        name, _, weight = entry.partition("=")
        name = name.lower()
        if name not in known:
            raise ValueError(
                f"unknown strategy {name!r} in --mix; available: {', '.join(known)}"
            )
        mix[name] = float(weight) if weight else 1.0
    return mix


def run_serve_cmd(args: argparse.Namespace) -> int:
    """Execute the ``serve`` subcommand: flags become one ServeSpec."""
    import json as _json

    from repro.serve.spec import ServeSpec

    try:
        session = Session(_session_config(args))
        session.batches
        mix = _parse_mix(args.mix)
        trace_times = ()
        if args.arrival == "trace":
            if args.trace_file is None:
                raise ValueError("--arrival trace requires --trace-file")
            with open(args.trace_file, "r", encoding="utf-8") as handle:
                trace_times = tuple(float(t) for t in _json.load(handle))
        spec = ServeSpec(
            mix=mix,
            rate=args.rate,
            duration_s=args.duration,
            arrival=args.arrival,
            trace_times=trace_times,
            clients=args.clients,
            think_time_s=args.think_time,
            admission=args.admission,
            concurrency=args.concurrency,
            max_batch=args.max_batch,
            coalesce_s=args.coalesce,
            cache=not args.no_request_cache,
            slo_s=args.slo,
            scale_policy=args.scale_policy,
            min_gpus=args.min_gpus,
            max_gpus=args.max_gpus,
        )
        result = session.serve(spec)
    except (ValueError, KeyError, OSError) as exc:
        return _config_error(exc)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(session.cluster.describe())
    data = result.to_dict()
    for skipped in ("config", "mix", "queue_depth_timeline", "capacity_timeline"):
        data.pop(skipped, None)
    rows = [[key, value] for key, value in data.items()]
    print(render_table(["metric", "value"], rows))
    print(
        f"[{result.num_requests} requests -> {result.simulations} simulations "
        f"({result.cache_hits} cached, {result.batched_requests} batched) "
        f"via {result.arrival}/{result.admission}, "
        f"concurrency {result.concurrency}]"
    )
    return 0


def run_obs(args: argparse.Namespace) -> int:
    """Execute the ``obs`` subcommand (``repro obs report PATH``)."""
    from repro.obs.export import read_events, render_report, summarize_events

    try:
        events = read_events(args.path)
    except OSError as exc:
        # OSError.args[0] is the bare errno; rebuild a readable message.
        return _config_error(ValueError(f"cannot read {args.path}: {exc.strerror or exc}"))
    except ValueError as exc:
        return _config_error(exc)
    print(render_report(summarize_events(events)))
    return 0


def run_dynamics(args: argparse.Namespace) -> int:
    """Execute the ``dynamics`` subcommand."""
    from repro.dynamics.models import PerturbationConfig

    print("recovery policies:")
    for entry in RECOVERIES.entries():
        print(f"  {entry.name:<20} {entry.description}")
    print()
    print("perturbation knobs (PerturbationConfig defaults):")
    defaults = PerturbationConfig()
    for field_name, value in defaults.to_dict().items():
        print(f"  {field_name:<20} {value}")
    print()
    print("CLI: repro run/compare --mttf S --straggler-frac F --recovery NAME ...")
    return 0


def run_analyze(args: argparse.Namespace) -> int:
    """Execute the ``analyze`` subcommand."""
    from repro.analysis.driver import execute

    return execute(args.paths, rules=args.rules, json_output=args.json)


def run_list(args: argparse.Namespace) -> int:
    """Execute the ``list`` subcommand.

    Every registry renders through the same table: section header, then
    one ``name description`` row per entry, names padded to a shared width.
    """
    from repro.data.distributions import available_distributions
    from repro.model.spec import available_models

    print("models:   ", ", ".join(available_models()))
    print("datasets: ", ", ".join(available_distributions()))
    sections = (
        ("strategies", STRATEGIES.entries()),
        ("experiments", EXPERIMENTS.entries()),
        ("recovery policies", RECOVERIES.entries()),
        ("execution backends", BACKENDS.entries()),
        ("batch submitters", SUBMITTERS.entries()),
        ("arrival processes", ARRIVALS.entries()),
        ("admission policies", ADMISSIONS.entries()),
        ("scale policies", SCALES.entries()),
        ("analysis rules", RULES.entries()),
    )
    width = max(
        len(entry.name) for _, entries in sections for entry in entries
    )
    for title, entries in sections:
        print(f"{title}:")
        for entry in entries:
            print(f"  {entry.name:<{width}}  {entry.description}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": run_run,
        "compare": run_compare,
        "sweep": run_sweep_cmd,
        "experiment": run_experiment,
        "trace": run_trace,
        "serve": run_serve_cmd,
        "obs": run_obs,
        "dynamics": run_dynamics,
        "analyze": run_analyze,
        "list": run_list,
    }
    telemetry_path = getattr(args, "telemetry", None)
    try:
        if telemetry_path is None:
            return handlers[args.command](args)
        from repro.obs.export import JsonlSink

        # Install the hub as the ambient hub for the whole invocation: every
        # producer emits to it, so one flag instruments the full command.
        with Telemetry(sink=JsonlSink(telemetry_path)) as hub:
            with telemetry_scope(hub):
                return handlers[args.command](args)
    except RegistryError as exc:
        return _config_error(exc)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
