"""The benchmark workloads: inputs from a seed, one run, the output check.

Each workload drives the public API (``Session.compare``,
``fig13_resilience.run``, ``Session.serve(ServeSpec)``) with inputs made
from the seed, which reaches the program as ``SessionConfig.seed`` (batch
sampling, arrival mix draws, perturbation schedules).  ``repro`` is
imported only inside :meth:`Workload.prepare`, so that cost is part of a
repetition's set-up, and so that this module loads where ``src/`` is absent.

A workload's output check has two halves: :meth:`Workload.fields` selects
the result fields later changes must keep (hashed into a per-seed digest
that is compared across repetitions and with the digests recorded in
``perfbench/digests.json``), and :meth:`Workload.check` tests invariants
that hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

SERVE_MIX = {"zeppelin": 2, "te_cp": 1, "llama_cp": 1}


@dataclass
class Prepared:
    """A workload ready to run: only the timed call is left.

    ``inputs()`` describes the inputs the seed generated (JSON-safe); it is
    read after the run, when lazily sampled batches exist.
    """

    run: Callable[[], Any]
    inputs: Callable[[], Any]


def digest(value: Any) -> str:
    """SHA-256 of the canonical JSON of ``value`` (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


class Workload:
    """One named set of inputs (see the subclasses for the three kinds).

    A repetition with seed ``n`` executes the workload once per seed in
    ``sub_seeds(n)``.  Where the work itself depends on the seed (batch
    composition, failure times, backlog depth), two seeds per repetition
    narrow the spread between runs with different seeds.
    """

    name: str
    why: str
    seeds_per_run: int = 1

    def sub_seeds(self, seed: int) -> list[int]:
        """The seeds one repetition executes the workload with."""
        k = self.seeds_per_run
        return [seed * k + i for i in range(k)]

    def args(self) -> dict[str, Any]:
        """The workload's arguments (provenance; printed with every result)."""
        raise NotImplementedError

    def prepare(self, seed: int) -> Prepared:
        """Import the program and build its inputs; no planning happens here."""
        raise NotImplementedError

    def fields(self, result: Any) -> Any:
        """The result fields the digest covers."""
        raise NotImplementedError

    def check(self, result: Any) -> list[str]:
        """Violated invariants (empty when the result is sound)."""
        raise NotImplementedError

    def operations(self, result: Any | None) -> int:
        """Operations one execution attempts (``result`` is ``None`` if it
        raised)."""
        raise NotImplementedError

    def summary(self, result: Any) -> dict[str, tuple[float, str]]:
        """Simulated figures printed beside the host metrics."""
        return {}


class CompareWorkload(Workload):
    """A cold ``Session.compare`` over the paper's four strategies."""

    def __init__(
        self, name, why, *, model, num_gpus, total_context, dataset, strategies
    ):
        self.name = name
        self.why = why
        self.model = model
        self.num_gpus = num_gpus
        self.total_context = total_context
        self.dataset = dataset
        self.strategies = tuple(strategies)

    def args(self):
        return {
            "api": "Session.compare",
            "model": self.model,
            "num_gpus": self.num_gpus,
            "total_context": self.total_context,
            "num_steps": 1,
            "dataset": self.dataset,
            "strategies": list(self.strategies),
        }

    def prepare(self, seed):
        from repro.api import Session

        session = Session(
            model=self.model,
            num_gpus=self.num_gpus,
            total_context=self.total_context,
            num_steps=1,
            dataset=self.dataset,
            seed=seed,
        )
        return Prepared(
            run=lambda: session.compare(self.strategies),
            inputs=lambda: [list(b.lengths) for b in session.batches],
        )

    def fields(self, result):
        return [
            [r.strategy, r.tokens_per_second, r.iteration_time_s] for r in result.runs
        ]

    def check(self, result):
        problems = []
        if [r.strategy for r in result.runs] != list(self.strategies):
            problems.append("compare returned the wrong strategies")
        if len({r.total_tokens for r in result.runs}) != 1:
            problems.append("strategies saw different total_tokens")
        for r in result.runs:
            if not (
                _finite_positive(r.tokens_per_second)
                and _finite_positive(r.iteration_time_s)
            ):
                problems.append(f"{r.strategy}: non-positive throughput")
        return problems

    def operations(self, result):
        return len(self.strategies)

    def summary(self, result):
        return {"sim_speedup": (result.speedup("zeppelin"), "x")}


class ResilienceWorkload(Workload):
    """``fig13_resilience.run``: MTTF x recovery x strategy under faults."""

    def __init__(
        self, name, why, *, num_gpus, total_context, num_iterations, seeds_per_run=1
    ):
        self.name = name
        self.why = why
        self.seeds_per_run = seeds_per_run
        self.num_gpus = num_gpus
        self.total_context = total_context
        self.num_iterations = num_iterations

    def args(self):
        return {
            "api": "fig13_resilience.run",
            "num_gpus": self.num_gpus,
            "total_context": self.total_context,
            "num_iterations": self.num_iterations,
            "defaults": "3b, arxiv, num_steps=2, 12.5% stragglers, <=2 failures",
        }

    def prepare(self, seed):
        from repro.experiments import fig13_resilience

        def inputs():
            from repro.api import Session
            from repro.dynamics.models import PerturbationConfig, as_model

            session = Session(
                model="3b",
                num_gpus=self.num_gpus,
                total_context=self.total_context,
                num_steps=2,
                seed=seed,
            )
            schedules = [
                repr(
                    as_model(
                        PerturbationConfig(
                            mttf_s=mttf, straggler_frac=0.125, max_failures=2
                        )
                    )
                    .generate(session.cluster, seed=seed)
                    .events
                )
                for mttf in fig13_resilience.DEFAULT_MTTF_S
            ]
            return {
                "batches": [list(b.lengths) for b in session.batches],
                "schedules": schedules,
            }

        return Prepared(
            run=lambda: fig13_resilience.run(
                num_gpus=self.num_gpus,
                total_context=self.total_context,
                num_iterations=self.num_iterations,
                seed=seed,
            ),
            inputs=inputs,
        )

    @staticmethod
    def _points(result):
        return [(key, res) for key, res in result.extra.items() if key != "sweep_meta"]

    def fields(self, result):
        return [
            [
                list(key),
                res["goodput_tokens_per_second"],
                res["restart_count"],
                res["time_lost_s"],
                res["final_num_nodes"],
            ]
            for key, res in self._points(result)
        ]

    def check(self, result):
        problems = []
        points = self._points(result)
        meta = result.extra["sweep_meta"]
        if len(points) != meta["num_points"] or len(points) != self.operations(None):
            problems.append(f"{len(points)} points, expected {self.operations(None)}")
        if meta["cache_hits"] != 0 or meta["cache_enabled"]:
            problems.append("the result cache answered a point")
        for key, res in points:
            if not _finite_positive(res["goodput_tokens_per_second"]):
                problems.append(f"{key}: non-positive goodput")
            if not 1 <= res["final_num_nodes"] <= self.num_gpus // 8:
                problems.append(f"{key}: {res['final_num_nodes']} final nodes")
            if res["completed_iterations"] > res["num_iterations"]:
                problems.append(f"{key}: completed more iterations than asked")
        return problems

    def operations(self, result):
        return 3 * 2 * 3  # MTTF values x recovery policies x strategies


class ServeWorkload(Workload):
    """``Session.serve(ServeSpec)`` over the three-cell mix."""

    def __init__(
        self,
        name,
        why,
        *,
        model,
        num_gpus,
        total_context,
        spec,
        paced_rate=None,
        seeds_per_run=1,
    ):
        self.name = name
        self.why = why
        self.seeds_per_run = seeds_per_run
        self.model = model
        self.num_gpus = num_gpus
        self.total_context = total_context
        self.spec = dict(spec)
        # Open-loop arrivals on a seeded jittered grid: one request per
        # 1/rate slot, uniform within it.  Unlike Poisson arrivals, the
        # backlog a cold start builds is then rate x cold time within one
        # request, so the O(queue depth) admission cost a run pays does not
        # swing with the seed.
        self.paced_rate = paced_rate

    def args(self):
        args = {
            "api": "Session.serve(ServeSpec)",
            "model": self.model,
            "num_gpus": self.num_gpus,
            "total_context": self.total_context,
            "num_steps": 1,
            "mix": SERVE_MIX,
            **self.spec,
        }
        if self.paced_rate is not None:
            args["arrival"] = f"trace: one arrival per 1/{self.paced_rate:g} s slot"
        return args

    def arrival_times(self, seed: int) -> tuple[float, ...]:
        rng = random.Random(f"perfbench-arrivals-{seed}")
        count = int(self.paced_rate * self.spec["duration_s"])
        return tuple((i + rng.random()) / self.paced_rate for i in range(count))

    def prepare(self, seed):
        from repro.api import Session
        from repro.serve.spec import ServeSpec

        knobs = dict(self.spec)
        if self.paced_rate is not None:
            knobs.update(arrival="trace", trace_times=self.arrival_times(seed))
        spec = ServeSpec(mix=SERVE_MIX, **knobs)
        session = Session(
            model=self.model,
            num_gpus=self.num_gpus,
            total_context=self.total_context,
            num_steps=1,
            seed=seed,
        )
        return Prepared(
            run=lambda: session.serve(spec),
            inputs=lambda: {
                "batches": [list(b.lengths) for b in session.batches],
                "arrivals": digest(list(spec.trace_times)),
            },
        )

    _FIELDS = (
        "num_requests",
        "completed",
        "shed_count",
        "simulations",
        "batched_requests",
        "cache_hits",
        "makespan_s",
        "goodput_rps",
        "mean_latency_s",
        "p50_latency_s",
        "p95_latency_s",
        "p99_latency_s",
        "max_latency_s",
        "mean_queue_depth",
        "max_queue_depth",
        "scale_up_count",
        "scale_down_count",
    )

    def fields(self, result):
        values = {name: getattr(result, name) for name in self._FIELDS}
        values["capacity_timeline"] = [list(p) for p in result.capacity_timeline]
        return values

    def check(self, result):
        problems = []
        if result.completed + result.shed_count != result.num_requests:
            problems.append(
                f"completed {result.completed} + shed {result.shed_count} "
                f"!= issued {result.num_requests}"
            )
        if not (
            result.p50_latency_s
            <= result.p95_latency_s
            <= result.p99_latency_s
            <= result.max_latency_s
        ):
            problems.append("latency percentiles out of order")
        if result.num_requests < 1:
            problems.append("no requests were issued")
        return problems

    def operations(self, result):
        if result is not None:
            return result.num_requests
        if self.paced_rate is not None:
            return int(self.paced_rate * self.spec["duration_s"])
        return 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        CompareWorkload(
            "compare-128",
            "the paper's four-strategy comparison at the largest modelled scale; "
            "host time is mostly planning (te_cp ring costs, routing, compile)",
            model="7b",
            num_gpus=128,
            total_context=128 * 1024,
            dataset="arxiv",
            strategies=("te_cp", "llama_cp", "hybrid_dp", "zeppelin"),
        ),
        ResilienceWorkload(
            "resilience-32",
            "few plans simulated many times under stragglers and failures: "
            "engine path, iteration cache and elastic replans",
            num_gpus=32,
            total_context=96 * 1024,
            num_iterations=64,
            seeds_per_run=2,
        ),
        ServeWorkload(
            "serve-open-backlog",
            "open-loop serving whose cold start builds a deep FIFO backlog, "
            "so each arrival pays O(queue depth) admission work",
            model="3b",
            num_gpus=16,
            total_context=32 * 1024,
            spec={"duration_s": 20.0, "concurrency": 16, "max_batch": 64},
            paced_rate=400.0,
            seeds_per_run=2,
        ),
        ServeWorkload(
            "serve-closed-slo",
            "closed-loop clients with SLO-aware shedding and autoscaling keep the "
            "queue shallow: per-arrival admission, re-issue and replans",
            model="3b",
            num_gpus=16,
            total_context=32 * 1024,
            spec={
                "arrival": "closed",
                "clients": 256,
                "think_time_s": 0.2,
                "duration_s": 10.0,
                "concurrency": 16,
                "slo_s": 2.0,
                "admission": "slo_aware",
                "scale_policy": "queue_depth",
                "min_gpus": 8,
                "max_gpus": 32,
            },
            seeds_per_run=2,
        ),
    )
}
