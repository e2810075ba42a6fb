"""One measured repetition of a workload, run in a fresh interpreter.

``python3 perfbench/rep.py WORKLOAD SEED TRACE`` prints one JSON record on
its last stdout line.  ``perfbench/run.py`` starts every repetition this way
(with a fixed ``PYTHONHASHSEED`` and one BLAS thread), so no session, plan
cache or worker pool survives from one timed run into the next.

Set-up ends when the workload's inputs are built and every module the layer
trace wraps is loaded: imports plus ``Session``/``ServeSpec`` construction,
before the first planning call.  Traced and untraced repetitions therefore
start their timed region from the same loaded state.  The timed region runs
from the first library call to the checked result; with ``TRACE`` 1 the
layer entry points are wrapped and a telemetry hub is installed for it.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import (  # noqa: E402
    LayerTracer,
    layer_metrics,
    load_traced_modules,
)
from perfbench.workloads import WORKLOADS, Workload, digest  # noqa: E402


def _traced(run: Callable[[], Any]) -> tuple[Any, float, dict[str, Any]]:
    from repro.obs.core import Telemetry, telemetry_scope

    hub = Telemetry()
    tracer = LayerTracer()
    with telemetry_scope(hub), tracer.installed():
        gc.collect()
        result, wall_s = tracer.run(run)
    rows = {
        row: [stats.calls, stats.inclusive_s, stats.self_s]
        for row, stats in tracer.rows.items()
        if stats.calls
    }
    layers = {
        "metrics": layer_metrics(tracer, hub.counters),
        "rows": rows,
        "counters": dict(hub.counters),
        "spans": len(tracer.spans),
    }
    return result, wall_s, layers


def measure(workload: Workload, seed: int, trace: bool) -> dict[str, Any]:
    """Run ``workload`` once in this process and check its output.

    ``setup_s`` is counted from this call; ``perfbench/run.py`` recounts it
    from process start using ``setup_done``.  Any exception is caught here
    and recorded, so a failing workload is counted as failed operations
    instead of ending the benchmark.
    """
    called = time.monotonic()
    record: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "error": None,
        "violations": [],
    }
    seeds = workload.sub_seeds(seed)
    results: list[Any] = []
    try:
        parts = [workload.prepare(s) for s in seeds]
        load_traced_modules()
        record["setup_done"] = time.monotonic()
        record["setup_s"] = record["setup_done"] - called

        def run() -> list[Any]:
            return [part.run() for part in parts]

        if trace:
            results, wall_s, record["layers"] = _traced(run)
        else:
            gc.collect()
            start = time.perf_counter()
            results = run()
            wall_s = time.perf_counter() - start
        record["wall_s"] = wall_s
        record["violations"] = [p for r in results for p in workload.check(r)]
        record["digest"] = digest([workload.fields(r) for r in results])
        record["inputs"] = digest([part.inputs() for part in parts])
        record["summary"] = workload.summary(results[0])
    except Exception:  # the boundary that must keep the benchmark running
        record["error"] = traceback.format_exc(limit=8)
    if results:
        record["attempted"] = sum(workload.operations(r) for r in results)
    else:
        record["attempted"] = len(seeds) * workload.operations(None)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def main(argv: list[str]) -> int:
    name, seed, trace = argv
    print(json.dumps(measure(WORKLOADS[name], int(seed), trace == "1")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
