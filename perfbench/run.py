"""Run the benchmark: ``python3 perfbench/run.py --workload NAME --seed N``.

Options: ``--seconds S`` (how long to keep starting repetitions, default 30),
``--trace 0|1`` (``1`` reports the per-layer metrics instead of the
end-to-end ones), ``--workload all`` (every workload in turn), and
``--record`` (store this run's output digest as the recorded one for the
seed, after the program's results have deliberately changed).

Each repetition is a fresh interpreter (``perfbench/rep.py``) with a fixed
``PYTHONHASHSEED``, one BLAS/OpenMP thread and ``REPRO_CACHE_DIR`` pointing
at an empty directory that must still be empty afterwards.  Repetitions
start until the next one would end past ``--seconds``; the run reports the
median of each metric over them.  Every repetition's output is checked:
invariants that hold for any seed, the same digest and inputs in every
repetition, and the digest recorded for the seed in ``digests.json``.

The human-readable report goes to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.layers import ROWS, LayerTracer, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

REP_SCRIPT = ROOT / "perfbench" / "rep.py"
DIGESTS = ROOT / "perfbench" / "digests.json"
# A repetition normally takes seconds; this only bounds a hung one.
REP_TIMEOUT_S = 120
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Seconds one unit of the host-speed probe (_probe_unit) takes on the
# reference host.  Reported times are scaled to that host speed.
REFERENCE_PROBE_S = 0.015
PROBE_ROUNDS = 12
_RATIOS = ("hit_ratio", "replay_ratio", "shed_ratio", "tracing_overhead")


def metric_unit(name: str) -> str:
    """Unit of an end-to-end or per-layer metric, derived from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(_RATIOS):
        return "ratio"
    return "count"


def rep_environment(cache_dir: str) -> dict[str, str]:
    """The environment every repetition runs in."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CACHE_DIR=cache_dir,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return env


class _ProbeItem:
    __slots__ = ("key", "seq", "payload")

    def __init__(self, key: int, seq: int, payload: dict[str, Any]):
        self.key = key
        self.seq = seq
        self.payload = payload


def _probe_unit() -> int:
    """A fixed unit of object-heavy Python like the program's own planner
    and serve loop: attribute access, a sort, a heap, dict updates and a
    JSON encode."""
    items = [
        _ProbeItem(i * 7919 % 1009, i, {"id": i, "tags": [i % 7, i % 11]})
        for i in range(4000)
    ]
    items.sort(key=lambda item: (item.key, item.seq))
    heap: list[tuple[int, int]] = []
    totals: dict[int, int] = {}
    for item in items:
        heapq.heappush(heap, (item.key, item.seq))
        totals[item.key] = totals.get(item.key, 0) + item.payload["tags"][0]
    while heap:
        heapq.heappop(heap)
    encoded = json.dumps([item.payload for item in items[:2000]], sort_keys=True)
    return len(encoded) + len(totals)


def probe_rounds() -> list[float]:
    """Seconds each of ``PROBE_ROUNDS`` probe units takes on the current host."""
    rounds = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        _probe_unit()
        rounds.append(time.perf_counter() - start)
    return rounds


def spawn(
    workload: Workload, seed: int, trace: bool, env: dict[str, str]
) -> dict[str, Any]:
    """Run one repetition in a fresh interpreter and return its record.

    The host-speed probe runs here, just before and just after the
    repetition, in this process, which never imports the program: nothing
    the program does to the interpreter (gc tuning, heap size) reaches it.
    """
    command = [
        sys.executable,
        str(REP_SCRIPT),
        workload.name,
        str(seed),
        str(int(trace)),
    ]
    before = probe_rounds()
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines else None
        if not isinstance(record, dict):
            stderr = proc.stderr.strip()[-2000:]
            raise ValueError(f"exit code {proc.returncode}: {stderr}")
    except (subprocess.TimeoutExpired, ValueError) as exc:
        record = {
            "trace": trace,
            "error": f"repetition failed: {exc}",
            "violations": [],
            "attempted": len(workload.sub_seeds(seed)) * workload.operations(None),
        }
    if "setup_done" in record:
        # time.monotonic() reads the system-wide CLOCK_MONOTONIC on Linux, so
        # the child's stamp and the parent's are on one clock: set-up runs
        # from process start (interpreter start included) to inputs built.
        record["setup_s"] = record["setup_done"] - spawned
    record["probe_s"] = statistics.median(before + probe_rounds())
    return record


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, cache_dir: str
) -> list[dict[str, Any]]:
    """Repetitions of ``workload`` until the next would end past ``seconds``.

    With ``trace``, untraced and traced repetitions alternate (at least one
    of each), so the tracing overhead compares runs taken side by side.
    """
    env = rep_environment(cache_dir)
    deadline = time.monotonic() + seconds
    minimum = 2 if trace else 1
    records: list[dict[str, Any]] = []
    durations: list[float] = []
    while True:
        started = time.monotonic()
        record = spawn(workload, seed, trace and len(records) % 2 == 1, env)
        durations.append(time.monotonic() - started)
        leftovers = sum(1 for _ in os.scandir(cache_dir))
        if leftovers:
            record["violations"].append(f"{leftovers} result-cache entries left behind")
        records.append(record)
        if len(records) >= minimum and (
            time.monotonic() + statistics.median(durations) > deadline
        ):
            return records


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def host_factor(record: dict[str, Any]) -> float:
    """Scale from a repetition's measured seconds to reference-host seconds.

    A shared cloud VM can change speed by 1.5-2x from one repetition to the
    next and stay there for minutes (2-vCPU Xeon VM, 2.1 GHz), and the
    program's wall and CPU time move with it.  :func:`spawn` times a fixed
    probe just before and after each repetition; the median probe round
    measures the speed that repetition saw.
    """
    return REFERENCE_PROBE_S / record["probe_s"]


def _scaled_median(records: list[dict[str, Any]], seconds) -> float:
    """Median over repetitions of ``seconds(record)`` at reference speed."""
    return _median([seconds(r) * host_factor(r) for r in records])


def summarize(
    workload: Workload,
    seed: int,
    trace: bool,
    records: list[dict[str, Any]],
    recorded: str | None,
) -> dict[str, Any]:
    """Medians, the output check and failure accounting of one workload's run."""
    problems: list[str] = []
    for record in records:
        if record["error"]:
            problems.append(record["error"].strip().splitlines()[-1])
        problems.extend(record["violations"])
    ok = [r for r in records if r["error"] is None]
    digests = sorted({r["digest"] for r in ok})
    if len({r["inputs"] for r in ok}) > 1:
        problems.append("one seed generated different inputs in different repetitions")
    if len(digests) > 1:
        problems.append("repetitions of one seed produced different results")
    elif digests and recorded is not None and digests[0] != recorded:
        problems.append(
            f"digest {digests[0][:12]} differs from the recorded {recorded[:12]}"
        )
    attempted = sum(r["attempted"] for r in records)
    untraced = [r for r in ok if not r["trace"]]
    traced = [r for r in ok if r["trace"]]
    wall = _scaled_median(untraced, lambda r: r["wall_s"])
    if trace:
        metrics = {}
        for name in layer_metrics(LayerTracer(), {}):
            if metric_unit(name) == "s":
                metrics[name] = _scaled_median(
                    traced, lambda r: r["layers"]["metrics"][name]
                )
            else:
                metrics[name] = _median([r["layers"]["metrics"][name] for r in traced])
        traced_wall = _scaled_median(traced, lambda r: r["wall_s"])
        metrics["obs.tracing_overhead"] = traced_wall / wall - 1.0 if wall else 0.0
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": _scaled_median(untraced, lambda r: r["setup_s"]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
    return {
        "workload": workload,
        "seed": seed,
        "records": records,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
        "recorded": recorded,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": metrics,
        "traced": traced,
        "untraced": untraced,
    }


def provenance() -> str:
    """Code revision, interpreter and library versions, and CPU count."""
    rev = "no git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        rev = proc.stdout.strip() or rev
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode())
        tree.update(path.read_bytes())
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    return (
        f"rev {rev}, src sha256 {tree.hexdigest()[:12]}, python "
        f"{platform.python_version()}, {', '.join(versions)}, "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


def report(summary: dict[str, Any], trace: bool, header: str) -> None:
    """Print one workload's human-readable result."""
    workload = summary["workload"]
    records = summary["records"]
    print(
        f"== {workload.name}  seed {summary['seed']}  tracing "
        f"{'on' if trace else 'off'}  {len(records)} repetitions"
    )
    print(f"   {header}")
    print(f"   args {json.dumps(workload.args())}")
    print(f"   seeds {workload.sub_seeds(summary['seed'])}")
    print(f"   why  {workload.why}")
    probes = " ".join(
        f"{1000 * r['probe_s']:.1f}" for r in summary["untraced"] + summary["traced"]
    )
    print(
        f"   host probe ms {probes}: each repetition's times are scaled to "
        f"a {1000 * REFERENCE_PROBE_S:g} ms host"
    )
    if not trace:
        for name, value in summary["metrics"].items():
            shown = " ".join(f"{r[name]:.4f}" for r in summary["untraced"])
            unit = metric_unit(name)
            print(f"   {name:<14}{value:>12.4f} {unit:<5} measured: {shown}")
    for record in summary["untraced"][:1] + summary["traced"][:1]:
        for name, (value, unit) in record["summary"].items():
            print(f"   {name:<14}{value:>12.4f} {unit:<5} simulated; exact per seed")
    if trace and summary["traced"]:
        _report_layers(summary)
    print(f"   operations attempted {summary['attempted']}, failed {summary['failed']}")
    recorded = summary["recorded"]
    status = "none recorded" if recorded is None else (
        "matches the recorded one" if summary["digest"] == recorded else "MISMATCH"
    )
    print(f"   digest {(summary['digest'] or '-')[:16]} ({status})")
    for problem in summary["problems"]:
        print(f"   FAILED: {problem}")


def _report_layers(summary: dict[str, Any]) -> None:
    traced = summary["traced"]
    record = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    wall = record["wall_s"]
    print(f"   measured layer times, median traced repetition (wall {wall:.4f} s):")
    print(f"   {'layer':<26}{'calls':>9}{'incl_s':>10}{'self_s':>10}{'self%':>7}")
    rows = record["layers"]["rows"]
    for row in ROWS:
        if row in rows:
            calls, inclusive, self_s = rows[row]
            print(
                f"   {row:<26}{calls:>9}{inclusive:>10.4f}{self_s:>10.4f}"
                f"{100 * self_s / wall:>6.1f}%"
            )
    total = sum(row[2] for row in rows.values())
    print(f"   {'sum of self (= wall_s)':<26}{'':>9}{'':>10}{total:>10.4f}")
    counters = ", ".join(
        f"{k}={v}" for k, v in sorted(record["layers"]["counters"].items())
    )
    print(f"   program counters: {counters}")
    print(f"   {record['layers']['spans']} spans recorded")
    print("   per-layer metrics (medians over traced repetitions, times scaled):")
    for name, value in summary["metrics"].items():
        print(f"   {name:<36}{value:>14.6g} {metric_unit(name)}")


def result_line(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """The final JSON object (metrics prefixed by workload when several ran)."""
    prefix = len(summaries) > 1
    metrics = {}
    for summary in summaries:
        for name, value in summary["metrics"].items():
            key = f"{summary['workload'].name}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": metric_unit(name)}
    return {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    # Terminated, still stop the running repetition and remove the cache dir:
    # SystemExit unwinds through subprocess.run, which kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the benchmark "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # Byte-compile once up front, so no repetition's set-up includes it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(ROOT / "perfbench", quiet=1)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # --record compares with nothing and stores what this run produced.
    expected = {} if args.record else digests
    trace = bool(args.trace)
    header = provenance()
    summaries = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-cache-", dir=ROOT) as cache_dir:
        for name in names:
            workload = WORKLOADS[name]
            recorded = expected.get(name, {}).get(str(args.seed))
            records = run_workload(workload, args.seed, args.seconds, trace, cache_dir)
            summary = summarize(workload, args.seed, trace, records, recorded)
            report(summary, trace, header)
            summaries.append(summary)
            if args.record and not summary["problems"] and summary["digest"]:
                digests.setdefault(name, {})[str(args.seed)] = summary["digest"]
                DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    line = result_line(summaries)
    print(json.dumps(line))
    return 0 if line["correct"] and not line["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
