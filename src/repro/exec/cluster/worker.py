"""The batch-node worker: ``python -m repro.exec.cluster.worker JOBFILE``.

A batch node needs nothing but the installed ``repro`` package and the
network workdir: the worker reads one job file, executes its payloads
through the same :func:`~repro.exec.worker.execute_payload` entry every
other backend uses (one :class:`~repro.exec.worker.SessionPool` per worker,
so payloads sharing a configuration share batches and compiled plans), and
atomically writes one result file next to the job file.

Each payload is first looked up in the shared point cache the job file
names (the ``$REPRO_CACHE_DIR`` network mount) and every fresh result is
written back to it, point by point.  That per-point write discipline is
what makes resubmission and the backend's shrinking rounds cheap: a job
killed halfway leaves its finished points in the cache, so whichever job
covers those payloads next gets them as hits and only computes the tail.

A job file the worker cannot use (another code version's, or malformed) is
recorded as rejected beside it; the driver then fails the sweep at once
instead of resubmitting a job no worker of this version will ever run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro.exec.cache import ResultCache, point_key
from repro.exec.cluster.jobfile import (
    JobFileError,
    read_jobfile,
    result_path_for,
    write_rejection,
    write_results,
)
from repro.exec.spec import SweepPoint
from repro.exec.worker import SessionPool, execute_payload


def run_jobfile(jobfile: str, out: "str | None" = None) -> dict[str, Any]:
    """Execute one job file and write its result file; returns the stats.

    A job file :func:`read_jobfile` refuses is recorded as rejected (see
    :func:`~repro.exec.cluster.jobfile.write_rejection`) before the
    :class:`JobFileError` propagates — unless the file could not be read at
    all, which a resubmission may not repeat (a mount that has not caught
    up yet).
    """
    try:
        job = read_jobfile(jobfile)
    except JobFileError as exc:
        if not isinstance(exc.__cause__, OSError):
            write_rejection(jobfile, str(exc))
        raise
    out_path = result_path_for(jobfile) if out is None else out
    cache = None if job["cache_dir"] is None else ResultCache(job["cache_dir"])
    pool = SessionPool()
    results: list[dict[str, Any]] = []
    executed = 0
    cache_hits = 0
    for payload in job["payloads"]:
        key = None
        if cache is not None:
            key = point_key(SweepPoint(dict(payload)))
            cached = cache.get(key)
            if cached is not None:
                results.append(cached)
                cache_hits += 1
                continue
        result = execute_payload(payload, pool=pool)
        executed += 1
        if cache is not None and key is not None:
            cache.put(key, dict(payload), result)
        results.append(result)
    stats = {
        "payloads": len(results),
        "executed": executed,
        "cache_hits": cache_hits,
    }
    write_results(out_path, results, stats)
    return stats


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.exec.cluster.worker",
        description="execute one repro cluster job file on a batch node",
    )
    parser.add_argument("jobfile", help="job file written by the cluster backend")
    parser.add_argument(
        "--out",
        default=None,
        help="result file path (default: JOBFILE with a .result.json suffix)",
    )
    args = parser.parse_args(argv)
    stats = run_jobfile(args.jobfile, args.out)
    print(
        f"{args.jobfile}: {stats['payloads']} payloads, "
        f"{stats['executed']} executed, {stats['cache_hits']} cache hits"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
