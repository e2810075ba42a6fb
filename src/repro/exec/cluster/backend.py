"""The ``cluster`` execution backend: partis-style rounds over a batch system.

``map()`` splits the payloads over ``jobs`` workers, serialises each chunk
to a job file under the (network) workdir, submits the lot through the
selected :mod:`submitter <repro.exec.cluster.submitters>`, and collects the
partial results.  Payloads whose jobs failed past their resubmission budget
carry over to the next round, re-split over fewer, larger jobs — partis's
hierarchical merge discipline, with the next round's job count sized from
the per-point wall time observed in the round just finished (falling back
to a fixed ~1.6x shrink when the round produced no timing signal).  Because
every worker writes each finished point into the shared point cache
(``$REPRO_CACHE_DIR``, pointed at the mount), the payloads a later round
re-covers are cache hits: later, larger rounds are no slower than early
ones.

Per-round observability (job counts, resubmissions, worker execute/hit
counts) lands in :attr:`SweepResult.meta <repro.exec.result.SweepResult.meta>`
via :meth:`ClusterBackend.observability`; per-round wall times live apart
under its ``timing`` key (merged into ``meta["timing"]`` by the driver) so
the rest of the meta is deterministic.  With an ambient telemetry hub
installed, every round and every job submit/complete/fail/resubmit/
cancel becomes a structured event (:mod:`repro.obs.events`), and
``progress=True`` (CLI ``--progress``) prints a live per-round status line
to stderr.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Sequence

from repro.config import cache_dir_override
from repro.exec.backends import ExecutionBackend, Payload, Worker
from repro.exec.cluster.jobfile import (
    rejection_path_for,
    result_path_for,
    write_jobfile,
)
from repro.exec.cluster.submitters import ClusterJob, Submitter, run_jobs
from repro.obs.core import current_telemetry
from repro.registry import BACKENDS, SUBMITTERS

# Worker count divisor between consecutive rounds (partis reduces ~1.6x).
# Used directly when a round produced no timing signal; otherwise the next
# round is sized adaptively from the observed per-point wall time (see
# :func:`_adaptive_jobs`).
SHRINK_FACTOR = 1.6

# Floor for the per-job wall time the adaptive sizing aims at: chunks small
# enough to finish faster than this are dominated by scheduler latency, so
# the estimate never targets jobs shorter than it.
MIN_JOB_WALL_S = 1.0


def _adaptive_jobs(
    pending: int,
    completed_payloads: int,
    completed_jobs: int,
    round_wall_s: float,
    prev_jobs: int,
) -> int:
    """Size the next retry round from the previous round's observed rate.

    Estimates the per-point wall time of the previous round (its wall time
    was set by the slowest of ``completed_jobs`` roughly equal chunks, so
    one point costs about ``wall * jobs / payloads``), then picks the job
    count whose chunks of the ``pending`` remainder each take about
    ``SHRINK_FACTOR`` times the previous round's wall time — fewer, larger
    jobs, but proportioned to the actual work left instead of a fixed
    divisor.  Falls back to the fixed shrink when the previous round
    yielded no signal (nothing completed, or zero measured wall time).

    The result is always clamped into ``[1, prev_jobs - 1]``: rounds must
    strictly shrink so the escalation terminates at one worker no matter
    what the timing data says.
    """
    shrunk = max(1, min(prev_jobs - 1, int(prev_jobs / SHRINK_FACTOR)))
    if completed_payloads <= 0 or completed_jobs <= 0 or round_wall_s <= 0.0:
        return shrunk
    per_point_s = round_wall_s * completed_jobs / completed_payloads
    target_job_s = max(SHRINK_FACTOR * round_wall_s, MIN_JOB_WALL_S)
    estimate = int(pending * per_point_s / target_job_s)
    return max(1, min(prev_jobs - 1, estimate))


def _chunks(indices: Sequence[int], jobs: int) -> list[tuple[int, ...]]:
    """Split ``indices`` into at most ``jobs`` contiguous, near-equal chunks."""
    jobs = min(jobs, len(indices))
    size, remainder = divmod(len(indices), jobs)
    out = []
    start = 0
    for j in range(jobs):
        width = size + (1 if j < remainder else 0)
        out.append(tuple(indices[start : start + width]))
        start += width
    return out


@BACKENDS.register(
    "cluster",
    description="batch-system fan-out (slurm/sge/fake) over a shared workdir",
)
class ClusterBackend(ExecutionBackend):
    """Fan payloads out over a batch system in shrinking rounds.

    Parameters
    ----------
    jobs:
        Workers in the first round (later rounds shrink by
        :data:`SHRINK_FACTOR`).
    batch_system:
        Submitter registry name: ``slurm``, ``sge``, or ``fake`` (local
        subprocesses, the CI/single-host default).
    batch_options:
        Extra scheduler options passed through verbatim, e.g.
        ``"--partition=long --mem=16G"``.
    workdir:
        Directory for job/result/log files.  With a real batch system this
        must be a network mount every node can see; default is a fresh local
        temporary directory (fine for ``fake``), removed again on success.
    cache_dir:
        Shared point cache for the workers; defaults to ``$REPRO_CACHE_DIR``
        or, if unset, a ``point_cache/`` directory inside the workdir.
    timeout_s / poll_interval_s / max_resubmits:
        Per-job timeout, result-poll cadence, and in-round resubmission
        budget (see :func:`~repro.exec.cluster.submitters.run_jobs`).
    progress:
        Opt-in live status: print one line per completed job and per round
        to stderr (CLI ``--progress``).  Output only — never enters results.
    submitter:
        An explicit :class:`Submitter` instance, overriding ``batch_system``
        (used by tests; normal callers select by name).
    """

    name = "cluster"

    def __init__(
        self,
        jobs: int = 1,
        *,
        batch_system: str = "fake",
        batch_options: str = "",
        workdir: "str | Path | None" = None,
        cache_dir: "str | Path | None" = None,
        timeout_s: float | None = None,
        poll_interval_s: float = 0.1,
        max_resubmits: int = 1,
        progress: bool = False,
        submitter: "Submitter | None" = None,
    ):
        super().__init__(jobs=jobs)
        self.batch_system = submitter.name if submitter is not None else batch_system
        self.batch_options = batch_options
        self.workdir = None if workdir is None else Path(workdir)
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.timeout_s = timeout_s
        self.poll_interval_s = poll_interval_s
        self.max_resubmits = max_resubmits
        self.progress = progress
        self._submitter = submitter
        self._last_run: dict[str, Any] = {}

    def _make_submitter(self, workdir: Path) -> Submitter:
        if self._submitter is not None:
            return self._submitter
        cls = SUBMITTERS.get(self.batch_system).obj
        return cls(batch_options=self.batch_options, workdir=workdir)

    def map(self, payloads: Sequence[Payload], worker: Worker) -> list[dict]:
        if not payloads:
            self._last_run = {}
            return []
        auto_workdir = self.workdir is None
        workdir = (
            Path(tempfile.mkdtemp(prefix="repro-cluster-"))
            if auto_workdir
            else self.workdir
        )
        workdir.mkdir(parents=True, exist_ok=True)
        cache_dir = self.cache_dir
        if cache_dir is None:
            env_dir = cache_dir_override()
            cache_dir = (
                Path(env_dir) if env_dir else workdir / "point_cache"
            )
        submitter = self._make_submitter(workdir)

        results: list[dict | None] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        num_jobs = min(self.jobs, len(payloads))
        rounds: list[dict[str, Any]] = []
        round_wall_times: list[float] = []
        total_resubmissions = 0
        round_index = 0
        tele = current_telemetry()
        # Round wall time always flows through an obs span, telemetry or not.
        stopwatch = tele.stopwatch()

        while pending:
            round_index += 1
            jobs = []
            for j, chunk in enumerate(_chunks(pending, num_jobs)):
                jobfile = workdir / f"r{round_index:02d}_j{j:03d}.json"
                write_jobfile(
                    jobfile,
                    [payloads[i] for i in chunk],
                    cache_dir=cache_dir,
                )
                # A reused workdir may hold a result or rejection file from
                # an earlier sweep; both are read as this job's, so clear them.
                result_path_for(jobfile).unlink(missing_ok=True)
                rejection_path_for(jobfile).unlink(missing_ok=True)
                jobs.append(
                    ClusterJob(
                        name=f"repro-r{round_index:02d}-j{j:03d}",
                        jobfile=jobfile,
                        result_file=result_path_for(jobfile),
                        log_path=jobfile.with_suffix(".log"),
                        num_payloads=len(chunk),
                        payload_indices=chunk,
                    )
                )
            tele.event(
                "round_start",
                round=round_index,
                jobs=len(jobs),
                payloads=len(pending),
            )
            on_job_done = (
                self._progress_line(round_index, len(jobs)) if self.progress else None
            )
            with stopwatch.span("cluster_round", round=round_index) as round_span:
                outcome = run_jobs(
                    submitter,
                    jobs,
                    timeout_s=self.timeout_s,
                    poll_interval_s=self.poll_interval_s,
                    max_resubmits=self.max_resubmits,
                    on_job_done=on_job_done,
                )
            executed = 0
            cache_hits = 0
            done: set[int] = set()
            for job in outcome["completed"]:
                for index, result in zip(job.payload_indices, job.result["results"]):
                    results[index] = result
                    done.add(index)
                stats = job.result["stats"]
                executed += int(stats.get("executed", 0))
                cache_hits += int(stats.get("cache_hits", 0))
            total_resubmissions += outcome["resubmissions"]
            round_wall_time = round(round_span.elapsed_s, 6)
            round_wall_times.append(round_wall_time)
            rounds.append(
                {
                    "round": round_index,
                    "jobs": len(jobs),
                    "payloads": len(pending),
                    "completed_jobs": len(outcome["completed"]),
                    "failed_jobs": len(outcome["failed"]),
                    "resubmissions": outcome["resubmissions"],
                    "worker_executed": executed,
                    "worker_cache_hits": cache_hits,
                }
            )
            tele.event(
                "round_finish",
                round=round_index,
                completed_jobs=len(outcome["completed"]),
                failed_jobs=len(outcome["failed"]),
                resubmissions=outcome["resubmissions"],
                dur_s=round_wall_time,
            )
            tele.counter("cluster_jobs_completed", len(outcome["completed"]))
            tele.counter("cluster_worker_executed", executed)
            tele.counter("cluster_worker_cache_hits", cache_hits)
            if self.progress:
                print(
                    f"[cluster r{round_index:02d}: "
                    f"{len(outcome['completed'])}/{len(jobs)} jobs, "
                    f"{len(done)}/{len(pending)} payloads, "
                    f"{outcome['resubmissions']} resubmits, "
                    f"{round_wall_time:.1f}s]",
                    file=sys.stderr,
                )
            pending = [i for i in pending if i not in done]
            if pending:
                if num_jobs == 1:
                    errors = "; ".join(
                        job.last_error or "unknown failure"
                        for job in outcome["failed"]
                    )
                    raise RuntimeError(
                        f"cluster sweep failed: {len(pending)} payloads still "
                        f"unfinished after {round_index} rounds down to one "
                        f"worker (workdir kept at {workdir}): {errors}"
                    )
                # partis discipline: fewer, larger jobs each retry round,
                # sized from the round we just observed when it produced a
                # timing signal.
                num_jobs = _adaptive_jobs(
                    len(pending),
                    len(done),
                    len(outcome["completed"]),
                    round_wall_time,
                    num_jobs,
                )

        self._last_run = {
            "batch_system": self.batch_system,
            "workdir": str(workdir),
            "point_cache_dir": str(cache_dir),
            "rounds": rounds,
            "resubmissions": total_resubmissions,
            # Wall-clock stays out of the rounds themselves so everything
            # else in meta is deterministic; the sweep driver merges this
            # into meta["timing"].
            "timing": {"round_wall_times_s": round_wall_times},
        }
        if auto_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
        return results

    @staticmethod
    def _progress_line(round_index: int, total_jobs: int):
        """A ``run_jobs`` completion callback printing live status to stderr."""

        def on_job_done(job: ClusterJob, done: int) -> None:
            print(
                f"[cluster r{round_index:02d}: job {job.name} done "
                f"({done}/{total_jobs})]",
                file=sys.stderr,
            )

        return on_job_done

    def observability(self) -> dict[str, Any]:
        """Per-round job/cache metadata of the last :meth:`map` call.

        Wall-clock measurements are isolated under the ``timing`` key, which
        the sweep driver folds into ``meta["timing"]``.
        """
        return dict(self._last_run)
