"""Batch-system submitters: slurm, sge, and a CI-testable fake.

A submitter knows how to launch one :class:`ClusterJob` (a worker command
over one job file), poll whether it is still alive, and cancel it.  Real
schedulers are driven through command templates — ``sbatch``/``squeue``/
``scancel`` for slurm, ``qsub``/``qstat``/``qdel`` for sge — with user
extras passed through verbatim via ``--batch-options`` (partis-style, e.g.
``--batch-options="--partition=long --mem=16G"``).  The ``fake`` submitter
runs the identical worker command in local subprocesses, so the whole
cluster path is exercisable on a laptop and in CI without a scheduler.

:func:`run_jobs` is the shared driver: it submits a batch of jobs, polls
their result files, enforces a per-job timeout, and resubmits failed or
timed-out jobs a bounded number of times.  Job completion is defined by the
result file — a job whose process exited without writing a usable result
file is failed, whatever the scheduler thinks — unless its worker recorded
that it rejected the job file: no resubmission can succeed then, so the
driver cancels the rest and raises at once.

New submitters subclass :class:`Submitter`, register with
``@SUBMITTERS.register("name")`` and are then selectable via
``--batch-system name`` (add the module to ``_BUILTIN_SUBMITTER_MODULES``
in :mod:`repro.registry` for lazy discovery).
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

from repro.config import worker_environ
from repro.exec.cluster.jobfile import JobFileError, read_rejection, read_results
from repro.obs.core import current_telemetry
from repro.registry import SUBMITTERS


def worker_command(
    jobfile: "str | Path", result_file: "str | Path | None" = None
) -> list[str]:
    """The command a batch node runs: only the installed package is needed."""
    argv = [sys.executable, "-m", "repro.exec.cluster.worker", str(jobfile)]
    if result_file is not None:
        argv += ["--out", str(result_file)]
    return argv


@dataclass
class ClusterJob:
    """One submitted unit of work: a worker command over one job file."""

    name: str
    jobfile: Path
    result_file: Path
    log_path: Path
    num_payloads: int
    payload_indices: tuple[int, ...] = ()
    attempts: int = 0
    handle: Any = None
    submitted_at: float = 0.0
    result: "dict[str, Any] | None" = field(default=None, repr=False)
    last_error: str | None = None

    def command(self) -> list[str]:
        return worker_command(self.jobfile, self.result_file)


class Submitter:
    """Base class for batch-system submitters."""

    name = "abstract"

    def __init__(self, batch_options: str = "", workdir: "Path | None" = None):
        self.batch_options = batch_options
        self.workdir = None if workdir is None else Path(workdir)

    def _extra_options(self) -> list[str]:
        """User pass-through options, shell-split (``--batch-options``)."""
        return shlex.split(self.batch_options) if self.batch_options else []

    def _run(self, argv: Sequence[str]) -> str:
        """Run a scheduler command, returning stdout; raises on failure."""
        completed = subprocess.run(
            list(argv), capture_output=True, text=True, check=True
        )
        return completed.stdout

    # -- scheduler interface ----------------------------------------------------

    def submit(self, job: ClusterJob) -> Any:
        """Launch ``job``; returns an opaque handle for polling/cancelling."""
        raise NotImplementedError

    def is_running(self, handle: Any) -> bool:
        """Whether the scheduler still considers the job queued or running."""
        raise NotImplementedError

    def cancel(self, handle: Any) -> None:
        """Best-effort kill; a failed cancel of a dead job is not an error."""
        raise NotImplementedError

    def finish(self, handle: Any) -> None:
        """Called once a job's result has been collected; release resources.

        Completion is defined by the result file, so the scheduler may still
        consider the job alive for a moment — real schedulers need nothing
        here, the fake submitter reaps its local subprocess.
        """


@SUBMITTERS.register(
    "slurm", description="submit worker jobs with sbatch (--batch-options extras)"
)
class SlurmSubmitter(Submitter):
    """Drive slurm via ``sbatch --parsable`` / ``squeue`` / ``scancel``."""

    name = "slurm"

    def submit(self, job: ClusterJob) -> str:
        argv = [
            "sbatch",
            "--parsable",
            f"--job-name={job.name}",
            f"--output={job.log_path}",
            f"--error={job.log_path}",
        ]
        if self.workdir is not None:
            argv.append(f"--chdir={self.workdir}")
        argv += self._extra_options()
        argv += ["--wrap", shlex.join(job.command())]
        # --parsable prints "jobid[;cluster]" on the last line.
        out = self._run(argv).strip().splitlines()
        return out[-1].split(";")[0].strip()

    def is_running(self, handle: str) -> bool:
        try:
            out = self._run(["squeue", "-h", "-j", str(handle), "-o", "%T"])
        except (subprocess.CalledProcessError, OSError):
            return False
        return bool(out.strip())

    def cancel(self, handle: str) -> None:
        try:
            self._run(["scancel", str(handle)])
        except (subprocess.CalledProcessError, OSError):
            pass


@SUBMITTERS.register(
    "sge", description="submit worker jobs with qsub (--batch-options extras)"
)
class SgeSubmitter(Submitter):
    """Drive sge via ``qsub -terse`` / ``qstat`` / ``qdel``.

    Stdout/stderr locations are set here (joined into the job's log file);
    do not pass ``-o``/``-e`` through ``--batch-options``.
    """

    name = "sge"

    def submit(self, job: ClusterJob) -> str:
        argv = [
            "qsub",
            "-terse",
            "-b", "y",
            "-j", "y",
            "-o", str(job.log_path),
            "-N", job.name,
        ]
        if self.workdir is not None:
            argv += ["-wd", str(self.workdir)]
        argv += self._extra_options()
        argv += job.command()
        out = self._run(argv).strip().splitlines()
        return out[-1].strip()

    def is_running(self, handle: str) -> bool:
        try:
            self._run(["qstat", "-j", str(handle)])
        except (subprocess.CalledProcessError, OSError):
            return False
        return True

    def cancel(self, handle: str) -> None:
        try:
            self._run(["qdel", str(handle)])
        except (subprocess.CalledProcessError, OSError):
            pass


class _FakeHandle:
    """A locally-queued or running worker subprocess."""

    def __init__(self, command: list[str], log_path: Path):
        self.command = command
        self.log_path = log_path
        self.proc: "subprocess.Popen[bytes] | None" = None
        self.cancelled = False


@SUBMITTERS.register(
    "fake",
    description="run worker jobs in local subprocesses (testing / single host)",
)
class FakeSubmitter(Submitter):
    """A local 'scheduler': jobs run as subprocesses of the driver.

    Everything else — job files, the worker entry point, polling, timeouts,
    resubmission — is byte-identical to the real schedulers, which is what
    makes the cluster backend testable in CI.  A bounded number of jobs run
    concurrently (``max_concurrent``, default the CPU count); the rest queue,
    exactly as a busy batch system would hold them pending.
    """

    name = "fake"

    def __init__(
        self,
        batch_options: str = "",
        workdir: "Path | None" = None,
        max_concurrent: int | None = None,
    ):
        super().__init__(batch_options, workdir)
        if max_concurrent is None:
            max_concurrent = max(2, os.cpu_count() or 2)
        self.max_concurrent = max_concurrent
        self._queue: list[_FakeHandle] = []
        self._running: list[_FakeHandle] = []

    def _worker_env(self) -> dict[str, str]:
        """Child env with the parent's repro package importable."""
        import repro

        pkg_root = str(Path(repro.__file__).resolve().parent.parent)
        env = worker_environ()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pkg_root if not existing else os.pathsep.join([pkg_root, existing])
        )
        return env

    def _pump(self) -> None:
        """Reap finished processes and launch queued jobs into free slots."""
        self._running = [h for h in self._running if h.proc.poll() is None]
        while self._queue and len(self._running) < self.max_concurrent:
            handle = self._queue.pop(0)
            handle.log_path.parent.mkdir(parents=True, exist_ok=True)
            with handle.log_path.open("ab") as log:
                handle.proc = subprocess.Popen(
                    handle.command,
                    stdout=log,
                    stderr=log,
                    cwd=self.workdir,
                    env=self._worker_env(),
                )
            self._running.append(handle)

    def submit(self, job: ClusterJob) -> _FakeHandle:
        handle = _FakeHandle(job.command(), job.log_path)
        self._queue.append(handle)
        self._pump()
        return handle

    def is_running(self, handle: _FakeHandle) -> bool:
        self._pump()
        if handle.cancelled:
            return False
        if handle.proc is None:
            return handle in self._queue
        return handle.proc.poll() is None

    def cancel(self, handle: _FakeHandle) -> None:
        handle.cancelled = True
        if handle.proc is None:
            if handle in self._queue:
                self._queue.remove(handle)
        elif handle.proc.poll() is None:
            handle.proc.kill()
            handle.proc.wait()
        self._pump()

    def finish(self, handle: _FakeHandle) -> None:
        # The result file is written before the worker exits, so give the
        # process a moment to end on its own before resorting to kill.
        if handle.proc is not None and handle.proc.poll() is None:
            try:
                handle.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                handle.proc.kill()
                handle.proc.wait()
        elif handle.proc is None and handle in self._queue:
            self._queue.remove(handle)
        self._pump()


def _log_tail(job: ClusterJob, lines: int = 5) -> str:
    try:
        text = job.log_path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return "<no log>"
    tail = text.strip().splitlines()[-lines:]
    return " | ".join(tail) if tail else "<empty log>"


def run_jobs(
    submitter: Submitter,
    jobs: Sequence[ClusterJob],
    *,
    timeout_s: float | None = None,
    poll_interval_s: float = 0.1,
    max_resubmits: int = 1,
    on_job_done: "Callable[[ClusterJob, int], None] | None" = None,
) -> dict[str, Any]:
    """Submit ``jobs``, poll to completion, resubmit failures (bounded).

    A job *completes* when its result file parses cleanly with the expected
    payload count (writes are atomic, so this is unambiguous).  A job *fails*
    when the scheduler no longer runs it and no usable result exists, or when
    ``timeout_s`` elapses since (re)submission — timed-out jobs are cancelled
    first.  Each job is resubmitted at most ``max_resubmits`` times; jobs
    that exhaust their budget are returned as failed for the caller (the
    round loop of :class:`~repro.exec.cluster.backend.ClusterBackend`) to
    re-split over the next, smaller round.  A job whose worker recorded a
    rejection of its job file (a foreign version, a schema mismatch or a
    malformed payload list) would fail the same way on every resubmission
    and in every later round: the other pending jobs are cancelled and
    :class:`~repro.exec.cluster.jobfile.JobFileError` is raised with the
    worker's reason.

    The ambient hub receives one structured event per lifecycle transition
    (``job_submit``/``job_complete``/``job_fail``/``job_resubmit``/
    ``job_cancel``); ``on_job_done(job, completed_count)`` is invoked after
    every completion (the backend's live progress line).

    Returns ``{"completed": [...], "failed": [...], "resubmissions": n}``;
    completed jobs carry their parsed result document in ``job.result``.
    """
    telemetry = current_telemetry()
    # Timeout arithmetic goes through an obs clock (D001): an enabled hub
    # even when telemetry is off, so there is exactly one timing code path.
    clock = telemetry.stopwatch().now
    pending = list(jobs)
    for job in pending:
        job.handle = submitter.submit(job)
        job.submitted_at = clock()
        telemetry.event("job_submit", job=job.name, attempt=job.attempts)
    completed: list[ClusterJob] = []
    failed: list[ClusterJob] = []
    resubmissions = 0

    def _complete(job: ClusterJob) -> None:
        submitter.finish(job.handle)
        completed.append(job)
        pending.remove(job)
        telemetry.event(
            "job_complete", job=job.name, payloads=job.num_payloads
        )
        if on_job_done is not None:
            on_job_done(job, len(completed))

    def _finish_or_retry(job: ClusterJob, reason: str) -> None:
        nonlocal resubmissions
        if job.attempts < max_resubmits:
            job.attempts += 1
            resubmissions += 1
            job.handle = submitter.submit(job)
            job.submitted_at = clock()
            telemetry.event("job_resubmit", job=job.name, attempt=job.attempts)
        else:
            job.last_error = f"{reason}: {_log_tail(job)}"
            failed.append(job)
            pending.remove(job)
            telemetry.event("job_fail", job=job.name, reason=reason)

    def _abort(job: ClusterJob, reason: str) -> NoReturn:
        telemetry.event("job_fail", job=job.name, reason="job file rejected")
        for other in pending:
            if other is not job:
                submitter.cancel(other.handle)
                telemetry.event(
                    "job_cancel", job=other.name, reason=f"{job.name} rejected"
                )
        raise JobFileError(
            f"cluster sweep failed: the worker of {job.name} rejected its job "
            f"file: {reason}"
        )

    while pending:
        progressed = False
        for job in list(pending):
            doc = read_results(job.result_file, expected=job.num_payloads)
            if doc is not None:
                job.result = doc
                _complete(job)
                progressed = True
                continue
            if (
                timeout_s is not None
                and clock() - job.submitted_at > timeout_s
            ):
                submitter.cancel(job.handle)
                telemetry.event(
                    "job_cancel", job=job.name, reason=f"timeout after {timeout_s}s"
                )
                _finish_or_retry(job, f"timed out after {timeout_s}s")
                progressed = True
            elif not submitter.is_running(job.handle):
                # The worker may have published its result between our read
                # and the liveness check — re-read before declaring failure.
                doc = read_results(job.result_file, expected=job.num_payloads)
                if doc is not None:
                    job.result = doc
                    _complete(job)
                else:
                    rejection = read_rejection(job.jobfile)
                    if rejection is not None:
                        _abort(job, rejection)
                    _finish_or_retry(job, "exited without writing a result file")
                progressed = True
        if pending and not progressed:
            time.sleep(poll_interval_s)

    return {
        "completed": completed,
        "failed": failed,
        "resubmissions": resubmissions,
    }
