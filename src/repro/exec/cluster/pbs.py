"""PBS/Torque batch-system submitter: ``qsub`` / ``qstat`` / ``qdel``.

Drives a PBS-family scheduler the same way :mod:`.submitters` drives slurm
and sge: the worker command is submitted directly (PBS Pro's
``qsub [options] -- executable args`` form, no job-script file), stdout and
stderr are joined into the job's log file (``-j oe``), and the job id
printed by ``qsub`` (e.g. ``1234.pbsserver``) is the polling handle.
Site-specific needs — queues, resource selections — pass through verbatim
via ``--batch-options`` (e.g. ``--batch-options="-q long -l mem=16gb"``).

Lives in its own module (rather than ``submitters.py``) deliberately: it is
the live demonstration that registry rule R001 holds for a newly added
module — ``pbs`` appears in ``_BUILTIN_SUBMITTER_MODULES`` pointing here,
and ``repro analyze`` fails the build if that pairing ever drifts.
"""

from __future__ import annotations

import subprocess
from typing import Any

from repro.exec.cluster.submitters import ClusterJob, Submitter
from repro.registry import SUBMITTERS


@SUBMITTERS.register(
    "pbs", description="submit worker jobs with qsub (PBS/Torque, -- direct mode)"
)
class PbsSubmitter(Submitter):
    """Drive PBS/Torque via ``qsub --`` / ``qstat`` / ``qdel``.

    Stdout/stderr are joined into the job's log file here (``-j oe -o``);
    do not pass ``-o``/``-e``/``-j`` through ``--batch-options``.
    """

    name = "pbs"

    def submit(self, job: ClusterJob) -> str:
        argv = [
            "qsub",
            "-N", job.name,
            "-j", "oe",
            "-o", str(job.log_path),
        ]
        if self.workdir is not None:
            argv += ["-d", str(self.workdir)]
        argv += self._extra_options()
        argv += ["--", *job.command()]
        # qsub prints the job id ("1234.server") on the last stdout line.
        out = self._run(argv).strip().splitlines()
        return out[-1].strip()

    def is_running(self, handle: Any) -> bool:
        # qstat exits non-zero once the job has left the queue (finished
        # jobs need -x to be visible at all), so success means alive.
        try:
            self._run(["qstat", str(handle)])
        except (subprocess.CalledProcessError, OSError):
            return False
        return True

    def cancel(self, handle: Any) -> None:
        try:
            self._run(["qdel", str(handle)])
        except (subprocess.CalledProcessError, OSError):
            pass
