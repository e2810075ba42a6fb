"""Batch-system sweep execution over a shared network cache.

This package fans :func:`~repro.exec.worker.execute_payload` calls out over
slurm/sge-style batch systems, partis-style: payload chunks are serialised to
JSON job files under a network ``--workdir``, submitted with pass-through
``--batch-options``, and collected in rounds whose worker count shrinks
~1.6x while the shared ``$REPRO_CACHE_DIR`` point cache makes re-executed
points cache hits — so later, larger rounds are no slower than early ones.

Layers:

* :mod:`repro.exec.cluster.jobfile` — versioned job/result file (de)serialisation.
* :mod:`repro.exec.cluster.submitters` — the ``@SUBMITTERS.register`` plug-ins
  (``slurm``, ``sge``, and a CI-testable ``fake`` local-subprocess submitter)
  plus the shared polling/timeout/resubmission driver.
* :mod:`repro.exec.cluster.worker` — the batch-node entry point
  (``python -m repro.exec.cluster.worker JOBFILE``).
* :mod:`repro.exec.cluster.backend` — the ``cluster`` execution backend
  (``@BACKENDS.register("cluster")``) implementing the rounds discipline.
"""

from repro.exec.cluster.backend import ClusterBackend
from repro.exec.cluster.jobfile import (
    JOBFILE_SCHEMA_VERSION,
    JobFileError,
    read_jobfile,
    read_results,
    result_path_for,
    write_jobfile,
    write_results,
)
from repro.exec.cluster.submitters import (
    ClusterJob,
    FakeSubmitter,
    SgeSubmitter,
    SlurmSubmitter,
    Submitter,
    run_jobs,
    worker_command,
)

__all__ = [
    "ClusterBackend",
    "ClusterJob",
    "FakeSubmitter",
    "JOBFILE_SCHEMA_VERSION",
    "JobFileError",
    "SgeSubmitter",
    "SlurmSubmitter",
    "Submitter",
    "read_jobfile",
    "read_results",
    "result_path_for",
    "run_jobs",
    "worker_command",
    "write_jobfile",
    "write_results",
]
