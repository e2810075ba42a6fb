"""Job and result files exchanged between the driver and batch workers.

A *job file* is a JSON document holding a chunk of ``execute_payload`` dicts;
a *result file* is the worker's answer, one result dict per payload plus
worker-side cache statistics.  Both live under the cluster backend's
``--workdir`` (a network mount every batch node can see) and both carry the
same schema/version salting as :mod:`repro.exec.cache`: a header with a
``schema`` number and the :func:`~repro.exec.cache.cache_salt` string.  A
driver therefore refuses to consume job or result files produced by a
different code version, exactly as the point cache refuses stale entries.

Writes are atomic (write-to-temp + ``os.replace``), so a result file either
does not exist yet or is complete — pollers never observe half-written JSON
over the mount.

A worker that refuses its job file (foreign version, schema mismatch,
malformed payloads) writes a *rejection record* beside it instead.  The
record carries no version header, so a driver of any version can read why
its workers will never run the job, and fail the sweep at once.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.exec.cache import cache_salt

# Bump when the job/result file layout changes incompatibly.
JOBFILE_SCHEMA_VERSION = 1

_JOB_KIND = "repro-cluster-job"
_RESULT_KIND = "repro-cluster-result"
_REJECTION_KIND = "repro-cluster-rejection"


class JobFileError(ValueError):
    """A job or result file is malformed or from an incompatible version."""


def write_json_atomic(path: "str | Path", payload: Mapping[str, Any]) -> Path:
    """Write ``payload`` as JSON so readers only ever see a complete file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # only on failure; os.replace consumed it otherwise
            tmp.unlink(missing_ok=True)
    return path


def _header(kind: str) -> dict[str, Any]:
    return {"kind": kind, "schema": JOBFILE_SCHEMA_VERSION, "salt": cache_salt()}


def _check_header(doc: Any, kind: str, path: Path) -> None:
    if not isinstance(doc, Mapping) or doc.get("kind") != kind:
        raise JobFileError(f"{path} is not a {kind} file")
    if doc.get("schema") != JOBFILE_SCHEMA_VERSION:
        raise JobFileError(
            f"{path} has schema {doc.get('schema')!r}, "
            f"this code expects {JOBFILE_SCHEMA_VERSION}"
        )
    if doc.get("salt") != cache_salt():
        raise JobFileError(
            f"{path} was written by code version {doc.get('salt')!r}, "
            f"this is {cache_salt()!r} — regenerate the job"
        )


def write_jobfile(
    path: "str | Path",
    payloads: Sequence[Mapping[str, Any]],
    *,
    cache_dir: "str | Path | None" = None,
) -> Path:
    """Serialise one job's payload chunk (plus the shared point-cache dir)."""
    doc = {
        **_header(_JOB_KIND),
        "cache_dir": None if cache_dir is None else str(cache_dir),
        "payloads": [dict(p) for p in payloads],
    }
    return write_json_atomic(path, doc)


def read_jobfile(path: "str | Path") -> dict[str, Any]:
    """Load and validate a job file; raises :class:`JobFileError` if unusable."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise JobFileError(f"cannot read job file {path}: {exc}") from exc
    _check_header(doc, _JOB_KIND, path)
    payloads = doc.get("payloads")
    if not isinstance(payloads, list) or not all(
        isinstance(p, Mapping) for p in payloads
    ):
        raise JobFileError(f"{path} has no payload list")
    return {"cache_dir": doc.get("cache_dir"), "payloads": payloads}


def result_path_for(jobfile: "str | Path") -> Path:
    """Where the worker writes its results for ``jobfile``."""
    jobfile = Path(jobfile)
    return jobfile.with_name(jobfile.name.replace(".json", "") + ".result.json")


def rejection_path_for(jobfile: "str | Path") -> Path:
    """Where a worker records that it refused ``jobfile``."""
    jobfile = Path(jobfile)
    return jobfile.with_name(jobfile.name.replace(".json", "") + ".rejected.json")


def write_rejection(jobfile: "str | Path", reason: str) -> Path:
    """Record (atomically) why a worker refused ``jobfile``."""
    doc = {"kind": _REJECTION_KIND, "reason": reason}
    return write_json_atomic(rejection_path_for(jobfile), doc)


def read_rejection(jobfile: "str | Path") -> str | None:
    """Why a worker refused ``jobfile``, or ``None`` if none did."""
    try:
        doc = json.loads(rejection_path_for(jobfile).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, Mapping) or doc.get("kind") != _REJECTION_KIND:
        return None
    return str(doc.get("reason"))


def write_results(
    path: "str | Path",
    results: Sequence[Mapping[str, Any]],
    stats: Mapping[str, Any] | None = None,
) -> Path:
    """Serialise one job's result dicts (atomically — see module docstring)."""
    doc = {
        **_header(_RESULT_KIND),
        "results": [dict(r) for r in results],
        "stats": dict(stats or {}),
    }
    return write_json_atomic(path, doc)


def read_results(
    path: "str | Path", expected: int | None = None
) -> "dict[str, Any] | None":
    """The result document at ``path``, or ``None`` if not (yet) usable.

    Unlike :func:`read_jobfile`, an unreadable or truncated result file is
    *not* an error: polling treats it as "not finished" and the job is
    eventually timed out and resubmitted.  A version/schema mismatch still
    raises — results from foreign code versions must never be consumed.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    _check_header(doc, _RESULT_KIND, path)
    results = doc.get("results")
    if not isinstance(results, list) or not all(
        isinstance(r, Mapping) for r in results
    ):
        return None
    if expected is not None and len(results) != expected:
        return None
    stats = doc.get("stats")
    return {
        "results": results,
        "stats": dict(stats) if isinstance(stats, Mapping) else {},
    }
