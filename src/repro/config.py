"""Sanctioned environment-variable access for the whole package.

Every process-environment read in ``repro`` goes through this module.  The
static analyzer (rule D003, :mod:`repro.analysis`) forbids ``os.environ`` /
``os.getenv`` everywhere else, so the complete set of environment knobs the
simulator responds to is enumerable by reading this one file:

``REPRO_CACHE_DIR``
    Root directory of the content-hash result cache
    (:class:`repro.exec.cache.ResultCache`).  Default ``.repro_cache``.

Keeping the reads here — rather than scattered at use sites — is what makes
"byte-identical results per seed" auditable: anything else that could vary
between hosts has to pass through this chokepoint or through an explicit
function argument.
"""

from __future__ import annotations

import os

DEFAULT_CACHE_DIR = ".repro_cache"


def env_str(name: str, default: str | None = None) -> str | None:
    """One process-environment string, or ``default`` when unset/empty.

    Empty values are treated as unset so ``REPRO_CACHE_DIR= repro sweep ...``
    behaves like not exporting the variable at all.
    """
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    return value


def cache_dir() -> str:
    """Resolved result-cache root: ``$REPRO_CACHE_DIR`` or the default."""
    value = env_str("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    assert value is not None
    return value


def cache_dir_override() -> str | None:
    """``$REPRO_CACHE_DIR`` if explicitly set, else ``None``.

    The cluster backend uses this to decide whether worker jobfiles must
    carry an absolute cache path (shared network mount) or can rely on each
    worker's own working-directory default.
    """
    return env_str("REPRO_CACHE_DIR")


def worker_environ() -> dict[str, str]:
    """Copy of the full environment for spawned worker processes.

    Local fake-batch workers inherit the parent environment (plus whatever
    the submitter layers on top, e.g. ``PYTHONPATH``); the copy keeps
    mutations from leaking back into this process.
    """
    return dict(os.environ)
