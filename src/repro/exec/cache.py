"""Content-hash result cache for sweep points.

Each cached entry is one simulated point, keyed by the SHA-256 of the point's
canonical JSON (:meth:`SweepPoint.canonical_json` — execution-relevant fields
only, sorted keys) salted with a code-version string, and stored as a small
JSON file under ``.repro_cache/``.  Re-running a sweep with one axis changed
therefore touches only the new points; bumping ``repro.__version__`` or
:data:`CACHE_SCHEMA_VERSION` invalidates every entry at once.

The default cache directory is ``.repro_cache`` in the working directory,
overridable with the ``REPRO_CACHE_DIR`` environment variable or an explicit
path.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Any

# DEFAULT_CACHE_DIR is re-exported for back-compat; the value lives with the
# env knob it pairs with (REPRO_CACHE_DIR) in repro.config.
from repro.config import DEFAULT_CACHE_DIR as DEFAULT_CACHE_DIR
from repro.exec.spec import SweepPoint

# Bump when the result schema or simulation semantics change in a way the
# package version does not capture (e.g. during development).
CACHE_SCHEMA_VERSION = 1


def cache_salt() -> str:
    """Code-version salt mixed into every cache key."""
    import repro

    return f"{repro.__version__}/{CACHE_SCHEMA_VERSION}"


def point_key(point: SweepPoint, salt: str | None = None) -> str:
    """Content hash identifying a point's simulation outcome."""
    salt = cache_salt() if salt is None else salt
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(b"\n")
    digest.update(point.canonical_json().encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """File-per-entry result cache under a root directory."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            from repro.config import cache_dir

            root = cache_dir()
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached result dict for ``key``, or ``None`` on a miss.

        Unreadable, corrupt or structurally-wrong entries count as misses
        (and will be overwritten by the next :meth:`put`) — with many nodes
        sharing one cache directory over a network mount, a racing or
        interrupted writer must only ever cost a re-simulation, never a
        wrong result.
        """
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            result = entry["result"]
        except (OSError, ValueError, KeyError, TypeError):
            return None
        if not isinstance(result, dict):
            return None
        return result

    def put(self, key: str, point: dict[str, Any], result: dict[str, Any]) -> None:
        """Store one point's result; racing writers are safe.

        The entry is written to a uniquely-named temporary file (pid alone
        is not unique once many nodes share the directory) and published
        with an atomic ``os.replace``, so readers see either the old entry,
        the new one, or nothing — never a partial write.  Concurrent writers
        of the same key overwrite each other with identical content.  The
        cache is best-effort: a failed write (full disk, revoked mount) is
        swallowed and simply stays a miss.
        """
        entry = {"salt": cache_salt(), "point": point, "result": result}
        path = self._path(key)
        tmp = self.root / f".{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


def as_cache(cache: "bool | str | Path | ResultCache | None") -> ResultCache | None:
    """Normalise the ``cache=`` argument of the sweep driver."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
