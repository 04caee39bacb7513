"""Opt-in on-disk result cache keyed by job content hash.

Backed by a single sqlite database (stdlib only) under
``~/.cache/repro`` by default — overridable with an explicit directory
or the ``REPRO_CACHE_DIR`` environment variable.  Rows carry the
schema version they were written under; lookups only match the current
version, so bumping :data:`repro.runtime.jobs.SCHEMA_VERSION`
invalidates every stale entry without deleting files
(:meth:`ResultCache.prune_stale` reclaims the space).

The database runs in write-ahead-log mode: while a handle is open,
its newest rows may sit in the ``results.sqlite-wal`` sidecar (next to
a ``-shm`` index) until a checkpoint folds them into the main file.
The last handle to close checkpoints and removes both sidecars.  WAL
needs shared memory between processes, so the cache directory must be
on a local filesystem.

Values are stored as JSON text; the engine's ``encode``/``decode``
hooks translate domain objects (summaries, sample arrays) at the
boundary.  Hit/miss accounting is per :class:`ResultCache` instance and
reported by :meth:`ResultCache.stats`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.jobs import SCHEMA_VERSION

_DB_FILENAME = "results.sqlite"
# sqlite bind-parameter budget is 999 on old builds; stay well under.
_SELECT_BATCH = 500
#: Seconds a connection waits out another's lock (sqlite3's default).
_BUSY_TIMEOUT = 5.0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class CacheStats:
    """Cache effectiveness counters (`hits`/`misses` are per session)."""

    hits: int
    misses: int
    stores: int
    entries: int
    stale_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Persistent job-result store with versioned invalidation.

    Parameters
    ----------
    cache_dir:
        Directory holding the sqlite file; created on demand.  Defaults
        to :func:`default_cache_dir`.
    schema_version:
        Rows are tagged with this version and only rows with a matching
        tag are ever returned.  Defaults to the engine-wide
        :data:`~repro.runtime.jobs.SCHEMA_VERSION`.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        *,
        schema_version: str = SCHEMA_VERSION,
    ) -> None:
        self.cache_dir = (
            Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.cache_dir / _DB_FILENAME
        self.version = schema_version
        self._hits = 0
        self._misses = 0
        self._stores = 0
        import sqlite3  # here, not at module top: uncached runs skip it

        self._conn = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT)
        # Write-ahead log: a commit appends to ``results.sqlite-wal``
        # rather than creating, syncing and deleting a rollback journal,
        # and readers no longer wait for a writer.  ``synchronous``
        # keeps its default, FULL, so a committed row is as durable.
        # Handles opening a new directory at once race on the switch;
        # sqlite reports some of those locks at once, without waiting
        # out the busy timeout, so the loser retries until it expires.
        deadline = time.monotonic() + _BUSY_TIMEOUT
        self._retry_locked("PRAGMA journal_mode=WAL", deadline)
        self._retry_locked(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " version TEXT NOT NULL,"
            " kind TEXT NOT NULL,"
            " value TEXT NOT NULL,"
            " created REAL NOT NULL)",
            deadline,
        )
        self._conn.commit()

    def _retry_locked(self, statement: str, deadline: float) -> None:
        """Run ``statement``, retrying "database is locked" until
        ``deadline`` (a :func:`time.monotonic` value)."""
        import sqlite3

        while True:
            try:
                self._conn.execute(statement)
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(0.001)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key`` (current version), else None."""
        return self.get_many([key]).get(key)

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batched lookup; returns only the keys present and current.

        Misses are counted for every requested key not returned, so a
        sweep's hit rate falls out of one call.
        """
        found: Dict[str, Any] = {}
        distinct = [k for k in dict.fromkeys(keys) if k is not None]
        started = time.perf_counter()
        with obs_trace.span("cache.get", keys=len(distinct)) as lookup_span:
            for start in range(0, len(distinct), _SELECT_BATCH):
                batch = distinct[start:start + _SELECT_BATCH]
                marks = ",".join("?" * len(batch))
                rows = self._conn.execute(
                    f"SELECT key, value FROM results"
                    f" WHERE version = ? AND key IN ({marks})",
                    [self.version, *batch],
                ).fetchall()
                for key, value in rows:
                    found[key] = json.loads(value)
            lookup_span.set(hits=len(found),
                            misses=len(distinct) - len(found))
        self._hits += len(found)
        self._misses += len(distinct) - len(found)
        if obs_trace.enabled():
            elapsed = time.perf_counter() - started
            obs_metrics.counter(
                "repro_cache_lookups_total",
                "Result-cache lookups by outcome",
            ).inc(len(found), outcome="hit")
            obs_metrics.counter(
                "repro_cache_lookups_total",
                "Result-cache lookups by outcome",
            ).inc(len(distinct) - len(found), outcome="miss")
            obs_metrics.histogram(
                "repro_cache_lookup_seconds",
                "Latency of batched result-cache lookups",
            ).observe(elapsed)
        return found

    def put(self, key: str, kind: str, value: Any) -> None:
        """Store one JSON-safe result under ``key``."""
        self.put_many([(key, kind, value)])

    def put_many(self, items: Iterable[Tuple[str, str, Any]]) -> int:
        """Store many ``(key, kind, json_safe_value)`` rows; returns count."""
        now = time.time()
        rows = [
            (key, self.version, kind, json.dumps(value), now)
            for key, kind, value in items
        ]
        if not rows:
            return 0
        started = time.perf_counter()
        with obs_trace.span("cache.put", rows=len(rows)):
            self._conn.executemany(
                "INSERT OR REPLACE INTO results"
                " (key, version, kind, value, created)"
                " VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        self._stores += len(rows)
        if obs_trace.enabled():
            obs_metrics.counter(
                "repro_cache_stores_total",
                "Result-cache rows written",
            ).inc(len(rows))
            obs_metrics.histogram(
                "repro_cache_store_seconds",
                "Latency of batched result-cache stores",
            ).observe(time.perf_counter() - started)
        return len(rows)

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Session hit/miss/store counters plus on-disk entry counts."""
        current = self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE version = ?", [self.version]
        ).fetchone()[0]
        total = self._conn.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()[0]
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            entries=current,
            stale_entries=total - current,
        )

    def prune_stale(self) -> int:
        """Delete rows written under other schema versions; returns count."""
        cursor = self._conn.execute(
            "DELETE FROM results WHERE version != ?", [self.version]
        )
        self._conn.commit()
        return cursor.rowcount

    def clear(self) -> int:
        """Delete every row (all versions); returns the count removed."""
        cursor = self._conn.execute("DELETE FROM results")
        self._conn.commit()
        return cursor.rowcount

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        self._conn.close()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.path)!r}, version={self.version!r})"
