"""Simulation-job engine: parallel execution, result cache, run metrics.

Every sweep-shaped workload in the repository — design-space
exploration, Monte-Carlo accuracy sampling, batch simulation — reduces
to a list of *independent jobs*.  This subpackage gives those workloads
one shared engine:

* :mod:`repro.runtime.jobs` — :class:`JobSpec` descriptions with
  deterministic content-hash keys derived from a canonical
  serialization of the inputs (config + network fingerprint + schema
  version);
* :mod:`repro.runtime.pool` — :func:`run_jobs`, a chunked
  ``ProcessPoolExecutor`` fan-out with per-job timeout, bounded retry,
  and automatic graceful fallback to in-process serial execution;
* :mod:`repro.runtime.cache` — an opt-in on-disk (sqlite) result cache
  keyed by job hash with versioned invalidation and hit/miss stats;
* :mod:`repro.runtime.metrics` — lightweight run instrumentation
  (per-stage wall time, throughput, failure counts) surfaced by
  ``repro runtime-stats``.

The engine guarantees *result equivalence*: for any job list, the
parallel path returns exactly the values the serial path would, in the
same order, so callers can expose a ``jobs=N`` knob without changing
semantics.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.runtime.cache": ["CacheStats", "ResultCache", "default_cache_dir"],
    "repro.runtime.jobs": [
        "SCHEMA_VERSION",
        "JobSpec",
        "canonical",
        "canonical_json",
        "content_key",
        "network_fingerprint",
    ],
    "repro.runtime.metrics": ["LAST_RUN_FILENAME", "RunMetrics"],
    "repro.runtime.pool": [
        "RunPolicy",
        "run_jobs",
        "shutdown_warm_pool",
        "warm_pool",
    ],
})
