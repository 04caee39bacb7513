"""Observability layer: span tracing, metrics registry, profiling hooks.

Zero-dependency (stdlib-only) instrumentation shared by the whole
simulator — see DESIGN.md S18.  Three parts:

* :mod:`repro.obs.trace` — contextvar-based spans with a process-local
  buffer, cross-process propagation through the job engine's chunk
  payloads, and a Chrome trace-event exporter (Perfetto /
  ``chrome://tracing``, one lane per worker pid);
* :mod:`repro.obs.metrics` — a process-global registry of counters /
  gauges / histograms with JSON and Prometheus text exposition;
* :mod:`repro.obs.report` — terminal rendering of saved traces (span
  tree + top-k table) and live job progress, surfaced by
  ``repro obs-report`` / ``repro jobs watch``;
* :mod:`repro.obs.progress` — ETA estimation from ``progress``
  callbacks (EWMA throughput blended with median chunk latency).

Work can be scoped to a job with :class:`repro.obs.trace.JobContext`:
spans and labelled metric samples recorded inside it carry the job id
(propagated to worker processes), which the service layer serves back
per job — see DESIGN.md S23.

Tracing is **disabled by default** and the no-op path is a cached
singleton, so instrumented hot paths (the crossbar solver, the job
engine's spans) pay a few hundred nanoseconds per call when off.  The
job engine's accounting series (``repro_runtime_*``,
``repro_job_resources``) record either way (DESIGN.md S36).  Turn it on
with :func:`enable`, the ``REPRO_TRACE=<file>`` environment variable,
or the CLI's global ``--trace FILE`` / ``--metrics FILE`` flags::

    import repro.obs as obs
    obs.enable()
    ... run a sweep ...
    obs.trace.export_chrome("sweep.trace.json")
    print(obs.report.render_report("sweep.trace.json"))
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs import metrics, progress, report, trace
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.progress import ProgressTracker
from repro.obs.trace import JobContext, Span, current_job, span

#: Environment variable: when set to a path, the CLI enables tracing and
#: writes the Chrome trace there on exit.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable: truthy values also enable debug diagnostics
#: (per-iteration solver residuals and similar high-volume attributes).
DEBUG_ENV_VAR = "REPRO_OBS_DEBUG"

__all__ = [
    "trace",
    "metrics",
    "report",
    "progress",
    "span",
    "Span",
    "JobContext",
    "current_job",
    "ProgressTracker",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "enable",
    "disable",
    "enabled",
    "TRACE_ENV_VAR",
    "DEBUG_ENV_VAR",
    "trace_path_from_env",
    "debug_from_env",
]


def enable(*, debug: bool = False) -> None:
    """Enable span tracing and hot-path metrics collection."""
    trace.enable(debug=debug)


def disable() -> None:
    """Disable collection (buffers and the registry are left intact)."""
    trace.disable()


def enabled() -> bool:
    """Whether observability is currently collecting."""
    return trace.enabled()


def trace_path_from_env() -> Optional[str]:
    """The ``REPRO_TRACE`` target path, or None when unset/empty."""
    value = os.environ.get(TRACE_ENV_VAR, "").strip()
    return value or None


def debug_from_env() -> bool:
    """Whether ``REPRO_OBS_DEBUG`` asks for debug diagnostics."""
    value = os.environ.get(DEBUG_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")
