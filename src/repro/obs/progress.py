"""Live progress tracking: smoothed throughput and remaining time.

:class:`ProgressTracker` turns the job engine's ``progress(done,
total)`` callbacks into an ETA.  Two estimators are blended:

* an **EWMA throughput** (jobs/second) updated on every chunk
  completion, which reacts quickly to the current machine load, and
* the **median per-job latency** from a private
  :class:`~repro.obs.metrics.Histogram` of completed-chunk latencies
  (via :meth:`~repro.obs.metrics.Histogram.quantile`), which is robust
  to one outlier chunk (a cold cache, a straggler worker).

Averaging the two damps both failure modes: pure EWMA over-reacts to a
single fast cache-hit chunk; a pure median lags a genuine slowdown.
When observability is enabled, each chunk's latency is also mirrored
into the global ``repro_runtime_stage_seconds`` stage histogram under
``stage="progress-chunk"`` so per-job scrapes expose the same data the
ETA is computed from.

The clock is injectable (tests drive a fake monotonic clock); nothing
here reads wall-clock time, so the tracker is safe in cache-key scope
even though it never feeds one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ProgressTracker"]

#: Weight of the newest rate sample in the EWMA blend.
_EWMA_ALPHA = 0.4

#: Floor on a chunk's measured latency, so a clock with coarse
#: resolution (or two back-to-back callbacks) cannot divide by zero.
_MIN_DT = 1e-9


class ProgressTracker:
    """Accumulate ``progress(done, total)`` callbacks into an ETA.

    ``done`` is clamped monotone (the engine's cache stage may report
    before the dispatch stage re-reports the same count); ``total``
    tracks the latest report so an up-front estimate can be refined.
    A tracker follows one run: the clamp would swallow a restarted
    run's reports, so a restart builds a new tracker.
    """

    def __init__(
        self,
        total: int = 0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._clock = clock
        self.done = 0
        self.total = int(total)
        self._started = self._clock()
        self._last_time = self._started
        self._ewma_rate: Optional[float] = None
        # Private, unregistered, and *not* job-scoped: the tracker runs
        # on the manager thread inside the job's JobContext, and a
        # job-labelled state would hide from the label-less quantile()
        # read below.
        self._latency = obs_metrics.Histogram(
            "progress_chunk_seconds", "per-job completion latency"
        )

    # ------------------------------------------------------------------
    def update(self, done: int, total: int) -> None:
        """Fold one ``progress`` callback into the estimate."""
        if total > 0:
            self.total = int(total)
        done = int(done)
        now = self._clock()
        if done <= self.done:
            return
        delta = done - self.done
        dt = max(now - self._last_time, _MIN_DT)
        per_job = dt / delta
        self._latency.observe(per_job)
        if obs_trace.enabled():
            obs_metrics.histogram(
                "repro_runtime_stage_seconds",
                "wall seconds per runtime stage",
            ).observe(dt, stage="progress-chunk")
        rate = delta / dt
        if self._ewma_rate is None:
            self._ewma_rate = rate
        else:
            self._ewma_rate = (
                _EWMA_ALPHA * rate + (1.0 - _EWMA_ALPHA) * self._ewma_rate
            )
        self.done = done
        self._last_time = now

    # ------------------------------------------------------------------
    @property
    def throughput(self) -> Optional[float]:
        """Smoothed jobs/second, or None before the first completion."""
        return self._ewma_rate

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion, or None if unknowable.

        None until the first completed chunk (no latency signal yet)
        or while ``total`` is unknown; ``0.0`` once ``done == total``.
        """
        if self._ewma_rate is None or self.total <= 0:
            return None
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        per_job_ewma = 1.0 / self._ewma_rate
        per_job_median = self._latency.quantile(0.5)
        if per_job_median is None:
            per_job = per_job_ewma
        else:
            per_job = 0.5 * (per_job_ewma + per_job_median)
        return remaining * per_job

    def elapsed_seconds(self) -> float:
        return self._clock() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe summary carried on service ``progress`` events."""
        return {
            "done": self.done,
            "total": self.total,
            "elapsed_seconds": self.elapsed_seconds(),
            "throughput": self._ewma_rate,
            "eta_seconds": self.eta_seconds(),
        }
