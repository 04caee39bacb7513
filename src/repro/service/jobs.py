"""The job manager: queued execution of validated payloads.

:class:`JobManager` owns the service's unit of multi-tenancy — a *job*
is one validated :class:`~repro.service.schema.SimulationPayload`
moving through ``queued -> running -> done`` (or ``failed`` /
``cancelled``).  The HTTP layer (:mod:`repro.service.server`) is a thin
shell over this class; all state lives here, guarded by one lock, so
the manager is equally usable in-process (tests drive it directly).

Dedupe is content-addressed end to end: the job id *is* the payload
fingerprint (:meth:`SimulationPayload.fingerprint`), so N identical
submissions collapse onto one record and one engine execution, and the
engine's sqlite :class:`~repro.runtime.cache.ResultCache` dedupes the
underlying sweep points across manager restarts.

Progress and lifecycle transitions are recorded as a monotonic
:class:`JobEvent` sequence per job; :meth:`JobManager.events_since`
blocks on a condition variable until new events arrive, which is what
the server's chunked ``/jobs/{id}/events`` stream long-polls.

Observability is job-scoped (DESIGN.md S23): the engine runs inside a
:class:`repro.obs.trace.JobContext`, so every span and labelled metric
sample it emits — in the executor thread *and* in worker processes —
carries the job id.  A :class:`~repro.obs.progress.ProgressTracker`
turns the engine's progress callbacks into ``eta_seconds`` /
``throughput`` on each ``progress`` event, and when the job finishes
its spans and a detached snapshot of its metric samples are frozen
onto the record (rendered on request by ``GET /jobs/{id}/trace`` and
``GET /jobs/{id}/metrics``) before the job's label sets are rolled
back into the base series — global scrape cardinality stays bounded
no matter how many jobs have run.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import JobCancelled, MnsimError
from repro.jsonio import render_document
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.progress import ProgressTracker
from repro.runtime.cache import ResultCache
from repro.runtime.pool import JOB_RESOURCES, RUNTIME_EVENTS, run_summary
from repro.service.schema import SimulationPayload
from repro.service.workloads import run_payload

_log = logging.getLogger("repro.service")

#: Engine counters a ``resources`` snapshot carries after the resources.
_RESOURCE_COUNTERS = (
    "jobs_executed", "cache_hits", "cache_misses", "retries",
    "worker_failures",
)


def _resource_snapshot(
    resources: Dict[str, float], counters: Dict[str, float]
) -> Dict[str, Any]:
    """Resources plus the cache/job counters a progress consumer wants
    in one place (``progress`` events and the job status ship this)."""
    snapshot: Dict[str, Any] = dict(sorted(resources.items()))
    snapshot.update(
        (name, counters[name]) for name in _RESOURCE_COUNTERS
        if name in counters
    )
    return snapshot


def _live_resources(job_id: str) -> Dict[str, Any]:
    """The running job's snapshot, read from its two runtime families
    only (a full ``filter_job`` per event would walk every family)."""
    totals = {}
    for name, label in ((JOB_RESOURCES, "resource"),
                        (RUNTIME_EVENTS, "event")):
        metric = obs_metrics.REGISTRY.get(name)
        totals[label] = (
            metric.totals(label, job=job_id) if metric is not None else {}
        )
    return _resource_snapshot(totals["resource"], totals["event"])


class JobState:
    """String vocabulary for the job lifecycle (JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobEvent:
    """One entry in a job's monotonic event log.

    ``progress`` events additionally carry the live ETA estimate
    (``eta_seconds`` — None until the first completed chunk), the
    smoothed ``throughput`` in jobs/second, and a ``resources``
    snapshot (wall/CPU seconds, peak RSS, cache hits/misses, solver
    counters) accumulated at chunk boundaries.
    """

    seq: int
    event: str  # "state" or "progress"
    state: str
    done: int = 0
    total: int = 0
    error: Optional[Dict[str, Any]] = None
    eta_seconds: Optional[float] = None
    throughput: Optional[float] = None
    resources: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "event": self.event,
            "state": self.state,
            "done": self.done,
            "total": self.total,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.event == "progress":
            out["eta_seconds"] = self.eta_seconds
            out["throughput"] = self.throughput
            if self.resources is not None:
                out["resources"] = self.resources
        return out


@dataclass
class JobRecord:
    """All manager-side state of one job (mutate under the lock)."""

    job_id: str
    payload: SimulationPayload
    state: str = JobState.QUEUED
    done: int = 0
    total: int = 0
    error: Optional[Dict[str, Any]] = None
    result_text: Optional[str] = None
    cancel_requested: bool = False
    events: List[JobEvent] = field(default_factory=list)
    # Live observability (filled while RUNNING):
    eta_seconds: Optional[float] = None
    throughput: Optional[float] = None
    resources: Optional[Dict[str, Any]] = None
    # Frozen observability artefacts (filled just before the terminal
    # state event; rendered on request by /jobs/{id}/trace and
    # /jobs/{id}/metrics):
    run_summary: Optional[Dict[str, Any]] = None
    metrics_snapshot: Optional[obs_metrics.MetricsRegistry] = None
    trace_spans: Optional[List[Dict[str, Any]]] = None

    def status_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.payload.kind.value,
            "description": self.payload.describe(),
            "state": self.state,
            "done": self.done,
            "total": self.total,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.eta_seconds is not None:
            out["eta_seconds"] = self.eta_seconds
        if self.throughput is not None:
            out["throughput"] = self.throughput
        if self.resources:
            out["resources"] = self.resources
        return out


class JobManager:
    """Thread-backed queue of payload executions, deduped by content.

    Parameters
    ----------
    cache_dir:
        Directory for the engine's sqlite result cache; ``None`` runs
        uncached.  Each executor thread opens one :class:`ResultCache`
        for its lifetime (sqlite connections are per-thread) and closes
        it on :meth:`shutdown`.
    workers:
        Executor threads.  The default of 1 serialises engine runs —
        the engine parallelises *inside* a job via its process pool, so
        one executor thread is usually the right degree.
    observe:
        Enable span/metric collection for the manager's lifetime so
        per-job traces, metrics and resource accounting are populated
        (the default — per-job observability is the service's
        contract).  If tracing was already on it is left untouched;
        otherwise :meth:`shutdown` restores the disabled state.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 workers: int = 1, observe: bool = True) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache_dir = cache_dir
        self.observe = observe
        self._obs_was_enabled = obs_trace.enabled()
        if observe and not self._obs_was_enabled:
            obs_trace.enable()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = deque()
        self._order: List[str] = []
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------
    def submit(self, payload: SimulationPayload) -> Tuple[JobRecord, bool]:
        """Enqueue a validated payload; dedupe onto an existing job.

        Returns ``(record, created)``.  A payload whose fingerprint
        matches a queued / running / done job joins that job instead of
        re-running the engine; failed and cancelled jobs are retried
        with a fresh record under the same id.
        """
        job_id = payload.fingerprint()
        with self._wake:
            if self._closed:
                raise RuntimeError("manager is shut down")
            record = self._jobs.get(job_id)
            if record is not None and record.state not in (
                JobState.FAILED, JobState.CANCELLED
            ):
                obs_metrics.counter(
                    "repro_service_jobs_total",
                    "Service job submissions by outcome",
                ).inc(event="deduplicated")
                return record, False
            record = JobRecord(job_id=job_id, payload=payload)
            self._jobs[job_id] = record
            self._order.append(job_id)
            self._append_event(record, "state")
            self._queue.append(job_id)
            obs_metrics.counter(
                "repro_service_jobs_total",
                "Service job submissions by outcome",
            ).inc(event="submitted")
            self._wake.notify_all()
        return record, True

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Status dicts for every known job, in submission order."""
        with self._lock:
            seen = set()
            out = []
            for job_id in self._order:
                if job_id in seen:
                    continue
                seen.add(job_id)
                out.append(self._jobs[job_id].status_dict())
            return out

    def result_text(self, job_id: str) -> Optional[str]:
        """The stored result document of a finished job (else None)."""
        with self._lock:
            record = self._jobs.get(job_id)
            return record.result_text if record is not None else None

    def events_since(
        self,
        job_id: str,
        after: int = 0,
        timeout: Optional[float] = None,
    ) -> List[JobEvent]:
        """Events with ``seq > after``, blocking until some exist.

        Returns immediately (possibly empty) once the job is terminal;
        otherwise waits up to ``timeout`` seconds for new events.

        The wait is a ``Condition.wait_for`` on a *this-job* predicate:
        the manager's condition variable is shared by every job, so a
        bare ``wait`` would return early (and empty) whenever any
        *other* job appended an event — a long-poll on a quiet job
        degenerated into a busy poll under concurrent load.
        ``wait_for`` re-evaluates the predicate on each wakeup and
        keeps waiting out the remaining deadline until this job has
        fresh events or goes terminal.

        Ordering contract: a job that completes successfully always
        appends a final ``progress`` event with ``done == total``
        *before* its terminal ``state`` event (enforced in
        :meth:`_finish`), so a client that stops reading at the
        terminal event never ends on a stale count.
        """
        with self._wake:
            record = self._jobs.get(job_id)
            if record is None:
                return []

            def fresh() -> List[JobEvent]:
                return [e for e in record.events if e.seq > after]

            self._wake.wait_for(
                lambda: bool(fresh()) or record.state in JobState.TERMINAL,
                timeout=timeout,
            )
            return fresh()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> str:
        """Block until the job reaches a terminal state; return it."""
        with self._wake:
            record = self._jobs.get(job_id)
            if record is None:
                raise KeyError(job_id)
            self._wake.wait_for(
                lambda: record.state in JobState.TERMINAL, timeout=timeout
            )
            return record.state

    # -- cancellation --------------------------------------------------
    def cancel(self, job_id: str) -> Optional[str]:
        """Request cancellation; returns the resulting state.

        A queued job is cancelled immediately (it never reaches the
        engine); a running job gets its cancel flag raised and stops at
        the engine's next chunk boundary via ``should_cancel``.
        """
        with self._wake:
            record = self._jobs.get(job_id)
            if record is None:
                return None
            if record.state == JobState.QUEUED:
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass  # a worker grabbed it between checks
                record.cancel_requested = True
                self._finish(record, JobState.CANCELLED)
            elif record.state == JobState.RUNNING:
                record.cancel_requested = True
            return record.state

    # -- shutdown ------------------------------------------------------
    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the executor threads."""
        with self._wake:
            self._closed = True
            for job_id in list(self._queue):
                record = self._jobs[job_id]
                record.cancel_requested = True
                self._finish(record, JobState.CANCELLED)
            self._queue.clear()
            for record in self._jobs.values():
                if record.state == JobState.RUNNING:
                    record.cancel_requested = True
            self._wake.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self.observe and not self._obs_was_enabled:
            obs_trace.disable()

    # -- internals -----------------------------------------------------
    def _append_event(
        self, record: JobRecord, event: str,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        # Caller holds the lock.
        is_progress = event == "progress"
        record.events.append(JobEvent(
            seq=len(record.events) + 1,
            event=event,
            state=record.state,
            done=record.done,
            total=record.total,
            error=error,
            eta_seconds=record.eta_seconds if is_progress else None,
            throughput=record.throughput if is_progress else None,
            resources=(
                dict(record.resources)
                if is_progress and record.resources else None
            ),
        ))
        self._wake.notify_all()

    def _finish(self, record: JobRecord, state: str,
                error: Optional[Dict[str, Any]] = None) -> None:
        # Caller holds the lock.
        if state == JobState.DONE:
            # Stream ordering contract (see events_since): the terminal
            # "done" state event is always preceded by a progress event
            # carrying done == total.
            # Always appended (even if the engine's last report already
            # had done == total) because only this event carries the
            # complete resource snapshot — counters like jobs_executed
            # land after the engine's final progress callback.
            record.done = max(record.done, record.total)
            record.total = record.done
            record.eta_seconds = 0.0
            self._append_event(record, "progress")
        record.state = state
        record.error = error
        self._append_event(record, "state", error=error)
        obs_metrics.counter(
            "repro_service_jobs_total",
            "Service job submissions by outcome",
        ).inc(event=state)

    def _next_job(self) -> Optional[JobRecord]:
        with self._wake:
            while True:
                if self._closed:
                    return None
                while self._queue:
                    job_id = self._queue.popleft()
                    record = self._jobs[job_id]
                    if record.state != JobState.QUEUED:
                        continue  # cancelled while queued
                    record.state = JobState.RUNNING
                    self._append_event(record, "state")
                    return record
                self._wake.wait()

    def _worker_loop(self) -> None:
        # sqlite connections are bound to their creating thread, so each
        # executor owns one handle for all the jobs it runs.
        cache = (
            ResultCache(self.cache_dir) if self.cache_dir is not None
            else None
        )
        try:
            while True:
                record = self._next_job()
                if record is None:
                    return
                self._execute(record, cache)
        finally:
            if cache is not None:
                cache.close()

    def _execute(self, record: JobRecord,
                 cache: Optional[ResultCache]) -> None:
        payload = record.payload
        sent: Optional[Tuple[int, int]] = None  # the last event's report

        def progress(done: int, total: int) -> None:
            nonlocal sent
            tracker.update(done, total)
            # The job label is injected by the active JobContext — the
            # sanctioned path for per-job labels (never pass job=).
            obs_metrics.gauge(
                "repro_service_job_progress",
                "Completed engine jobs of the most recent progress "
                "report, per service job",
            ).set(done)
            # One event per distinct report.  After the seeded first
            # event, a report that reaches the total is left to
            # _finish, whose event carries the complete snapshot.
            if (done, total) == sent or (
                sent is not None and done >= total
            ):
                return
            sent = (done, total)
            snapshot = tracker.snapshot()
            resources = _live_resources(record.job_id)
            with self._wake:
                record.done = tracker.done
                record.total = tracker.total
                record.eta_seconds = snapshot["eta_seconds"]
                record.throughput = snapshot["throughput"]
                record.resources = resources
                self._append_event(record, "progress")

        def should_cancel() -> bool:
            return record.cancel_requested

        # Any exception below ends the job FAILED, never a dead
        # executor thread with the job stuck running.
        outcome = JobState.FAILED
        error: Optional[Dict[str, Any]] = None
        text: Optional[str] = None
        try:
            tracker = ProgressTracker(total=payload.total_work())
            with self._lock:
                record.total = tracker.total
            # Everything the engine emits below — spans, metric
            # samples, resource accounting, in this thread and in the
            # worker processes — is tagged with this job id.
            with obs_trace.JobContext(record.job_id):
                with obs_trace.span(
                    "service.job", kind=payload.kind.value,
                    job=record.job_id[:12],
                ):
                    # Seed the stream with the payload's exact work
                    # estimate before any engine code runs.
                    progress(0, tracker.total)
                    document = run_payload(
                        payload,
                        cache=cache,
                        progress=progress,
                        should_cancel=should_cancel,
                    )
                text = render_document(document)
            outcome = JobState.DONE
        except JobCancelled:
            outcome = JobState.CANCELLED
        except MnsimError as exc:
            error = {"type": type(exc).__name__, "message": str(exc)}
        except Exception as exc:
            _log.exception("job %s crashed", record.job_id[:12])
            error = {"type": type(exc).__name__, "message": str(exc)}
        # Freeze trace/metrics artefacts and roll up the job's label
        # sets *before* the terminal event: the moment a client sees
        # the stream end, /jobs/{id}/trace and /jobs/{id}/metrics are
        # servable and global cardinality is already back to baseline.
        resources = None
        try:
            self._persist_observability(record)
            if outcome == JobState.DONE:
                summary = record.run_summary
                resources = _resource_snapshot(
                    summary["resources"], summary["counters"]
                )
        except Exception as exc:
            _log.exception("job %s: persisting observability failed",
                           record.job_id[:12])
            outcome = JobState.FAILED
            error = {"type": type(exc).__name__, "message": str(exc)}
        with self._wake:
            if outcome == JobState.DONE:
                record.result_text = text
                record.resources = resources
            self._finish(record, outcome, error=error)

    def _persist_observability(self, record: JobRecord) -> None:
        """Freeze the job's observability artefacts onto its record.

        The job's metric samples are copied into a detached registry
        (rendered only when ``/jobs/{id}/metrics`` asks) and its spans
        are drained from the shared buffer; then
        :meth:`MetricsRegistry.rollup_job` folds the job's label sets
        back into the base series so the global ``/metrics`` scrape
        does not grow with job count.
        """
        snapshot = obs_metrics.REGISTRY.filter_job(record.job_id)
        spans = obs_trace.take_job_spans(record.job_id)
        summary = run_summary(snapshot)
        with self._lock:
            record.metrics_snapshot = snapshot
            record.trace_spans = spans
            record.run_summary = summary
        evicted = obs_metrics.REGISTRY.rollup_job(record.job_id)
        if evicted:
            _log.debug(
                "job %s: rolled up %d job-labelled metric series",
                record.job_id[:12], evicted,
            )
