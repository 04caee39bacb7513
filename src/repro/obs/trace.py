"""Contextvar-based span tracing with cross-process propagation.

A *span* is one timed region of work (a solver factorization, a job
chunk, a whole DSE sweep).  Spans nest through a :mod:`contextvars`
variable, so the tree mirrors the dynamic call structure — including
across ``await``-free thread switches — and every finished span lands in
a process-local buffer, which keeps at most :data:`MAX_UNOWNED_SPANS`
spans that belong to no job.

Design constraints (see DESIGN.md S18):

* **Disabled by default, near-zero overhead.**  :func:`span` returns a
  cached no-op singleton when tracing is off; the only cost is one
  global load and a function call.  Hot paths (the crossbar solver, the
  job engine's chunk loop) call it unconditionally.
* **Cross-process propagation.**  The job engine ships
  :func:`current_context` inside each chunk payload; the worker process
  calls :func:`activate` (adopting the parent span id and flags), runs
  the chunk, and returns :func:`collect`'s span dicts alongside the
  results.  The dispatcher then :func:`absorb`'s them, so one buffer
  holds the whole run with worker spans parented under the dispatching
  chunk span.
* **Two exporters.**  :func:`export_chrome` writes Chrome trace-event
  JSON (loadable in Perfetto / ``chrome://tracing``; one lane per
  process pid, span/parent ids preserved in ``args``) and
  :mod:`repro.obs.report` renders the same data as a terminal wall-time
  tree.

Span ids embed the pid, so ids minted in different processes never
collide.  Timestamps are wall-clock (``time.time``) so lanes from
different processes align; durations are measured with
``time.perf_counter`` for resolution.

**Job scoping.**  A :class:`JobContext` tags every span recorded while
it is active (and, via the job-scoped metrics registry, every labelled
metric sample) with a job id.  The id rides the same propagation
payload as the parent span id, so worker processes inherit it through
:func:`activate` — and unlike the enabled/debug flags it is honoured
even while tracing is off, because metric attribution must not depend
on whether spans are being collected.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Union
from contextvars import ContextVar

from repro.obs import metrics as _metrics

__all__ = [
    "Span",
    "span",
    "begin",
    "enable",
    "disable",
    "enabled",
    "debug_enabled",
    "clear",
    "spans",
    "collect",
    "absorb",
    "current_context",
    "activate",
    "export_chrome",
    "JobContext",
    "current_job",
    "spans_for_job",
    "take_job_spans",
]

_enabled = False
_debug = False

#: Most spans belonging to no job that the buffer holds.  Beyond it the
#: oldest job-less spans are dropped and counted in
#: ``repro_trace_dropped_spans_total``, so a long-lived traced process
#: stays bounded; job-owned spans leave with their job
#: (:func:`take_job_spans`).  Traced CLI runs record tens to hundreds
#: of spans (a 32x32 Monte-Carlo run about 35 per trial).
MAX_UNOWNED_SPANS = 100_000

#: Finished spans of this process (dicts, oldest first).
_buffer: Deque[Dict[str, Any]] = deque()
_buffer_lock = threading.Lock()
#: How many spans in ``_buffer`` belong to no job (guarded by the lock).
_unowned = 0

#: The innermost live span of the current context (None at top level).
_current: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)

#: Parent span id adopted from another process via :func:`activate`.
_remote_parent: Optional[str] = None

#: The job id owning work in the current context (None outside a job).
_current_job: ContextVar[Optional[str]] = ContextVar(
    "repro_obs_current_job", default=None
)

#: Job id adopted from another process via :func:`activate`.
_remote_job: Optional[str] = None

_ids = itertools.count(1)


def _next_id() -> str:
    """A span id unique across processes (pid-prefixed counter)."""
    return f"{os.getpid():x}-{next(_ids):x}"


# ----------------------------------------------------------------------
# On/off switch
# ----------------------------------------------------------------------
def enable(*, debug: bool = False) -> None:
    """Turn span collection on (``debug=True`` also records residuals
    and other high-volume diagnostics the instrumented modules gate)."""
    global _enabled, _debug
    _enabled = True
    _debug = debug


def disable() -> None:
    """Turn span collection off; the buffer is kept until :func:`clear`."""
    global _enabled, _debug
    _enabled = False
    _debug = False


def enabled() -> bool:
    """Whether spans are being collected in this process."""
    return _enabled


def debug_enabled() -> bool:
    """Whether high-volume debug diagnostics should be recorded."""
    return _enabled and _debug


# ----------------------------------------------------------------------
# Job scoping
# ----------------------------------------------------------------------
class JobContext:
    """Scope work to a job id; spans and job-scoped metric samples
    recorded inside the ``with`` block are tagged with it.

    Active regardless of the tracing on/off switch: a disabled tracer
    still needs the job id so the metrics registry can label samples.
    Nesting restores the outer job on exit, and the id propagates to
    worker processes through :func:`current_context`/:func:`activate`
    exactly like the parent span id.
    """

    __slots__ = ("job_id", "_token")

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self._token = None

    def __enter__(self) -> "JobContext":
        self._token = _current_job.set(self.job_id)
        return self

    def __exit__(self, *_exc) -> bool:
        if self._token is not None:
            _current_job.reset(self._token)
            self._token = None
        return False


def current_job() -> Optional[str]:
    """The job id owning the current context, or None outside a job."""
    job = _current_job.get()
    return job if job is not None else _remote_job


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed region; use as a context manager or via :func:`begin`.

    Attributes mirror the exported dict: ``name``, ``span_id``,
    ``parent_id``, ``pid``, ``start`` (epoch seconds), ``duration``
    (seconds), ``job`` (owning job id or None) and free-form ``attrs``.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "pid", "start", "duration",
        "attrs", "job", "_t0", "_token",
    )

    def __init__(
        self, name: str, attrs: Optional[Dict[str, Any]] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = attrs or {}
        self.span_id = _next_id()
        if parent_id is None:
            parent = _current.get()
            parent_id = parent.span_id if parent is not None else _remote_parent
        self.parent_id = parent_id
        self.pid = os.getpid()
        self.job = current_job()
        self.start = time.time()
        self.duration = 0.0
        self._t0 = time.perf_counter()
        self._token = None

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.finish()
        return False

    # -- manual protocol (async work: chunk dispatch) ------------------
    def finish(self) -> "Span":
        """Stop the clock and commit the span to the buffer."""
        self.duration = time.perf_counter() - self._t0
        _admit((self.to_dict(),))
        return self

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to a live span (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "job": self.job,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration * 1e3:.3f}ms)"
        )


class _NoopSpan:
    """Cached do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def finish(self) -> "_NoopSpan":
        return self

    def set(self, **_attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


def span(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """A context-managed span, or the no-op singleton when disabled."""
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


def begin(name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
    """Start a *manual* span (caller must ``finish()`` it).

    Unlike the context-manager form this does **not** make the span the
    current parent — it is meant for asynchronous work (e.g. a chunk
    in flight on a process pool) whose lifetime outlives the frame that
    started it.  The parent is whatever span is current right now.
    """
    if not _enabled:
        return _NOOP
    return Span(name, attrs)


# ----------------------------------------------------------------------
# Buffer access
# ----------------------------------------------------------------------
def _admit(records: Iterable[Dict[str, Any]]) -> None:
    """Append finished spans, then drop the oldest job-less spans past
    :data:`MAX_UNOWNED_SPANS`."""
    global _unowned
    dropped = 0
    with _buffer_lock:
        for record in records:
            _buffer.append(record)
            if record.get("job") is None:
                _unowned += 1
        if _unowned > MAX_UNOWNED_SPANS:
            kept = []
            while _unowned > MAX_UNOWNED_SPANS:
                record = _buffer.popleft()
                if record.get("job") is None:
                    _unowned -= 1
                    dropped += 1
                else:
                    kept.append(record)
            _buffer.extendleft(reversed(kept))
    if dropped:
        _metrics.counter(
            "repro_trace_dropped_spans_total",
            "Job-less spans dropped from the full trace buffer",
        ).inc(dropped)


def _reset_locked() -> None:
    """Empty the buffer; caller holds ``_buffer_lock``."""
    global _unowned
    _buffer.clear()
    _unowned = 0


def clear() -> None:
    """Drop every buffered span."""
    with _buffer_lock:
        _reset_locked()


def spans() -> List[Dict[str, Any]]:
    """A snapshot copy of the buffered span dicts (oldest first)."""
    with _buffer_lock:
        return list(_buffer)


def collect() -> List[Dict[str, Any]]:
    """Drain the buffer: return the spans and clear it.

    Workers call this after a chunk so each result ships exactly the
    spans that chunk produced (warm pools reuse processes across
    chunks).
    """
    with _buffer_lock:
        out = list(_buffer)
        _reset_locked()
    return out


def absorb(span_dicts: Iterable[Dict[str, Any]]) -> None:
    """Append spans shipped back from another process to the buffer."""
    _admit(span_dicts)


def spans_for_job(job_id: str) -> List[Dict[str, Any]]:
    """A snapshot of the buffered spans tagged with ``job_id``."""
    with _buffer_lock:
        return [s for s in _buffer if s.get("job") == job_id]


def take_job_spans(job_id: str) -> List[Dict[str, Any]]:
    """Drain ``job_id``'s spans from the buffer, leaving the rest.

    The service layer calls this once per finished job: the job's
    spans move into its record (served by ``GET /jobs/{id}/trace``)
    and stop occupying the shared buffer, so a long-running server's
    trace memory stays bounded by the *live* jobs.
    """
    with _buffer_lock:
        taken = [s for s in _buffer if s.get("job") == job_id]
        if taken:
            kept = [s for s in _buffer if s.get("job") != job_id]
            _buffer.clear()
            _buffer.extend(kept)
    return taken


# ----------------------------------------------------------------------
# Cross-process propagation
# ----------------------------------------------------------------------
def current_context() -> Optional[Dict[str, Any]]:
    """The propagation payload for a child process, or None when off.

    A small picklable dict: the enabled/debug flags, the would-be
    parent span id of work started "here" (the innermost live span),
    and the owning job id so workers keep attributing to the job.
    """
    if not _enabled:
        return None
    parent = _current.get()
    return {
        "enabled": True,
        "debug": _debug,
        "parent": parent.span_id if parent is not None else _remote_parent,
        "job": current_job(),
    }


def activate(context: Optional[Dict[str, Any]]) -> None:
    """Adopt a :func:`current_context` payload in a worker process.

    Enables collection and parents this process's top-level spans under
    the shipped span id.  ``None`` deactivates (spans stop being
    recorded), matching a dispatcher that has tracing off.

    On fork-start platforms a worker inherits the dispatcher's live
    contextvar (whatever span was open at fork time) and a copy of its
    buffer; both would corrupt the merged trace — stale parents and
    duplicated spans — so activation always resets them.
    """
    global _remote_parent, _remote_job, _enabled, _debug
    _current.set(None)
    _current_job.set(None)
    with _buffer_lock:
        _reset_locked()
    if not context:
        _enabled = False
        _debug = False
        _remote_parent = None
        _remote_job = None
        return
    _enabled = True
    _debug = bool(context.get("debug", False))
    _remote_parent = context.get("parent")
    _remote_job = context.get("job")


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def to_chrome_events(
    span_dicts: Optional[Iterable[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """Chrome trace-event list for the given (default: buffered) spans.

    Each span becomes one complete ("ph": "X") event with microsecond
    ``ts``/``dur``; the span and parent ids ride along in ``args`` so
    :mod:`repro.obs.report` can rebuild the tree from the saved file.
    One lane per process: ``pid`` is the real pid, and a metadata event
    names the main process vs. workers.
    """
    records = list(span_dicts) if span_dicts is not None else spans()
    events: List[Dict[str, Any]] = []
    pids = []
    for record in records:
        if record["pid"] not in pids:
            pids.append(record["pid"])
    main_pid = os.getpid()
    for pid in pids:
        label = "main" if pid == main_pid else f"worker-{pid}"
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
    for record in records:
        args = dict(record.get("attrs") or {})
        args["span_id"] = record["span_id"]
        if record.get("parent_id"):
            args["parent_id"] = record["parent_id"]
        if record.get("job"):
            args["job"] = record["job"]
        events.append({
            "name": record["name"],
            "ph": "X",
            "ts": record["start"] * 1e6,
            "dur": record["duration"] * 1e6,
            "pid": record["pid"],
            "tid": 0,
            "args": args,
        })
    return events


def export_chrome(
    path: Union[str, "os.PathLike[str]"],
    span_dicts: Optional[Iterable[Dict[str, Any]]] = None,
) -> str:
    """Write the Chrome trace-event JSON file; returns the path written."""
    payload = {
        "traceEvents": to_chrome_events(span_dicts),
        "displayTimeUnit": "ms",
    }
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    return path
