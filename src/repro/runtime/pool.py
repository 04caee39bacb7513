"""Parallel job execution with retry, timeout, and serial fallback.

:func:`run_jobs` is the single entry point every sweep in the repo uses.
It takes a picklable top-level ``worker`` function and a list of
:class:`~repro.runtime.jobs.JobSpec` and returns the worker results in
input order.  Pending jobs run in *groups*, each one
:func:`_run_group` call, in this process or in a pool worker.  Between
the caller and the worker it layers:

1. **Cache short-circuit** — specs whose key is already in the supplied
   :class:`~repro.runtime.cache.ResultCache` are never executed.
2. **Grouped process fan-out** — with ``policy.jobs`` workers the
   misses are cut into groups (``policy.chunk_size`` jobs, else at
   most four groups per worker) and dispatched over a ``ProcessPoolExecutor``.
   Grouping amortises pickling overhead for millisecond jobs.  The
   serial path runs the same groups in a loop: one job each, or
   ``chunk_size``/``_SERIAL_BATCH_SIZE`` jobs for a batch worker.
3. **Bounded retry** — a group that crashes (worker exception, killed
   process) or exceeds its timeout is re-run up to ``policy.retries``
   times, then surfaces as a structured
   :class:`~repro.errors.JobExecutionError` (summarised, no child
   traceback) — never a hang or a silent partial result.
4. **Serial fallback** — pool start-up failures and unpicklable
   workers (e.g. test lambdas) automatically fall back to the serial
   loop with identical results and error semantics.
5. **Warm pool reuse** — a healthy ``ProcessPoolExecutor`` is kept
   alive between :func:`run_jobs` calls (keyed by worker count), so
   short sweeps don't pay process start-up on every invocation
   (DESIGN.md S40 has the A/B).  The slot is taken and returned under
   a lock, because the service runs sweeps from several threads.
   Pools that broke, timed out or were cancelled are killed and never
   reused; :func:`shutdown_warm_pool` releases the slot explicitly.

Domain errors (any :class:`~repro.errors.MnsimError`) are deterministic
properties of the job, so they are *not* retried: they propagate to the
caller unchanged, exactly as the old serial loops behaved.
"""

from __future__ import annotations

import atexit
import logging
import math
import os
import pickle
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from repro.config import Declared, declare
from repro.errors import (
    JobCancelled,
    JobExecutionError,
    MnsimError,
    ValidationError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.jobs import JobSpec

if TYPE_CHECKING:
    # concurrent.futures.process loads multiprocessing; a serial run
    # never starts a pool, so it imports neither (see _acquire_pool).
    # The cache module loads with the first cache a caller opens.
    from concurrent.futures import ProcessPoolExecutor

    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.cache import ResultCache

_log = logging.getLogger(__name__)

#: Where CLI runs persist their :func:`run_summary`, relative to the
#: cache dir (``repro runtime-stats`` renders it).
LAST_RUN_FILENAME = "last_run.json"

#: The registry series engine accounting records into (DESIGN.md S36).
RUNTIME_EVENTS = "repro_runtime_events_total"
RUNTIME_STAGES = "repro_runtime_stage_seconds"
RUNTIME_POOL = "repro_runtime_pool"
JOB_RESOURCES = "repro_job_resources"

#: The engine's own stages.  The progress tracker observes
#: ``progress-chunk`` on the same histogram; a summary leaves it out.
_ENGINE_STAGES = ("cache-lookup", "execute", "cache-store")

#: Seconds between deadline sweeps while waiting on in-flight chunks.
_WAIT_SLICE = 0.05

#: Groups per worker on the process path (when the policy's
#: ``chunk_size`` doesn't pin a size): enough to balance load across
#: workers, few enough that dispatch round-trips stay cheap.
_CHUNKS_PER_WORKER = 4

#: Jobs per batch-worker group on the serial path (when the policy's
#: ``chunk_size`` doesn't pin one).  Large enough that a batch worker
#: shares its work across many jobs (a DSE batch builds its points on
#: one module registry), small enough to keep progress and
#: cancellation responsive.
_SERIAL_BATCH_SIZE = 64


@dataclass(frozen=True)
class RunPolicy(Declared):
    """How a job list is executed.

    Attributes
    ----------
    jobs:
        Worker process count; ``1`` (the default) runs in-process
        serially, ``0`` means "all available cores".
    chunk_size:
        Jobs per dispatch unit; ``None`` always aims at four chunks per
        worker: ``ceil(pending / (4 * workers))`` jobs each.
    timeout:
        Per-job wall-clock budget in seconds (a chunk's budget is
        ``timeout * len(chunk)``); ``None`` disables timeouts.  Only
        enforceable on the process path — a serial worker cannot be
        preempted.
    retries:
        How many times a failed/timed-out chunk is re-dispatched before
        the run aborts with :class:`~repro.errors.JobExecutionError`.
    min_sweep_for_parallel:
        Sweeps with fewer pending (uncached) jobs than this run
        serially even when ``jobs > 1`` — below a handful of jobs the
        pool's dispatch/IPC round-trips cost more than the compute they
        parallelise (the BENCH_runtime parallel-gap finding).  The
        default of 2 preserves the historical behaviour (any sweep of
        at least two jobs may fan out); latency-sensitive callers such
        as :mod:`repro.service` raise it.
    """

    jobs: int = declare(1, minimum=0)
    chunk_size: Optional[int] = declare(None, minimum=1)
    timeout: Optional[float] = None
    retries: int = declare(1, minimum=0)
    min_sweep_for_parallel: int = declare(2, minimum=2)

    def _check(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValidationError(
                "must be positive when given",
                path="timeout", value=self.timeout,
            )

    @property
    def worker_count(self) -> int:
        """The resolved process count (``jobs=0`` -> CPU count)."""
        if self.jobs == 0:
            return os.cpu_count() or 1
        return self.jobs


def run_jobs(
    worker: Callable[[Any], Any],
    specs: Sequence[JobSpec],
    *,
    policy: Optional[RunPolicy] = None,
    cache: Optional[ResultCache] = None,
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    batch: bool = False,
) -> List[Any]:
    """Execute ``worker`` on every spec's payload, in input order.

    Parameters
    ----------
    worker:
        Top-level picklable function of one argument (the payload), or
        of a list of payloads when ``batch`` is true.
    specs:
        The job list; specs with a ``key`` participate in caching.
    policy:
        Execution policy (parallelism, chunking, timeout, retries).
    cache:
        Optional result cache; hits skip execution, computed results
        are stored back.
    encode / decode:
        Translate worker results to/from the JSON-safe form the cache
        stores (identity when omitted).
    progress:
        Optional ``progress(done, total)`` callback, invoked from the
        dispatching thread after the cache stage and as groups
        complete — the service layer's progress stream rides on it.
        It must be cheap and must not raise.
    should_cancel:
        Optional predicate polled between groups (serial) / between
        chunk completions (parallel).  When it turns true the run
        raises :class:`~repro.errors.JobCancelled`; in-flight chunk
        results are discarded and pending jobs never execute.
    batch:
        ``worker`` maps a *list* of payloads to the list of their
        results, in order, each **bit-identical** to running that
        payload alone.  Each chunk / serial group is then one call, so
        same-shape jobs can share assembly and amortise per-call
        overhead.  Caching, retries and cancellation are unchanged — a
        cache hit still skips the job, and results are cached per spec
        key.

    Stage times, event counts, resources and the execution mode are
    recorded into the obs registry's runtime series, job-labelled
    inside a :class:`~repro.obs.trace.JobContext`; :func:`run_summary`
    reads them back.
    """
    policy = policy or RunPolicy()
    specs = list(specs)
    with obs_trace.span(
        "runtime.run_jobs", jobs=len(specs), workers=policy.worker_count,
        kind=specs[0].kind if specs else "",
    ):
        _set_pool("workers", policy.worker_count)
        _count("jobs_total", len(specs))
        _check_cancel(should_cancel)

        results: List[Any] = [None] * len(specs)
        done = [False] * len(specs)

        # Stage 1: cache short-circuit --------------------------------
        if cache is not None:
            with _stage("cache-lookup"):
                keyed = [s.key for s in specs if s.key is not None]
                found = cache.get_many(keyed) if keyed else {}
                for i, spec in enumerate(specs):
                    if spec.key is not None and spec.key in found:
                        value = found[spec.key]
                        results[i] = decode(value) if decode else value
                        done[i] = True
            _count("cache_hits", sum(done))
            _count("cache_misses", len(specs) - sum(done))
        completed = sum(done)
        if progress is not None:
            progress(completed, len(specs))

        pending = [(i, spec) for i, spec in enumerate(specs) if not done[i]]

        # Stage 2: execute ---------------------------------------------
        def complete(group: _Group, values: List[Any],
                     usage: Dict[str, float]) -> None:
            nonlocal completed
            for (index, _spec), value in zip(group.members, values):
                results[index] = value
                done[index] = True
            if batch:
                _count("batched_jobs", len(values))
            _account_usage(usage)
            completed += len(values)
            if progress is not None:
                progress(completed, len(specs))

        if pending:
            with _stage("execute"):
                # Processes are used whenever more than one worker is
                # requested — even on a single core they buy crash and
                # timeout isolation; genuine pool failures fall back
                # below.  An unpicklable worker (test lambda, closure)
                # can never cross the process boundary, so it runs
                # serially without ever creating a pool.  Sweeps below
                # the policy's parallelism threshold stay serial too:
                # for a handful of jobs the round-trips dominate.
                process = 0
                if (
                    policy.worker_count > 1
                    and len(pending) >= policy.min_sweep_for_parallel
                    and _picklable(worker)
                ):
                    size = policy.chunk_size or math.ceil(
                        len(pending)
                        / (policy.worker_count * _CHUNKS_PER_WORKER)
                    )
                    try:
                        _run_parallel(worker, _groups(pending, size), batch,
                                      policy, complete, should_cancel)
                        process = 1
                    except _SerialFallback:
                        pass
                if not process:
                    size = (
                        (policy.chunk_size or _SERIAL_BATCH_SIZE)
                        if batch else 1
                    )
                    left = [(i, spec) for i, spec in pending if not done[i]]
                    _run_serial(worker, _groups(left, size), batch,
                                policy, complete, should_cancel)
            _set_pool("process", process)
            _count("jobs_executed", len(pending))

        # Stage 3: cache store -----------------------------------------
        if cache is not None and pending:
            with _stage("cache-store"):
                cache.put_many(
                    (
                        spec.key,
                        spec.kind,
                        encode(results[i]) if encode else results[i],
                    )
                    for i, spec in pending
                    if spec.key is not None
                )
        return results


def _check_cancel(should_cancel: Optional[Callable[[], bool]]) -> None:
    if should_cancel is not None and should_cancel():
        raise JobCancelled("run cancelled by caller")


# ----------------------------------------------------------------------
# Accounting (obs registry series, recorded with tracing on or off)
# ----------------------------------------------------------------------
def _count(event: str, amount: int = 1) -> None:
    obs_metrics.counter(
        RUNTIME_EVENTS, "Engine event counts across all run_jobs calls",
    ).inc(amount, event=event)


def _set_pool(setting: str, value: float) -> None:
    obs_metrics.gauge(
        RUNTIME_POOL,
        "Last run_jobs call: resolved worker count (workers) and 1 when "
        "its execute stage ran in worker processes (process)",
    ).set(value, setting=setting)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Time the enclosed block as engine stage ``name``."""
    start = time.perf_counter()
    try:
        with obs_trace.span("runtime." + name):
            yield
    finally:
        obs_metrics.histogram(
            RUNTIME_STAGES, "Engine stage wall time per run_jobs call",
        ).observe(time.perf_counter() - start, stage=name)


def run_summary(registry: MetricsRegistry) -> Dict[str, Any]:
    """The engine accounting recorded in ``registry``, as one run.

    Pass the global registry for a CLI command (it is reset per
    command) or a job's :meth:`~repro.obs.metrics.MetricsRegistry.
    filter_job` snapshot.  The keys are ``counters``,
    ``jobs_per_second`` (executed jobs over the execute stage),
    ``mode`` (``"serial"`` or ``"process"``), ``resources``,
    ``stages`` (wall seconds of the engine's own stages),
    ``total_seconds`` and ``workers`` — the ``last_run.json`` format.
    """
    def totals(name: str, label: str) -> Dict[str, float]:
        metric = registry.get(name)
        return metric.totals(label) if metric is not None else {}

    counters = totals(RUNTIME_EVENTS, "event")
    stages = {
        name: seconds
        for name, seconds in totals(RUNTIME_STAGES, "stage").items()
        if name in _ENGINE_STAGES
    }
    pool = totals(RUNTIME_POOL, "setting")
    execute = stages.get("execute", 0.0)
    return {
        "counters": dict(sorted(counters.items())),
        "jobs_per_second": (
            counters.get("jobs_executed", 0) / execute if execute > 0
            else 0.0
        ),
        "mode": "process" if pool.get("process") else "serial",
        "resources": dict(sorted(totals(JOB_RESOURCES, "resource").items())),
        "stages": dict(sorted(stages.items())),
        "total_seconds": sum(stages.values()),
        "workers": int(pool.get("workers", 1)),
    }


# ----------------------------------------------------------------------
# Groups: the unit both paths run, retry and account
# ----------------------------------------------------------------------
class _Group:
    """Pending jobs run by one :func:`_run_group` call, and how many
    times that call has failed."""

    __slots__ = ("members", "attempts")

    def __init__(self, members: List[Tuple[int, JobSpec]]) -> None:
        self.members = members
        self.attempts = 0

    def payloads(self) -> List[Any]:
        return [spec.payload for _, spec in self.members]

    def fail(self, cause: BaseException,
             retries: int) -> Optional[JobExecutionError]:
        """Charge one failed attempt: ``None`` while a retry remains,
        else the summarized (traceback-free) terminal failure."""
        self.attempts += 1
        _count("worker_failures")
        if self.attempts <= retries:
            _count("retries")
            return None
        kind = self.members[0][1].kind
        scope = (
            f"a chunk of {len(self.members)} {kind!r} jobs"
            if len(self.members) > 1
            else f"{kind!r} job"
        )
        reason = f"{type(cause).__name__}: {cause}".strip().rstrip(":")
        return JobExecutionError(
            f"{scope} failed after {self.attempts} attempt(s): {reason}"
        )


def _groups(pending: Sequence[Tuple[int, JobSpec]],
            size: int) -> List[_Group]:
    """``pending`` cut into groups of ``size``, in input order."""
    return [
        _Group(list(pending[start:start + size]))
        for start in range(0, len(pending), size)
    ]


def _run_group(
    worker: Callable[[Any], Any],
    payloads: List[Any],
    batch: bool,
) -> Tuple[List[Any], Dict[str, float]]:
    """Run one group in this process: its results and usage delta.

    A batch worker is one call under a ``runtime.batch`` span and must
    return one result per payload; a per-job worker runs once per
    payload, each under its own ``runtime.job`` span.
    """
    before = _usage_snapshot()
    if batch:
        with obs_trace.span("runtime.batch", jobs=len(payloads)):
            values = list(worker(payloads))
        if len(values) != len(payloads):
            raise JobExecutionError(
                f"batch worker returned {len(values)} result(s) for "
                f"{len(payloads)} job(s)"
            )
    else:
        values = []
        for payload in payloads:
            with obs_trace.span("runtime.job"):
                values.append(worker(payload))
    return values, _usage_since(before)


def _run_serial(
    worker: Callable[[Any], Any],
    groups: List[_Group],
    batch: bool,
    policy: RunPolicy,
    complete: Callable[[_Group, List[Any], Dict[str, float]], None],
    should_cancel: Optional[Callable[[], bool]],
) -> None:
    """Run ``groups`` one after another in this process; cancellation
    is polled between groups and a failed group is retried whole."""
    for group in groups:
        _check_cancel(should_cancel)
        while True:
            try:
                values, usage = _run_group(worker, group.payloads(), batch)
                break
            except MnsimError:
                # Deterministic domain error: retrying cannot help and
                # callers expect the original exception type.
                raise
            except Exception as exc:
                error = group.fail(exc, policy.retries)
                if error is not None:
                    raise error from None
        complete(group, values, usage)


# ----------------------------------------------------------------------
# Resource accounting (group boundaries)
# ----------------------------------------------------------------------
def _usage_snapshot() -> Dict[str, float]:
    """Point-in-time usage of *this* process, for delta accounting.

    Wall/CPU seconds and peak RSS come from ``resource.getrusage``
    (``os.times`` fallback where unavailable, RSS 0 there); the solver
    counters piggy-back so a group's fixed-point-iteration and
    batched-vs-pointwise solve deltas ride the same snapshot.  The
    counters only move while observability is enabled — the deltas are
    simply zero in a disabled run.
    """
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime
        # Linux reports ru_maxrss in KiB, macOS in bytes.
        rss = float(usage.ru_maxrss)
        if sys.platform != "darwin":
            rss *= 1024.0
    else:  # pragma: no cover - non-POSIX platforms
        times = os.times()
        cpu = times.user + times.system
        rss = 0.0
    events = obs_metrics.counter("repro_solver_events_total")
    return {
        "wall_seconds": time.perf_counter(),
        "cpu_seconds": cpu,
        "peak_rss_bytes": rss,
        "fixed_point_iterations": events.total(
            event="fixed_point_iterations"
        ),
        "pointwise_solves": events.total(event="pointwise_solve"),
        "batched_solves": obs_metrics.counter(
            "repro_solver_batched_solves_total"
        ).total(),
    }


def _usage_since(before: Dict[str, float]) -> Dict[str, float]:
    """The usage delta accumulated since ``before`` (same process);
    peak RSS is the current peak, not a difference."""
    after = _usage_snapshot()
    delta = {name: after[name] - before[name] for name in after}
    delta["peak_rss_bytes"] = after["peak_rss_bytes"]
    return delta


def _account_usage(usage: Dict[str, float]) -> None:
    """Fold one group's usage delta into the run's resource totals
    (sums, and the maximum for peak RSS)."""
    resources = obs_metrics.gauge(
        JOB_RESOURCES, "Accumulated resource usage of the current run",
    )
    for name, amount in usage.items():
        if name == "peak_rss_bytes":
            resources.set_max(amount, resource=name)
        elif amount:
            resources.add(amount, resource=name)


# ----------------------------------------------------------------------
# Warm-pool slot
# ----------------------------------------------------------------------
#: The warm pool and its worker count, taken and returned under
#: ``_WARM_LOCK`` (the service runs sweeps from several threads).
_WARM_LOCK = threading.Lock()
_WARM_POOL: Optional[Tuple[int, ProcessPoolExecutor]] = None


def _acquire_pool(workers: int, worker: Callable[..., Any]
                  ) -> ProcessPoolExecutor:
    """A ``ProcessPoolExecutor`` with ``workers`` processes: the warm
    pool when its size matches, else a new one.

    A new pool forks its workers from this process only while it runs
    a single thread.  A fork copies just the calling thread, so a lock
    another thread holds at that moment (a module import in progress,
    the trace buffer) stays held forever in the child; the service's
    concurrent jobs deadlocked that way.  A multi-threaded dispatcher
    forks from a single-threaded fork server instead, which preloads
    ``worker``'s module once.

    Raises the executor constructor's errors unchanged; callers map
    them to the serial fallback.
    """
    global _WARM_POOL
    with _WARM_LOCK:
        warm, _WARM_POOL = _WARM_POOL, None
    if warm is not None:
        if warm[0] == workers:
            return warm[1]
        warm[1].shutdown(wait=False, cancel_futures=True)
    import multiprocessing
    from concurrent.futures import process

    context = None
    if threading.active_count() > 1:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([worker.__module__])
    return process.ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    )


def _release_pool(executor: ProcessPoolExecutor, workers: int) -> None:
    """Put a healthy pool in the warm slot, shutting down the one it
    displaces."""
    global _WARM_POOL
    with _WARM_LOCK:
        warm, _WARM_POOL = _WARM_POOL, (workers, executor)
    if warm is not None:
        warm[1].shutdown(wait=False, cancel_futures=True)


def shutdown_warm_pool() -> None:
    """Dispose of the cached warm pool (if any)."""
    global _WARM_POOL
    with _WARM_LOCK:
        warm, _WARM_POOL = _WARM_POOL, None
    if warm is not None:
        warm[1].shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_warm_pool)


# ----------------------------------------------------------------------
# Process-pool path
# ----------------------------------------------------------------------
class _SerialFallback(Exception):
    """Internal signal: the pool is unusable; redo the work serially."""


def _picklable(obj: Any) -> bool:
    """Whether ``obj`` can cross a process boundary at all."""
    try:
        pickle.dumps(obj)
    except Exception as exc:
        _log.debug("worker is not picklable (%s); using serial path", exc)
        return False
    return True


def _run_chunk(
    worker: Callable[[Any], Any],
    payloads: List[Any],
    trace_context: Optional[Dict[str, Any]],
    batch: bool,
) -> Tuple[List[Any], List[Dict[str, Any]], Dict[str, float]]:
    """Executed inside a worker process: run one group of payloads.

    ``trace_context`` is the dispatcher's :func:`repro.obs.trace.
    current_context` payload: this worker adopts it (so its spans
    parent under the dispatching chunk span, or are not recorded when
    it is ``None``) and ships the collected span dicts back alongside
    the results.  The third element is the group's usage delta —
    measured in the worker so the dispatcher can attribute CPU seconds
    and peak RSS to the run (and, through the job context, to the job)
    that actually spent them.
    """
    obs_trace.activate(trace_context)
    values, usage = _run_group(worker, payloads, batch)
    return values, obs_trace.collect(), usage


def _run_parallel(
    worker: Callable[[Any], Any],
    groups: List[_Group],
    batch: bool,
    policy: RunPolicy,
    complete: Callable[[_Group, List[Any], Dict[str, float]], None],
    should_cancel: Optional[Callable[[], bool]],
) -> None:
    try:
        executor = _acquire_pool(policy.worker_count, worker)
    except (OSError, NotImplementedError, ValueError):
        raise _SerialFallback() from None
    from concurrent.futures.process import BrokenProcessPool

    in_flight: Dict[Any, Tuple[int, Optional[float], Any]] = {}
    workers_stuck = False
    clean_exit = False

    def submit(index: int) -> None:
        group = groups[index]
        # The chunk span measures dispatch-to-result latency from the
        # dispatcher's side; its id is shipped to the worker so the
        # worker's job spans parent under it in the merged trace.
        chunk_span = obs_trace.begin(
            "runtime.chunk", chunk=index, jobs=len(group.members)
        )
        context = obs_trace.current_context()
        if context is not None:
            context = dict(context, parent=chunk_span.span_id)
        try:
            future = executor.submit(
                _run_chunk, worker, group.payloads(), context, batch,
            )
        except BrokenProcessPool as exc:
            # A worker died before this dispatch (mid-run, or while
            # the pool sat warm): fail the chunk through the result
            # loop, which replaces a broken pool.
            future = Future()
            future.set_exception(exc)
        _count("chunks_dispatched")
        deadline = (
            time.monotonic() + policy.timeout * len(group.members)
            if policy.timeout is not None
            else None
        )
        in_flight[future] = (index, deadline, chunk_span)

    def fail(index: int, cause: BaseException) -> None:
        error = groups[index].fail(cause, policy.retries)
        if error is not None:
            raise error from None
        submit(index)

    try:
        for index in range(len(groups)):
            submit(index)
        while in_flight:
            if should_cancel is not None and should_cancel():
                # Workers may be mid-chunk in user code: cancel what is
                # still queued and let the finally block terminate the
                # processes (the pool is never reused after a cancel).
                for future in list(in_flight):
                    future.cancel()
                for _ci, _dl, victim_span in in_flight.values():
                    victim_span.set(error="JobCancelled").finish()
                in_flight.clear()
                workers_stuck = True
                raise JobCancelled("run cancelled by caller")
            finished, _ = wait(
                list(in_flight), timeout=_WAIT_SLICE,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            if not finished:
                for future, (ci, deadline, chunk_span) in list(
                    in_flight.items()
                ):
                    if deadline is not None and now > deadline:
                        workers_stuck = True
                        future.cancel()
                        del in_flight[future]
                        chunk_span.set(error="TimeoutError").finish()
                        fail(ci, TimeoutError(
                            f"chunk exceeded {policy.timeout:g}s/job budget"
                        ))
                continue
            for future in finished:
                if future not in in_flight:
                    # Already handled: cancelled by a timeout sweep or
                    # re-queued when a broken pool was replaced.
                    continue
                ci, _deadline, chunk_span = in_flight.pop(future)
                try:
                    values, worker_spans, usage = future.result(timeout=0)
                except MnsimError:
                    chunk_span.set(error="MnsimError").finish()
                    raise
                except pickle.PicklingError:
                    # The worker/payload cannot cross the process
                    # boundary at all; no retry will change that.  Let
                    # the feeder thread finish erroring the remaining
                    # queued items before shutdown — shutting down while
                    # it is mid-error wedges the pool's management
                    # thread and the interpreter then hangs at exit.
                    wait(list(in_flight), timeout=5.0)
                    raise _SerialFallback() from None
                except (AttributeError, TypeError) as exc:
                    # Local functions/lambdas surface as AttributeError
                    # ("Can't pickle local object ..."); same remedy.
                    if "pickle" in str(exc).lower():
                        wait(list(in_flight), timeout=5.0)
                        raise _SerialFallback() from None
                    chunk_span.set(error=type(exc).__name__).finish()
                    fail(ci, exc)
                except BrokenProcessPool as exc:
                    # A worker died (crash / kill).  Every other
                    # in-flight future is collateral damage: resubmit
                    # them on a fresh pool without charging an attempt,
                    # and charge only the chunk that surfaced the break.
                    chunk_span.set(error="BrokenProcessPool").finish()
                    _log.warning(
                        "worker pool broke (%s); resubmitting %d chunk(s) "
                        "on a fresh pool", exc, len(in_flight),
                    )
                    victims = []
                    for vci, _dl, victim_span in in_flight.values():
                        victim_span.set(resubmitted=True).finish()
                        victims.append(vci)
                    in_flight.clear()
                    _shutdown_pool(executor, kill=True)
                    try:
                        executor = _acquire_pool(policy.worker_count, worker)
                    except (OSError, NotImplementedError, ValueError):
                        raise _SerialFallback() from None
                    for vci in victims:
                        submit(vci)
                    fail(ci, exc)
                except Exception as exc:
                    _log.warning(
                        "chunk %d (%d job(s)) failed with %s: %s; "
                        "retrying if attempts remain", ci,
                        len(groups[ci].members), type(exc).__name__, exc,
                    )
                    chunk_span.set(error=type(exc).__name__).finish()
                    fail(ci, exc)
                else:
                    chunk_span.finish()
                    if worker_spans:
                        obs_trace.absorb(worker_spans)
                    complete(groups[ci], values, usage)
        clean_exit = True
    finally:
        if clean_exit and not workers_stuck:
            # Healthy pool after a successful run: keep it warm for the
            # next sweep (process start-up dominates short runs).
            _release_pool(executor, policy.worker_count)
        else:
            _shutdown_pool(executor, kill=workers_stuck)


def _shutdown_pool(executor: ProcessPoolExecutor, *, kill: bool) -> None:
    """Shut a pool down without waiting.

    With ``kill=True`` the worker processes are terminated first —
    needed when a chunk blew its timeout and a worker may be stuck in
    user code forever.  The process list must be snapshotted *before*
    ``shutdown()``, which drops the executor's reference to it.

    Teardown stays best-effort (a worker that is already gone is fine),
    but failures are no longer invisible: each one is logged and counted
    on the ``repro_worker_teardown_failures_total`` metric so operators
    can tell a leaky host from a healthy one.
    """
    processes = (
        list((getattr(executor, "_processes", None) or {}).values())
        if kill
        else []
    )
    steps: List[Callable[[], Any]] = [p.terminate for p in processes]
    steps.append(
        lambda: executor.shutdown(wait=False, cancel_futures=True)
    )
    for step in steps:
        try:
            step()
        except Exception as exc:  # pragma: no cover - best effort only
            _log.warning("pool teardown step %r failed: %s", step, exc)
            obs_metrics.counter(
                "repro_worker_teardown_failures_total",
                "Worker processes that could not be terminated on teardown",
            ).inc()
