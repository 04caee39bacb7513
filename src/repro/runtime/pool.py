"""Parallel job execution with retry, timeout, and serial fallback.

:func:`run_jobs` is the single entry point every sweep in the repo uses.
It takes a picklable top-level ``worker`` function and a list of
:class:`~repro.runtime.jobs.JobSpec` and returns the worker results in
input order.  Between the caller and the worker it layers:

1. **Cache short-circuit** — specs whose key is already in the supplied
   :class:`~repro.runtime.cache.ResultCache` are never executed.
2. **Chunked process fan-out** — misses are grouped into chunks and
   dispatched over a ``ProcessPoolExecutor`` with ``policy.jobs``
   workers.  Chunking amortises pickling overhead for millisecond jobs.
3. **Bounded retry** — a chunk that crashes (worker exception, killed
   process) or exceeds its timeout is resubmitted up to
   ``policy.retries`` times, then surfaces as a structured
   :class:`~repro.errors.JobExecutionError` (summarised, no child
   traceback) — never a hang or a silent partial result.
4. **Serial fallback** — pool start-up failures and unpicklable
   workers (e.g. test lambdas) automatically fall back to an
   in-process serial loop with identical results and error semantics.
5. **Warm pool reuse** — a healthy ``ProcessPoolExecutor`` is kept
   alive between :func:`run_jobs` calls (keyed by worker count), so
   short sweeps don't pay process start-up on every invocation.  Pools
   that broke or may hold stuck workers are killed and never reused;
   :func:`warm_pool` pre-starts the pool for latency-sensitive callers
   and :func:`shutdown_warm_pool` releases it explicitly.

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
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from repro.errors import (
    ConfigError,
    JobCancelled,
    JobExecutionError,
    MnsimError,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import RunMetrics

if TYPE_CHECKING:
    # concurrent.futures.process loads multiprocessing; a serial run
    # never starts a pool, so it imports neither (see _acquire_pool).
    # The cache module loads with the first cache a caller opens.
    from concurrent.futures import ProcessPoolExecutor

    from repro.runtime.cache import ResultCache

_log = logging.getLogger(__name__)

#: Seconds between deadline sweeps while waiting on in-flight chunks.
_WAIT_SLICE = 0.05

#: Below this many jobs per worker the auto-chunker switches from four
#: chunks per worker (fine-grained load balancing for long sweeps) to
#: two (fewer dispatch round-trips for short ones, where per-chunk IPC
#: overhead dominates over imbalance).
_SMALL_SWEEP_PER_WORKER = 64

#: Jobs per batch-worker group on the serial path (when the policy's
#: ``chunk_size`` doesn't pin one).  Large enough to amortise batched
#: assembly, small enough to keep progress/cancellation responsive and
#: the stacked value arrays modest.
_SERIAL_BATCH_SIZE = 64


@dataclass(frozen=True)
class RunPolicy:
    """How a job list is executed.

    Attributes
    ----------
    jobs:
        Worker process count; ``1`` (the default) runs in-process
        serially, ``0`` means "all available cores".
    chunk_size:
        Jobs per dispatch unit; ``None`` auto-sizes to roughly four
        chunks per worker.
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

    jobs: int = 1
    chunk_size: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1
    min_sweep_for_parallel: int = 2

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigError("jobs must be >= 0 (0 = all cores)")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1 when given")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be positive when given")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if self.min_sweep_for_parallel < 2:
            raise ConfigError("min_sweep_for_parallel must be >= 2")

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
    metrics: Optional[RunMetrics] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    batch_worker: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> List[Any]:
    """Execute ``worker(spec.payload)`` for every spec, in input order.

    Parameters
    ----------
    worker:
        Top-level picklable function of one argument (the payload).
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
    metrics:
        Optional :class:`RunMetrics` to fill in; pass your own to
        inspect stage times, cache effectiveness and failures.
    progress:
        Optional ``progress(done, total)`` callback, invoked from the
        dispatching thread after the cache stage and as jobs/chunks
        complete — the service layer's progress stream rides on it.
        It must be cheap and must not raise.
    should_cancel:
        Optional predicate polled between jobs (serial) / between chunk
        completions (parallel).  When it turns true the run raises
        :class:`~repro.errors.JobCancelled`; in-flight chunk results
        are discarded and pending jobs never execute.
    batch_worker:
        Optional vectorized sibling of ``worker``: a top-level
        picklable function mapping a *list* of payloads to the list of
        their results, in order, **bit-identical** to calling
        ``worker`` on each.  When given, each chunk / serial group
        executes as one ``batch_worker`` call, so same-shape jobs can
        share assembly and amortise per-call overhead.  Caching,
        retries and cancellation semantics are unchanged — a cache hit
        still skips the job, and results are cached per spec key.
    """
    policy = policy or RunPolicy()
    metrics = metrics if metrics is not None else RunMetrics()
    specs = list(specs)
    with obs_trace.span(
        "runtime.run_jobs", jobs=len(specs), workers=policy.worker_count,
        kind=specs[0].kind if specs else "",
    ):
        return _run_jobs_traced(
            worker, specs, policy, cache, encode, decode, metrics,
            progress, should_cancel, batch_worker,
        )


def _check_cancel(should_cancel: Optional[Callable[[], bool]]) -> None:
    if should_cancel is not None and should_cancel():
        raise JobCancelled("run cancelled by caller")


def _run_jobs_traced(
    worker: Callable[[Any], Any],
    specs: List[JobSpec],
    policy: RunPolicy,
    cache: Optional[ResultCache],
    encode: Optional[Callable[[Any], Any]],
    decode: Optional[Callable[[Any], Any]],
    metrics: RunMetrics,
    progress: Optional[Callable[[int, int], None]],
    should_cancel: Optional[Callable[[], bool]],
    batch_worker: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> List[Any]:
    metrics.workers = policy.worker_count
    metrics.count("jobs_total", len(specs))
    _check_cancel(should_cancel)

    results: List[Any] = [None] * len(specs)
    done = [False] * len(specs)

    # Stage 1: cache short-circuit ------------------------------------
    if cache is not None:
        with metrics.stage("cache-lookup"):
            keyed = [s.key for s in specs if s.key is not None]
            found = cache.get_many(keyed) if keyed else {}
            for i, spec in enumerate(specs):
                if spec.key is not None and spec.key in found:
                    value = found[spec.key]
                    results[i] = decode(value) if decode else value
                    done[i] = True
        metrics.count("cache_hits", sum(done))
        metrics.count("cache_misses", len(specs) - sum(done))
    if progress is not None:
        progress(sum(done), len(specs))

    pending = [(i, spec) for i, spec in enumerate(specs) if not done[i]]

    # Stage 2: execute -------------------------------------------------
    if pending:
        completed = len(specs) - len(pending)

        def advance(newly_done: int) -> None:
            nonlocal completed
            completed += newly_done
            if progress is not None:
                progress(completed, len(specs))

        with metrics.stage("execute"):
            # Processes are used whenever more than one worker is
            # requested — even on a single core they buy crash/timeout
            # isolation; genuine pool failures fall back below.  An
            # unpicklable worker (test lambda, closure) can never cross
            # the process boundary, so it is routed straight to the
            # serial path without ever creating a pool.  Sweeps below
            # the policy's parallelism threshold stay serial too: for a
            # handful of jobs the dispatch round-trips dominate.
            use_processes = (
                policy.worker_count > 1
                and len(pending) > 1
                and len(pending) >= policy.min_sweep_for_parallel
                and _picklable(worker)
                and (batch_worker is None or _picklable(batch_worker))
            )
            if use_processes:
                try:
                    _run_parallel(worker, pending, policy, metrics, results,
                                  done, advance, should_cancel, batch_worker)
                    metrics.mode = "process"
                except _SerialFallback:
                    pending = [
                        (i, spec) for i, spec in pending if not done[i]
                    ]
                    _run_serial(worker, pending, policy, metrics, results,
                                advance, should_cancel, batch_worker)
                    metrics.mode = "serial"
            else:
                _run_serial(worker, pending, policy, metrics, results,
                            advance, should_cancel, batch_worker)
                metrics.mode = "serial"
        metrics.count("jobs_executed", len(pending))

    # Stage 3: cache store ---------------------------------------------
    if cache is not None and pending:
        with metrics.stage("cache-store"):
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


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def _run_batch(
    batch_worker: Callable[[List[Any]], List[Any]],
    payloads: List[Any],
) -> List[Any]:
    """Invoke a batch worker, enforcing its one-result-per-job contract."""
    values = list(batch_worker(payloads))
    if len(values) != len(payloads):
        raise JobExecutionError(
            f"batch worker returned {len(values)} result(s) for "
            f"{len(payloads)} job(s)"
        )
    return values


def _run_serial(
    worker: Callable[[Any], Any],
    pending: Sequence[Tuple[int, JobSpec]],
    policy: RunPolicy,
    metrics: RunMetrics,
    results: List[Any],
    advance: Optional[Callable[[int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    batch_worker: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> None:
    if batch_worker is not None:
        _run_serial_batched(batch_worker, pending, policy, metrics,
                            results, advance, should_cancel)
        return
    for index, spec in pending:
        _check_cancel(should_cancel)
        attempts = 0
        before = _usage_snapshot()
        while True:
            try:
                with obs_trace.span("runtime.job", kind=spec.kind):
                    results[index] = worker(spec.payload)
                break
            except MnsimError:
                # Deterministic domain error: retrying cannot help and
                # callers expect the original exception type.
                raise
            except Exception as exc:
                attempts += 1
                metrics.count("worker_failures")
                if attempts > policy.retries:
                    raise _job_error(spec, attempts, exc) from None
                metrics.count("retries")
        _account_usage(metrics, _usage_since(before))
        if advance is not None:
            advance(1)


def _run_serial_batched(
    batch_worker: Callable[[List[Any]], List[Any]],
    pending: Sequence[Tuple[int, JobSpec]],
    policy: RunPolicy,
    metrics: RunMetrics,
    results: List[Any],
    advance: Optional[Callable[[int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> None:
    """Serial path with vectorized groups instead of a per-job loop.

    Groups are deterministic (input order, fixed size), so batch
    workers whose results are bit-identical to the per-job worker make
    this path indistinguishable from :func:`_run_serial` except in
    wall-clock.  Cancellation is polled between groups; a group that
    fails with a non-domain error is retried whole.
    """
    group_size = policy.chunk_size or _SERIAL_BATCH_SIZE
    for start in range(0, len(pending), group_size):
        group = list(pending[start:start + group_size])
        _check_cancel(should_cancel)
        attempts = 0
        before = _usage_snapshot()
        while True:
            try:
                with obs_trace.span(
                    "runtime.batch", kind=group[0][1].kind,
                    jobs=len(group),
                ):
                    values = _run_batch(
                        batch_worker, [spec.payload for _, spec in group]
                    )
                break
            except MnsimError:
                raise
            except Exception as exc:
                attempts += 1
                metrics.count("worker_failures")
                if attempts > policy.retries:
                    raise _job_error(
                        group[0][1], attempts, exc,
                        jobs_in_chunk=len(group),
                    ) from None
                metrics.count("retries")
        for (index, _spec), value in zip(group, values):
            results[index] = value
        metrics.count("batched_jobs", len(group))
        _account_usage(metrics, _usage_since(before))
        if advance is not None:
            advance(len(group))


# ----------------------------------------------------------------------
# Process-pool path
# ----------------------------------------------------------------------
class _SerialFallback(Exception):
    """Internal signal: the pool is unusable; redo the work serially."""


# ----------------------------------------------------------------------
# Warm-pool management
# ----------------------------------------------------------------------
_WARM_POOL: Optional[ProcessPoolExecutor] = None
_WARM_POOL_WORKERS = 0


def _acquire_pool(workers: int) -> ProcessPoolExecutor:
    """A ``ProcessPoolExecutor`` with ``workers`` processes, reusing the
    cached warm pool when its size matches.

    Raises the executor constructor's errors unchanged; callers map
    them to the serial fallback.
    """
    global _WARM_POOL, _WARM_POOL_WORKERS
    if _WARM_POOL is not None and _WARM_POOL_WORKERS == workers:
        pool, _WARM_POOL = _WARM_POOL, None
        return pool
    shutdown_warm_pool()
    from concurrent.futures import process

    return process.ProcessPoolExecutor(max_workers=workers)


def _release_pool(
    executor: ProcessPoolExecutor, workers: int, *, kill: bool
) -> None:
    """Return a pool after a run: cache it warm, or kill it for good.

    ``kill=True`` (a chunk blew its timeout, or the pool broke) means a
    worker may be wedged in user code forever — terminate the processes
    and never reuse them.
    """
    global _WARM_POOL, _WARM_POOL_WORKERS
    if kill:
        _shutdown_pool(executor, kill=True)
        return
    shutdown_warm_pool()
    _WARM_POOL = executor
    _WARM_POOL_WORKERS = workers


def warm_pool(jobs: int = 0) -> int:
    """Pre-start the shared worker pool for latency-sensitive sweeps.

    Spawns the worker processes immediately (instead of lazily on the
    first dispatch) so a subsequent :func:`run_jobs` call with the same
    worker count pays no start-up cost.  Returns the resolved worker
    count.  A no-op if a matching pool is already warm.
    """
    workers = RunPolicy(jobs=jobs).worker_count
    try:
        pool = _acquire_pool(workers)
        # Touch every worker once so the processes actually exist.
        list(pool.map(_noop, range(workers)))
    except (OSError, NotImplementedError, ValueError) as exc:
        _log.warning("warm pool start-up failed (%s); sweeps will fall "
                     "back to serial execution", exc)
        return workers
    _release_pool(pool, workers, kill=False)
    return workers


def shutdown_warm_pool() -> None:
    """Dispose of the cached warm pool (if any)."""
    global _WARM_POOL, _WARM_POOL_WORKERS
    if _WARM_POOL is not None:
        _WARM_POOL.shutdown(wait=False, cancel_futures=True)
        _WARM_POOL = None
        _WARM_POOL_WORKERS = 0


atexit.register(shutdown_warm_pool)


def _noop(_: Any) -> None:
    """Worker warm-up probe (must be a picklable top-level function)."""
    return None


# ----------------------------------------------------------------------
# Resource accounting (chunk boundaries)
# ----------------------------------------------------------------------
def _usage_snapshot() -> Dict[str, float]:
    """Point-in-time usage of *this* process, for delta accounting.

    Wall/CPU seconds and peak RSS come from ``resource.getrusage``
    (``os.times`` fallback where unavailable, RSS 0 there); the solver
    counters piggy-back so a chunk's fixed-point-iteration and
    batched-vs-pointwise solve deltas ride the same snapshot.  The
    counters only move while observability is enabled — the deltas are
    simply zero in a disabled run.
    """
    wall = time.perf_counter()
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
        "wall": wall,
        "cpu": cpu,
        "rss": rss,
        "fixed_point_iterations": events.total(
            event="fixed_point_iterations"
        ),
        "pointwise_solves": events.total(event="pointwise_solve"),
        "batched_solves": obs_metrics.counter(
            "repro_solver_batched_solves_total"
        ).total(),
    }


def _usage_since(before: Dict[str, float]) -> Dict[str, float]:
    """The usage delta accumulated since ``before`` (same process)."""
    after = _usage_snapshot()
    return {
        "wall_seconds": after["wall"] - before["wall"],
        "cpu_seconds": after["cpu"] - before["cpu"],
        "peak_rss_bytes": after["rss"],
        "fixed_point_iterations": (
            after["fixed_point_iterations"]
            - before["fixed_point_iterations"]
        ),
        "pointwise_solves": (
            after["pointwise_solves"] - before["pointwise_solves"]
        ),
        "batched_solves": (
            after["batched_solves"] - before["batched_solves"]
        ),
    }


def _account_usage(
    metrics: RunMetrics, usage: Optional[Dict[str, float]]
) -> None:
    """Fold one chunk's usage delta into the run's resource totals."""
    if not usage:
        return
    for name, amount in usage.items():
        if name == "peak_rss_bytes":
            metrics.account_peak(name, amount)
        elif amount:
            metrics.account(name, amount)


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
    trace_context: Optional[Dict[str, Any]] = None,
    batch_worker: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> Tuple[
    List[Any], Optional[List[Dict[str, Any]]], Dict[str, float]
]:
    """Executed inside a worker process: run one chunk of payloads.

    With a ``batch_worker`` the whole chunk is one vectorized call
    (wrapped in a single ``runtime.batch`` span); otherwise each
    payload runs through ``worker`` under its own ``runtime.job`` span.

    ``trace_context`` is the dispatcher's :func:`repro.obs.trace.
    current_context` payload: when present, this worker adopts it (so
    its spans parent under the dispatching chunk span) and ships the
    collected span dicts back alongside the results.

    The third element is this chunk's :func:`_usage_since` delta —
    measured in the worker so the dispatcher can attribute CPU seconds
    and peak RSS to the run (and, through the job context, to the job)
    that actually spent them.
    """
    obs_trace.activate(trace_context)
    before = _usage_snapshot()
    if batch_worker is not None:
        if trace_context is None:
            results = _run_batch(batch_worker, payloads)
            return results, None, _usage_since(before)
        with obs_trace.span("runtime.batch", jobs=len(payloads)):
            results = _run_batch(batch_worker, payloads)
        return results, obs_trace.collect(), _usage_since(before)
    if trace_context is None:
        results = [worker(payload) for payload in payloads]
        return results, None, _usage_since(before)
    results = []
    for payload in payloads:
        with obs_trace.span("runtime.job"):
            results.append(worker(payload))
    return results, obs_trace.collect(), _usage_since(before)


def _run_parallel(
    worker: Callable[[Any], Any],
    pending: Sequence[Tuple[int, JobSpec]],
    policy: RunPolicy,
    metrics: RunMetrics,
    results: List[Any],
    done: List[bool],
    advance: Optional[Callable[[int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    batch_worker: Optional[Callable[[List[Any]], List[Any]]] = None,
) -> None:
    small_sweep = len(pending) < policy.worker_count * _SMALL_SWEEP_PER_WORKER
    chunks_per_worker = 2 if small_sweep else 4
    chunk_size = policy.chunk_size or max(
        1, math.ceil(len(pending) / (policy.worker_count * chunks_per_worker))
    )
    chunks: List[List[Tuple[int, JobSpec]]] = [
        list(pending[start:start + chunk_size])
        for start in range(0, len(pending), chunk_size)
    ]
    attempts = [0] * len(chunks)

    try:
        executor = _acquire_pool(policy.worker_count)
    except (OSError, NotImplementedError, ValueError):
        raise _SerialFallback() from None
    from concurrent.futures.process import BrokenProcessPool

    in_flight: Dict[Any, Tuple[int, Optional[float], Any]] = {}
    workers_stuck = False
    clean_exit = False

    def submit(chunk_index: int) -> None:
        chunk = chunks[chunk_index]
        # The chunk span measures dispatch-to-result latency from the
        # dispatcher's side; its id is shipped to the worker so the
        # worker's job spans parent under it in the merged trace.
        chunk_span = obs_trace.begin(
            "runtime.chunk", chunk=chunk_index, jobs=len(chunk)
        )
        context = obs_trace.current_context()
        if context is not None:
            context = dict(context, parent=chunk_span.span_id)
        future = executor.submit(
            _run_chunk, worker, [spec.payload for _, spec in chunk],
            context, batch_worker,
        )
        metrics.count("chunks_dispatched")
        deadline = (
            time.monotonic() + policy.timeout * len(chunk)
            if policy.timeout is not None
            else None
        )
        in_flight[future] = (chunk_index, deadline, chunk_span)

    def fail(chunk_index: int, cause: BaseException) -> None:
        attempts[chunk_index] += 1
        metrics.count("worker_failures")
        if attempts[chunk_index] > policy.retries:
            first_spec = chunks[chunk_index][0][1]
            raise _job_error(
                first_spec, attempts[chunk_index], cause,
                jobs_in_chunk=len(chunks[chunk_index]),
            ) from None
        metrics.count("retries")
        submit(chunk_index)

    try:
        for chunk_index in range(len(chunks)):
            submit(chunk_index)
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
                    chunk_results, worker_spans, chunk_usage = (
                        future.result(timeout=0)
                    )
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
                        executor = _acquire_pool(policy.worker_count)
                    except (OSError, NotImplementedError, ValueError):
                        raise _SerialFallback() from None
                    for vci in victims:
                        submit(vci)
                    fail(ci, exc)
                except Exception as exc:
                    _log.warning(
                        "chunk %d (%d job(s)) failed with %s: %s; "
                        "retrying if attempts remain", ci,
                        len(chunks[ci]), type(exc).__name__, exc,
                    )
                    chunk_span.set(error=type(exc).__name__).finish()
                    fail(ci, exc)
                else:
                    chunk_span.finish()
                    if worker_spans:
                        obs_trace.absorb(worker_spans)
                    _account_usage(metrics, chunk_usage)
                    for (index, _spec), value in zip(
                        chunks[ci], chunk_results
                    ):
                        results[index] = value
                        done[index] = True
                    if batch_worker is not None:
                        metrics.count("batched_jobs", len(chunks[ci]))
                    if advance is not None:
                        advance(len(chunks[ci]))
        clean_exit = True
    finally:
        if clean_exit and not workers_stuck:
            # Healthy pool after a successful run: keep it warm for the
            # next sweep (process start-up dominates short runs).
            _release_pool(executor, policy.worker_count, kill=False)
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
    for process in processes:
        try:
            process.terminate()
        except Exception as exc:  # pragma: no cover - best effort only
            _log.warning(
                "failed to terminate worker pid=%s: %s",
                getattr(process, "pid", "?"), exc,
            )
            obs_metrics.counter(
                "repro_worker_teardown_failures_total",
                "Worker processes that could not be terminated on teardown",
            ).inc()
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception as exc:  # pragma: no cover - best effort only
        _log.warning("pool shutdown failed: %s", exc)
        obs_metrics.counter(
            "repro_worker_teardown_failures_total",
            "Worker processes that could not be terminated on teardown",
        ).inc()


def _job_error(
    spec: JobSpec,
    attempts: int,
    cause: BaseException,
    *,
    jobs_in_chunk: int = 1,
) -> JobExecutionError:
    """Build the summarized (traceback-free) terminal failure."""
    reason = f"{type(cause).__name__}: {cause}".strip().rstrip(":")
    scope = (
        f"a chunk of {jobs_in_chunk} {spec.kind!r} jobs"
        if jobs_in_chunk > 1
        else f"{spec.kind!r} job"
    )
    return JobExecutionError(
        f"{scope} failed after {attempts} attempt(s): {reason}"
    )
