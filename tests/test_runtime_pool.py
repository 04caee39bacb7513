"""The job executor: ordering, parallel equivalence, faults, fallback.

Worker functions live at module level because the process-pool path
pickles them; the deliberately-unpicklable case uses a lambda.
"""

import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.runtime.pool as pool_mod
from repro.errors import (
    ConfigError,
    JobCancelled,
    JobExecutionError,
    MappingError,
)
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec
from repro.runtime.pool import RunPolicy, run_jobs, shutdown_warm_pool


def _specs(payloads, keyed=False):
    return [
        JobSpec(kind="test", payload=p, key=f"key-{p}" if keyed else None)
        for p in payloads
    ]


def _square(x):
    return x * x


def _fail_always(x):
    raise ValueError(f"boom on {x}")


def _fail_domain(x):
    raise MappingError("layer does not fit")


def _die(x):
    os._exit(13)


def _sleep(x):
    time.sleep(3.0)
    return x


def _flaky(path_str):
    """Fails on the first attempt, succeeds once the marker exists."""
    marker = Path(path_str)
    if not marker.exists():
        marker.touch()
        raise RuntimeError("transient failure")
    return "recovered"


def _count_calls(path_str):
    """Appends one byte per invocation so tests can count executions."""
    with open(path_str, "a", encoding="utf-8") as handle:
        handle.write("x")
    return "ran"


def _pid(x):
    """Reports which process ran the job (long enough to spread jobs
    over every worker)."""
    time.sleep(0.02)
    return os.getpid()


def _square_batch(payloads):
    """Vectorized counterpart of ``_square`` (the bit-identity contract)."""
    return [p * p for p in payloads]


def _short_batch(payloads):
    """Violates the one-result-per-payload contract."""
    return [p * p for p in payloads][:-1]


def _domain_error_batch(payloads):
    raise MappingError("layer does not fit")


def _poison_batch(payloads):
    raise AssertionError("batch worker must not run")


def _flaky_batch(payloads):
    """Whole-group failure on the first attempt, then recovers."""
    marker = Path(payloads[0])
    if not marker.exists():
        marker.touch()
        raise RuntimeError("transient batch failure")
    return ["recovered"] * len(payloads)


class TestPolicy:
    def test_defaults_are_serial(self):
        assert RunPolicy().worker_count == 1

    def test_zero_jobs_means_all_cores(self):
        assert RunPolicy(jobs=0).worker_count == (os.cpu_count() or 1)

    @pytest.mark.parametrize("kwargs", [
        {"jobs": -1}, {"chunk_size": 0}, {"timeout": 0}, {"retries": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RunPolicy(**kwargs)


class TestSerial:
    def test_results_in_input_order(self):
        assert run_jobs(_square, _specs([3, 1, 2])) == [9, 1, 4]

    def test_empty_job_list(self):
        assert run_jobs(_square, []) == []

    def test_domain_error_propagates_unwrapped(self):
        with pytest.raises(MappingError):
            run_jobs(_fail_domain, _specs([1]))

    def test_infra_error_becomes_structured(self):
        with pytest.raises(JobExecutionError) as info:
            run_jobs(_fail_always, _specs([1]), policy=RunPolicy(retries=1))
        message = str(info.value)
        assert "2 attempt(s)" in message
        assert "boom" in message
        assert "Traceback" not in message

    def test_retry_counts_in_metrics(self, tmp_path, run_scope):
        marker = tmp_path / "marker"
        with run_scope:
            out = run_jobs(
                _flaky, _specs([str(marker)]), policy=RunPolicy(retries=2),
            )
        assert out == ["recovered"]
        counters = run_scope.summary()["counters"]
        assert counters["worker_failures"] == 1
        assert counters["retries"] == 1


class TestParallel:
    def test_matches_serial_exactly(self):
        payloads = list(range(23))
        serial = run_jobs(_square, _specs(payloads))
        parallel = run_jobs(
            _square, _specs(payloads),
            policy=RunPolicy(jobs=3, chunk_size=4),
        )
        assert parallel == serial

    def test_mode_recorded(self, run_scope):
        with run_scope:
            run_jobs(_square, _specs(list(range(8))),
                     policy=RunPolicy(jobs=2))
        summary = run_scope.summary()
        assert summary["mode"] == "process"
        assert summary["workers"] == 2

    def test_unpicklable_worker_falls_back_to_serial(self, run_scope):
        with run_scope:
            out = run_jobs(
                lambda x: x + 1, _specs([1, 2, 3]),
                policy=RunPolicy(jobs=2),
            )
        assert out == [2, 3, 4]
        assert run_scope.summary()["mode"] == "serial"

    def test_domain_error_propagates_unwrapped(self):
        with pytest.raises(MappingError):
            run_jobs(_fail_domain, _specs([1, 2, 3, 4]),
                     policy=RunPolicy(jobs=2, chunk_size=1))


class TestFaultInjection:
    """Acceptance: killed/failed workers retry, then fail structured."""

    def test_killed_worker_retries_then_structured_error(self, run_scope):
        start = time.perf_counter()
        with pytest.raises(JobExecutionError) as info, run_scope:
            run_jobs(
                _die, _specs([1, 2]),
                policy=RunPolicy(jobs=2, chunk_size=1, retries=1),
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60  # never a hang
        assert "attempt(s)" in str(info.value)
        counters = run_scope.summary()["counters"]
        assert counters["worker_failures"] >= 1
        assert counters["retries"] >= 1

    def test_timeout_trips_and_surfaces(self):
        start = time.perf_counter()
        with pytest.raises(JobExecutionError) as info:
            run_jobs(
                _sleep, _specs([1, 2]),
                policy=RunPolicy(jobs=2, chunk_size=1, timeout=0.2,
                                 retries=0),
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 2.5  # the 3 s sleeps were abandoned, not awaited
        assert "TimeoutError" in str(info.value)

    def test_flaky_chunk_recovers_in_parallel(self, tmp_path):
        marker = tmp_path / "marker"
        out = run_jobs(
            _flaky, _specs([str(marker)] * 2),
            policy=RunPolicy(jobs=2, chunk_size=2, retries=2),
        )
        assert out == ["recovered", "recovered"]


class TestCacheIntegration:
    def test_second_run_never_executes(self, tmp_path, run_scope):
        counter = tmp_path / "calls"
        cache = ResultCache(tmp_path / "cache")
        specs = [
            JobSpec(kind="test", payload=str(counter), key=f"k{i}")
            for i in range(4)
        ]
        first = run_jobs(_count_calls, specs, cache=cache)
        assert counter.read_text() == "x" * 4
        with run_scope:
            second = run_jobs(_count_calls, specs, cache=cache)
        assert second == first == ["ran"] * 4
        assert counter.read_text() == "x" * 4  # untouched
        summary = run_scope.summary()
        assert summary["counters"]["cache_hits"] == 4
        assert "execute" not in summary["stages"]

    def test_unkeyed_jobs_bypass_cache(self, tmp_path):
        counter = tmp_path / "calls"
        cache = ResultCache(tmp_path / "cache")
        specs = _specs([str(counter)] * 2)  # key=None
        run_jobs(_count_calls, specs, cache=cache)
        run_jobs(_count_calls, specs, cache=cache)
        assert counter.read_text() == "x" * 4
        assert cache.stats().entries == 0


class TestBatchWorker:
    """Vectorized chunk execution (DESIGN.md S22): same results, same
    error/retry/cache semantics, just fewer worker calls."""

    def test_serial_batched_matches_pointwise(self):
        payloads = list(range(17))
        pointwise = run_jobs(_square, _specs(payloads))
        batched = run_jobs(_square_batch, _specs(payloads), batch=True)
        assert batched == pointwise

    def test_parallel_batched_matches_serial(self):
        payloads = list(range(23))
        serial = run_jobs(_square, _specs(payloads))
        batched = run_jobs(
            _square_batch, _specs(payloads),
            policy=RunPolicy(jobs=3, chunk_size=4), batch=True,
        )
        assert batched == serial

    def test_batched_jobs_counted_in_metrics(self, run_scope):
        with run_scope:
            run_jobs(_square_batch, _specs(list(range(6))), batch=True)
        assert run_scope.summary()["counters"]["batched_jobs"] == 6

    def test_length_contract_enforced(self):
        with pytest.raises(JobExecutionError) as info:
            run_jobs(_short_batch, _specs([1, 2, 3]),
                     policy=RunPolicy(retries=0), batch=True)
        assert "batch worker" in str(info.value)

    def test_domain_error_propagates_unwrapped(self):
        with pytest.raises(MappingError):
            run_jobs(_domain_error_batch, _specs([1, 2, 3]),
                     policy=RunPolicy(retries=2), batch=True)

    def test_flaky_batch_group_retries_whole(self, tmp_path, run_scope):
        marker = tmp_path / "marker"
        with run_scope:
            out = run_jobs(
                _flaky_batch, _specs([str(marker)] * 3),
                policy=RunPolicy(retries=2), batch=True,
            )
        assert out == ["recovered"] * 3
        assert run_scope.summary()["counters"]["retries"] == 1

    def test_cache_hits_skip_batch_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = _specs([1, 2, 3], keyed=True)
        first = run_jobs(_square_batch, specs, cache=cache, batch=True)
        # Second run replays from cache; the poison worker proves no
        # batch execution happens at all.
        second = run_jobs(_poison_batch, specs, cache=cache, batch=True)
        assert second == first == [1, 4, 9]

    def test_unpicklable_batch_worker_falls_back_to_serial(self, run_scope):
        with run_scope:
            out = run_jobs(
                lambda ps: [p * p for p in ps], _specs([1, 2, 3]),
                policy=RunPolicy(jobs=2), batch=True,
            )
        assert out == [1, 4, 9]
        assert run_scope.summary()["mode"] == "serial"


@pytest.fixture
def empty_slot():
    """Start and end with no warm pool."""
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


def _warm_slot():
    """The warm pool's executor, or None."""
    warm = pool_mod._WARM_POOL
    return warm[1] if warm is not None else None


class _FakePool:
    def __init__(self):
        self.shut_down = False

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestWarmPool:
    """The warm pool is reused by healthy runs, never after a bad one."""

    def test_second_run_reuses_worker_pids(self, empty_slot):
        policy = RunPolicy(jobs=2, chunk_size=1)
        first = set(run_jobs(_pid, _specs(list(range(6))), policy=policy))
        second = set(run_jobs(_pid, _specs(list(range(6))), policy=policy))
        assert os.getpid() not in first
        assert second <= first

    def test_shutdown_empties_the_slot(self, empty_slot):
        run_jobs(_square, _specs([1, 2]), policy=RunPolicy(jobs=2))
        warm = _warm_slot()
        assert warm is not None
        shutdown_warm_pool()
        assert _warm_slot() is None

    def test_timed_out_pool_is_not_kept(self, empty_slot):
        run_jobs(_square, _specs([1, 2]), policy=RunPolicy(jobs=2))
        assert _warm_slot() is not None
        with pytest.raises(JobExecutionError):
            run_jobs(
                _sleep, _specs([1, 2]),
                policy=RunPolicy(jobs=2, chunk_size=1, timeout=0.2,
                                 retries=0),
            )
        assert _warm_slot() is None

    def test_cancelled_pool_is_not_kept(self, empty_slot):
        run_jobs(_square, _specs([1, 2]), policy=RunPolicy(jobs=2))
        assert _warm_slot() is not None
        polls = []

        def cancel_after_dispatch():
            # The first poll is run_jobs' own start check; the second
            # comes after the chunks went out to the pool.
            polls.append(1)
            return len(polls) > 1

        with pytest.raises(JobCancelled):
            run_jobs(_sleep, _specs([1, 2]), policy=RunPolicy(jobs=2),
                     should_cancel=cancel_after_dispatch)
        assert _warm_slot() is None

    def test_broken_pool_is_not_kept(self, empty_slot):
        run_jobs(_square, _specs([1, 2]), policy=RunPolicy(jobs=2))
        assert _warm_slot() is not None
        with pytest.raises(JobExecutionError):
            run_jobs(_die, _specs([1, 2]),
                     policy=RunPolicy(jobs=2, chunk_size=1, retries=0))
        assert _warm_slot() is None

    def test_pool_that_broke_while_warm_is_replaced(self, empty_slot):
        """A worker that dies between runs breaks the warm pool before
        the next run's first dispatch, as one that dies while a run is
        still dispatching does.  The run replaces the pool, as it does
        when a chunk reports the break, instead of raising
        ``BrokenProcessPool``."""
        run_jobs(_square, _specs([1, 2]), policy=RunPolicy(jobs=2))
        warm = _warm_slot()
        os.kill(next(iter(warm._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 10
        while not warm._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert warm._broken
        out = run_jobs(_square, _specs([1, 2, 3]), policy=RunPolicy(jobs=2))
        assert out == [1, 4, 9]
        assert _warm_slot() not in (None, warm)

    def test_concurrent_releases_keep_one_pool(self, empty_slot,
                                               monkeypatch):
        """Two runs returning their pools at once: one takes the slot,
        the other is shut down, none leaks.  ``shutdown_warm_pool`` is
        made to pause until both threads reach it, which forces the
        interleaving an unlocked check-then-set would lose."""
        barrier = threading.Barrier(2, timeout=1.0)
        original = pool_mod.shutdown_warm_pool

        def paused_shutdown():
            original()
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass

        monkeypatch.setattr(pool_mod, "shutdown_warm_pool", paused_shutdown)
        pools = [_FakePool(), _FakePool()]
        threads = [
            threading.Thread(target=pool_mod._release_pool, args=(p, 2))
            for p in pools
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        kept = _warm_slot()
        assert kept in pools
        assert not kept.shut_down
        assert [p.shut_down for p in pools if p is not kept] == [True]

    def test_release_stress_leaves_one_live_pool(self, empty_slot):
        """Many threads returning pools with a tiny switch interval:
        every pool but the one in the slot ends up shut down."""
        pools = [[_FakePool() for _ in range(2000)] for _ in range(8)]

        def release_all(batch):
            for fake in batch:
                pool_mod._release_pool(fake, 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=release_all, args=(batch,))
                for batch in pools
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        live = [fake for batch in pools for fake in batch
                if not fake.shut_down]
        assert live == [_warm_slot()]
