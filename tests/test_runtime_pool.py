"""The job executor: ordering, parallel equivalence, faults, fallback.

Worker functions live at module level because the process-pool path
pickles them; the deliberately-unpicklable case uses a lambda.
"""

import os
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, JobExecutionError, MappingError
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import RunMetrics
from repro.runtime.pool import RunPolicy, run_jobs


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

    def test_retry_counts_in_metrics(self, tmp_path):
        marker = tmp_path / "marker"
        metrics = RunMetrics()
        out = run_jobs(
            _flaky, _specs([str(marker)]),
            policy=RunPolicy(retries=2), metrics=metrics,
        )
        assert out == ["recovered"]
        assert metrics.counters["worker_failures"] == 1
        assert metrics.counters["retries"] == 1


class TestParallel:
    def test_matches_serial_exactly(self):
        payloads = list(range(23))
        serial = run_jobs(_square, _specs(payloads))
        parallel = run_jobs(
            _square, _specs(payloads),
            policy=RunPolicy(jobs=3, chunk_size=4),
        )
        assert parallel == serial

    def test_mode_recorded(self):
        metrics = RunMetrics()
        run_jobs(_square, _specs(list(range(8))),
                 policy=RunPolicy(jobs=2), metrics=metrics)
        assert metrics.mode == "process"
        assert metrics.workers == 2

    def test_unpicklable_worker_falls_back_to_serial(self):
        metrics = RunMetrics()
        out = run_jobs(
            lambda x: x + 1, _specs([1, 2, 3]),
            policy=RunPolicy(jobs=2), metrics=metrics,
        )
        assert out == [2, 3, 4]
        assert metrics.mode == "serial"

    def test_domain_error_propagates_unwrapped(self):
        with pytest.raises(MappingError):
            run_jobs(_fail_domain, _specs([1, 2, 3, 4]),
                     policy=RunPolicy(jobs=2, chunk_size=1))


class TestFaultInjection:
    """Acceptance: killed/failed workers retry, then fail structured."""

    def test_killed_worker_retries_then_structured_error(self):
        metrics = RunMetrics()
        start = time.perf_counter()
        with pytest.raises(JobExecutionError) as info:
            run_jobs(
                _die, _specs([1, 2]),
                policy=RunPolicy(jobs=2, chunk_size=1, retries=1),
                metrics=metrics,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60  # never a hang
        assert "attempt(s)" in str(info.value)
        assert metrics.counters["worker_failures"] >= 1
        assert metrics.counters["retries"] >= 1

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
    def test_second_run_never_executes(self, tmp_path):
        counter = tmp_path / "calls"
        cache = ResultCache(tmp_path / "cache")
        specs = [
            JobSpec(kind="test", payload=str(counter), key=f"k{i}")
            for i in range(4)
        ]
        first = run_jobs(_count_calls, specs, cache=cache)
        assert counter.read_text() == "x" * 4
        metrics = RunMetrics()
        second = run_jobs(_count_calls, specs, cache=cache, metrics=metrics)
        assert second == first == ["ran"] * 4
        assert counter.read_text() == "x" * 4  # untouched
        assert metrics.counters["cache_hits"] == 4
        assert "execute" not in metrics.stages

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
        batched = run_jobs(_square, _specs(payloads),
                           batch_worker=_square_batch)
        assert batched == pointwise

    def test_parallel_batched_matches_serial(self):
        payloads = list(range(23))
        serial = run_jobs(_square, _specs(payloads))
        batched = run_jobs(
            _square, _specs(payloads),
            policy=RunPolicy(jobs=3, chunk_size=4),
            batch_worker=_square_batch,
        )
        assert batched == serial

    def test_batched_jobs_counted_in_metrics(self):
        metrics = RunMetrics()
        run_jobs(_square, _specs(list(range(6))),
                 batch_worker=_square_batch, metrics=metrics)
        assert metrics.counters["batched_jobs"] == 6

    def test_length_contract_enforced(self):
        with pytest.raises(JobExecutionError) as info:
            run_jobs(_square, _specs([1, 2, 3]),
                     policy=RunPolicy(retries=0),
                     batch_worker=_short_batch)
        assert "batch worker" in str(info.value)

    def test_domain_error_propagates_unwrapped(self):
        with pytest.raises(MappingError):
            run_jobs(_square, _specs([1, 2, 3]),
                     policy=RunPolicy(retries=2),
                     batch_worker=_domain_error_batch)

    def test_flaky_batch_group_retries_whole(self, tmp_path):
        marker = tmp_path / "marker"
        metrics = RunMetrics()
        out = run_jobs(
            _flaky, _specs([str(marker)] * 3),
            policy=RunPolicy(retries=2),
            batch_worker=_flaky_batch, metrics=metrics,
        )
        assert out == ["recovered"] * 3
        assert metrics.counters["retries"] == 1

    def test_cache_hits_skip_batch_worker(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = _specs([1, 2, 3], keyed=True)
        first = run_jobs(_square, specs, cache=cache,
                         batch_worker=_square_batch)
        # Second run replays from cache; the poison worker proves no
        # batch (or point-wise) execution happens at all.
        second = run_jobs(_square, specs, cache=cache,
                          batch_worker=_poison_batch)
        assert second == first == [1, 4, 9]

    def test_unpicklable_batch_worker_falls_back_to_serial(self):
        metrics = RunMetrics()
        out = run_jobs(
            _square, _specs([1, 2, 3]),
            policy=RunPolicy(jobs=2),
            batch_worker=lambda ps: [p * p for p in ps],
            metrics=metrics,
        )
        assert out == [1, 4, 9]
        assert metrics.mode == "serial"
