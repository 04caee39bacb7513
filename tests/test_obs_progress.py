"""ProgressTracker ETA estimation and histogram quantile support."""

import pytest

import repro.obs as obs
from repro.obs import trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.progress import ProgressTracker


@pytest.fixture(autouse=True)
def _clean_obs():
    trace.disable()
    obs.REGISTRY.reset()
    yield
    trace.disable()
    obs.REGISTRY.reset()


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestProgressTracker:
    def test_initial_state_has_no_estimate(self):
        tracker = ProgressTracker(total=10, clock=_FakeClock())
        assert tracker.done == 0
        assert tracker.total == 10
        assert tracker.throughput is None
        assert tracker.eta_seconds() is None

    def test_fresh_tracker_starts_from_zero(self):
        clock = _FakeClock()
        used = ProgressTracker(total=10, clock=clock)
        clock.advance(1.0)
        used.update(5, 10)
        assert used.throughput is not None
        fresh = ProgressTracker(total=4, clock=clock)
        assert fresh.done == 0
        assert fresh.total == 4
        assert fresh.throughput is None
        assert fresh.eta_seconds() is None
        assert fresh.elapsed_seconds() == 0.0

    def test_trackers_on_a_shared_clock_start_alike(self):
        clock = _FakeClock()
        first = ProgressTracker(total=7, clock=clock)
        used = ProgressTracker(total=99, clock=clock)
        clock.advance(1.0)
        used.update(3, 99)
        later = ProgressTracker(total=7, clock=clock)
        assert later.snapshot() == {
            "done": 0, "total": 7, "elapsed_seconds": 0.0,
            "throughput": None, "eta_seconds": None,
        }
        assert later.snapshot() == {
            **first.snapshot(), "elapsed_seconds": 0.0,
        }

    def test_eta_finite_after_first_chunk(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=10, clock=clock)
        clock.advance(2.0)
        tracker.update(2, 10)
        eta = tracker.eta_seconds()
        assert tracker.throughput == pytest.approx(1.0)
        assert eta is not None and 0.0 < eta < float("inf")

    def test_monotone_clamp_ignores_backwards_updates(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=10, clock=clock)
        clock.advance(1.0)
        tracker.update(5, 10)
        clock.advance(1.0)
        tracker.update(3, 10)  # stale report: ignored
        assert tracker.done == 5

    def test_eta_zero_when_complete(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=4, clock=clock)
        clock.advance(1.0)
        tracker.update(4, 4)
        assert tracker.eta_seconds() == 0.0

    def test_eta_shrinks_as_work_completes(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=100, clock=clock)
        clock.advance(1.0)
        tracker.update(10, 100)
        first = tracker.eta_seconds()
        clock.advance(1.0)
        tracker.update(50, 100)
        second = tracker.eta_seconds()
        assert second < first

    def test_snapshot_keys(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=8, clock=clock)
        clock.advance(0.5)
        tracker.update(2, 8)
        snap = tracker.snapshot()
        assert set(snap) == {
            "done", "total", "elapsed_seconds", "throughput",
            "eta_seconds",
        }
        assert snap["done"] == 2
        assert snap["total"] == 8
        assert snap["elapsed_seconds"] == pytest.approx(0.5)

    def test_total_can_grow_mid_run(self):
        clock = _FakeClock()
        tracker = ProgressTracker(total=4, clock=clock)
        clock.advance(1.0)
        tracker.update(2, 6)
        assert tracker.total == 6

    def test_mirrors_chunk_latency_into_stage_histogram(self):
        obs.enable()
        clock = _FakeClock()
        tracker = ProgressTracker(total=4, clock=clock)
        clock.advance(1.0)
        tracker.update(2, 4)
        hist = obs.REGISTRY.histogram("repro_runtime_stage_seconds")
        assert hist.snapshot(stage="progress-chunk")["count"] == 1


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # rank 2.0 of 4 lands in the (1, 2] bucket holding two samples.
        assert h.quantile(0.5) == pytest.approx(1.5)

    def test_inf_bucket_clamps_to_largest_bound(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_empty_returns_none(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.quantile(0.5) is None

    def test_out_of_range_rejected(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_per_labelset(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5, kind="a")
        h.observe(3.0, kind="b")
        assert h.quantile(0.5, kind="a") <= 1.0
        assert h.quantile(0.5, kind="b") > 2.0


class TestBatchSizeBuckets:
    def test_buckets_are_powers_of_two(self):
        """The batch-size histogram counts batch *sizes*, so its
        buckets must stay pinned to powers of two — not latencies."""
        from repro.spice.solver import _BATCH_SIZE_BUCKETS

        assert list(_BATCH_SIZE_BUCKETS) == [
            2 ** i for i in range(len(_BATCH_SIZE_BUCKETS))
        ]
        assert _BATCH_SIZE_BUCKETS[0] == 1

    def test_registry_rejects_conflicting_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("repro_solver_batch_size", buckets=(1, 2, 4))
        with pytest.raises(ValueError):
            registry.histogram(
                "repro_solver_batch_size", buckets=(0.1, 1.0)
            )

    def test_registry_access_without_buckets_is_not_a_conflict(self):
        registry = MetricsRegistry()
        created = registry.histogram("h", buckets=(1, 2, 4))
        fetched = registry.histogram("h")
        assert fetched is created
        assert fetched.bounds == [1.0, 2.0, 4.0]
