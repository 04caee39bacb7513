"""The stage-DAG runner: ordering, progress, resume, cancellation."""

import pytest

from repro.campaign.dag import (
    STAGE_CACHE_KIND,
    DagRunner,
    Stage,
    get_executor,
    register_executor,
)
from repro.errors import ConfigError, JobCancelled
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.pool import RUNTIME_EVENTS

CALLS = []


@register_executor("test.echo")
def _echo(stage, context):
    CALLS.append(stage.name)
    return stage.params.get("value", stage.name)


@register_executor("test.sum")
def _sum(stage, context):
    CALLS.append(stage.name)
    return sum(context.upstream.values())


@register_executor("test.count")
def _count(stage, context):
    # What an engine run records: 3 jobs, 1 of them a cache hit.
    events = obs_metrics.counter(RUNTIME_EVENTS)
    events.inc(3, event="jobs_total")
    events.inc(1, event="cache_hits")
    return None


@register_executor("test.progress")
def _progress(stage, context):
    CALLS.append(stage.name)
    for done in range(1, stage.weight + 1):
        context.progress(done, stage.weight)
    return stage.name


@pytest.fixture(autouse=True)
def _clear_calls():
    CALLS.clear()
    yield
    CALLS.clear()


class TestGraphValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            DagRunner([Stage("a", "test.echo"), Stage("a", "test.echo")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            DagRunner([Stage("a", "test.echo", depends_on=("ghost",))])

    def test_self_dependency_rejected(self):
        with pytest.raises(ConfigError, match="itself"):
            DagRunner([Stage("a", "test.echo", depends_on=("a",))])

    def test_cycles_rejected(self):
        with pytest.raises(ConfigError, match="cycle"):
            DagRunner([
                Stage("a", "test.echo", depends_on=("b",)),
                Stage("b", "test.echo", depends_on=("a",)),
            ])

    def test_unknown_executor_named_in_error(self):
        with pytest.raises(ConfigError, match="test.missing"):
            get_executor("test.missing")

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_executor("test.echo")(lambda stage, context: None)


class TestExecution:
    def test_deterministic_topological_order(self):
        # Diamond written out of order: dependencies still run first,
        # ready stages keep input order (b before c).
        runner = DagRunner([
            Stage("d", "test.sum", depends_on=("b", "c")),
            Stage("b", "test.echo", params={"value": 1},
                  depends_on=("a",)),
            Stage("c", "test.echo", params={"value": 2},
                  depends_on=("a",)),
            Stage("a", "test.echo", params={"value": 0}),
        ])
        results = runner.run()
        assert CALLS == ["a", "b", "c", "d"]
        assert results["d"] == 3

    def test_upstream_is_restricted_to_declared_dependencies(self):
        seen = {}

        @register_executor("test.spy")
        def _spy(stage, context):
            seen.update(context.upstream)
            return None

        runner = DagRunner([
            Stage("a", "test.echo", params={"value": 1}),
            Stage("b", "test.echo", params={"value": 2}),
            Stage("spy", "test.spy", depends_on=("b",)),
        ])
        runner.run()
        assert seen == {"b": 2}

    def test_progress_remapped_onto_campaign_axis(self):
        reports = []
        runner = DagRunner(
            [
                Stage("first", "test.progress", weight=2),
                Stage("second", "test.progress", weight=3,
                      depends_on=("first",)),
            ],
            progress=lambda done, total: reports.append((done, total)),
        )
        runner.run()
        assert reports[0] == (0, 5)
        assert reports[-1] == (5, 5)
        done_values = [done for done, _total in reports]
        assert done_values == sorted(done_values), "axis must be monotone"
        assert (2 + 3, 5) in reports  # second stage lands at the total

    def test_cancellation_at_stage_boundary(self):
        cancelled = {"flag": False}

        @register_executor("test.cancel-after")
        def _cancel_after(stage, context):
            cancelled["flag"] = True
            return None

        runner = DagRunner(
            [
                Stage("a", "test.cancel-after"),
                Stage("b", "test.echo", depends_on=("a",)),
            ],
            should_cancel=lambda: cancelled["flag"],
        )
        with pytest.raises(JobCancelled):
            runner.run()
        assert CALLS == [], "stage b must never start"


class TestStageResume:
    def _stages(self):
        return [
            Stage("work", "test.progress", weight=2, cache_key="k-work"),
            Stage("tail", "test.echo", depends_on=("work",)),
        ]

    def test_completed_stage_replays_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = DagRunner(self._stages(), cache=cache)
        assert first.run()["work"] == "work"
        assert first.stage_stats["work"]["resumed"] is False
        assert cache.get("k-work") == "work"

        CALLS.clear()
        second = DagRunner(self._stages(), cache=cache)
        assert second.run()["work"] == "work"
        assert second.stage_stats["work"]["resumed"] is True
        assert "work" not in CALLS, "resumed stage must not re-execute"

    def test_uncached_stages_still_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("k-work", STAGE_CACHE_KIND, "work")
        runner = DagRunner(self._stages(), cache=cache)
        runner.run()
        assert CALLS == ["tail"], "only the uncached stage executes"

    def test_no_cache_key_means_no_stage_caching(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        stages = [Stage("plain", "test.echo")]
        DagRunner(stages, cache=cache).run()
        CALLS.clear()
        DagRunner(stages, cache=cache).run()
        assert CALLS == ["plain"]

    def test_each_attempt_gets_a_fresh_tracker(self):
        # Stage one drives the tracker to done=4; without reset, stage
        # two's report of done=1 would be clamped away and the stage
        # would finish with a stale count (the frozen-ETA bug).
        runner = DagRunner([
            Stage("one", "test.progress", weight=4),
            Stage("two", "test.progress", weight=1, depends_on=("one",)),
        ])
        runner.run()
        assert runner._tracker.done == 1
        assert runner._tracker.total == 1

    def test_stage_stats_count_engine_deltas(self):
        runner = DagRunner([Stage("n", "test.count")])
        runner.run()
        assert runner.stage_stats["n"]["jobs"] == 3
        assert runner.stage_stats["n"]["cache_hits"] == 1

    def test_stage_stats_ignore_other_jobs(self):
        """A campaign running in job "a" counts only its own engine
        events, even when job "b" records some between its stages."""
        events = obs_metrics.counter(RUNTIME_EVENTS)

        def intrude(done, total):
            with obs_trace.JobContext("b"):
                events.inc(100, event="jobs_total")
                events.inc(100, event="cache_hits")

        runner = DagRunner(
            [Stage("one", "test.count"),
             Stage("two", "test.count", depends_on=("one",))],
            progress=intrude,
        )
        try:
            with obs_trace.JobContext("a"):
                runner.run()
        finally:
            obs_metrics.REGISTRY.rollup_job("a")
            obs_metrics.REGISTRY.rollup_job("b")
        for name in ("one", "two"):
            assert runner.stage_stats[name]["jobs"] == 3
            assert runner.stage_stats[name]["cache_hits"] == 1
