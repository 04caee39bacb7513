"""End-to-end campaigns: byte-identity, interruption, resume, and the
loop's order, progress, cancellation and per-stage ledger."""

import json

import pytest

import repro.campaign.runner as runner
from repro.campaign.config import CampaignConfig
from repro.campaign.runner import run_campaign_config, stage_key
from repro.errors import JobCancelled
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.pool import RUNTIME_EVENTS

CAMPAIGN = {
    "version": 0,
    "name": "resume-study",
    "execution": {
        "numCPUs": 1,
        "numRuns": 2,
        "chunk_size": 1,
        "min_sweep_for_parallel": 2,
    },
    "settings": {
        "regular": {
            "kind": "montecarlo",
            "montecarlo": {"trials": 2, "seed": 3, "size": 8},
        },
        "combination": {"montecarlo.sigma": [0.05, 0.1]},
    },
    "post": ["summary"],
}


def config(**execution_overrides):
    doc = json.loads(json.dumps(CAMPAIGN))
    doc["execution"].update(execution_overrides)
    return CampaignConfig.from_dict(doc)


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted serial report — the byte-identity reference."""
    return run_campaign_config(config()).to_json()


class TestByteIdentity:
    def test_runs_are_deterministic(self, baseline):
        assert run_campaign_config(config()).to_json() == baseline

    def test_parallel_matches_serial(self, baseline):
        run = run_campaign_config(config(), jobs=2)
        assert run.to_json() == baseline

    def test_file_level_numcpus_matches_serial(self, baseline):
        run = run_campaign_config(config(numCPUs=2))
        assert run.to_json() == baseline

    def test_report_shape(self, baseline):
        doc = json.loads(baseline)
        assert doc["schema"] == "repro-campaign-v1"
        assert doc["name"] == "resume-study"
        assert [u["stage"] for u in doc["units"]] == [
            "unit-000-run-0", "unit-000-run-1",
            "unit-001-run-0", "unit-001-run-1",
        ]
        rows = doc["post"]["summary"]["rows"]
        assert [r["metric"] for r in rows] == ["mean_abs_error"] * 4


class _CancelAtDone:
    """Cooperative interruption once ``done`` reaches a threshold.

    The engine checks ``should_cancel`` at chunk boundaries and the
    campaign loop before every unit; triggering on the campaign-wide
    ``done`` count makes the kill point deterministic for any worker
    count.  With 2 jobs per unit, a threshold of 3 interrupts *inside*
    the second unit after the first unit completed — the mid-stage
    kill the resume machinery exists for.
    """

    def __init__(self, done_threshold):
        self.done_threshold = done_threshold
        self.fired = False

    def progress(self, done, total):
        if done >= self.done_threshold:
            self.fired = True

    def should_cancel(self):
        return self.fired


def _interrupt_then_resume(cache, jobs, baseline, done_threshold=3):
    interrupter = _CancelAtDone(done_threshold)
    with pytest.raises(JobCancelled):
        run_campaign_config(
            config(), jobs=jobs, cache=cache,
            progress=interrupter.progress,
            should_cancel=interrupter.should_cancel,
        )

    resumed = run_campaign_config(config(), jobs=jobs, cache=cache)
    assert resumed.to_json() == baseline
    return resumed


class TestInterruptionAndResume:
    def test_serial_resume_is_byte_identical(self, tmp_path, baseline):
        cache = ResultCache(tmp_path / "cache")
        resumed = _interrupt_then_resume(cache, None, baseline)
        stats = resumed.stage_stats
        # The first unit completed before the kill: it replays from
        # the sqlite stage cache with zero engine work.  The unit the
        # kill landed in lost its in-flight chunks (the engine only
        # persists completed runs) and re-executes.
        assert stats["unit-000-run-0"]["resumed"] is True
        assert stats["unit-000-run-0"]["jobs"] == 0
        assert stats["unit-000-run-1"]["resumed"] is False
        assert stats["unit-000-run-1"]["jobs"] == 2

    def test_parallel_resume_is_byte_identical(self, tmp_path, baseline):
        cache = ResultCache(tmp_path / "cache")
        resumed = _interrupt_then_resume(cache, 2, baseline)
        stats = resumed.stage_stats
        assert stats["unit-000-run-0"]["resumed"] is True
        assert stats["unit-000-run-0"]["jobs"] == 0

    def test_interruption_at_a_stage_boundary(self, tmp_path, baseline):
        # Threshold 2 = exactly the first unit's job count: the flag
        # trips on its final chunk report, the stage still completes
        # (and is cached), and the runner cancels at the boundary
        # before the second unit starts.
        cache = ResultCache(tmp_path / "cache")
        resumed = _interrupt_then_resume(
            cache, None, baseline, done_threshold=2
        )
        assert resumed.stage_stats["unit-000-run-0"]["resumed"] is True

    def test_fully_cached_rerun_does_no_engine_work(self, tmp_path,
                                                    baseline, run_scope):
        cache = ResultCache(tmp_path / "cache")
        run_campaign_config(config(), cache=cache)
        with run_scope:
            again = run_campaign_config(config(), cache=cache)
        assert again.to_json() == baseline
        assert all(
            stats["resumed"]
            for name, stats in again.stage_stats.items()
            if name.startswith("unit-")
        )
        counters = run_scope.summary()["counters"]
        assert counters.get("jobs_executed", 0) == 0

    def test_overridden_jobs_share_the_same_cache_rows(self, tmp_path,
                                                       baseline):
        # Stage cache keys exclude engine knobs: a serial run's cache
        # resumes a --jobs 2 rerun wholesale.
        cache = ResultCache(tmp_path / "cache")
        run_campaign_config(config(), cache=cache)
        wide = run_campaign_config(config(), jobs=2, cache=cache)
        assert wide.to_json() == baseline
        assert all(
            stats["resumed"]
            for name, stats in wide.stage_stats.items()
            if name.startswith("unit-")
        )


class TestServiceEquivalence:
    def test_campaign_payload_result_is_the_report(self, baseline):
        from repro.service.schema import SimulationPayload
        from repro.service.workloads import render_document, run_payload

        payload = SimulationPayload.from_dict({
            "kind": "campaign",
            "campaign": json.loads(json.dumps(CAMPAIGN)),
        })
        assert render_document(run_payload(payload)) == baseline

    def test_unit_results_match_the_direct_payload_documents(self):
        from repro.service.schema import SimulationPayload
        from repro.service.workloads import run_payload

        run = run_campaign_config(config())
        unit = run.document["units"][0]
        direct = run_payload(SimulationPayload.from_dict({
            "kind": "montecarlo",
            "montecarlo": {
                "trials": 2, "seed": 3, "size": 8, "sigma": 0.05,
            },
        }))
        assert unit["result"] == direct


UNITS = ["unit-000-run-0", "unit-000-run-1",
         "unit-001-run-0", "unit-001-run-1"]


@pytest.fixture
def executed(monkeypatch):
    """The stage names whose payloads actually run, in call order."""
    calls = []
    real = runner.run_payload
    stage_of = {unit.payload: unit.stage for unit in config().units}

    def spy(payload, **kwargs):
        calls.append(stage_of[payload])
        return real(payload, **kwargs)

    monkeypatch.setattr(runner, "run_payload", spy)
    return calls


class TestLoop:
    def test_units_then_post_hooks_then_report(self, executed):
        loop = runner.CampaignLoop(config())
        loop.run()
        assert loop.stages == tuple(UNITS) + ("post:summary", "report")
        assert tuple(loop.stage_stats) == loop.stages
        assert executed == UNITS
        for stats in loop.stage_stats.values():
            assert list(stats) == [
                "resumed", "jobs", "cache_hits", "elapsed_seconds",
            ]

    def test_progress_is_one_monotone_campaign_axis(self):
        reports = []
        run_campaign_config(
            config(), progress=lambda done, total: reports.append(
                (done, total)
            ),
        )
        assert reports[0] == (0, 8)
        assert reports[-1] == (8, 8)
        assert {total for _done, total in reports} == {8}
        done_values = [done for done, _total in reports]
        assert done_values == sorted(done_values), "axis must be monotone"
        # Every unit's end lands on the axis at its cumulative weight.
        assert {2, 4, 6, 8} <= set(done_values)

    def test_cancellation_at_a_unit_boundary(self, executed):
        # The flag trips on the first unit's last report; the unit still
        # finishes and the loop stops before the next one starts.
        interrupter = _CancelAtDone(2)
        with pytest.raises(JobCancelled,
                           match="campaign cancelled at a stage boundary"):
            run_campaign_config(
                config(), progress=interrupter.progress,
                should_cancel=interrupter.should_cancel,
            )
        assert executed == UNITS[:1]

    def test_completed_unit_replays_from_the_stage_cache(self, tmp_path,
                                                         executed):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign_config(config(), cache=cache)
        assert not any(
            first.stage_stats[name]["resumed"] for name in UNITS
        )
        unit = config().units[0]
        assert cache.get(stage_key(unit.payload)) == (
            first.document["units"][0]["result"]
        )

        executed.clear()
        second = run_campaign_config(config(), cache=cache)
        assert all(second.stage_stats[name]["resumed"] for name in UNITS)
        assert executed == [], "resumed units must not re-execute"

    def test_only_uncached_units_run(self, tmp_path, baseline, executed):
        cache = ResultCache(tmp_path / "cache")
        unit = config().units[1]
        cache.put(stage_key(unit.payload), runner.STAGE_CACHE_KIND,
                  json.loads(baseline)["units"][1]["result"])
        run = run_campaign_config(config(), cache=cache)
        assert executed == [UNITS[0]] + UNITS[2:]
        assert run.stage_stats[UNITS[1]]["resumed"] is True
        assert run.to_json() == baseline

    def test_post_hooks_and_report_are_never_stage_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_campaign_config(config(), cache=cache)
        stores = cache.stats().stores
        again = run_campaign_config(config(), cache=cache)
        assert cache.stats().stores == stores, "a full replay stores nothing"
        for name in ("post:summary", "report"):
            stats = again.stage_stats[name]
            assert (stats["resumed"], stats["jobs"], stats["cache_hits"]) \
                == (False, 0, 0)

    def test_stage_stats_count_engine_deltas(self, tmp_path):
        # Per-job rows only, no stage rows: every unit runs, and each of
        # its 2 engine jobs is a per-job cache hit.
        cache = ResultCache(tmp_path / "cache")
        for unit in config().units:
            runner.run_payload(unit.payload, cache=cache)
        run = run_campaign_config(config(), cache=cache)
        for name in UNITS:
            assert run.stage_stats[name]["resumed"] is False
            assert run.stage_stats[name]["jobs"] == 2
            assert run.stage_stats[name]["cache_hits"] == 2

    def test_stage_stats_ignore_other_jobs(self):
        """A campaign running in job "a" counts only its own engine
        events, even when job "b" records some between its units."""
        events = obs_metrics.counter(RUNTIME_EVENTS)

        def intrude(done, total):
            with obs_trace.JobContext("b"):
                events.inc(100, event="jobs_total")
                events.inc(100, event="cache_hits")

        try:
            with obs_trace.JobContext("a"):
                run = run_campaign_config(config(), progress=intrude)
        finally:
            obs_metrics.REGISTRY.rollup_job("a")
            obs_metrics.REGISTRY.rollup_job("b")
        for name in UNITS:
            assert run.stage_stats[name]["jobs"] == 2
            assert run.stage_stats[name]["cache_hits"] == 0
