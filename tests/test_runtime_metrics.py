"""Run accounting: stage timing, counters, persistence, rendering.

The engine records into the obs registry; these tests read one run
back through :func:`repro.runtime.pool.run_summary`, the way the CLI
(``last_run.json``) and the service (``/jobs/{id}/metrics``) do.
"""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import MappingError
from repro.jsonio import render_document
from repro.obs.metrics import MetricsRegistry
from repro.report import format_run_metrics
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec
from repro.runtime.pool import LAST_RUN_FILENAME, run_jobs, run_summary

FIXTURES = Path(__file__).parent / "fixtures"
#: A ``last_run.json`` written by a ``faults --jobs 2`` run before the
#: engine recorded into the obs registry, and its ``runtime-stats`` table.
EXISTING = FIXTURES / "faults_last_run.json"
EXISTING_TABLE = FIXTURES / "faults_last_run.txt"


def _specs(n, keyed=False):
    return [
        JobSpec(kind="t", payload=i, key=f"k{i}" if keyed else None)
        for i in range(n)
    ]


def _square(x):
    return x * x


def _nap(x):
    time.sleep(0.01)
    return x


def _domain_error(x):
    raise MappingError("deterministic")


class TestStages:
    def test_stage_accumulates(self, run_scope):
        with run_scope:
            run_jobs(_nap, _specs(1))
            run_jobs(_nap, _specs(1))
        summary = run_scope.summary()
        assert list(summary["stages"]) == ["execute"]
        assert summary["stages"]["execute"] >= 0.02
        assert summary["total_seconds"] == pytest.approx(
            sum(summary["stages"].values())
        )

    def test_stage_records_even_on_error(self, run_scope):
        with pytest.raises(MappingError), run_scope:
            run_jobs(_domain_error, _specs(1))
        assert "execute" in run_scope.summary()["stages"]

    def test_empty_registry(self):
        assert run_summary(MetricsRegistry()) == {
            "counters": {},
            "jobs_per_second": 0.0,
            "mode": "serial",
            "resources": {},
            "stages": {},
            "total_seconds": 0,
            "workers": 1,
        }


class TestCounters:
    def test_count_accumulates(self, run_scope):
        with run_scope:
            run_jobs(_square, _specs(5))
            run_jobs(_square, _specs(1))
        counters = run_scope.summary()["counters"]
        assert counters == {"jobs_executed": 6, "jobs_total": 6}

    def test_throughput(self, run_scope):
        with run_scope:
            run_jobs(_square, _specs(3))
        summary = run_scope.summary()
        assert summary["jobs_per_second"] == pytest.approx(
            3 / summary["stages"]["execute"]
        )

    def test_idle_throughput_is_zero(self, tmp_path, run_scope):
        with ResultCache(tmp_path) as cache:
            run_jobs(_square, _specs(2, keyed=True), cache=cache)
            with run_scope:
                run_jobs(_square, _specs(2, keyed=True), cache=cache)
        summary = run_scope.summary()
        assert summary["counters"]["cache_hits"] == 2
        assert summary["jobs_per_second"] == 0.0


class TestPersistence:
    def test_round_trip(self, run_scope):
        with run_scope:
            run_jobs(_square, _specs(3))
        summary = run_scope.summary()
        assert json.loads(render_document(summary)) == summary

    def test_save_load(self, tmp_path, capsys):
        """A command writes the ``last_run.json`` format: the key set
        of a file written before the engine recorded into the obs
        registry."""
        cache_dir = tmp_path / "cache"
        assert main(["simulate", "mlp:64,32", "--cache-dir",
                     str(cache_dir)]) == 0
        written = json.loads((cache_dir / LAST_RUN_FILENAME).read_text())
        existing = json.loads(EXISTING.read_text())
        assert written.keys() == existing.keys()
        assert written["counters"]["jobs_total"] == 1
        assert (written["mode"], written["workers"]) == ("serial", 1)
        assert written["resources"]["wall_seconds"] > 0


class TestRendering:
    def test_format_run_metrics(self):
        text = format_run_metrics({
            "counters": {"jobs_total": 10, "jobs_executed": 8,
                         "cache_hits": 2},
            "jobs_per_second": 16.0,
            "mode": "process",
            "stages": {"execute": 0.5, "cache-lookup": 0.01},
            "total_seconds": 0.51,
            "workers": 4,
        })
        assert "execution mode" in text
        assert "process" in text
        assert "jobs total" in text
        assert "execute time" in text
        assert "throughput" in text

    def test_accepts_plain_mapping(self):
        text = format_run_metrics({})
        assert "serial" in text

    def test_runtime_stats_renders_an_existing_last_run(self, tmp_path,
                                                         capsys):
        """A ``last_run.json`` from before the engine recorded into the
        obs registry (a ``faults --jobs 2`` run) renders as it did."""
        shutil.copy(EXISTING, tmp_path / LAST_RUN_FILENAME)
        assert main(["runtime-stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.split("last run:\n", 1)[1] == EXISTING_TABLE.read_text()
