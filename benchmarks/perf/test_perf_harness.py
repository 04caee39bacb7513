"""Self-tests of the benchmark harness: ``python -m pytest benchmarks/perf``.

They check the statistics and tracing machinery on synthetic inputs,
that a wrong output fails a run, and a few ops of every workload end to
end (untraced and traced).
"""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") \
            as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------
def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([0, 10], 25) == 2.5
    # p80 of 56 samples reads rank 44 of 0..55: eleven lie beyond it.
    assert stats.samples_beyond(56, 80.0) == 11
    assert stats.samples_beyond(21, 50.0) == 10
    assert stats.samples_beyond(0, 50.0) == 0
    # Each workload's fixed tail keeps ten samples beyond it at the
    # median sample count of the calibration runs.
    with open(os.path.join(HERE, "calibration.json"), encoding="utf-8") \
            as handle:
        calibration = json.load(handle)
    for name, workload in workloads.WORKLOADS.items():
        n = int(calibration["workloads"][name]["n_median"])
        assert stats.samples_beyond(n, workload.tail_pct) >= 10, name


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    same = list(reversed(base))
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    lower = "lower"
    assert stats.compare_metric(base, faster, lower, 0.1).verdict == \
        "improved"
    assert stats.compare_metric(base, slower, lower, 0.1).verdict == \
        "regressed"
    assert stats.compare_metric(base, same, lower, 0.1).verdict == \
        "unchanged"
    assert stats.compare_metric(base, noisy, lower, 0.1).verdict == \
        "unresolved"
    # Direction matters: a higher rate is the improvement.
    assert stats.compare_metric(base, slower, "higher", 0.1).verdict == \
        "improved"
    with pytest.raises(ValueError):
        stats.compare_metric([1.0], [1.0, 2.0], lower, 0.1)


# -- tracing ------------------------------------------------------------
def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        {"pid": 1, "id": 1, "parent": 0, "start": 0.0, "end": 10.0},
        {"pid": 1, "id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"pid": 1, "id": 3, "parent": 1, "start": 3.0, "end": 6.0},
        {"pid": 1, "id": 4, "parent": 1, "start": 9.0, "end": 12.0},
        {"pid": 2, "id": 1, "parent": 0, "start": 0.0, "end": 1.0},
    ]
    selfs = layers.self_times(spans)
    # Children cover [1, 6] and [9, 10] (clipped): 6 of the 10 seconds.
    assert selfs[(1, 1)] == pytest.approx(4.0)
    assert selfs[(1, 2)] == pytest.approx(3.0)
    # Same span id in another process is another span.
    assert selfs[(2, 1)] == pytest.approx(1.0)
    assert layers.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_wrapping_rebinds_from_imports_and_restores():
    source = types.ModuleType("repro._perfbench_source")
    user = types.ModuleType("repro._perfbench_user")

    def work(x, scale=2):
        return x * scale

    class Thing:
        def method(self):
            return source.work(1)

        @classmethod
        def build(cls, value):
            return value + 1

    source.work, source.Thing = work, Thing
    user.work = work  # what ``from source import work`` leaves behind
    raw_method, raw_build = Thing.__dict__["method"], Thing.__dict__["build"]
    entries = (
        layers.Entry("fake", "work", "repro._perfbench_source:work",
                     count=lambda args, result: {"scaled": args["scale"]}),
        layers.Entry("fake", "method",
                     "repro._perfbench_source:Thing.method"),
        layers.Entry("other", "build",
                     "repro._perfbench_source:Thing.build"),
    )
    sys.modules[source.__name__] = source
    sys.modules[user.__name__] = user
    try:
        tracer = layers.Tracer(entries)
        tracer.install()
        assert user.work is source.work and user.work is not work
        assert user.work.__wrapped__ is work
        assert user.work(3) == 6
        assert Thing().method() == 2
        assert Thing.build(1) == 2
        assert Thing.__dict__["method"] is not raw_method
        tracer.restore()
        assert user.work is work and source.work is work
        assert Thing.__dict__["method"] is raw_method
        assert Thing.__dict__["build"] is raw_build
    finally:
        del sys.modules[source.__name__], sys.modules[user.__name__]

    spans = layers.spans_from_events(tracer.chrome_events(pid=7))
    names = [f"{s['layer']}.{s['name']}" for s in spans]
    assert names == ["fake.work", "fake.work", "fake.method",
                     "other.build"]
    agg = layers.aggregate(spans)
    # work() nested in method() re-enters layer "fake": counted as a
    # call, not as a second entry into the layer.
    assert agg.calls["fake.work"] == 2
    assert agg.layer_calls["fake"] == 2
    assert agg.counters["fake.scaled"] == 4


def test_real_entry_points_rewrap_module_bindings():
    import repro.dse.explorer
    import repro.runtime.pool

    original = repro.runtime.pool.run_jobs
    assert repro.dse.explorer.run_jobs is original
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert repro.dse.explorer.run_jobs is repro.runtime.pool.run_jobs
        assert repro.dse.explorer.run_jobs.__wrapped__ is original
    finally:
        tracer.restore()
    assert repro.dse.explorer.run_jobs is original


def test_importtime_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |       numpy.core",
        "import time:       200 |        250 |     numpy",
        "import time:       300 |        300 |     scipy.optimize",
        "import time:       400 |       1200 |   repro",
        "import time:        10 |       1210 | repro.cli",
    ])
    got = layers.parse_importtime(stderr)
    assert got["total_s"] == pytest.approx(1210e-6)
    assert got["repro_s"] == pytest.approx(410e-6)
    assert got["numpy_s"] == pytest.approx(250e-6)
    assert got["scipy_optimize_s"] == pytest.approx(300e-6)
    assert got["modules"] == 5


def test_metric_catalogue_matches_benchmark_json():
    bench = _benchmark()
    agg = layers.aggregate([])
    produced = layers.layer_metrics(
        agg, {}, 0, layers.parse_importtime(""), {}
    )
    assert set(produced) == {m["name"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_schedules_are_seeded_and_keys_are_expected():
    with open(run.EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    for name in workloads.WORKLOADS:
        a = workloads.schedule(name, 3)
        b = workloads.schedule(name, 3)
        first = [next(a.rounds) for _ in range(3)]
        assert first == [next(b.rounds) for _ in range(3)]
        assert a.warmups == b.warmups
        for ops in first:
            assert {op.key for op in ops} <= set(expected), name
        other = workloads.schedule(name, 4)
        assert [next(other.rounds) for _ in range(3)] != first, name
    assert {op.key for op in workloads.all_ops()} == set(expected)


# -- end to end ---------------------------------------------------------
def test_corrupted_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    with open(run.EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    corrupted = {
        key: ("0" * len(value) if value[0] != "0" else "1" * len(value))
        if key.startswith("solver/") else value
        for key, value in expected.items()
    }
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(corrupted))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    code = run.main(["--workload", "solver-mc", "--seed", "0",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_three_ops(workload, trace):
    result = run.run_workload(workload, 0, 0.0, trace, max_ops=3,
                              setups=1)
    assert result["correct"], result["errors"]
    assert result["samples"]["n"] == 3
    bench = _benchmark()
    specs = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["import.total_s"] > 0
        assert metrics["bench.traced_ops_per_s"] > 0
        if workload == "dse-sweep":
            assert metrics["dse.points"] == 300
            assert metrics["spice.solve_calls"] == 0
            assert metrics["cache.get_calls"] == 0
        if workload == "service-mix":
            assert metrics["validation.calls"] > 0
            assert metrics["service.exec_ms_p50"] > 0
