"""Command-line interface."""

import re

import pytest

from repro.cli import main, parse_network
from repro.errors import ConfigError, JobExecutionError
from repro.runtime.cache import ResultCache


class TestParseNetwork:
    def test_builtins(self):
        assert parse_network("validation-mlp").depth == 2
        assert parse_network("vgg16").depth == 16
        assert parse_network("JPEG").name.startswith("jpeg")

    def test_mlp_spec(self):
        net = parse_network("mlp:784,256,10")
        assert net.depth == 2
        assert net.input_values == 784

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            parse_network("resnet50")
        with pytest.raises(ConfigError):
            parse_network("mlp:a,b")


class TestSimulate:
    def test_summary_output(self, capsys):
        code = main(["simulate", "mlp:64,32", "--cmos-tech", "45"])
        out = capsys.readouterr().out
        assert code == 0
        assert "area (mm^2)" in out
        assert "relative accuracy" in out

    def test_report_and_breakdown_flags(self, capsys):
        code = main([
            "simulate", "mlp:64,32", "--report", "--breakdown",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bank[0]" in out
        assert "read_circuit" in out

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "mnsim.cfg"
        config.write_text("Crossbar_Size = 64\nCMOS_Tech = 65\n")
        code = main(["simulate", "mlp:64,32", "--config", str(config)])
        assert code == 0

    def test_flag_overrides_file(self, tmp_path, capsys):
        config = tmp_path / "mnsim.cfg"
        config.write_text("Crossbar_Size = 64\n")
        code = main([
            "simulate", "mlp:64,32", "--config", str(config),
            "--crossbar-size", "128",
        ])
        assert code == 0

    def test_unknown_network_is_an_error(self, capsys):
        code = main(["simulate", "resnet"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExplore:
    def test_optima_table(self, capsys):
        code = main([
            "explore", "mlp:256,128", "--sizes", "64", "128",
            "--degrees", "1", "64", "--wires", "28", "45",
            "--weight-bits", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        # Diagnostics go to stderr; the result table stays on stdout.
        assert "designs explored" in captured.err
        assert "designs explored" not in captured.out
        assert "accuracy" in captured.out

    def test_infeasible_constraint_fails(self, capsys):
        code = main([
            "explore", "mlp:4096,4096", "--sizes", "1024",
            "--degrees", "1", "--wires", "18",
            "--max-error", "0.000001",
        ])
        assert code == 1
        assert "no feasible" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, flag, values", [
        ("crossbar_sizes", "--sizes", ["0", "-3"]),
        ("crossbar_sizes", "--sizes", ["1"]),
        ("parallelism_degrees", "--degrees", ["1", "-1"]),
    ])
    def test_out_of_range_axis_is_a_config_error(self, axis, flag, values,
                                                 capsys):
        code = main(["explore", "mlp:32,16", flag, *values])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {axis}: must all be >= ")
        assert "designs explored" not in err


class TestRuntimeFlags:
    def test_explore_parallel(self, capsys):
        code = main([
            "explore", "mlp:128,64", "--sizes", "32", "64",
            "--degrees", "1", "--wires", "45", "--jobs", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "runtime:" in captured.err
        assert "runtime:" not in captured.out

    def test_explore_with_cache_warms_up(self, tmp_path, capsys):
        argv = [
            "explore", "mlp:128,64", "--sizes", "32", "64",
            "--degrees", "1", "--wires", "45",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().err
        assert "0 cache hits" in first
        assert main(argv) == 0
        second = capsys.readouterr().err
        assert "2 cache hits" in second

    def test_no_cache_flag_disables(self, tmp_path, capsys):
        argv = [
            "explore", "mlp:128,64", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
            "--cache-dir", str(tmp_path / "cache"), "--no-cache",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "cache hits" not in captured.out
        assert "cache hits" not in captured.err
        assert not (tmp_path / "cache" / "results.sqlite").exists()

    def test_simulate_accepts_cache(self, tmp_path, capsys):
        argv = [
            "simulate", "mlp:64,32",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "cache" / "results.sqlite").exists()
        assert (tmp_path / "cache" / "last_run.json").exists()

    def test_env_var_enables_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert main(["simulate", "mlp:64,32"]) == 0
        assert (tmp_path / "env" / "results.sqlite").exists()


class TestRuntimeStats:
    def test_empty_stats_view(self, tmp_path, capsys):
        code = main(["runtime-stats", "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "no runtime statistics recorded yet" in out

    def test_stats_after_cached_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main([
            "explore", "mlp:128,64", "--sizes", "32", "64",
            "--degrees", "1", "--wires", "45", "--cache-dir", cache_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["runtime-stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries (current version)" in out
        assert "last run:" in out
        assert "jobs total" in out

    def test_database_size_counts_the_write_ahead_log(self, tmp_path,
                                                      capsys):
        cache_dir = tmp_path / "cache"
        with ResultCache(cache_dir) as server:
            server.put_many((f"k{i}", "t", {"i": i}) for i in range(50))
            assert main(["runtime-stats", "--cache-dir", str(cache_dir)]) \
                == 0
            files = [cache_dir / "results.sqlite",
                     cache_dir / "results.sqlite-wal"]
            expected = sum(path.stat().st_size for path in files)
            assert files[1].stat().st_size > 0  # rows not checkpointed
        out = capsys.readouterr().out
        reported = re.search(r"database size \(bytes\)\s+(\d+)", out)
        assert int(reported.group(1)) == expected


class TestExitCodes:
    def test_worker_failure_exits_3_with_summary(self, monkeypatch,
                                                 capsys):
        """Satellite: exhausted worker retries -> clean nonzero exit."""

        def exploding_explore(*_args, **_kwargs):
            raise JobExecutionError(
                "a chunk of 4 'simulate-point' jobs failed after "
                "2 attempt(s): TimeoutError"
            )

        # The handler imports explore when it runs: patch its home.
        monkeypatch.setattr("repro.dse.explorer.explore", exploding_explore)
        code = main([
            "explore", "mlp:64,32", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestNetlist:
    def test_stdout_netlist(self, capsys):
        code = main(["netlist", "--crossbar-size", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Rcell0_0" in out
        assert ".end" in out

    def test_file_output_round_trips(self, tmp_path, capsys):
        from repro.spice.parser import parse_netlist

        target = tmp_path / "xbar.sp"
        code = main([
            "netlist", "--crossbar-size", "4", "--seed", "3",
            "-o", str(target),
        ])
        assert code == 0
        parsed = parse_netlist(target.read_text())
        assert parsed.resistances.shape == (4, 4)


class TestMonteCarlo:
    def test_montecarlo_table(self, capsys):
        code = main([
            "montecarlo", "--size", "8", "--trials", "2", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean |error|" in out
        assert "max |error|" in out

    @pytest.mark.parametrize("size", ["0", "1"])
    def test_size_below_two_is_rejected_like_the_service(self, size,
                                                         capsys):
        code = main(["montecarlo", "--size", size, "--trials", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: montecarlo.size: must be >= 2")
        assert "crossbar" not in err  # rejected before any run is logged

    def test_logs_the_size_it_runs(self, capsys):
        code = main(["montecarlo", "--crossbar-size", "8", "--trials", "1"])
        assert code == 0
        assert "monte-carlo: 8x8 crossbar" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace.json"
        code = main([
            "--trace", str(trace),
            "explore", "mlp:128,64", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().err
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "dse.explore" in names
        assert "runtime.run_jobs" in names

    def test_trace_env_var(self, tmp_path, monkeypatch, capsys):
        trace = tmp_path / "env.trace.json"
        monkeypatch.setenv("REPRO_TRACE", str(trace))
        assert main(["simulate", "mlp:64,32"]) == 0
        assert trace.exists()

    def test_metrics_flag_prometheus(self, tmp_path, capsys):
        from repro.obs.metrics import parse_prometheus

        metrics = tmp_path / "run.prom"
        code = main([
            "--metrics", str(metrics),
            "explore", "mlp:128,64", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
        ])
        assert code == 0
        families = parse_prometheus(metrics.read_text())
        assert "repro_runtime_events_total" in families

    def test_obs_report_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([
            "--trace", str(trace),
            "explore", "mlp:128,64", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
        ]) == 0
        capsys.readouterr()
        assert main(["obs-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "dse.explore" in out
        assert "span families" in out

    def test_obs_report_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["obs-report", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_quiet_suppresses_diagnostics(self, capsys):
        code = main([
            "-q", "explore", "mlp:128,64", "--sizes", "32",
            "--degrees", "1", "--wires", "45",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "designs explored" not in captured.err
        assert "area" in captured.out


class TestSuggest:
    def test_suggest_table(self, capsys):
        code = main([
            "suggest", "mlp:256,128", "--weight-bits", "4",
            "--free", "parallelism_degree",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "target" in out
        assert "accuracy" in out

    def test_suggest_unknown_field_errors(self, capsys):
        code = main(["suggest", "mlp:64,32", "--free", "cmos_tech"])
        assert code == 2
        assert "cannot sweep" in capsys.readouterr().err

    def test_suggest_infeasible_constraint_errors(self, capsys):
        code = main([
            "suggest", "mlp:4096,4096", "--free", "crossbar_size",
            "--max-error", "0.0000001",
        ])
        assert code == 2
