"""Campaign runner: reproducibility, caching, aggregation, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults.campaign import (
    CurvePoint,
    parse_network_spec,
    run_campaign,
)
from repro.faults.models import FaultsSpec
from repro.runtime.cache import ResultCache


def _tiny_spec(**overrides):
    base = dict(
        networks=("crossbar",),
        fault_modes=("stuck_mixed",),
        fault_rates=(0.0, 0.1),
        trials=3,
        seed=5,
        size=6,
    )
    base.update(overrides)
    return FaultsSpec(**base)


class TestSpecValidation:
    def test_network_spec_parsing(self):
        assert parse_network_spec("crossbar") is None
        assert parse_network_spec("mlp:16,8,4") == (16, 8, 4)
        with pytest.raises(ConfigError):
            parse_network_spec("mlp:16")
        with pytest.raises(ConfigError):
            parse_network_spec("mlp:a,b")
        with pytest.raises(ConfigError):
            parse_network_spec("resnet50")

    def test_line_modes_rejected_for_mlp(self):
        with pytest.raises(ConfigError):
            _tiny_spec(networks=("mlp:8,4",),
                       fault_modes=("line_open",))

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            _tiny_spec(trials=0)
        with pytest.raises(ConfigError):
            _tiny_spec(fault_rates=())
        with pytest.raises(ConfigError):
            _tiny_spec(fault_modes=("meteor",))
        with pytest.raises(ConfigError):
            _tiny_spec(fault_rates=(-0.1,))
        with pytest.raises(Exception):
            _tiny_spec(device="UNOBTAINIUM")


class TestReproducibility:
    def test_two_serial_runs_byte_identical(self):
        spec = _tiny_spec()
        assert run_campaign(spec).to_json() == run_campaign(spec).to_json()

    def test_parallel_matches_serial(self):
        spec = _tiny_spec(networks=("crossbar", "mlp:12,6,4"),
                          fault_modes=("stuck_mixed", "drift"),
                          fault_rates=(0.0, 0.05))
        serial = run_campaign(spec)
        parallel = run_campaign(spec, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_different_seeds_differ(self):
        faulty = dict(fault_rates=(0.2,))
        a = run_campaign(_tiny_spec(seed=1, **faulty))
        b = run_campaign(_tiny_spec(seed=2, **faulty))
        assert a.to_json() != b.to_json()

    def test_json_is_valid_and_schema_stamped(self):
        result = run_campaign(_tiny_spec())
        payload = json.loads(result.to_json())
        assert payload["schema"] == "faults-campaign-v1"
        assert payload["spec"]["seed"] == 5
        assert len(payload["points"]) == 2


class TestCaching:
    def test_rerun_is_full_cache_hit(self, tmp_path, run_scope):
        spec = _tiny_spec()
        cache = ResultCache(tmp_path)
        first = run_campaign(spec, cache=cache)
        with run_scope:
            second = run_campaign(spec, cache=cache)
        assert first.to_json() == second.to_json()
        counters = run_scope.summary()["counters"]
        assert counters["jobs_total"] > 0
        assert counters["cache_hits"] == counters["jobs_total"]
        cache.close()


class TestAggregation:
    def test_zero_rate_point_is_clean(self):
        result = run_campaign(_tiny_spec(fault_rates=(0.0,)))
        (point,) = result.points
        assert point.failures == 0
        assert point.mean_fault_count == 0.0
        assert point.mean_error == pytest.approx(0.0, abs=1e-3)
        assert point.relative_accuracy == pytest.approx(1.0, abs=1e-3)

    def test_error_grows_with_fault_rate(self):
        result = run_campaign(_tiny_spec(
            fault_rates=(0.0, 0.3), trials=6, size=8,
        ))
        clean, faulty = result.points
        assert faulty.mean_fault_count > clean.mean_fault_count
        assert faulty.mean_error > clean.mean_error

    def test_failed_trials_counted_not_raised(self):
        # Aggressive open lines on a small array: some trials go
        # singular; the campaign must absorb them as failures.
        result = run_campaign(FaultsSpec(
            networks=("crossbar",), fault_modes=("line_open",),
            fault_rates=(0.6,), trials=8, seed=3, size=4,
        ))
        (point,) = result.points
        assert point.trials == 8
        assert 0 < point.failures <= 8
        if point.failures == 8:
            assert point.mean_error is None
            assert point.relative_accuracy is None

    def test_ci_fields_consistent(self):
        result = run_campaign(_tiny_spec(fault_rates=(0.1,), trials=5))
        (point,) = result.points
        assert isinstance(point, CurvePoint)
        assert point.std_error >= 0
        assert point.ci95 >= 0
        assert point.ci95 == pytest.approx(
            1.96 * point.std_error / np.sqrt(point.trials - point.failures)
        )


class TestMlpLevel:
    def test_mlp_curve_degrades_with_rate(self):
        result = run_campaign(FaultsSpec(
            networks=("mlp:16,8,4",), fault_modes=("open_cell",),
            fault_rates=(0.0, 0.3), trials=5, seed=8,
        ))
        clean, faulty = result.points
        assert clean.mean_error == pytest.approx(0.0, abs=1e-9)
        assert faulty.mean_error > 0
        assert faulty.failures == 0


class TestCli:
    def test_faults_table_and_output(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "campaign.json"
        args = [
            "faults", "--modes", "stuck_mixed", "--rates", "0", "0.1",
            "--trials", "2", "--seed", "4", "--size", "6",
            "--output", str(out_file),
        ]
        assert main(args) == 0
        table = capsys.readouterr().out
        assert "rel. accuracy" in table
        assert "stuck_mixed" in table
        first = out_file.read_bytes()
        assert main(args) == 0
        assert out_file.read_bytes() == first  # byte-reproducible

    def test_bad_mode_is_config_error_exit(self, capsys):
        from repro.cli import main

        code = main(["faults", "--modes", "gamma_ray", "--trials", "1"])
        assert code != 0

    def test_parallel_matches_serial_from_a_cold_process(self, tmp_path):
        """Workers forked before the solver is imported load it themselves.

        In-process parity tests fork from a pytest parent that already
        holds scipy; a fresh CLI process does not, so its pool workers
        import the solver on their first trial.
        """
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for jobs, name in (("2", "a.json"), ("1", "b.json")):
            result = subprocess.run(
                [sys.executable, "-m", "repro", "faults", "--size", "8",
                 "--trials", "4", "--jobs", jobs, "-o", name],
                cwd=tmp_path, env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr[-2000:]
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()


def _trial_tasks(spec):
    """The trial payloads the campaign hands the engine."""
    from repro.faults.campaign import _trial_specs

    _combos, specs = _trial_specs(spec, keyed=False)
    return [job.payload for job in specs]


def _pointwise_trial(task):
    """One trial solved on its own by ``CrossbarNetwork.solve``.

    An independent oracle for the batch worker: the same spawn-keyed
    stream and draw order (levels, inputs, mask), but no batching and a
    singular system caught as the ``SolverError`` that ``solve`` raises.
    MLP trials share no solver, so they run the campaign's own
    ``_mlp_trial`` on the same stream.
    """
    from repro.errors import SolverError
    from repro.faults.campaign import _mlp_trial
    from repro.faults.models import sample_fault_mask
    from repro.spice.solver import CrossbarNetwork, ideal_output_voltages

    (network_spec, mode, fault_rate, seed, spawn_key, device, size,
     segment_resistance, sense_resistance) = task
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    )
    sizes = parse_network_spec(network_spec)
    if sizes is not None:
        return _mlp_trial(sizes, mode, fault_rate, rng)
    levels = rng.integers(0, device.levels, size=(size, size))
    programmed = device.resistance_of_level(levels)
    inputs = rng.uniform(0, device.read_voltage, size=size)
    mask = sample_fault_mask(size, size, fault_rate, rng, mode=mode)
    network = CrossbarNetwork(programmed, segment_resistance,
                              sense_resistance, device=device,
                              fault_mask=mask)
    try:
        solved = network.solve(inputs).output_voltages
    except SolverError:
        return {"failed": True, "error": None,
                "fault_count": mask.fault_count}
    ideal = ideal_output_voltages(programmed, inputs, sense_resistance)
    scale = float(np.max(np.abs(ideal)))
    error = (float(np.mean(np.abs(ideal - solved)) / scale)
             if scale > 0 else 0.0)
    return {"failed": False, "error": error,
            "fault_count": mask.fault_count}


class TestBatchedParity:
    """The batch worker returns exactly the trial dicts of a point-wise
    oracle, including singular (failed) trials, for any grouping."""

    @staticmethod
    def _assert_worker_parity(tasks):
        from repro.faults.campaign import _run_trial_batch

        batched = _run_trial_batch(tasks)
        assert batched == [_pointwise_trial(task) for task in tasks]
        regrouped = [result for task in tasks
                     for result in _run_trial_batch([task])]
        assert batched == regrouped
        return batched

    def test_batched_matches_pointwise_serial(self):
        # MLP and crossbar trials interleaved in one group, with
        # line_open masks that make some crossbar systems singular.
        mixed = _trial_tasks(_tiny_spec(
            networks=("crossbar", "mlp:12,6,4"),
            fault_modes=("stuck_mixed", "open_cell"),
            fault_rates=(0.0, 0.1),
        ))
        singular = _trial_tasks(_tiny_spec(
            fault_modes=("line_open",), fault_rates=(0.3,), trials=8,
        ))
        tasks = [task for pair in zip(mixed, singular) for task in pair]
        tasks += mixed[len(singular):]
        results = self._assert_worker_parity(tasks)
        assert any(result["failed"] for result in results)
        assert {task[0] for task in tasks} == {"crossbar", "mlp:12,6,4"}

    def test_batched_matches_pointwise_parallel(self):
        spec = _tiny_spec(fault_modes=("stuck_mixed", "drift"),
                          fault_rates=(0.05, 0.1))
        assert (run_campaign(spec, jobs=2).to_json()
                == run_campaign(spec).to_json())

    def test_singular_trials_batched_identically(self):
        """An RRAM campaign's batch mixes singular and solvable
        members; the nonlinear solve_batch loop marks exactly the
        singular ones."""
        spec = _tiny_spec(fault_modes=("line_open",), fault_rates=(0.1,),
                          trials=8, device="RRAM")
        results = self._assert_worker_parity(_trial_tasks(spec))
        failed = [result["failed"] for result in results]
        assert any(failed) and not all(failed)
