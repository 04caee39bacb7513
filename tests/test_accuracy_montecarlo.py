"""Monte-Carlo accuracy simulation against the circuit solver."""

import numpy as np
import pytest

from repro.accuracy.interconnect import (
    DEFAULT_SENSE_RESISTANCE,
    analog_error_rate,
)
from repro.accuracy.montecarlo import (
    MonteCarloResult,
    bound_check,
    run_monte_carlo,
)
from repro.errors import ConfigError
from repro.spice.solver import (
    CrossbarNetwork,
    ideal_output_voltages,
    solve_batch,
)
from repro.tech import get_memristor_model

SEG_45NM = 0.25


@pytest.fixture(scope="module")
def device():
    return get_memristor_model("RRAM")


@pytest.fixture(scope="module")
def mc_result(device):
    return run_monte_carlo(device, size=16, segment_resistance=SEG_45NM,
                           seed=99, trials=5)


class TestDistribution:
    def test_statistics_consistent(self, mc_result):
        assert 0 <= mc_result.mean_abs_error <= mc_result.max_abs_error
        assert mc_result.percentile(50) <= mc_result.percentile(99)
        assert mc_result.percentile(100) == pytest.approx(
            mc_result.max_abs_error
        )

    def test_reproducible_with_same_seed(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM, seed=7, trials=3)
        b = run_monte_carlo(device, 8, SEG_45NM, seed=7, trials=3)
        assert np.array_equal(a.samples, b.samples)

    def test_full_input_mode_is_deterministic_worse(self, device):
        random_inputs = run_monte_carlo(
            device, 16, SEG_45NM, seed=3, trials=3, input_mode="random"
        )
        full_inputs = run_monte_carlo(
            device, 16, SEG_45NM, seed=3, trials=3, input_mode="full"
        )
        # Driving every row at full scale biases cells harder.
        assert full_inputs.mean_abs_error >= (
            random_inputs.mean_abs_error * 0.5
        )


class TestVariation:
    def test_variation_widens_the_distribution(self, device):
        base = run_monte_carlo(
            device, 16, SEG_45NM, seed=5, trials=4, sigma=0.0,
        )
        noisy = run_monte_carlo(
            device, 16, SEG_45NM, seed=5, trials=4, sigma=0.3,
        )
        assert noisy.max_abs_error > base.max_abs_error


class TestBoundCheck:
    def test_worst_case_model_dominates_random_samples(self, device,
                                                       mc_result):
        """The closed-form worst case must bound the Monte-Carlo
        distribution — the basic soundness of Sec. VI.C."""
        worst = abs(analog_error_rate(16, 16, SEG_45NM, device))
        assert bound_check(mc_result, worst, slack=2.0)

    def test_bound_check_rejects_negative_bound(self, mc_result):
        with pytest.raises(ConfigError):
            bound_check(mc_result, -0.1)

    def test_bound_check_fails_for_tiny_bound(self, mc_result):
        assert not bound_check(mc_result, 1e-9, slack=1.0)


class TestSeededProtocol:
    """Satellite: explicit seed threading for schedule-independence."""

    def test_fixed_seed_gives_identical_samples(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        b = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, device):
        a = run_monte_carlo(device, 8, SEG_45NM, seed=21, trials=4)
        b = run_monte_carlo(device, 8, SEG_45NM, seed=22, trials=4)
        assert not np.array_equal(a.samples, b.samples)

    def test_parallel_matches_serial(self, device):
        serial = run_monte_carlo(device, 8, SEG_45NM, seed=5, trials=5)
        parallel = run_monte_carlo(device, 8, SEG_45NM, seed=5, trials=5,
                                   jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_parity_across_jobs_and_chunk_sizes(self, device):
        """Bit-identical statistics for jobs=0/2 and any chunk_size.

        The per-trial spawn key must be the only RNG source in the
        workers, so the execution schedule (worker count, chunking)
        can never leak into the sampled values.
        """
        from repro.runtime.pool import RunPolicy

        reference = run_monte_carlo(device, 8, SEG_45NM, seed=13,
                                    trials=6)
        for policy in (
            RunPolicy(jobs=2),
            RunPolicy(jobs=0),
            RunPolicy(jobs=2, chunk_size=1),
            RunPolicy(jobs=2, chunk_size=4),
            RunPolicy(jobs=0, chunk_size=5),
        ):
            run = run_monte_carlo(device, 8, SEG_45NM, seed=13,
                                  trials=6, policy=policy)
            assert np.array_equal(reference.samples, run.samples), (
                f"schedule leaked into samples under {policy}"
            )

    def test_trial_streams_are_independent(self, device):
        """Prefixes agree: trials 0..2 of a 3-trial run equal trials
        0..2 of a 5-trial run (per-trial spawn keys, not one stream)."""
        short = run_monte_carlo(device, 8, SEG_45NM, seed=9, trials=3)
        long = run_monte_carlo(device, 8, SEG_45NM, seed=9, trials=5)
        assert np.array_equal(short.samples,
                              long.samples[: len(short.samples)])


class TestValidation:
    def test_invalid_args(self, device):
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, seed=0, trials=0)
        with pytest.raises(ConfigError):
            run_monte_carlo(device, 8, SEG_45NM, seed=0, input_mode="spiky")

    def test_seed_is_required(self, device):
        """Every run is seeded per trial; there is no shared-generator
        protocol to fall back to, serial or parallel."""
        with pytest.raises(TypeError, match="seed"):
            run_monte_carlo(device, 8, SEG_45NM)
        with pytest.raises(TypeError, match="seed"):
            run_monte_carlo(device, 8, SEG_45NM, jobs=2)


def _trial_draws(device, size, seed, trials, input_mode="random"):
    """Each seeded trial's draws, replayed from its spawn-keyed stream."""
    from repro.accuracy.montecarlo import _draw_trial

    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(trial,))
        )
        yield rng, _draw_trial(device, size, device.sigma, input_mode, rng)


def _relative_errors(programmed, inputs, outputs):
    """The worker's per-trial error extraction."""
    ideal = ideal_output_voltages(programmed, inputs,
                                  DEFAULT_SENSE_RESISTANCE)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (ideal - outputs) / ideal
    return rel[np.isfinite(rel)]


class TestBatchedParity:
    """The batched solver entry points reproduce the Monte-Carlo
    samples bit for bit: ``solve_batch`` over the same trials, and
    ``solve_many`` against per-vector ``solve`` (DESIGN.md S22)."""

    @staticmethod
    def _batched_samples(device, size, seed, trials, input_mode="random"):
        draws = [draw for _, draw in _trial_draws(
            device, size, seed, trials, input_mode
        )]
        batch = solve_batch(
            [CrossbarNetwork(actual, SEG_45NM, DEFAULT_SENSE_RESISTANCE,
                             device=device) for _, actual, _ in draws],
            np.stack([inputs for _, _, inputs in draws]),
        )
        return np.concatenate([
            _relative_errors(programmed, inputs, batch.output_voltages[k])
            for k, (programmed, _, inputs) in enumerate(draws)
        ])

    def test_batched_matches_pointwise_serial(self, device):
        run = run_monte_carlo(device, 16, SEG_45NM, seed=11, trials=6)
        assert np.array_equal(run.samples,
                              self._batched_samples(device, 16, 11, 6))

    def test_batched_matches_pointwise_parallel(self, device):
        run = run_monte_carlo(device, 16, SEG_45NM, seed=11, trials=6,
                              jobs=2)
        assert np.array_equal(run.samples,
                              self._batched_samples(device, 16, 11, 6))

    def test_multi_input_trials_fall_back_identically(self, device):
        """``inputs_per_trial > 1`` solves through ``solve_many``, whose
        nonlinear path is the per-member loop — identical to ``solve``
        on each vector."""
        run = run_monte_carlo(device, 12, SEG_45NM, seed=13, trials=4,
                              inputs_per_trial=3)
        expected = []
        for rng, (programmed, actual, first) in _trial_draws(
                device, 12, 13, 4):
            vectors = np.vstack((
                first, rng.uniform(0, device.read_voltage, size=(2, 12)),
            ))
            network = CrossbarNetwork(actual, SEG_45NM,
                                      DEFAULT_SENSE_RESISTANCE,
                                      device=device)
            outputs = np.stack([
                network.solve(vector).output_voltages for vector in vectors
            ])
            expected.append(_relative_errors(programmed, vectors, outputs))
        assert np.array_equal(run.samples, np.concatenate(expected))

    def test_full_input_mode_batched_identically(self, device):
        run = run_monte_carlo(device, 12, SEG_45NM, seed=17, trials=4,
                              input_mode="full")
        assert np.array_equal(
            run.samples, self._batched_samples(device, 12, 17, 4, "full")
        )
