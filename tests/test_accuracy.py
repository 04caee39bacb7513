"""Behavior-level accuracy model: Eq. 9-16 and the high-level wrapper."""

import math

import pytest

from repro.accuracy.interconnect import (
    DEFAULT_SENSE_RESISTANCE,
    analog_error_rate,
    cell_operating_voltage,
    output_voltage_actual,
    output_voltage_ideal,
    voltage_deviation,
)
from repro.accuracy.model import AccuracyModel
from repro.accuracy.propagation import combine_error_rates, propagate_layers
from repro.accuracy.quantization import (
    avg_digital_deviation,
    avg_error_rate,
    max_digital_deviation,
    max_error_rate,
)
from repro.accuracy.variation import (
    sample_resistances,
    variation_error_bounds,
    worst_variation_error,
)
from repro.config import SimConfig
from repro.tech import get_memristor_model

import numpy as np


@pytest.fixture
def device():
    return get_memristor_model("RRAM")


@pytest.fixture
def ideal_device():
    return get_memristor_model("IDEAL")


SEG_45NM = 0.25  # ~45 nm wire segment resistance at the RRAM pitch


class TestInterconnectModel:
    def test_zero_wire_ideal_device_has_zero_error(self, ideal_device):
        eps = analog_error_rate(64, 64, 0.0, ideal_device)
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_wire_error_positive_and_growing_with_size(self, ideal_device):
        errors = [
            analog_error_rate(size, size, SEG_45NM, ideal_device)
            for size in (16, 64, 256, 1024)
        ]
        assert all(e > 0 for e in errors)
        assert errors == sorted(errors)

    def test_wire_error_grows_with_segment_resistance(self, ideal_device):
        fine = analog_error_rate(128, 128, 2.25, ideal_device)  # ~18 nm
        coarse = analog_error_rate(128, 128, 0.06, ideal_device)  # ~90 nm
        assert fine > coarse

    def test_nonlinearity_error_negative_for_small_arrays(self, device):
        eps = analog_error_rate(8, 8, SEG_45NM, device)
        assert eps < 0

    def test_u_shape_minimum_near_64(self, device):
        """Table V: the error magnitude dips around crossbar size 64 at
        the 45 nm wire node."""
        sizes = (8, 16, 32, 64, 128, 256)
        magnitudes = {
            size: abs(analog_error_rate(size, size, SEG_45NM, device))
            for size in sizes
        }
        best = min(magnitudes, key=magnitudes.get)
        assert best in (32, 64, 128)
        assert magnitudes[8] > magnitudes[best]
        assert magnitudes[256] > magnitudes[best]

    def test_operating_voltage_falls_with_rows(self, device):
        voltages = [
            cell_operating_voltage(rows, rows, SEG_45NM, device)
            for rows in (8, 32, 128, 512)
        ]
        assert voltages == sorted(voltages, reverse=True)
        assert all(0 < v <= device.read_voltage for v in voltages)

    def test_average_case_is_milder_than_worst(self, device):
        worst = abs(analog_error_rate(256, 256, SEG_45NM, device, "worst"))
        average = abs(
            analog_error_rate(256, 256, SEG_45NM, device, "average")
        )
        assert average < worst

    def test_unknown_case_raises(self, device):
        with pytest.raises(ValueError):
            analog_error_rate(8, 8, SEG_45NM, device, case="typical")

    def test_voltage_deviation_consistent_with_error_rate(self, device):
        ideal = output_voltage_ideal(64, device)
        actual = output_voltage_actual(64, 64, SEG_45NM, device)
        deviation = voltage_deviation(64, 64, SEG_45NM, device)
        assert deviation == pytest.approx(ideal - actual)
        eps = analog_error_rate(64, 64, SEG_45NM, device)
        assert eps == pytest.approx(deviation / ideal, rel=1e-9)

    def test_invalid_dimensions_raise(self, device):
        with pytest.raises(ValueError):
            analog_error_rate(0, 8, SEG_45NM, device)
        with pytest.raises(ValueError):
            analog_error_rate(8, 8, -1.0, device)


class TestQuantization:
    def test_paper_worked_example(self):
        """Sec. VI.C: k = 64, eps = 10 % -> MaxDigitalDeviation = 6."""
        assert max_digital_deviation(64, 0.10) == 6
        assert max_error_rate(64, 0.10) == pytest.approx(6 / 63)

    def test_max_deviation_formula(self):
        # floor((k - 1.5) eps + 0.5)
        assert max_digital_deviation(256, 0.05) == math.floor(
            254.5 * 0.05 + 0.5
        )

    def test_zero_epsilon_zero_deviation(self):
        assert max_digital_deviation(256, 0.0) == 0
        assert avg_digital_deviation(256, 0.0) == 0.0

    def test_small_epsilon_floors_to_zero(self):
        """Deviations below half a quantization step vanish (Eq. 12)."""
        assert max_error_rate(256, 0.001) == 0.0

    def test_average_below_max(self):
        for eps in (0.02, 0.05, 0.1, 0.3):
            assert avg_error_rate(256, eps) <= max_error_rate(256, eps)

    def test_error_rates_clamped_to_one(self):
        assert max_error_rate(4, 5.0) == 1.0

    def test_sign_is_ignored(self):
        assert max_error_rate(256, -0.05) == max_error_rate(256, 0.05)

    def test_monotone_in_epsilon(self):
        rates = [max_error_rate(256, e) for e in (0.01, 0.05, 0.1, 0.2)]
        assert rates == sorted(rates)

    def test_average_deviation_formula(self):
        k, eps = 16, 0.1
        expected = sum(math.floor(i * eps + 0.5) for i in range(k)) / k
        assert avg_digital_deviation(k, eps) == pytest.approx(expected)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            max_error_rate(1, 0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            max_error_rate(256, float("nan"))


class TestPropagation:
    def test_combine_matches_eq15(self):
        assert combine_error_rates(0.1, 0.05) == pytest.approx(
            1.1 * 1.05 - 1
        )

    def test_single_layer_reduces_to_quantization(self):
        eps = 0.08
        assert propagate_layers([eps], 256)[0] == max_error_rate(256, eps)

    def test_errors_accumulate_layer_by_layer(self):
        deltas = propagate_layers([0.05] * 4, 256)
        assert len(deltas) == 4
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))

    def test_average_case_below_worst(self):
        eps = [0.06, 0.06, 0.06]
        worst = propagate_layers(eps, 256, case="worst")
        average = propagate_layers(eps, 256, case="average")
        assert all(a <= w for a, w in zip(average, worst))

    def test_unknown_case_raises(self):
        with pytest.raises(ValueError):
            propagate_layers([0.1], 256, case="median")


class TestVariation:
    def test_zero_sigma_bounds_coincide(self, device):
        low, high = variation_error_bounds(64, 64, SEG_45NM, device)
        assert low == pytest.approx(high)

    def test_sigma_widens_the_band(self, device):
        noisy = device.with_sigma(0.3)
        base = abs(analog_error_rate(64, 64, SEG_45NM, device))
        worst = worst_variation_error(64, 64, SEG_45NM, noisy)
        assert worst > base

    def test_variation_monotone_in_sigma(self, device):
        worst = [
            worst_variation_error(
                128, 128, SEG_45NM, device.with_sigma(sigma)
            )
            for sigma in (0.0, 0.1, 0.2, 0.3)
        ]
        assert worst == sorted(worst)

    def test_sample_resistances_bounded(self, device, rng):
        ideal = np.full((32, 32), device.r_min)
        sampled = sample_resistances(ideal, 0.3, rng)
        assert np.all(sampled >= ideal * 0.7 - 1e-9)
        assert np.all(sampled <= ideal * 1.3 + 1e-9)

    def test_sample_zero_sigma_is_identity(self, device, rng):
        ideal = np.full((4, 4), device.r_min)
        assert np.array_equal(sample_resistances(ideal, 0.0, rng), ideal)

    def test_sample_normal_distribution_clipped(self, rng):
        ideal = np.full((64, 64), 1e5)
        sampled = sample_resistances(ideal, 0.1, rng, distribution="normal")
        assert np.all(sampled >= 1e5 * 0.7)

    def test_sample_invalid_args(self, rng):
        with pytest.raises(ValueError):
            sample_resistances(np.ones((2, 2)), -0.1, rng)
        with pytest.raises(ValueError):
            sample_resistances(np.ones((2, 2)), 0.1, rng, distribution="exp")


class TestAccuracyModel:
    def test_epsilon_from_config(self):
        model = AccuracyModel(
            SimConfig(crossbar_size=128, interconnect_tech=45)
        )
        direct = abs(
            analog_error_rate(
                128, 128, model.segment_resistance, model.device,
                sense_resistance=DEFAULT_SENSE_RESISTANCE,
            )
        )
        assert model.crossbar_epsilon() == pytest.approx(direct)

    def test_network_accuracy_propagates(self):
        model = AccuracyModel(
            SimConfig(crossbar_size=128, interconnect_tech=28)
        )
        acc = model.network_accuracy(num_layers=3)
        assert len(acc.worst_by_layer) == 3
        assert acc.worst_error_rate >= acc.worst_by_layer[0]
        assert 0 <= acc.relative_accuracy <= 1

    def test_layer_sizes_override(self):
        model = AccuracyModel(
            SimConfig(crossbar_size=256, interconnect_tech=28)
        )
        acc = model.network_accuracy(layer_sizes=[64, 256])
        assert len(acc.worst_by_layer) == 2

    def test_variation_raises_epsilon(self):
        base = AccuracyModel(SimConfig(crossbar_size=128))
        noisy = AccuracyModel(SimConfig(crossbar_size=128, device_sigma=0.3))
        assert noisy.crossbar_epsilon() > base.crossbar_epsilon()

    def test_empty_network_rejected(self):
        model = AccuracyModel(SimConfig())
        with pytest.raises(ValueError):
            model.network_accuracy(layer_sizes=[])
