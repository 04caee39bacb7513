"""Write-verify programming model."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.programming import expected_pulses_per_cell, programming_cost
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import validation_mlp
from repro.tech import get_memristor_model


@pytest.fixture
def accelerator():
    config = SimConfig(crossbar_size=128, cmos_tech=45, interconnect_tech=45)
    return Accelerator(config, validation_mlp())


class TestPulseModel:
    def test_ideal_device_needs_one_pulse(self):
        device = get_memristor_model("RRAM")  # sigma = 0 by default
        assert expected_pulses_per_cell(device) == 1.0

    def test_pulses_grow_with_variation(self):
        device = get_memristor_model("RRAM")
        counts = [
            expected_pulses_per_cell(device.with_sigma(sigma))
            for sigma in (0.01, 0.05, 0.1, 0.3)
        ]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_pulses_grow_with_device_precision(self):
        """More levels -> tighter tolerance -> more verify loops."""
        coarse = get_memristor_model("RRAM-4BIT").with_sigma(0.05)
        fine = get_memristor_model("RRAM").with_sigma(0.05)  # 7-bit
        assert expected_pulses_per_cell(fine) > (
            expected_pulses_per_cell(coarse)
        )

    def test_tight_target_needs_more_pulses(self):
        device = get_memristor_model("RRAM").with_sigma(0.05)
        loose = expected_pulses_per_cell(device, target_fraction=1.0)
        tight = expected_pulses_per_cell(device, target_fraction=0.25)
        assert tight > loose

    def test_invalid_target_fraction(self):
        device = get_memristor_model("RRAM")
        with pytest.raises(ConfigError):
            expected_pulses_per_cell(device, target_fraction=0.0)


class TestProgrammingCost:
    def test_zero_sigma_matches_single_pass_write_plus_verify(
        self, accelerator
    ):
        cost = programming_cost(accelerator)
        assert cost.pulses_per_cell == 1.0
        write_energy = accelerator.write_performance().dynamic_energy
        # Verify reads add on top of the raw write energy.
        assert cost.energy > write_energy

    def test_variation_inflates_cost(self):
        config = SimConfig(crossbar_size=128, cmos_tech=45,
                           interconnect_tech=45)
        clean = Accelerator(config, validation_mlp())
        noisy = Accelerator(
            config.replace(device_sigma=0.1), validation_mlp()
        )
        clean_cost = programming_cost(clean)
        noisy_cost = programming_cost(noisy)
        assert noisy_cost.pulses_per_cell > clean_cost.pulses_per_cell
        assert noisy_cost.energy > clean_cost.energy
        assert noisy_cost.latency > clean_cost.latency

    def test_endurance_accounting(self, accelerator):
        cost = programming_cost(accelerator, write_endurance=1e9)
        assert cost.endurance_consumed == pytest.approx(1e-9)

    def test_invalid_endurance(self, accelerator):
        with pytest.raises(ConfigError):
            programming_cost(accelerator, write_endurance=0)
