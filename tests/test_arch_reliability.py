"""Retention / read-disturb / refresh lifetime model."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.reliability import reliability_report
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import validation_mlp

YEAR = 365.0 * 24 * 3600


@pytest.fixture
def accelerator():
    config = SimConfig(crossbar_size=128, cmos_tech=45, interconnect_tech=45)
    return Accelerator(config, validation_mlp())


class TestReport:
    def test_idle_device_is_retention_limited(self, accelerator):
        report = reliability_report(accelerator, samples_per_second=0.0)
        assert report.retention_limited
        # Half-level budget at one level/year -> refresh every 6 months.
        assert report.refresh_interval == pytest.approx(YEAR / 2)
        assert report.refreshes_per_year == pytest.approx(2.0)

    def test_heavy_read_traffic_becomes_disturb_limited(self, accelerator):
        report = reliability_report(
            accelerator, samples_per_second=1e6,
            disturb_per_read=1e-6,
        )
        assert not report.retention_limited
        assert report.refresh_interval < YEAR / 2

    def test_refresh_costs_scale_with_frequency(self, accelerator):
        relaxed = reliability_report(accelerator, 0.0)
        stressed = reliability_report(
            accelerator, 1e6, disturb_per_read=1e-6
        )
        assert stressed.refresh_energy_per_year > (
            relaxed.refresh_energy_per_year
        )
        assert stressed.refresh_duty_cycle >= relaxed.refresh_duty_cycle

    def test_duty_cycle_bounded(self, accelerator):
        report = reliability_report(
            accelerator, 1e9, disturb_per_read=1e-3
        )
        assert 0 < report.refresh_duty_cycle <= 1.0

    def test_endurance_lifetime_positive(self, accelerator):
        report = reliability_report(accelerator, 100.0)
        # 2 refreshes/year, 1 pulse/cell, 1e9 endurance -> ~5e8 years.
        assert report.endurance_lifetime_years > 1e6

    def test_invalid_args(self, accelerator):
        with pytest.raises(ConfigError):
            reliability_report(accelerator, -1.0)
        with pytest.raises(ConfigError):
            reliability_report(accelerator, 1.0, drift_budget=0.0)
        with pytest.raises(ConfigError):
            reliability_report(accelerator, 1.0, retention_per_level=0.0)


class TestHardFaultRate:
    """Hard faults (stuck/open cells) tighten the refresh policy."""

    def test_default_is_fault_free(self, accelerator):
        report = reliability_report(accelerator, 0.0)
        assert report.hard_fault_rate == 0.0

    def test_faults_shrink_the_refresh_interval(self, accelerator):
        healthy = reliability_report(accelerator, 0.0)
        faulted = reliability_report(
            accelerator, 0.0, hard_fault_rate=0.1
        )
        assert faulted.hard_fault_rate == 0.1
        # Effective budget is drift_budget * (1 - rate).
        assert faulted.refresh_interval == pytest.approx(
            healthy.refresh_interval * 0.9
        )
        assert (faulted.refreshes_per_year
                > healthy.refreshes_per_year)
        assert (faulted.endurance_lifetime_years
                < healthy.endurance_lifetime_years)

    def test_mask_fraction_feeds_the_model(self, accelerator):
        import numpy as np

        from repro.faults.models import sample_fault_mask

        mask = sample_fault_mask(
            32, 32, 0.05, np.random.default_rng(0), mode="stuck_mixed"
        )
        report = reliability_report(
            accelerator, 0.0, hard_fault_rate=mask.cell_fault_fraction
        )
        assert report.hard_fault_rate == mask.cell_fault_fraction

    def test_rate_bounds_enforced(self, accelerator):
        with pytest.raises(ConfigError):
            reliability_report(accelerator, 0.0, hard_fault_rate=-0.1)
        with pytest.raises(ConfigError):
            reliability_report(accelerator, 0.0, hard_fault_rate=1.0)
