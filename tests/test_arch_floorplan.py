"""First-order floorplanning."""

import math

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.floorplan import DEFAULT_WHITESPACE_FACTOR, floorplan
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import mlp, validation_mlp


@pytest.fixture
def accelerator():
    config = SimConfig(crossbar_size=128, cmos_tech=45, interconnect_tech=45)
    return Accelerator(config, validation_mlp())


class TestGeometry:
    def test_one_slot_per_bank(self, accelerator):
        plan = floorplan(accelerator)
        assert len(plan.slots) == len(accelerator.banks)

    def test_slots_do_not_overlap(self, accelerator):
        plan = floorplan(accelerator)
        for a in plan.slots:
            for b in plan.slots:
                if a.index >= b.index:
                    continue
                separated = (
                    a.x + a.width <= b.x + 1e-12
                    or b.x + b.width <= a.x + 1e-12
                    or a.y + a.height <= b.y + 1e-12
                    or b.y + b.height <= a.y + 1e-12
                )
                assert separated, (a, b)

    def test_slots_inside_die(self, accelerator):
        plan = floorplan(accelerator)
        for slot in plan.slots:
            assert slot.x + slot.width <= plan.die_width + 1e-12
            assert slot.y + slot.height <= plan.die_height + 1e-12

    def test_utilization_bounded_by_whitespace(self, accelerator):
        plan = floorplan(accelerator)
        assert 0 < plan.utilization <= 1 / DEFAULT_WHITESPACE_FACTOR + 1e-9

    def test_near_square_die_for_many_banks(self):
        config = SimConfig(crossbar_size=64, cmos_tech=45)
        acc = Accelerator(config, mlp([256] * 10, name="deep"))
        plan = floorplan(acc)
        assert 0.3 < plan.aspect_ratio < 3.0

    def test_whitespace_factor_validated(self, accelerator):
        with pytest.raises(ConfigError):
            floorplan(accelerator, whitespace_factor=0.9)


class TestWires:
    def test_wire_length_matches_slot_centres(self, accelerator):
        plan = floorplan(accelerator)
        manual = 0.0
        for a, b in zip(plan.slots, plan.slots[1:]):
            (ax, ay), (bx, by) = a.center, b.center
            manual += abs(ax - bx) + abs(ay - by)
        assert plan.total_wire_length() == pytest.approx(manual)

    def test_wire_overheads_positive_for_multibank(self, accelerator):
        plan = floorplan(accelerator)
        assert plan.wire_latency > 0
        assert plan.wire_energy_per_sample > 0

    def test_single_bank_has_no_cascade_wire(self):
        config = SimConfig(crossbar_size=128, cmos_tech=45)
        acc = Accelerator(config, mlp([128, 128], name="single"))
        plan = floorplan(acc)
        assert len(plan.slots) == 1
        assert plan.wire_latency == 0.0
        assert plan.wire_energy_per_sample == 0.0

