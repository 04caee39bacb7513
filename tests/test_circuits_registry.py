"""Module registry: the customization hooks of Sec. III.E."""

import dataclasses

import pytest

from repro.circuits.adder import AdderModule
from repro.circuits.base import CircuitModule, CustomModule
from repro.circuits.registry import ModuleRegistry
from repro.errors import ConfigError
from repro.report import Performance
from repro.tech import get_cmos_node


@pytest.fixture
def cmos():
    return get_cmos_node(45)


def test_custom_module_returns_supplied_numbers():
    perf = Performance(area=1e-6, dynamic_energy=2e-9, latency=3e-9)
    module = CustomModule("edram", perf)
    assert module.performance() is perf


def test_custom_module_requires_name():
    with pytest.raises(ValueError):
        CustomModule("", Performance())


def test_build_uses_default_factory(cmos):
    registry = ModuleRegistry()
    module = registry.build("adder", AdderModule, cmos=cmos, bits=8)
    assert isinstance(module, AdderModule)


def test_override_replaces_reference_design(cmos):
    registry = ModuleRegistry()
    registry.override("adder", lambda cmos, bits: AdderModule(cmos, bits * 2))
    module = registry.build("adder", AdderModule, cmos=cmos, bits=8)
    assert module.bits == 16


def test_override_fixed_pins_published_numbers(cmos):
    registry = ModuleRegistry()
    published = Performance(area=5e-7, dynamic_energy=1e-12)
    registry.override_fixed("read_circuit", published)
    module = registry.build("read_circuit", AdderModule, cmos=cmos, bits=8)
    assert module.performance() == published


def test_remove_slot_yields_zero_cost(cmos):
    """DAC/ADC-free structures (Sec. III.E.2, refs [24][30]) remove the
    converter slots entirely."""
    registry = ModuleRegistry()
    registry.remove("dac")
    module = registry.build("dac", AdderModule, cmos=cmos, bits=8)
    perf = module.performance()
    assert perf.area == 0 and perf.dynamic_energy == 0 and perf.latency == 0
    assert registry.is_removed("dac")


def test_restore_undoes_override_and_removal(cmos):
    registry = ModuleRegistry()
    registry.remove("dac")
    registry.restore("dac")
    assert not registry.is_removed("dac")
    module = registry.build("dac", AdderModule, cmos=cmos, bits=8)
    assert isinstance(module, AdderModule)


def test_override_after_remove_reinstates_slot(cmos):
    registry = ModuleRegistry()
    registry.remove("neuron")
    registry.override_fixed("neuron", Performance(area=1.0))
    module = registry.build("neuron", AdderModule, cmos=cmos, bits=8)
    assert module.performance().area == 1.0


def test_non_callable_factory_rejected():
    with pytest.raises(ConfigError):
        ModuleRegistry().override("adder", 42)


def test_copy_is_independent(cmos):
    registry = ModuleRegistry()
    registry.remove("dac")
    clone = registry.copy()
    clone.restore("dac")
    assert registry.is_removed("dac")
    assert not clone.is_removed("dac")


def test_circuit_module_repr():
    class Dummy(CircuitModule):
        kind = "dummy"

        def performance(self):
            return Performance()

    assert "dummy" in repr(Dummy())


# ----------------------------------------------------------------------
# Memo: one module and one record per distinct argument set per registry
# ----------------------------------------------------------------------
class _Counted(CircuitModule):
    """A pure module that counts its constructions and evaluations."""

    kind = "counted"
    built = 0
    evaluated = 0

    def __init__(self, bits=8, scale=1.0):
        type(self).built += 1
        self.bits = bits
        self.scale = scale

    def performance(self):
        type(self).evaluated += 1
        return Performance(area=self.bits * self.scale)


@pytest.fixture
def counted():
    _Counted.built = _Counted.evaluated = 0
    return _Counted


def test_factory_runs_once_per_distinct_kwargs(counted):
    registry = ModuleRegistry()
    first = registry.build("adder", counted, bits=8)
    assert registry.build("adder", counted, bits=8) is first
    other = registry.build("adder", counted, bits=4)
    assert other is not first
    assert counted.built == 2
    # The same factory and kwargs under another slot is another module.
    assert registry.build("subtractor", counted, bits=8) is not first
    assert counted.built == 3


def test_performance_runs_once_per_module(counted):
    registry = ModuleRegistry()
    records = [
        registry.build("adder", counted, bits=8).performance()
        for _ in range(3)
    ]
    assert counted.evaluated == 1
    assert records[0] is records[1] is records[2]
    assert records[0] == Performance(area=8.0)


def test_fresh_registries_share_nothing(counted):
    first = ModuleRegistry().build("adder", counted, bits=8)
    second = ModuleRegistry().build("adder", counted, bits=8)
    assert first is not second
    first.performance()
    second.performance()
    assert (counted.built, counted.evaluated) == (2, 2)


def test_override_after_build_applies_at_next_build(counted):
    registry = ModuleRegistry()
    reference = registry.build("adder", counted, bits=8)
    registry.override("adder", lambda bits: counted(bits, scale=2.0))
    overridden = registry.build("adder", counted, bits=8)
    assert overridden is not reference
    assert overridden.performance().area == 16.0


def test_remove_and_restore_after_build_apply_at_next_build(counted):
    registry = ModuleRegistry()
    reference = registry.build("dac", counted, bits=8)
    registry.remove("dac")
    removed = registry.build("dac", counted, bits=8)
    assert removed.performance() == Performance()
    registry.restore("dac")
    # Restoring resolves the same factory again: the memoized module.
    assert registry.build("dac", counted, bits=8) is reference
    assert counted.built == 1


def test_override_fixed_after_build_applies_at_next_build(counted):
    registry = ModuleRegistry()
    registry.build("neuron", counted, bits=8).performance()
    published = Performance(area=3.0)
    registry.override_fixed("neuron", published)
    assert registry.build("neuron", counted, bits=8).performance() \
        is published
    registry.override_fixed("neuron", Performance(area=4.0))
    assert registry.build("neuron", counted, bits=8).performance().area \
        == 4.0


def test_copy_never_shares_the_memo(counted):
    registry = ModuleRegistry()
    original = registry.build("adder", counted, bits=8)
    clone = registry.copy()
    cloned = clone.build("adder", counted, bits=8)
    assert cloned is not original
    # Nor does the original see what the clone builds afterwards.
    assert clone.build("adder", counted, bits=4) \
        is not registry.build("adder", counted, bits=4)
    assert counted.built == 4


def test_frozen_module_is_built_once_and_costed_per_call():
    @dataclasses.dataclass(frozen=True)
    class Frozen:
        area: float

        def performance(self):
            return Performance(area=self.area)

    registry = ModuleRegistry()
    module = registry.build("dac", Frozen, area=2.0)
    assert registry.build("dac", Frozen, area=2.0) is module
    assert module.performance() == Performance(area=2.0)


def test_explore_builds_and_costs_each_dac_once_per_batch(monkeypatch):
    """A 300-point jpeg sweep builds its one DAC design once per batch."""
    import math

    import repro.arch.unit as unit_module
    from repro.circuits.dac import DacModule
    from repro.config import SimConfig
    from repro.dse import DesignSpace, explore
    from repro.nn.networks import jpeg_autoencoder
    from repro.runtime.pool import _SERIAL_BATCH_SIZE

    counts = {"built": 0, "evaluated": 0}

    class CountedDac(DacModule):
        def __init__(self, *args, **kwargs):
            counts["built"] += 1
            super().__init__(*args, **kwargs)

        def performance(self):
            counts["evaluated"] += 1
            return super().performance()

    monkeypatch.setattr(unit_module, "DacModule", CountedDac)
    space = DesignSpace()
    assert len(space) == 300
    points = explore(SimConfig(cmos_tech=45), jpeg_autoencoder(), space)
    assert len(points) == 300
    batches = math.ceil(len(space) / _SERIAL_BATCH_SIZE)
    assert counts == {"built": batches, "evaluated": batches}
