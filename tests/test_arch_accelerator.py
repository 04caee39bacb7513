"""Level-1 Accelerator: composition, summaries, accuracy wiring."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.bank import ComputationBank
from repro.circuits import ModuleRegistry
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import caffenet, mlp, validation_mlp
from repro.report import Performance


@pytest.fixture
def config():
    return SimConfig(crossbar_size=128, cmos_tech=45, interconnect_tech=45)


@pytest.fixture
def accelerator(config, mlp_network):
    return Accelerator(config, mlp_network)


@pytest.fixture(params=["mlp", "caffenet", "custom-registry"])
def design(request, config):
    """One MLP, one conv network with pooling, one customized registry."""
    if request.param == "mlp":
        return Accelerator(config, validation_mlp())
    if request.param == "caffenet":
        return Accelerator(config, caffenet())
    registry = ModuleRegistry()
    registry.remove("dac")
    registry.override_fixed(
        "read_circuit",
        Performance(area=5e-7, dynamic_energy=1e-12, latency=2e-9),
    )
    return Accelerator(config, mlp([256, 128, 10]), registry)


class TestConstruction:
    def test_one_bank_per_layer(self, accelerator, mlp_network):
        assert len(accelerator.banks) == mlp_network.depth

    def test_network_type_propagates(self, config):
        acc = Accelerator(config, caffenet())
        assert acc.config.network_type == "CNN"

    def test_depth_mismatch_rejected(self, config, mlp_network):
        with pytest.raises(ConfigError, match="network_depth"):
            Accelerator(config.replace(network_depth=7), mlp_network)

    def test_matching_depth_accepted(self, config, mlp_network):
        acc = Accelerator(
            config.replace(network_depth=mlp_network.depth), mlp_network
        )
        assert acc.config.network_depth == mlp_network.depth

    def test_totals(self, accelerator):
        assert accelerator.total_units == sum(
            b.units for b in accelerator.banks
        )
        assert accelerator.total_crossbars == 2 * accelerator.total_units


class TestPerformance:
    def test_sample_includes_interfaces(self, accelerator):
        with_bus = accelerator.sample_performance()
        banks_only = accelerator.compute_sample_performance()
        assert with_bus.latency > banks_only.latency
        assert with_bus.area > banks_only.area

    def test_sample_latency_is_sum_of_banks(self, accelerator):
        banks_only = accelerator.compute_sample_performance()
        expected = sum(
            b.sample_performance().latency for b in accelerator.banks
        )
        assert banks_only.latency == pytest.approx(expected)

    def test_pipeline_cycle_is_slowest_bank(self, config):
        acc = Accelerator(config, mlp([2048, 1024, 16]))
        slowest = max(
            b.pass_performance().latency for b in acc.banks
        )
        assert acc.pipeline_cycle_latency() == pytest.approx(slowest)

    def test_write_cost_accumulates_banks(self, accelerator):
        write = accelerator.write_performance()
        assert write.latency == pytest.approx(
            sum(b.write_performance().latency for b in accelerator.banks)
        )


class TestSummary:
    def test_summary_fields_consistent(self, design):
        summary = design.summary()
        sample = design.sample_performance()
        assert summary.area == sample.area
        assert summary.energy_per_sample == sample.dynamic_energy
        assert summary.sample_latency == sample.latency
        assert summary.compute_latency == (
            design.compute_sample_performance().latency
        )
        assert summary.pipeline_cycle == design.pipeline_cycle_latency()
        assert summary.compute_latency < summary.sample_latency
        assert summary.pipeline_cycle <= summary.compute_latency
        assert summary.power > 0

    def test_summary_evaluates_each_bank_pass_once(self, design, monkeypatch):
        calls = []
        original = ComputationBank.pass_performance

        def counting(bank):
            calls.append(bank)
            return original(bank)

        monkeypatch.setattr(ComputationBank, "pass_performance", counting)
        design.summary()
        assert len(calls) == len(design.banks)

    def test_relative_accuracy_complement(self, accelerator):
        summary = accelerator.summary()
        assert summary.relative_accuracy == pytest.approx(
            1 - summary.average_error_rate
        )
        assert summary.average_error_rate <= summary.worst_error_rate

    def test_energy_efficiency(self, accelerator):
        summary = accelerator.summary()
        assert summary.energy_efficiency == pytest.approx(
            1 / summary.energy_per_sample
        )


class TestAccuracyWiring:
    def test_accuracy_uses_effective_fill(self, config):
        """A 16-wide layer in 128 crossbars stresses only 16 rows, so it
        must be *more* accurate than a full 128-row layer."""
        narrow = Accelerator(config, mlp([16, 16])).accuracy()
        full = Accelerator(config, mlp([128, 128])).accuracy()
        assert narrow.analog_epsilon_worst != full.analog_epsilon_worst

    def test_deeper_networks_accumulate_error(self, config):
        shallow = Accelerator(config, mlp([512, 512])).summary()
        deep = Accelerator(
            config, mlp([512] * 7)
        ).summary()
        assert deep.worst_error_rate >= shallow.worst_error_rate


class TestReport:
    def test_report_tree_shape(self, accelerator):
        node = accelerator.report()
        names = [child.name for child in node.children]
        assert names[0] == "input_interface"
        assert names[-1] == "output_interface"
        assert any(name.startswith("bank[") for name in names)
        rendered = node.render(max_depth=2)
        assert "synapse_sub_bank" in rendered
