"""SimConfig validation, derived quantities, and the config-file parser."""

import pytest

from repro.config import SimConfig
from repro.errors import ConfigError
from repro.tech.memristor import CellType


class TestDefaults:
    def test_table1_defaults(self, default_config):
        assert default_config.interface_number == (128, 128)
        assert default_config.network_type == "DNN"
        assert default_config.crossbar_size == 128
        assert default_config.pooling_size == 2
        assert default_config.spacial_size == 1
        assert default_config.weight_polarity == 2
        assert default_config.cmos_tech == 90
        assert default_config.cell_type is CellType.ONE_T_ONE_R
        assert default_config.memristor_model == "RRAM"
        assert default_config.interconnect_tech == 28
        assert default_config.parallelism_degree == 0

    def test_ann_normalises_to_dnn(self):
        assert SimConfig(network_type="ANN").network_type == "DNN"

    def test_cell_type_accepts_strings(self):
        assert SimConfig(cell_type="0T1R").cell_type is CellType.CROSS_POINT


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crossbar_size": 0},
            {"crossbar_size": 100},  # not a power of two
            {"weight_polarity": 3},
            {"parallelism_degree": -1},
            {"parallelism_degree": 256, "crossbar_size": 128},
            {"pooling_size": 0},
            {"network_depth": 0},
            {"interface_number": (0, 128)},
            {"weight_bits": 0},
            {"signal_bits": 0},
            {"resistance_range": (500, 100)},
            {"resistance_range": (0, 100)},
            {"device_sigma": 0.5},
            {"network_type": "RNN"},
            {"cmos_tech": 14},
            {"interconnect_tech": 7},
            {"memristor_model": "FLASH"},
        ],
    )
    def test_bad_values_raise_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)

    def test_interface_number_rejects_scalars(self):
        with pytest.raises(ConfigError):
            SimConfig(interface_number=128)


class TestDerived:
    def test_device_resolves_model(self, default_config):
        assert default_config.device.name == "RRAM"

    def test_resistance_range_overrides_device(self):
        config = SimConfig(resistance_range=(500, 500e3))
        assert config.device.r_min == 500
        assert config.device.r_max == 500e3

    def test_device_sigma_override(self):
        assert SimConfig(device_sigma=0.2).device.sigma == 0.2

    def test_device_resolved_once_per_simulate_job(self, monkeypatch):
        """A vgg16 simulate job with a sigma override builds its device
        model once, not once per ``config.device`` read."""
        from repro.service.schema import SimulationPayload
        from repro.service.workloads import run_payload
        from repro.tech.memristor import MemristorModel

        calls = []
        real = MemristorModel.with_sigma

        def counting(model, sigma):
            calls.append(sigma)
            return real(model, sigma)

        monkeypatch.setattr(MemristorModel, "with_sigma", counting)
        run_payload(SimulationPayload.from_dict({
            "kind": "simulate", "network": {"topology": "vgg16"},
            "config": {"device_sigma": 0.05},
        }))
        assert calls == [0.05]

    def test_replace_resolves_a_fresh_device(self):
        config = SimConfig(device_sigma=0.05)
        assert config.device.sigma == 0.05
        assert config.replace(device_sigma=0.1).device.sigma == 0.1
        assert config.device.sigma == 0.05

    def test_cells_per_weight_reference(self):
        # 8-bit signed on a 7-bit device: 1 slice x 2 polarities.
        config = SimConfig(weight_bits=8, weight_polarity=2)
        assert config.bit_slices == 1
        assert config.cells_per_weight == 2

    def test_cells_per_weight_prime_style(self):
        # 8-bit signed on a 4-bit device: 2 slices x 2 polarities = 4.
        config = SimConfig(
            weight_bits=8, weight_polarity=2, memristor_model="RRAM-4BIT"
        )
        assert config.bit_slices == 2
        assert config.cells_per_weight == 4

    def test_unsigned_weights_skip_polarity_doubling(self):
        config = SimConfig(weight_bits=7, weight_polarity=1)
        assert config.cells_per_weight == config.bit_slices

    def test_read_levels(self):
        assert SimConfig(signal_bits=6).read_levels == 64

    def test_effective_parallelism_all_parallel(self):
        config = SimConfig(parallelism_degree=0, crossbar_size=128)
        assert config.effective_parallelism() == 128
        assert config.effective_parallelism(40) == 40

    def test_effective_parallelism_clamps_to_columns(self):
        config = SimConfig(parallelism_degree=64, crossbar_size=128)
        assert config.effective_parallelism(32) == 32
        assert config.effective_parallelism(128) == 64

    def test_effective_parallelism_rejects_bad_columns(self):
        with pytest.raises(ConfigError):
            SimConfig().effective_parallelism(0)

    def test_replace_returns_modified_copy(self, default_config):
        changed = default_config.replace(crossbar_size=256)
        assert changed.crossbar_size == 256
        assert default_config.crossbar_size == 128


class TestConfigFile:
    def test_parse_table1_style_text(self):
        text = """
        # MNSIM configuration
        [accelerator]
        Network_Depth = 3
        Interface_Number = [64, 32]
        [bank]
        Network_Type = ANN
        Crossbar_Size = 256
        Pooling_Size = 2
        [unit]
        Weight_Polarity = 2
        CMOS_Tech = 45nm
        Cell_Type = 1T1R
        Memristor_Model = RRAM
        Interconnect_Tech = 22
        Parallelism_Degree = 16
        Resistance_Range = [500 500k]
        Weight_Bits = 4
        Signal_Bits = 8
        """
        config = SimConfig.from_string(text)
        assert config.network_depth == 3
        assert config.interface_number == (64, 32)
        assert config.crossbar_size == 256
        assert config.cmos_tech == 45
        assert config.interconnect_tech == 22
        assert config.parallelism_degree == 16
        assert config.resistance_range == (500.0, 500e3)
        assert config.weight_bits == 4

    def test_parse_si_suffixes(self):
        config = SimConfig.from_string("Resistance_Range = [1k, 1M]")
        assert config.resistance_range == (1e3, 1e6)

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            SimConfig.from_string("Frobnicate = 7")

    def test_missing_equals_raises(self):
        with pytest.raises(ConfigError, match="expected"):
            SimConfig.from_string("Crossbar_Size 128")

    def test_comments_and_blank_lines_ignored(self):
        config = SimConfig.from_string("\n# c\n; c2\nCrossbar_Size = 64 # tail\n")
        assert config.crossbar_size == 64

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "mnsim.cfg"
        path.write_text("Crossbar_Size = 32\nCMOS_Tech = 65\n")
        config = SimConfig.from_file(path)
        assert config.crossbar_size == 32
        assert config.cmos_tech == 65
