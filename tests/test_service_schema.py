"""Payload validation: structured rejection before the engine runs."""

import pytest

from repro.errors import ValidationError
from repro.faults.models import CIRCUIT_ONLY_MODES, FAULT_MODES
from repro.service.schema import (
    InputMode,
    NetworkTopology,
    PayloadKind,
    SimulationPayload,
)

MC_PAYLOAD = {
    "kind": "montecarlo",
    "montecarlo": {"trials": 3, "seed": 1, "size": 8},
}


def reject(data):
    with pytest.raises(ValidationError) as excinfo:
        SimulationPayload.from_dict(data)
    return excinfo.value


class TestVocabularies:
    def test_bad_kind_names_the_vocabulary(self):
        err = reject({"kind": "train"})
        assert err.path == "kind"
        assert err.value == "train"
        assert err.allowed == tuple(k.value for k in PayloadKind)

    def test_missing_kind(self):
        err = reject({})
        assert err.path == "kind"
        assert "missing" in str(err)

    def test_fault_mode_vocabulary_with_index(self):
        err = reject({
            "kind": "faults",
            "faults": {"modes": ["stuck_low", "bogus"]},
        })
        assert err.path == "faults.modes[1]"
        assert err.value == "bogus"
        assert err.allowed == FAULT_MODES

    def test_device_vocabulary(self):
        err = reject({"kind": "faults", "faults": {"device": "FLASH"}})
        assert err.path == "faults.device"
        assert "RRAM" in err.allowed

    def test_device_is_any_registered_model_in_any_case(self):
        upper = SimulationPayload.from_dict(
            {"kind": "faults", "faults": {"device": "RRAM-4BIT"}}
        )
        lower = SimulationPayload.from_dict(
            {"kind": "faults", "faults": {"device": " rram-4bit "}}
        )
        assert lower.faults.device == "RRAM-4BIT"
        assert lower.fingerprint() == upper.fingerprint()

    def test_network_topology_vocabulary(self):
        err = reject({
            "kind": "simulate",
            "network": {"topology": "resnet"},
        })
        assert err.path == "network.topology"
        assert err.allowed == tuple(t.value for t in NetworkTopology)


class TestStructure:
    def test_unknown_top_level_field(self):
        err = reject(dict(MC_PAYLOAD, extra=1))
        assert err.path == "extra"
        assert "kind" in err.allowed

    def test_unknown_nested_field(self):
        err = reject({
            "kind": "montecarlo",
            "montecarlo": {"trials": 3, "samples": 10},
        })
        assert err.path == "montecarlo.samples"
        assert "trials" in err.allowed

    def test_network_required_for_simulate(self):
        err = reject({"kind": "simulate"})
        assert err.path == "network"

    def test_network_rejected_for_montecarlo(self):
        err = reject(dict(
            MC_PAYLOAD, network={"topology": "validation-mlp"}
        ))
        assert err.path == "network"

    def test_foreign_section_rejected(self):
        err = reject({
            "kind": "montecarlo",
            "faults": {"trials": 3},
        })
        assert err.path == "faults"

    @pytest.mark.parametrize("kind, section", [
        ("simulate", "network"),
        ("explore", "network"),
        ("explore", "sweep"),
        ("montecarlo", "montecarlo"),
        ("faults", "faults"),
        ("campaign", "campaign"),
        ("simulate", "config"),
        ("montecarlo", "execution"),
    ])
    def test_null_section_is_not_an_absent_one(self, kind, section):
        data = {"kind": kind, section: None}
        if kind in ("simulate", "explore") and section != "network":
            data["network"] = {"topology": "validation-mlp"}
        err = reject(data)
        assert err.path == section
        assert "must be a JSON object" in str(err)

    def test_null_foreign_section_is_still_foreign(self):
        err = reject({
            "kind": "simulate", "network": {"topology": "validation-mlp"},
            "sweep": None,
        })
        assert err.path == "sweep"
        assert "does not apply" in str(err)

    def test_mlp_needs_sizes(self):
        err = reject({"kind": "simulate", "network": {"topology": "mlp"}})
        assert err.path == "network.sizes"

    def test_builtin_rejects_sizes(self):
        err = reject({
            "kind": "simulate",
            "network": {"topology": "jpeg", "sizes": [4, 4]},
        })
        assert err.path == "network.sizes"

    def test_config_errors_get_config_prefix(self):
        err = reject(dict(MC_PAYLOAD, config={"weight_polarity": 3}))
        assert err.path == "config.weight_polarity"
        assert err.value == 3
        assert err.allowed == (1, 2)

    def test_unknown_config_key_prefixed(self):
        err = reject(dict(MC_PAYLOAD, config={"xbar": 64}))
        assert err.path == "config.xbar"

    def test_type_errors_carry_value(self):
        err = reject({
            "kind": "montecarlo", "montecarlo": {"trials": "many"},
        })
        assert err.path == "montecarlo.trials"
        assert err.value == "many"

    def test_sweep_node_vocabulary(self):
        err = reject({
            "kind": "explore",
            "network": {"topology": "large-bank"},
            "sweep": {"interconnect_nodes": [28, 99]},
        })
        assert err.path.startswith("sweep")

    def test_to_dict_is_json_safe(self):
        err = reject({"kind": "montecarlo", "montecarlo": {"trials": -2}})
        doc = err.to_dict()
        assert doc["path"] == "montecarlo.trials"
        assert doc["value"] == -2
        assert "message" in doc


class TestCanonicalisation:
    def test_roundtrip_and_defaults(self):
        payload = SimulationPayload.from_dict(MC_PAYLOAD)
        assert payload.kind is PayloadKind.MONTECARLO
        assert payload.montecarlo.input_mode is InputMode.RANDOM
        again = SimulationPayload.from_dict(payload.to_dict())
        assert again == payload

    def test_fingerprint_ignores_key_order(self):
        a = SimulationPayload.from_dict(MC_PAYLOAD)
        reordered = {
            "montecarlo": {"size": 8, "seed": 1, "trials": 3},
            "kind": "montecarlo",
        }
        b = SimulationPayload.from_dict(reordered)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_ignores_execution_knobs(self):
        a = SimulationPayload.from_dict(MC_PAYLOAD)
        b = SimulationPayload.from_dict(
            dict(MC_PAYLOAD, execution={"jobs": 4, "retries": 2})
        )
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_result_inputs(self):
        a = SimulationPayload.from_dict(MC_PAYLOAD)
        b = SimulationPayload.from_dict({
            "kind": "montecarlo",
            "montecarlo": {"trials": 3, "seed": 2, "size": 8},
        })
        assert a.fingerprint() != b.fingerprint()

    def test_faults_payload_canonicalises_to_campaign_spec(self):
        payload = SimulationPayload.from_dict({
            "kind": "faults",
            "faults": {"modes": ["drift"], "rates": [0.0, 0.1],
                       "trials": 2, "size": 8},
        })
        # The section is the engine's spec: run_campaign reads it as is.
        spec = payload.faults
        assert spec.fault_modes == ("drift",)
        assert spec.fault_rates == (0.0, 0.1)
        assert spec.to_dict()["modes"] == ["drift"]

    def test_circuit_only_mode_on_mlp_rejected(self):
        err = reject({
            "kind": "faults",
            "faults": {"networks": ["mlp:4,4"], "modes": ["line_open"]},
        })
        assert err.path == "faults.modes[0]"
        assert err.value == "line_open"
        assert not set(err.allowed) & set(CIRCUIT_ONLY_MODES)

    def test_validation_never_touches_the_engine(self, monkeypatch):
        import repro.service.workloads as workloads

        def boom(*_a, **_k):  # pragma: no cover - must not run
            raise AssertionError("engine reached during validation")

        monkeypatch.setattr(workloads, "run_payload", boom)
        reject({"kind": "montecarlo", "montecarlo": {"trials": 0}})
        SimulationPayload.from_dict(MC_PAYLOAD)  # valid: still no engine


class TestMistypedValues:
    """Values of the wrong JSON type fail at their field, never later."""

    @pytest.mark.parametrize("config, path, value", [
        ({"crossbar_size": "64"}, "config.crossbar_size", "64"),
        ({"cell_type": 7}, "config.cell_type", 7),
        ({"weight_bits": True}, "config.weight_bits", True),
        ({"interface_number": [1.7, 2]}, "config.interface_number[0]", 1.7),
        ({"resistance_range": ["a", "b"]}, "config.resistance_range[0]",
         "a"),
    ])
    def test_config_field_types(self, config, path, value):
        err = reject(dict(MC_PAYLOAD, config=config))
        assert err.path == path
        assert err.value == value

    def test_enum_field_names_its_vocabulary(self):
        err = reject(dict(MC_PAYLOAD, config={"cell_type": 7}))
        assert err.allowed == ("1T1R", "0T1R")

    def test_cell_type_spelling_is_case_insensitive(self):
        payload = SimulationPayload.from_dict(
            dict(MC_PAYLOAD, config={"cell_type": "0t1r"})
        )
        assert payload.config.to_dict()["cell_type"] == "0T1R"
