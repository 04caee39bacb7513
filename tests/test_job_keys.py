"""Job keys: pinned values, where they are derived, and shape grouping.

The hex keys below are the cache identities of real jobs.  Persisted
cache rows are only found again if these stay byte-identical, so a
change here must be deliberate (bump ``SCHEMA_VERSION``), never an
accident of refactoring the code that derives them.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.accuracy.montecarlo as montecarlo
import repro.dse.explorer as explorer
import repro.faults.campaign as faults_campaign
from repro.campaign.config import CampaignConfig
from repro.campaign.runner import (
    STAGE_CACHE_KIND,
    CampaignLoop,
    run_campaign_config,
    stage_key,
)
from repro.config import SimConfig
from repro.dse.space import DesignSpace
from repro.nn.networks import mlp, validation_mlp, vgg16
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import (
    GOLDENS_SHA256,
    content_key,
    network_fingerprint,
)
from repro.service.schema import SimulationPayload
from repro.tech import get_memristor_model

EXAMPLE_CAMPAIGN = (
    Path(__file__).resolve().parents[1]
    / "examples" / "campaigns" / "fault-sweep.json"
)
GOLDENS = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "perf" / "expected" / "digests.json"
)

#: simulation_spec(SIM_CONFIG, validation_mlp()).key
SIMULATION_SPEC_KEY = (
    "b1e28d9249dd582c6344b3989363dde8dd74b92e056079b18c04afa7e61adad3"
)
#: Monte-Carlo trials 0 and 1 (RRAM, 8x8, r=2.5, seed=7).
MC_KEYS = {
    1: [
        "16f9d9301169e4a7a20e073170858b2b914a453f15dbfff5b0ad8cd8af246fa8",
        "af1f1ffa69994421669d67e020cfc690abb7612d8dd054c40284f987baf72016",
    ],
    32: [
        "1da83337687662a1876680e28640fa4a5f00938d488931d02b551acbef0de1ed",
        "daeec306e2c40c653d61bcac259ab3a34043c216965b3ac7c7e65ac03a5485fa",
    ],
}
#: FAULTS_SPEC trials, in map order (crossbar x2, then the MLP x2).
FAULTS_KEYS = [
    "5e16d3d344d1872cb6cc875d338ce36885c78681c674d1a0e12a1a0be82ad674",
    "d6fd569077639266f3ad3488d7bf5db6ec597ea85ecfe4b10cbccf1b74928a83",
    "6b572789d828fc92f439040e52b34c937291503a570288e56f4f3b745412a754",
    "39a3fc8400d285052f07a8a3e6e69f69958153968f1e1a644eb8b3d02c870e26",
]
PAYLOAD_FINGERPRINT = (
    "a737b7e29999ba36e818d40eb18756b71c08bbf3ce924552f5879060e15e5058"
)
CAMPAIGN_FINGERPRINT = (
    "068941b974ed08a91edd2ce2a868676a798f312d65a51631b4a7efe9550af02e"
)
#: Stage keys of the example campaign's units: the ``campaign-stage``
#: rows an interrupted run left behind resume only under these.
CAMPAIGN_STAGE_KEYS = {
    "unit-000-run-0":
        "c418c5d97c162f5ede25046928f37a7c03138760f8759990aa4ec20abce27d29",
    "unit-000-run-1":
        "1f031fc35e30c99a7837ee7208abb02b82146bbf00f61ee46ea51640365ff6eb",
    "unit-001-run-0":
        "c5947a9c123d027a58d620fefc6c6f37d30df53deff64eeea4ad70b76ee2bf67",
    "unit-001-run-1":
        "dc5c730db04660529216b02de7e5b8046c6e4910060633074c7750c0ee46e87d",
}
VGG16_FINGERPRINT = "a069a4bdf6d7edc7"
#: SWEEP_SPACE points on SWEEP_BASE for SWEEP_NETWORK, in sweep order.
SWEEP_KEYS = [
    "96b76ca86978ca76cd92453687fe0a598dbe57eb2c9f5064fa30a1a267f0cfba",
    "4feecf04051a221a357f53a5fa0a5e3ec386eec21ff37f561ab27db00d2fc59a",
    "b09dff075e11eecff07f3f7be48991c6bab9854dab2b89a4bade4789d3c04c2b",
    "3d3ab0b557f2fb4bebf7bccb56188bb4007262d542bc97c5c789841c60bd0672",
]

SIM_CONFIG = SimConfig(
    crossbar_size=64, parallelism_degree=4, interconnect_tech=45,
    resistance_range=(1e3, 1e5), device_sigma=0.05,
)
FAULTS_SPEC = faults_campaign.FaultsSpec(
    networks=("crossbar", "mlp:64,32,10"), fault_modes=("stuck_mixed",),
    fault_rates=(0.02,), trials=2, seed=5, size=8,
)
SWEEP_SPACE = DesignSpace(
    crossbar_sizes=(32, 64), parallelism_degrees=(1, 4),
    interconnect_nodes=(45,),
)
SWEEP_BASE = SimConfig(device_sigma=0.02)
SWEEP_NETWORK = mlp([16, 8], name="tiny")

#: The paper's 300-point DSE grid (Tables IV/VI).
GRID_300 = {
    "crossbar_sizes": [4, 8, 16, 32, 64, 128, 256, 512, 1024],
    "parallelism_degrees": [1, 2, 4, 8, 16, 32, 64, 128, 256],
    "interconnect_nodes": [18, 22, 28, 36, 45],
}
BUILTIN_NETWORKS = ["vgg16", "caffenet", "jpeg", "validation-mlp",
                    "large-bank"]


def _run_mc(inputs_per_trial, cache=None):
    return montecarlo.run_monte_carlo(
        get_memristor_model("RRAM"), 8, 2.5, trials=2, seed=7,
        inputs_per_trial=inputs_per_trial, cache=cache,
    )


def _forbid(monkeypatch, module, *names):
    """Make ``module.<name>`` raise for each name."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("no job key may be derived without a cache")

    for name in names:
        monkeypatch.setattr(module, name, refuse)


def _count(monkeypatch, module, name="content_key"):
    """Count calls to ``module.<name>`` (still the real function)."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _cached_keys(cache, keys):
    """The subset of ``keys`` present in ``cache``."""
    return set(cache.get_many(keys))


def test_changed_goldens_bump_the_schema_version():
    """The cache outlives commits; only SCHEMA_VERSION invalidates it.

    Re-pinned output digests mean some result changed, so the version
    that keys every cached row must change with them.
    """
    digest = hashlib.sha256(GOLDENS.read_bytes()).hexdigest()
    assert digest == GOLDENS_SHA256, (
        f"{GOLDENS.name} changed (sha256 {digest}): bump SCHEMA_VERSION "
        "and record the new hash as GOLDENS_SHA256 in repro.runtime.jobs"
    )


class TestGoldenKeys:
    def test_simulation_spec(self):
        spec = explorer.simulation_spec(SIM_CONFIG, validation_mlp())
        assert spec.key == SIMULATION_SPEC_KEY

    @pytest.mark.parametrize("inputs_per_trial", [1, 32])
    def test_montecarlo_trials(self, tmp_path, inputs_per_trial):
        with ResultCache(tmp_path) as cache:
            _run_mc(inputs_per_trial, cache)
            keys = MC_KEYS[inputs_per_trial]
            assert _cached_keys(cache, keys) == set(keys)
            assert cache.stats().entries == len(keys)

    def test_faults_trials(self, tmp_path):
        # Both network kinds key on a MemristorModel dataclass.
        with ResultCache(tmp_path) as cache:
            faults_campaign.run_campaign(FAULTS_SPEC, cache=cache)
            assert _cached_keys(cache, FAULTS_KEYS) == set(FAULTS_KEYS)
            assert cache.stats().entries == len(FAULTS_KEYS)

    def test_payload_fingerprint(self):
        payload = SimulationPayload.from_dict({
            "kind": "montecarlo",
            "config": {"memristor_model": "RRAM"},
            "montecarlo": {"size": 16, "trials": 4, "seed": 3,
                           "inputs_per_trial": 2},
        })
        assert payload.fingerprint() == PAYLOAD_FINGERPRINT

    def test_campaign_fingerprint(self):
        config = CampaignConfig.from_dict(
            json.loads(EXAMPLE_CAMPAIGN.read_text())
        )
        assert config.fingerprint() == CAMPAIGN_FINGERPRINT

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_campaign_stage_keys(self, jobs):
        config = CampaignConfig.from_dict(
            json.loads(EXAMPLE_CAMPAIGN.read_text())
        )
        loop = CampaignLoop(config, jobs=jobs)
        keys = {
            unit.stage: stage_key(payload)
            for unit, payload in zip(config.units, loop.payloads)
        }
        assert keys == CAMPAIGN_STAGE_KEYS

    def test_campaign_resumes_from_rows_under_the_pinned_keys(
        self, tmp_path, run_scope
    ):
        # Stage rows stored under the pinned keys (as an older build
        # wrote them) replay every unit: no engine job runs.
        config = CampaignConfig.from_dict(
            json.loads(EXAMPLE_CAMPAIGN.read_text())
        )
        expected = run_campaign_config(config)
        with ResultCache(tmp_path) as cache:
            cache.put_many(
                (CAMPAIGN_STAGE_KEYS[unit["stage"]], STAGE_CACHE_KIND,
                 unit["result"])
                for unit in expected.document["units"]
            )
            with run_scope:
                resumed = run_campaign_config(config, cache=cache)
        assert all(
            resumed.stage_stats[name]["resumed"]
            for name in CAMPAIGN_STAGE_KEYS
        )
        counters = run_scope.summary()["counters"]
        assert counters.get("jobs_executed", 0) == 0
        assert resumed.to_json() == expected.to_json()

    def test_network_fingerprint(self):
        assert network_fingerprint(vgg16()) == VGG16_FINGERPRINT

    def test_cached_explore_replays_pinned_rows(self, tmp_path, run_scope):
        # Rows stored under the pinned keys (as an older build wrote
        # them) must all be found again: no point is recomputed.
        expected = explorer.explore(SWEEP_BASE, SWEEP_NETWORK, SWEEP_SPACE)
        assert len(expected) == len(SWEEP_KEYS)
        with ResultCache(tmp_path) as cache:
            cache.put_many(
                (key, "simulate-point", explorer._encode_summary(p.summary))
                for key, p in zip(SWEEP_KEYS, expected)
            )
            with run_scope:
                replayed = explorer.explore(
                    SWEEP_BASE, SWEEP_NETWORK, SWEEP_SPACE, cache=cache,
                )
            assert cache.stats().hit_rate == 1.0
        counters = run_scope.summary()["counters"]
        assert counters["cache_hits"] == len(SWEEP_KEYS)
        assert counters.get("jobs_executed", 0) == 0
        assert replayed == expected


class TestKeysOnlyForACache:
    def test_explore_without_cache_derives_no_key(self, monkeypatch):
        _forbid(monkeypatch, explorer, "content_key", "network_fingerprint",
                "key_of_json", "canonical", "canonical_json")
        points = explorer.explore(SWEEP_BASE, SWEEP_NETWORK, SWEEP_SPACE)
        assert len(points) == len(SWEEP_KEYS)

    def test_campaign_without_cache_derives_no_key(self, monkeypatch):
        _forbid(monkeypatch, faults_campaign, "content_key")
        result = faults_campaign.run_campaign(FAULTS_SPEC)
        assert len(result.points) == 2

    def test_montecarlo_without_cache_derives_no_key(self, monkeypatch):
        _forbid(monkeypatch, montecarlo, "content_key")
        assert len(_run_mc(1).samples) > 0

    def test_explore_with_cache_keys_each_spec_once(
        self, monkeypatch, tmp_path
    ):
        # The sweep frames its keys itself, from one canonical base.
        calls = _count(monkeypatch, explorer, "key_of_json")
        with ResultCache(tmp_path) as cache:
            explorer.explore(
                SWEEP_BASE, SWEEP_NETWORK, SWEEP_SPACE, cache=cache
            )
            assert len(calls) == len(SWEEP_KEYS)
            assert _cached_keys(cache, SWEEP_KEYS) == set(SWEEP_KEYS)

    def test_explore_with_cache_serializes_the_base_config_once(
        self, monkeypatch, tmp_path
    ):
        calls = _count(monkeypatch, SimConfig, "to_dict")
        with ResultCache(tmp_path) as cache:
            explorer.explore(
                SWEEP_BASE, SWEEP_NETWORK, SWEEP_SPACE, cache=cache
            )
            assert _cached_keys(cache, SWEEP_KEYS) == set(SWEEP_KEYS)
        assert len(SWEEP_KEYS) == 4
        assert len(calls) == 1

    def test_campaign_with_cache_keys_each_spec_once(
        self, monkeypatch, tmp_path
    ):
        calls = _count(monkeypatch, faults_campaign)
        with ResultCache(tmp_path) as cache:
            faults_campaign.run_campaign(FAULTS_SPEC, cache=cache)
            assert len(calls) == len(FAULTS_KEYS)
            assert _cached_keys(cache, FAULTS_KEYS) == set(FAULTS_KEYS)

    @pytest.mark.parametrize("inputs_per_trial", [1, 32])
    def test_montecarlo_with_cache_keys_each_spec_once(
        self, monkeypatch, tmp_path, inputs_per_trial
    ):
        calls = _count(monkeypatch, montecarlo)
        with ResultCache(tmp_path) as cache:
            _run_mc(inputs_per_trial, cache)
            keys = MC_KEYS[inputs_per_trial]
            assert len(calls) == len(keys)
            assert _cached_keys(cache, keys) == set(keys)


def _json_group_key(config):
    """The JSON group key ``_shape_group_key`` used to return."""
    entries = dict(config.to_dict())
    entries.pop("parallelism_degree", None)
    return json.dumps(entries, sort_keys=True, default=str)


def _partition(configs, key):
    """Group index of each config, numbered by first appearance."""
    ids = {}
    return [ids.setdefault(key(config), len(ids)) for config in configs]


def _grid_configs(network, config=None):
    doc = {"kind": "explore", "network": {"topology": network},
           "sweep": GRID_300}
    if config is not None:
        doc["config"] = config
    payload = SimulationPayload.from_dict(doc)
    return list(payload.sweep.configs(payload.config))


class TestShapeGroupKey:
    @pytest.mark.parametrize("network", BUILTIN_NETWORKS)
    def test_groups_like_the_json_key_on_the_300_point_grid(self, network):
        configs = _grid_configs(network)
        assert len(configs) == 300
        groups = _partition(configs, explorer._shape_group_key)
        assert groups == _partition(configs, _json_group_key)
        assert len(set(groups)) == 45  # 9 sizes x 5 wire nodes

    def test_groups_like_the_json_key_with_device_overrides(self):
        configs = _grid_configs("validation-mlp", {
            "resistance_range": [2e3, 4e5], "device_sigma": 0.05,
        })
        configs += _grid_configs("validation-mlp")
        groups = _partition(configs, explorer._shape_group_key)
        assert groups == _partition(configs, _json_group_key)
        assert len(set(groups)) == 90

    def test_key_is_hashable_and_ignores_only_parallelism(self):
        config = SimConfig(resistance_range=(1e3, 1e5))
        key = explorer._shape_group_key(config)
        hash(key)
        assert key == explorer._shape_group_key(
            config.replace(parallelism_degree=8)
        )
        assert key != explorer._shape_group_key(
            config.replace(device_sigma=0.01)
        )
