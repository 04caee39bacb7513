"""Engine guarantee: parallel / cached sweeps equal the serial sweep.

The `jobs=N` and `cache=` knobs must be pure go-faster buttons — same
`DesignPoint` list, same order, same float values.  These tests pin the
guarantee on a small-bank grid so they stay fast under `pytest -x`.
"""

import numpy as np
import pytest

from repro.accuracy.montecarlo import run_monte_carlo
from repro.config import SimConfig
from repro.dse.explorer import explore
from repro.dse.space import DesignSpace
from repro.nn.networks import validation_mlp
from repro.runtime.cache import ResultCache
from repro.tech import get_memristor_model

SMALL_BANK_SPACE = DesignSpace(
    crossbar_sizes=(32, 64, 128),
    parallelism_degrees=(1, 8, 64),
    interconnect_nodes=(28, 45),
)


@pytest.fixture(scope="module")
def base_config():
    return SimConfig(cmos_tech=45, weight_bits=4)


@pytest.fixture(scope="module")
def network():
    return validation_mlp()


@pytest.fixture(scope="module")
def serial_points(base_config, network):
    return explore(base_config, network, SMALL_BANK_SPACE)


class TestExploreEquivalence:
    def test_parallel_equals_serial_exactly(self, base_config, network,
                                            serial_points):
        """Satellite: explore(jobs=4) == serial, same order, same values."""
        parallel = explore(base_config, network, SMALL_BANK_SPACE, jobs=4)
        assert parallel == serial_points

    def test_constraint_applied_identically(self, base_config, network):
        serial = explore(base_config, network, SMALL_BANK_SPACE,
                         max_error_rate=0.25)
        parallel = explore(base_config, network, SMALL_BANK_SPACE,
                           max_error_rate=0.25, jobs=4)
        assert parallel == serial

    def test_cache_round_trip_is_exact(self, base_config, network,
                                       serial_points, tmp_path, run_scope):
        """Summaries must survive the JSON cache byte-identically."""
        with ResultCache(tmp_path / "cache") as cache:
            cold = explore(base_config, network, SMALL_BANK_SPACE,
                           cache=cache)
            with run_scope:
                warm = explore(base_config, network, SMALL_BANK_SPACE,
                               cache=cache)
            assert cold == serial_points
            assert warm == serial_points
            assert run_scope.summary()["counters"]["cache_hits"] == len(
                list(SMALL_BANK_SPACE.valid_points())
            )

    def test_parallel_plus_cache(self, base_config, network, serial_points,
                                 tmp_path):
        with ResultCache(tmp_path / "cache") as cache:
            first = explore(base_config, network, SMALL_BANK_SPACE,
                            jobs=2, cache=cache)
            second = explore(base_config, network, SMALL_BANK_SPACE,
                             jobs=2, cache=cache)
        assert first == serial_points
        assert second == serial_points


class TestMonteCarloEquivalence:
    def test_parallel_equals_serial_bitwise(self):
        device = get_memristor_model("RRAM")
        serial = run_monte_carlo(device, 8, 0.25, seed=11, trials=6)
        parallel = run_monte_carlo(device, 8, 0.25, seed=11, trials=6,
                                   jobs=3)
        assert np.array_equal(serial.samples, parallel.samples)
