"""Design-space exploration: space, explorer, trade-offs."""

import pytest

from repro.config import SimConfig
from repro.dse.explorer import (
    DesignPoint,
    explore,
    optimal,
    optimal_table,
    pentagon_factors,
)
from repro.dse.space import DesignSpace
from repro.dse.tradeoff import (
    inflection_point,
    parallelism_sweep,
    pareto_frontier,
    size_tradeoff,
)
from repro.errors import ConfigError, ExplorationError, ValidationError
from repro.nn.networks import large_bank_layer, mlp
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import content_key, network_fingerprint


@pytest.fixture
def base_config():
    return SimConfig(cmos_tech=45, weight_bits=4, signal_bits=8)


@pytest.fixture
def small_space():
    return DesignSpace(
        crossbar_sizes=(64, 128, 256),
        parallelism_degrees=(1, 32, 256),
        interconnect_nodes=(28, 45),
    )


@pytest.fixture
def points(base_config, small_space, large_layer_network):
    return explore(base_config, large_layer_network, small_space)


class TestSpace:
    def test_default_space_matches_paper_sweep(self):
        space = DesignSpace()
        assert 4 in space.crossbar_sizes and 1024 in space.crossbar_sizes
        assert set(space.interconnect_nodes) == {18, 22, 28, 36, 45}

    def test_invalid_degrees_filtered(self, small_space):
        for size, degree, _node in small_space.valid_points():
            assert degree <= size

    def test_len_counts_valid_points(self, small_space):
        # sizes 64 (p in 1,32), 128 (1,32), 256 (1,32,256) -> 7 combos x 2 wires.
        assert len(small_space) == 14

    def test_unknown_interconnect_rejected(self):
        with pytest.raises(ConfigError):
            DesignSpace(interconnect_nodes=(10,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            DesignSpace(crossbar_sizes=())

    @pytest.mark.parametrize("axes, path", [
        ({"crossbar_sizes": (0, -3)}, "crossbar_sizes"),
        ({"crossbar_sizes": (1, 64)}, "crossbar_sizes"),
        ({"parallelism_degrees": (1, -1)}, "parallelism_degrees"),
    ])
    def test_out_of_range_axis_rejected(self, axes, path):
        """A grid no point of which is a valid SimConfig is an error,
        not an empty sweep."""
        low = DesignSpace.__dataclass_fields__[path].metadata["minimum"]
        index = next(i for i, v in enumerate(axes[path]) if v < low)
        with pytest.raises(ConfigError) as info:
            DesignSpace(**axes)
        assert info.value.path == f"{path}[{index}]"

    def test_non_power_of_two_size_rejected_at_construction(self):
        """SimConfig's per-point bound, checked for the whole axis
        before any point runs."""
        with pytest.raises(ValidationError) as info:
            DesignSpace(crossbar_sizes=(16, 12))
        assert info.value.path == "crossbar_sizes[1]"
        assert "power of two" in str(info.value)

    def test_fully_parallel_degree_zero_allowed(self):
        assert len(DesignSpace(crossbar_sizes=(64,),
                               parallelism_degrees=(0,),
                               interconnect_nodes=(45,))) == 1

    def test_configs_inherit_base(self, base_config, small_space):
        for config in small_space.configs(base_config):
            assert config.cmos_tech == 45
            assert config.weight_bits == 4


class TestExplorer:
    def test_every_valid_point_simulated(self, points, small_space):
        assert len(points) == len(small_space)

    def test_bad_size_fails_before_any_point_runs(
        self, base_config, large_layer_network, monkeypatch
    ):
        import repro.dse.explorer as explorer

        ran = []
        monkeypatch.setattr(explorer, "_evaluate_points_batch", ran.append)
        with pytest.raises(ValidationError) as info:
            explore(base_config, large_layer_network,
                    DesignSpace(crossbar_sizes=(16, 12)))
        assert info.value.path == "crossbar_sizes[1]"
        assert ran == []

    def test_constraint_filters_points(
        self, base_config, small_space, large_layer_network
    ):
        all_points = explore(base_config, large_layer_network, small_space)
        tight = explore(
            base_config, large_layer_network, small_space,
            max_error_rate=0.03,
        )
        assert len(tight) < len(all_points)
        assert all(p.error_rate <= 0.03 for p in tight)

    def test_optimal_minimises_metric(self, points):
        best_area = optimal(points, "area")
        assert all(best_area.area <= p.area for p in points)
        best_energy = optimal(points, "energy")
        assert all(best_energy.energy <= p.energy for p in points)

    def test_optimal_accuracy_minimises_error(self, points):
        best = optimal(points, "accuracy")
        assert all(best.error_rate <= p.error_rate for p in points)

    def test_optimal_table_has_all_metrics(self, points):
        table = optimal_table(points)
        assert set(table) == {"area", "energy", "latency", "accuracy"}

    def test_empty_points_raise(self):
        with pytest.raises(ExplorationError):
            optimal([], "area")

    def test_unknown_metric_raises(self, points):
        with pytest.raises(ExplorationError):
            optimal(points, "speedup")

    def test_area_optimum_prefers_big_crossbars_low_parallelism(self, points):
        """The Table IV trend: area-optimal designs use large crossbars
        and few shared read circuits."""
        best = optimal(points, "area")
        assert best.crossbar_size == max(p.crossbar_size for p in points)
        assert best.parallelism_degree <= 32

    def test_latency_optimum_prefers_high_parallelism(self, points):
        best = optimal(points, "latency")
        assert best.parallelism_degree >= 32


class TestPentagon:
    def test_factors_normalised(self, points):
        table = optimal_table(points)
        factors = pentagon_factors(list(table.values()))
        assert len(factors) == 4
        for axis in ("reciprocal_area", "energy_efficiency",
                     "reciprocal_power", "speed"):
            values = [f[axis] for f in factors]
            assert max(values) == pytest.approx(1.0)
            assert all(0 <= v <= 1.0 for v in values)

    def test_accuracy_axis_unnormalised(self, points):
        factors = pentagon_factors([optimal(points, "accuracy")])
        assert 0 <= factors[0]["accuracy"] <= 1

    def test_empty_selection_raises(self):
        with pytest.raises(ExplorationError):
            pentagon_factors([])


class TestTradeoffs:
    def test_size_tradeoff_shapes(self, base_config, large_layer_network):
        rows = size_tradeoff(
            base_config.replace(interconnect_tech=45),
            large_layer_network,
            sizes=(256, 128, 64, 32, 16, 8),
        )
        by_size = {r.crossbar_size: r for r in rows}
        # Table V: area and energy fall monotonically with crossbar size.
        ordered = sorted(by_size)
        areas = [by_size[s].area for s in ordered]
        energies = [by_size[s].energy for s in ordered]
        assert areas == sorted(areas, reverse=True)
        assert energies == sorted(energies, reverse=True)
        # Error rate is U-shaped with an interior minimum.
        errors = [by_size[s].error_rate for s in ordered]
        best = errors.index(min(errors))
        assert 0 < best < len(errors) - 1

    def test_parallelism_sweep_normalisation(
        self, base_config, large_layer_network
    ):
        rows = parallelism_sweep(
            base_config.replace(interconnect_tech=45),
            large_layer_network,
            sizes=(128, 256),
        )
        for size in (128, 256):
            group = [r for r in rows if r.crossbar_size == size]
            assert max(r.normalized_area for r in group) == pytest.approx(1.0)
            assert max(
                r.normalized_latency for r in group
            ) == pytest.approx(1.0)
            # Latency falls as the parallelism degree rises (Fig. 7).
            ordered = sorted(group, key=lambda r: r.parallelism_degree)
            latencies = [r.latency for r in ordered]
            assert latencies == sorted(latencies, reverse=True)
            # Area rises with the parallelism degree.
            areas = [r.area for r in ordered]
            assert areas == sorted(areas)

    def test_pareto_frontier_is_nondominated(self):
        points = [(1, 10), (2, 5), (3, 7), (4, 1), (5, 2)]
        frontier = pareto_frontier(points)
        assert frontier == [(1, 10), (2, 5), (4, 1)]

    def test_inflection_point_finds_knee(self):
        # An L-shaped curve: the knee is the corner point.
        curve = [(1, 100), (2, 50), (3, 10), (10, 9), (20, 8)]
        assert inflection_point(curve) == (3, 10)

    def test_inflection_empty_raises(self):
        with pytest.raises(ExplorationError):
            inflection_point([])


class TestBatchedParity:
    """Shape-grouped accuracy sharing returns the exact same points as
    the per-point worker, for every ``jobs`` setting."""

    def test_batched_matches_pointwise_serial(
        self, base_config, small_space, large_layer_network
    ):
        from repro.dse.explorer import (
            _encode_summary,
            _evaluate_point,
            _evaluate_points_batch,
            _shape_group_key,
        )
        tasks = [(base_config, large_layer_network, point)
                 for point in small_space.valid_points()]
        groups = [_shape_group_key(config)
                  for config in small_space.configs(base_config)]
        # Several shape groups, each shared by several points.
        assert 1 < len(set(groups)) < len(groups)
        batched = _evaluate_points_batch(tasks)
        pointwise = [_evaluate_point(task) for task in tasks]
        assert ([_encode_summary(s) for s in batched]
                == [_encode_summary(s) for s in pointwise])

    def test_batched_matches_pointwise_parallel(
        self, base_config, small_space, large_layer_network, points
    ):
        parallel = explore(
            base_config, large_layer_network, small_space, jobs=2
        )
        assert points == parallel


class TestCachedSweepCost:
    """What a 300-point sweep builds: counts, not timings.

    A cache hit needs no :class:`SimConfig`: the sweep emits grid
    points and keys, and the worker builds one config per miss.
    """

    BASE = SimConfig(cmos_tech=45, weight_bits=4, signal_bits=8)

    @pytest.fixture
    def network(self):
        return mlp([64, 32], name="cost-pin")

    @pytest.fixture
    def built(self, monkeypatch):
        """Every SimConfig constructed (replace() included)."""
        configs = []
        real = SimConfig.__post_init__

        def counting(config):
            configs.append(config)
            real(config)

        monkeypatch.setattr(SimConfig, "__post_init__", counting)
        return configs

    def test_cold_sweep_builds_one_config_per_point(
        self, tmp_path, network, built
    ):
        space = DesignSpace()
        assert len(space) == 300
        explore(self.BASE, network, space)
        assert len(built) == 300
        del built[:]
        with ResultCache(tmp_path) as cache:
            explore(self.BASE, network, space, cache=cache)
        assert len(built) == 300

    def test_warm_sweep_builds_no_config(self, tmp_path, network, built,
                                         run_scope):
        space = DesignSpace()
        with ResultCache(tmp_path) as cache:
            cold = explore(self.BASE, network, space, cache=cache)
            del built[:]
            with run_scope:
                warm = explore(self.BASE, network, space, cache=cache)
        assert warm == cold
        assert run_scope.summary()["counters"]["cache_hits"] == 300
        assert built == []

    def test_cache_filled_through_content_key_serves_every_point(
        self, tmp_path, network, run_scope
    ):
        from repro.dse.explorer import _encode_summary

        space = DesignSpace()
        points = explore(self.BASE, network, space)
        fingerprint = network_fingerprint(network)
        keys = [
            content_key("simulate-point", config.to_dict(), fingerprint)
            for config in space.configs(self.BASE)
        ]
        with ResultCache(tmp_path) as cache:
            cache.put_many(
                (key, "simulate-point", _encode_summary(point.summary))
                for key, point in zip(keys, points)
            )
            with run_scope:
                served = explore(self.BASE, network, space, cache=cache)
        counters = run_scope.summary()["counters"]
        assert counters["cache_hits"] == 300
        assert counters["cache_misses"] == 0
        assert served == points
