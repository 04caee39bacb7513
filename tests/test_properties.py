"""Property-based tests (hypothesis) on the core models and invariants."""

import dataclasses
import enum
import json
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.accuracy.interconnect import analog_error_rate
from repro.accuracy.propagation import combine_error_rates, propagate_layers
from repro.accuracy.quantization import (
    avg_digital_deviation,
    avg_error_rate,
    max_digital_deviation,
    max_error_rate,
)
from repro.config import SimConfig
from repro.dse.tradeoff import inflection_point, pareto_frontier
from repro.nn.quantize import bit_slice, dequantize, quantize, split_polarity
from repro.report import Performance
from repro.runtime.jobs import canonical, canonical_json
from repro.spice.solver import CrossbarNetwork, ideal_output_voltages
from repro.tech import get_memristor_model

finite_floats = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# Performance algebra
# ----------------------------------------------------------------------
@st.composite
def performances(draw):
    return Performance(
        area=draw(finite_floats),
        dynamic_energy=draw(finite_floats),
        leakage_power=draw(finite_floats),
        latency=draw(finite_floats),
    )


@given(performances(), performances())
def test_serial_composition_is_commutative_and_additive(a, b):
    ab, ba = a.serial(b), b.serial(a)
    assert math.isclose(ab.area, ba.area, rel_tol=1e-12)
    assert math.isclose(ab.latency, a.latency + b.latency, rel_tol=1e-12)


@given(performances(), performances(), performances())
def test_serial_composition_is_associative(a, b, c):
    left = a.serial(b).serial(c)
    right = a.serial(b.serial(c))
    assert math.isclose(left.dynamic_energy, right.dynamic_energy,
                        rel_tol=1e-9)
    assert math.isclose(left.latency, right.latency, rel_tol=1e-9)


@given(performances(), performances())
def test_parallel_latency_is_max(a, b):
    assert a.parallel(b).latency == max(a.latency, b.latency)


@given(performances(), st.integers(min_value=0, max_value=50))
def test_replicate_matches_repeated_parallel(p, n):
    replicated = p.replicate(n)
    assert math.isclose(replicated.area, n * p.area, rel_tol=1e-9,
                        abs_tol=1e-12)
    if n:
        assert replicated.latency == p.latency


# ----------------------------------------------------------------------
# Quantization model (Eq. 12-14)
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=2, max_value=4096),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_error_rates_bounded_and_ordered(k, eps):
    worst = max_error_rate(k, eps)
    average = avg_error_rate(k, eps)
    assert 0 <= average <= 1
    assert 0 <= worst <= 1
    # Eq. 14's use of level i (rather than i - 0.5) can nudge the
    # average a hair above Eq. 13's worst case for degenerate level
    # counts; one quantization step covers the discrepancy.
    assert average <= worst + 1.0 / (k - 1)


@given(
    st.integers(min_value=2, max_value=1024),
    st.floats(min_value=0, max_value=0.5, allow_nan=False),
    st.floats(min_value=0, max_value=0.5, allow_nan=False),
)
def test_max_error_rate_monotone_in_eps(k, e1, e2):
    low, high = sorted((e1, e2))
    assert max_error_rate(k, low) <= max_error_rate(k, high)


@given(
    st.integers(min_value=2, max_value=512),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_deviation_formulas_match_direct_enumeration(k, eps):
    expected_avg = sum(math.floor(i * eps + 0.5) for i in range(k)) / k
    assert math.isclose(avg_digital_deviation(k, eps), expected_avg,
                        rel_tol=1e-12, abs_tol=1e-12)
    assert max_digital_deviation(k, eps) == math.floor(
        (k - 1.5) * eps + 0.5
    )


# ----------------------------------------------------------------------
# Propagation (Eq. 15)
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(min_value=0, max_value=0.3, allow_nan=False),
        min_size=1, max_size=8,
    )
)
def test_propagated_error_is_monotone_nondecreasing(epsilons):
    deltas = propagate_layers(epsilons, 256)
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(0 <= d <= 1 for d in deltas)


@given(
    st.floats(min_value=0, max_value=1, allow_nan=False),
    st.floats(min_value=0, max_value=1, allow_nan=False),
)
def test_combine_at_least_each_component(delta, eps):
    combined = combine_error_rates(delta, eps)
    assert combined >= max(delta, eps) - 1e-12


# ----------------------------------------------------------------------
# Analog error model (Eq. 9-11)
# ----------------------------------------------------------------------
@given(
    st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
def test_analog_error_bounded(size, segment_resistance):
    device = get_memristor_model("RRAM")
    eps = analog_error_rate(size, size, segment_resistance, device)
    assert -1.0 < eps < 1.0


@given(st.sampled_from([8, 16, 32, 64, 128, 256]))
def test_wire_error_monotone_in_segment_resistance(size):
    device = get_memristor_model("IDEAL")
    values = [
        analog_error_rate(size, size, r, device)
        for r in (0.0, 0.1, 0.5, 2.0)
    ]
    assert values == sorted(values)


# ----------------------------------------------------------------------
# Fixed-point quantization
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.floats(min_value=-0.999, max_value=0.999, allow_nan=False),
        min_size=1, max_size=64,
    ),
    st.integers(min_value=2, max_value=12),
)
def test_quantize_round_trip_error_within_half_step(values, bits):
    array = np.asarray(values)
    # Signed fixed point saturates at (2^(b-1) - 1) / 2^(b-1); the
    # half-step bound only holds inside the representable range.
    top = (2 ** (bits - 1) - 1) / 2 ** (bits - 1)
    assume(np.all(array <= top))
    rebuilt = dequantize(quantize(array, bits), bits)
    step = 1.0 / 2 ** (bits - 1)
    assert np.max(np.abs(array - rebuilt)) <= step / 2 + 1e-12


@given(
    st.lists(st.integers(min_value=-128, max_value=127), min_size=1,
             max_size=64)
)
def test_polarity_split_reconstructs(levels):
    array = np.asarray(levels)
    pos, neg = split_polarity(array)
    assert np.array_equal(pos - neg, array)
    assert np.all(pos * neg == 0)  # planes never overlap


@given(
    st.lists(st.integers(min_value=0, max_value=2**12 - 1), min_size=1,
             max_size=32),
    st.integers(min_value=1, max_value=6),
)
def test_bit_slices_reassemble(levels, slice_bits):
    array = np.asarray(levels)
    slices_needed = max(1, math.ceil(12 / slice_bits))
    parts = bit_slice(array, slice_bits, slices_needed)
    rebuilt = np.zeros_like(array)
    for i, part in enumerate(parts):
        assert np.all(part < 2**slice_bits)
        rebuilt = rebuilt + (part << (i * slice_bits))
    assert np.array_equal(rebuilt, array)


# ----------------------------------------------------------------------
# Circuit solver invariants
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
)
def test_solver_outputs_bounded_by_inputs(rows, cols, wire_r):
    rng = np.random.default_rng(rows * 100 + cols)
    resistances = rng.uniform(1e5, 1e6, size=(rows, cols))
    inputs = rng.uniform(0.0, 1.0, size=rows)
    network = CrossbarNetwork(resistances, wire_r, 1e3)
    solution = network.solve(inputs)
    assert np.all(solution.output_voltages >= -1e-9)
    assert np.all(solution.output_voltages <= inputs.max() + 1e-9)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
)
def test_solver_charge_conservation(rows, cols):
    rng = np.random.default_rng(rows * 31 + cols)
    resistances = rng.uniform(1e5, 1e6, size=(rows, cols))
    inputs = rng.uniform(0.1, 1.0, size=rows)
    r_sense = 1e3
    solution = CrossbarNetwork(resistances, 0.5, r_sense).solve(inputs)
    into_ground = solution.output_voltages.sum() / r_sense
    assert math.isclose(
        solution.input_currents.sum(), into_ground, rel_tol=1e-6
    )


# ----------------------------------------------------------------------
# DSE utilities
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1, max_size=40,
    )
)
def test_pareto_frontier_members_are_nondominated(points):
    frontier = pareto_frontier(points)
    assert frontier  # at least one survivor
    for fx, fy in frontier:
        strictly_dominating = [
            (px, py)
            for px, py in points
            if px <= fx and py <= fy and (px < fx or py < fy)
        ]
        assert not strictly_dominating


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=1, max_size=40,
    )
)
def test_inflection_point_is_a_member(points):
    assert inflection_point(points) in points


# ----------------------------------------------------------------------
# Configuration round-trips
# ----------------------------------------------------------------------
@given(
    st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    st.sampled_from([18, 22, 28, 36, 45, 65, 90]),
    st.integers(min_value=1, max_value=8),
)
def test_config_replace_never_corrupts(size, wire, bits):
    config = SimConfig().replace(
        crossbar_size=size, interconnect_tech=wire, weight_bits=bits,
        parallelism_degree=0,
    )
    assert config.crossbar_size == size
    assert config.cells_per_weight >= 1
    assert config.effective_parallelism() == size


# ----------------------------------------------------------------------
# Functional mapping algebra
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([8, 16, 32]),
    st.sampled_from(["RRAM", "RRAM-4BIT"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_functional_ideal_mode_always_exact(out_features, in_features,
                                            crossbar_size, model, seed):
    """For any layer shape, tiling, device precision, and weights, the
    IDEAL functional path must reproduce the fixed-point reference with
    the mapped weights, bit for bit."""
    import numpy as np

    from repro.functional import FunctionalAccelerator
    from repro.nn.networks import mlp as make_mlp

    rng = np.random.default_rng(seed)
    network = make_mlp([in_features, out_features], name="prop")
    weights = [
        rng.uniform(-1, 1, size=(out_features, in_features))
        / np.sqrt(in_features)
    ]
    config = SimConfig(
        crossbar_size=crossbar_size, memristor_model=model, weight_bits=8,
    )
    functional = FunctionalAccelerator(config, network, weights)
    inputs = rng.uniform(-1, 1, size=in_features)
    got = functional.forward(inputs)[-1]
    expected = functional.reference_forward(inputs)[-1]
    assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# Fault injection invariants
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fault_count_matches_rate_statistically(rate, seed):
    """Flipped-cell counts follow the requested defect rate."""
    import numpy as np

    from repro.functional import FunctionalAccelerator
    from repro.functional.faults import inject_stuck_faults
    from repro.nn.networks import mlp as make_mlp

    rng = np.random.default_rng(seed)
    network = make_mlp([16, 8], name="prop-faults")
    weights = [rng.uniform(-1, 1, size=(8, 16)) / 4]
    functional = FunctionalAccelerator(
        SimConfig(crossbar_size=16), network, weights
    )
    total_cells = sum(
        plane.levels.size
        for bank in functional.banks
        for grid in bank.units
        for row in grid
        for unit in row
        for plane in (unit.positive, unit.negative)
        if plane is not None
    )
    flipped = inject_stuck_faults(functional, rate, rng)
    assert 0 <= flipped <= total_cells
    if rate == 0.0:
        assert flipped == 0
    if rate == 1.0:
        assert flipped == total_cells


# ----------------------------------------------------------------------
# Canonical serialization (job keys)
# ----------------------------------------------------------------------
def _oracle_canonical(value):
    """canonical() as it was before its exact-type fast path."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            name: _oracle_canonical(getattr(value, name))
            for name in sorted(f.name for f in dataclasses.fields(value))
        }
        fields["__type__"] = type(value).__name__
        return fields
    if isinstance(value, enum.Enum):
        return _oracle_canonical(value.value)
    if isinstance(value, dict):
        return {
            key: item
            for key, item in sorted(
                (str(k), _oracle_canonical(v)) for k, v in value.items()
            )
        }
    if isinstance(value, (tuple, list)):
        return [_oracle_canonical(item) for item in value]
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        if value == 0.0:
            return 0.0
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return _oracle_canonical(item())
    raise TypeError(type(value).__name__)


def _oracle_json(value):
    return json.dumps(_oracle_canonical(value), sort_keys=True,
                      separators=(",", ":"))


def _typed(value):
    """``value`` with every leaf paired with its exact type name."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return (type(value).__name__, value)


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class _Mode(str, enum.Enum):
    STUCK = "stuck"
    OPEN = "open"


@dataclasses.dataclass(frozen=True)
class _Node:
    label: object
    child: object


_special_floats = st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf]
)
_leaves = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from(list(_Level)) | st.sampled_from(list(_Mode))
    | st.floats() | _special_floats | st.text(max_size=4)
)
# Letter-only string keys cannot collide with str() of an int or bool
# key, so a dict never holds two entries under one canonical key.
_dict_keys = (
    st.integers() | st.text(alphabet="abcxyz", min_size=1, max_size=3)
)
_key_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_dict_keys, children, max_size=4)
        | st.builds(_Node, children, children)
    ),
    max_leaves=20,
)


@given(_key_values)
def test_canonical_matches_the_pre_fast_path_oracle(value):
    """Same bytes and same leaf types as before the exact-type branch."""
    assert canonical_json(value) == _oracle_json(value)
    assert _typed(canonical(value)) == _typed(_oracle_canonical(value))


# ----------------------------------------------------------------------
# Module sharing: one registry across design points changes no byte
# ----------------------------------------------------------------------
_BUILTIN_NETWORKS = ("jpeg", "validation-mlp", "large-bank", "caffenet",
                     "vgg16")


def _fast_dac(cmos, bits):
    from repro.circuits import DacModule

    return DacModule(cmos, bits, conversion_time=1e-9)


def _customized_registry(custom):
    """A registry, plain (``None``) or with one slot removed, one pinned
    to fixed numbers and one overridden by a factory."""
    from repro.circuits import ModuleRegistry

    registry = ModuleRegistry()
    if custom is not None:
        removed, fixed = custom
        registry.remove(removed)
        registry.override_fixed(fixed, Performance(
            area=1e-9, dynamic_energy=1e-12, leakage_power=1e-6,
            latency=2e-9,
        ))
        registry.override("dac", _fast_dac)
    return registry


@st.composite
def design_points(draw):
    from repro.cli import parse_network

    size = draw(st.sampled_from([8, 16, 64, 128, 256]))
    degree = draw(st.sampled_from([0, 1, 4, 16, 64]))
    config = SimConfig(
        crossbar_size=size,
        parallelism_degree=min(degree, size),
        interconnect_tech=draw(st.sampled_from([18, 28, 45])),
        cmos_tech=draw(st.sampled_from([90, 45, 22])),
        memristor_model=draw(st.sampled_from(["RRAM", "PCM", "IDEAL"])),
        device_sigma=draw(st.sampled_from([None, 0.0, 0.1, 0.3])),
        resistance_range=draw(
            st.sampled_from([None, (1e5, 1e7), (5e4, 2e6)])
        ),
    )
    spec = draw(st.one_of(
        st.sampled_from(_BUILTIN_NETWORKS),
        st.lists(st.sampled_from([16, 48, 128, 300]), min_size=2,
                 max_size=3).map(
            lambda sizes: "mlp:" + ",".join(map(str, sizes))
        ),
    ))
    return config, parse_network(spec)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(design_points(), min_size=1, max_size=4),
    st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(["column_mux", "subtractor", "pooling"]),
            st.sampled_from(["read_circuit", "output_buffer", "neuron"]),
        ),
    ),
)
def test_shared_registry_matches_fresh_registry(points, custom):
    """Design points built on one shared registry report exactly what
    each reports on a fresh registry of its own, byte for byte."""
    from repro.arch.accelerator import Accelerator

    shared = _customized_registry(custom)
    for config, network in points:
        reused = Accelerator(config, network, shared)
        fresh = Accelerator(config, network, _customized_registry(custom))
        assert reused.summary() == fresh.summary()
        assert reused.write_performance() == fresh.write_performance()
        assert reused.report().render() == fresh.report().render()


# ----------------------------------------------------------------------
# Sweep keys: one canonical base per sweep, simulation_spec's keys
# ----------------------------------------------------------------------
def _axis(values):
    """A non-empty sorted subset of a design-space axis."""
    return st.lists(
        st.sampled_from(values), min_size=1, max_size=3, unique=True
    ).map(lambda chosen: tuple(sorted(chosen)))


@st.composite
def sweep_bases(draw):
    from repro.tech import (
        available_cmos_nodes,
        available_interconnect_nodes,
        available_memristor_models,
    )

    low = draw(st.floats(min_value=1e2, max_value=1e5))
    ratio = draw(st.floats(min_value=1.5, max_value=1e3))
    return SimConfig(
        interface_number=(draw(st.integers(1, 512)),
                          draw(st.integers(1, 512))),
        cell_type=draw(st.sampled_from(["1T1R", "0T1R"])),
        memristor_model=draw(st.sampled_from(available_memristor_models())),
        cmos_tech=draw(st.sampled_from(available_cmos_nodes())),
        interconnect_tech=draw(
            st.sampled_from(available_interconnect_nodes())
        ),
        device_sigma=draw(st.one_of(
            st.none(), st.just(0.0), st.floats(min_value=0.0,
                                               max_value=0.3),
        )),
        resistance_range=draw(st.one_of(
            st.none(), st.just((low, low * ratio)),
        )),
        weight_bits=draw(st.integers(1, 16)),
        signal_bits=draw(st.integers(1, 12)),
    )


@st.composite
def design_spaces(draw):
    from repro.dse.space import DesignSpace
    from repro.tech import available_interconnect_nodes

    space = DesignSpace(
        crossbar_sizes=draw(_axis([4, 8, 16, 32, 64, 128, 256, 512,
                                   1024])),
        parallelism_degrees=draw(_axis([1, 2, 4, 8, 16, 32, 64, 128,
                                        256])),
        interconnect_nodes=draw(_axis(available_interconnect_nodes())),
    )
    assume(len(space) > 0)
    return space


@settings(max_examples=25, deadline=None)
@given(sweep_bases(), design_spaces())
def test_cached_sweep_stores_the_simulation_spec_keys(base, space):
    """A cached explore stores exactly the keys content_key gives each
    config on its own, whatever the base config and the grid."""
    import tempfile

    from repro.dse.explorer import explore
    from repro.nn.networks import mlp as make_mlp
    from repro.runtime.cache import ResultCache
    from repro.runtime.jobs import content_key, network_fingerprint

    network = make_mlp([16, 8], name="prop-keys")
    expected = {
        content_key("simulate-point", config.to_dict(),
                    network_fingerprint(network))
        for config in space.configs(base)
    }
    with tempfile.TemporaryDirectory() as tmp:
        with ResultCache(tmp) as cache:
            explore(base, network, space, cache=cache)
            assert set(cache.get_many(sorted(expected))) == expected
            assert cache.stats().entries == len(expected)
