"""Batched crossbar solving: ``solve_batch`` vs the point-wise path.

The batched evaluation stack (DESIGN.md S22) rests on one contract:
``solve_batch`` returns results *bit-identical* to looping
``CrossbarNetwork.solve`` member by member, for any mix of wire
parameters, fault masks and per-member iteration counts.  These tests
pin that contract exactly (``==`` on the raw arrays), plus the looser
1e-12 (linear) / 1e-9 (nonlinear) tolerance checks the acceptance
criteria phrase it in — the exact assertions subsume them, but keeping
both documents which one is the load-bearing guarantee.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SolverError
from repro.faults.models import FAULT_MODES, sample_fault_mask
from repro.spice.solver import (
    _MIN_WIRE_RESISTANCE,
    CrossbarNetwork,
    solve_batch,
)
from repro.tech import get_memristor_model

SEG = 0.25
SENSE = 1e3


@pytest.fixture(scope="module")
def device():
    return get_memristor_model("RRAM")


def _random_batch(device, count, size, seed, fault_rate=0.0,
                  fault_mode="stuck_mixed"):
    """``count`` independent same-shape networks plus their inputs."""
    rng = np.random.default_rng(seed)
    networks, inputs = [], []
    for _ in range(count):
        resistances = rng.uniform(1e5, 1e6, size=(size, size))
        mask = None
        if fault_rate > 0:
            mask = sample_fault_mask(size, size, fault_rate, rng,
                                     mode=fault_mode)
        networks.append(CrossbarNetwork(
            resistances, SEG, SENSE, device=device, fault_mask=mask,
        ))
        inputs.append(rng.uniform(0.1, 1.0, size=size))
    return networks, np.stack(inputs)


def _assert_members_bit_identical(batch, networks, inputs):
    """Every member equals its point-wise solve, bit for bit."""
    for index, network in enumerate(networks):
        single = network.solve(inputs[index])
        assert np.array_equal(batch.output_voltages[index],
                              single.output_voltages)
        assert np.array_equal(batch.cell_voltages[index],
                              single.cell_voltages)
        assert np.array_equal(batch.cell_currents[index],
                              single.cell_currents)
        assert np.array_equal(batch.input_currents[index],
                              single.input_currents)
        assert batch.total_power[index] == single.total_power
        assert batch.iterations[index] == single.iterations
        assert bool(batch.converged[index]) == single.converged


class TestLinearBatch:
    def test_bit_identical_to_looped_solve(self):
        networks, inputs = _random_batch(None, 7, 12, seed=21)
        batch = solve_batch(networks, inputs)
        assert len(batch) == 7
        assert batch.failed is None
        _assert_members_bit_identical(batch, networks, inputs)

    def test_within_linear_tolerance(self):
        """The acceptance-criteria phrasing: agreement to 1e-12."""
        networks, inputs = _random_batch(None, 5, 16, seed=22)
        batch = solve_batch(networks, inputs)
        for index, network in enumerate(networks):
            single = network.solve(inputs[index])
            np.testing.assert_allclose(
                batch.output_voltages[index], single.output_voltages,
                rtol=1e-12, atol=0,
            )

    def test_matches_solve_many(self):
        """Linear ``solve_many`` (one net, K inputs) vs the member loop.

        One factorization serves all K right-hand sides, and SuperLU
        solves K columns with other BLAS calls than K single solves,
        so the last bits depend on the BLAS kernel: under OpenBLAS's
        Haswell and Zen kernels 9 of these 40 outputs differ by up to
        3.4e-16 relative.  The contract is the linear tolerance.
        """
        networks, inputs = _random_batch(None, 4, 10, seed=23)
        network = networks[0]
        many = network.solve_many(inputs)
        batch = solve_batch([network] * len(inputs), inputs)
        np.testing.assert_allclose(many.output_voltages,
                                   batch.output_voltages,
                                   rtol=1e-12, atol=0)
        assert np.array_equal(many.iterations, batch.iterations)

    def test_getitem_recovers_solution(self):
        networks, inputs = _random_batch(None, 3, 8, seed=24)
        batch = solve_batch(networks, inputs)
        single = batch[1]
        assert np.array_equal(single.output_voltages,
                              batch.output_voltages[1])
        assert single.converged


class TestNonlinearBatch:
    def test_bit_identical_to_looped_solve(self, device):
        networks, inputs = _random_batch(device, 6, 12, seed=31)
        batch = solve_batch(networks, inputs)
        _assert_members_bit_identical(batch, networks, inputs)

    def test_within_nonlinear_tolerance(self, device):
        """The acceptance-criteria phrasing: agreement to 1e-9."""
        networks, inputs = _random_batch(device, 4, 16, seed=32)
        batch = solve_batch(networks, inputs)
        for index, network in enumerate(networks):
            single = network.solve(inputs[index])
            np.testing.assert_allclose(
                batch.output_voltages[index], single.output_voltages,
                rtol=1e-9, atol=0,
            )

    def test_heterogeneous_iteration_counts(self, device):
        """Members retiring on different rounds stay bit-identical.

        The batched fixed-point loop keeps late members iterating after
        early ones converge; an early member's values must not be
        perturbed by the extra rounds run for the stragglers.
        """
        networks, inputs = _random_batch(device, 12, 16, seed=35)
        batch = solve_batch(networks, inputs)
        assert len(set(batch.iterations.tolist())) > 1
        _assert_members_bit_identical(batch, networks, inputs)

    def test_fault_masks_bit_identical(self, device):
        """Masked and unmasked members coexist in one batch."""
        masked, inputs_a = _random_batch(device, 4, 10, seed=34,
                                         fault_rate=0.1)
        clean, inputs_b = _random_batch(device, 2, 10, seed=35)
        networks = masked + clean
        inputs = np.concatenate([inputs_a, inputs_b])
        batch = solve_batch(networks, inputs)
        _assert_members_bit_identical(batch, networks, inputs)

    def test_matches_solve_many(self, device):
        """Nonlinear ``solve_many`` *is* the member loop: bit-equal."""
        networks, inputs = _random_batch(device, 4, 10, seed=23)
        network = networks[0]
        many = network.solve_many(inputs)
        batch = solve_batch([network] * len(inputs), inputs)
        assert np.array_equal(many.output_voltages,
                              batch.output_voltages)
        assert np.array_equal(many.iterations, batch.iterations)

    def test_solve_many_nonlinear_routes_through_batch(self, device):
        rng = np.random.default_rng(36)
        resistances = rng.uniform(1e5, 1e6, size=(10, 10))
        network = CrossbarNetwork(resistances, SEG, SENSE, device=device)
        inputs = rng.uniform(0.1, 1.0, size=(5, 10))
        many = network.solve_many(inputs)
        for index in range(5):
            single = network.solve(inputs[index])
            assert np.array_equal(many.output_voltages[index],
                                  single.output_voltages)


class TestSingularHandling:
    # Seed 1 at 25% line_open on 8x8 yields a mixed batch: members
    # [1, 3, 4, 5] singular, [0, 2] solvable (pinned by the assertions).
    def _mixed_batch(self, device):
        return _random_batch(device, 6, 8, seed=1, fault_rate=0.25,
                             fault_mode="line_open")

    def test_raise_mode_matches_pointwise(self, device):
        networks, inputs = self._mixed_batch(device)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs)

    def test_mark_mode_flags_exactly_the_singular_members(self, device):
        networks, inputs = self._mixed_batch(device)
        expected = []
        for index, network in enumerate(networks):
            try:
                network.solve(inputs[index])
                expected.append(False)
            except SolverError:
                expected.append(True)
        assert any(expected) and not all(expected)  # genuinely mixed
        batch = solve_batch(networks, inputs, on_singular="mark")
        assert batch.failed.tolist() == expected
        for index, failed in enumerate(expected):
            if failed:
                assert not batch.converged[index]
                assert np.isnan(batch.output_voltages[index]).all()
            else:
                single = networks[index].solve(inputs[index])
                assert np.array_equal(batch.output_voltages[index],
                                      single.output_voltages)

    def test_all_solvable_mark_mode_reports_no_failures(self, device):
        networks, inputs = _random_batch(device, 3, 8, seed=41)
        batch = solve_batch(networks, inputs, on_singular="mark")
        assert not batch.failed.any()
        assert batch.converged.all()


class TestValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(SolverError):
            solve_batch([], np.zeros((0, 4)))

    def test_shape_mismatch_rejected(self, device):
        a, _ = _random_batch(device, 1, 8, seed=51)
        b, _ = _random_batch(device, 1, 10, seed=52)
        with pytest.raises(SolverError):
            solve_batch(a + b, np.ones((2, 8)))

    def test_device_mismatch_rejected(self, device):
        nonlinear, _ = _random_batch(device, 1, 8, seed=53)
        linear, _ = _random_batch(None, 1, 8, seed=54)
        with pytest.raises(SolverError):
            solve_batch(nonlinear + linear, np.ones((2, 8)))

    def test_inputs_shape_enforced(self, device):
        networks, inputs = _random_batch(device, 3, 8, seed=55)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs[:2])  # batch-size mismatch
        with pytest.raises(SolverError):
            solve_batch(networks, inputs[0])  # missing batch axis

    def test_bad_on_singular_rejected(self, device):
        networks, inputs = _random_batch(device, 2, 8, seed=56)
        with pytest.raises(SolverError):
            solve_batch(networks, inputs, on_singular="ignore")


# ----------------------------------------------------------------------
# The contract as a property: any shape, device, mask and grouping.
@st.composite
def crossbar_batches(draw):
    """Same-shape members (up to 8x8) of one device, with their inputs.

    Each member draws its own resistances, wire/sense resistances,
    inputs and a ``sample_fault_mask`` mask of any mode and rate.
    """
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))
    name = draw(st.sampled_from([None, "IDEAL", "RRAM", "PCM"]))
    device = None if name is None else get_memristor_model(name)
    networks, inputs = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        resistances = draw(arrays(
            float, (rows, cols), elements=st.floats(1e2, 1e7),
        ))
        mask = sample_fault_mask(
            rows, cols, draw(st.floats(0.0, 1.0)),
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            mode=draw(st.sampled_from(FAULT_MODES)),
        )
        networks.append(CrossbarNetwork(
            resistances, draw(st.floats(0.0, 10.0)),
            draw(st.floats(10.0, 1e5)), device=device, fault_mask=mask,
        ))
        inputs.append(draw(arrays(
            float, (rows,), elements=st.floats(-1.0, 1.0),
        )))
    return networks, np.stack(inputs)


def _branches(network):
    """Every element of a solved linear member, from its definition.

    Yields ``(node_a, node_b, g)`` per two-terminal branch (node
    ``None`` is ground, ``"src<i>"`` the ideal input source of row
    ``i``), built from the cell grid, the mask's line faults and the
    wire/sense resistances — never from the assembled MNA matrix.
    """
    mask = network.fault_mask
    m, n = network.rows, network.cols
    g_cell = np.where(mask.open_cells, 0.0, 1.0 / network.resistances)
    g_wire = 1.0 / network.wire_resistance
    g_short = 1.0 / _MIN_WIRE_RESISTANCE

    def line(index, opened, shorted):
        if index in opened:
            return 0.0
        return g_short if index in shorted else g_wire

    for i in range(m):
        yield f"src{i}", ("wl", i, 0), (
            0.0 if i in mask.open_wordlines else g_wire
        )
        for j in range(n):
            yield ("wl", i, j), ("bl", i, j), g_cell[i, j]
            if j + 1 < n:
                yield ("wl", i, j), ("wl", i, j + 1), line(
                    i, mask.open_wordlines, mask.short_wordlines
                )
            if i + 1 < m:
                yield ("bl", i, j), ("bl", i + 1, j), line(
                    j, mask.open_bitlines, mask.short_bitlines
                )
    for j in range(n):
        yield ("bl", m - 1, j), None, 1.0 / network.sense_resistance


def _assert_kcl(network, inputs, batch, index):
    """Currents into every internal node sum to zero.

    The node voltages come from the member's own solve; the batch row
    must report the same cell voltages and outputs.  Each branch adds
    its rounding scale ``g * (|V_a| + |V_b|)`` to its nodes' tolerance.
    """
    # A linear member solves in one round; the knobs are not read.
    voltages = network._solve_nodes(inputs, 1e-10, 1)[0]
    m, n = network.rows, network.cols
    wl = voltages[: m * n].reshape(m, n)
    bl = voltages[m * n:].reshape(m, n)
    assert np.array_equal(batch.cell_voltages[index], wl - bl)
    assert np.array_equal(batch.output_voltages[index], bl[-1])

    def volt(node):
        if node is None:
            return 0.0
        if isinstance(node, str):
            return inputs[int(node[3:])]
        kind, i, j = node
        return (wl if kind == "wl" else bl)[i, j]

    net_current, scale = {}, {}
    for a, b, g in _branches(network):
        current = g * (volt(a) - volt(b))  # a -> b
        size = g * (abs(volt(a)) + abs(volt(b)))
        for node, sign in ((a, -1.0), (b, 1.0)):
            if isinstance(node, tuple):
                net_current[node] = net_current.get(node, 0.0) + sign * current
                scale[node] = scale.get(node, 0.0) + size
    for node, total in net_current.items():
        assert abs(total) <= 1e-9 * scale[node], (node, total)


class TestBatchContractProperty:
    @settings(max_examples=80, deadline=None)
    @given(crossbar_batches())
    def test_members_are_their_pointwise_solves(self, case):
        networks, inputs = case
        batch = solve_batch(networks, inputs, on_singular="mark")
        for index, network in enumerate(networks):
            try:
                single = network.solve(inputs[index])
            except SolverError:
                assert batch.failed[index]
                assert not batch.converged[index]
                assert np.isnan(batch.output_voltages[index]).all()
                continue
            assert not batch.failed[index]
            assert np.array_equal(batch.output_voltages[index],
                                  single.output_voltages)
            assert np.array_equal(batch.cell_voltages[index],
                                  single.cell_voltages)
            assert np.array_equal(batch.cell_currents[index],
                                  single.cell_currents)
            assert np.array_equal(batch.input_currents[index],
                                  single.input_currents)
            assert batch.total_power[index] == single.total_power
            assert batch.iterations[index] == single.iterations
            assert bool(batch.converged[index]) == single.converged
            if not network._is_nonlinear():
                _assert_kcl(network, inputs[index], batch, index)
