"""Vectorized solver vs the loop-based reference implementation.

The rewrite of :mod:`repro.spice.solver` (one-time structural assembly,
frozen-LU iterative refinement, batched ``solve_many``) must be a pure
performance change: this suite pins it to the original solver, kept
verbatim in :mod:`repro.spice.reference` as an executable
specification.  Tolerances: 1e-12 relative for the linear (one-shot)
solve, 1e-9 for the nonlinear fixed point *with identical iteration
counts* on the random-matrix grid.  The worst-case all-``R_min``
configuration sits on a convergence knife edge (the final delta lands
within solver rounding noise of the 1e-10 tolerance), so there the
iteration count may differ by one.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SolverError
from repro.faults.models import FAULT_MODES, sample_fault_mask
from repro.spice.reference import reference_solve
from repro.spice.solver import (
    _STRUCTURE_CACHE,
    CrossbarNetwork,
    CrossbarSolutionBatch,
    _structure_for,
)
from repro.tech import get_memristor_model

REPO_ROOT = Path(__file__).resolve().parent.parent
SIZES = (4, 32, 64)
DEVICES = ("RRAM", "PCM")


def _random_network(device, size, seed):
    """A random programmed crossbar + in-range input vector."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, device.levels, size=(size, size))
    resistances = device.resistance_of_level(levels)
    inputs = rng.uniform(0.1, device.read_voltage, size=size)
    return resistances, inputs


def _assert_solutions_close(actual, expected, rel):
    for field in ("output_voltages", "cell_voltages", "cell_currents",
                  "input_currents"):
        np.testing.assert_allclose(
            getattr(actual, field), getattr(expected, field),
            rtol=rel, atol=rel,
            err_msg=f"{field} diverged from the reference solver",
        )
    assert actual.total_power == pytest.approx(
        expected.total_power, rel=rel
    )
    assert actual.converged == expected.converged


class TestLinearEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_reference(self, size):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, size, seed=size)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=None)
        _assert_solutions_close(
            network.solve(inputs), reference_solve(network, inputs),
            rel=1e-12,
        )

    def test_rectangular(self):
        rng = np.random.default_rng(17)
        resistances = rng.uniform(1e5, 1e6, size=(6, 11))
        inputs = rng.uniform(0.1, 1.0, size=6)
        network = CrossbarNetwork(resistances, 2.0, 1.5e3)
        _assert_solutions_close(
            network.solve(inputs), reference_solve(network, inputs),
            rel=1e-12,
        )


class TestNonlinearEquivalence:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("name", DEVICES)
    def test_matches_reference_same_iterations(self, name, size):
        device = get_memristor_model(name)
        resistances, inputs = _random_network(device, size, seed=7 * size)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        fast = network.solve(inputs)
        slow = reference_solve(network, inputs)
        assert fast.iterations > 1
        assert fast.iterations == slow.iterations
        _assert_solutions_close(fast, slow, rel=1e-9)

    @pytest.mark.parametrize("name", DEVICES)
    def test_worst_case_knife_edge(self, name):
        """All cells at R_min, full-scale inputs: the deepest-biased
        configuration.  Voltages still agree tightly; the fixed-point
        stop lands within rounding noise of the tolerance, so the
        iteration counts may legitimately differ by one."""
        device = get_memristor_model(name)
        size = 32
        resistances = np.full((size, size), device.r_min)
        inputs = np.full(size, device.read_voltage)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        fast = network.solve(inputs)
        slow = reference_solve(network, inputs)
        assert abs(fast.iterations - slow.iterations) <= 1
        _assert_solutions_close(fast, slow, rel=1e-9)


class TestBatchedSolves:
    def test_linear_batch_matches_per_vector_loop(self):
        rng = np.random.default_rng(23)
        resistances = rng.uniform(1e5, 1e6, size=(16, 16))
        batch_inputs = rng.uniform(0.1, 1.0, size=(8, 16))
        network = CrossbarNetwork(resistances, 1.0, 1e3)
        batch = network.solve_many(batch_inputs)
        assert isinstance(batch, CrossbarSolutionBatch)
        assert len(batch) == 8
        for k in range(8):
            single = network.solve(batch_inputs[k])
            np.testing.assert_allclose(
                batch.output_voltages[k], single.output_voltages,
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                batch[k].cell_voltages, single.cell_voltages,
                rtol=1e-12, atol=1e-15,
            )
            assert batch.iterations[k] == single.iterations
            assert batch.converged[k]

    def test_nonlinear_batch_matches_per_vector_loop(self):
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(29)
        resistances, _ = _random_network(device, 8, seed=29)
        batch_inputs = rng.uniform(0.1, device.read_voltage, size=(3, 8))
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        batch = network.solve_many(batch_inputs)
        for k in range(3):
            single = network.solve(batch_inputs[k])
            assert np.array_equal(
                batch.output_voltages[k], single.output_voltages
            )
            assert batch.iterations[k] == single.iterations

    def test_batch_shape_validation(self):
        network = CrossbarNetwork(np.full((4, 4), 1e5), 1.0, 1e3)
        with pytest.raises(SolverError):
            network.solve_many(np.ones((2, 5)))  # wrong row count
        with pytest.raises(SolverError):
            network.solve_many(np.ones(4))  # not a batch


class TestSingularSystem:
    def test_raises_structured_solver_error(self):
        """All cells open + infinite wire resistance: the MNA matrix is
        exactly singular, and the failure must name the configuration
        (this replaced dead except-RuntimeError code around spsolve,
        which raised scipy warnings instead)."""
        network = CrossbarNetwork(np.full((2, 2), np.inf), np.inf, 1e3)
        with pytest.raises(SolverError, match="singular MNA system"):
            network.solve(np.ones(2))
        with pytest.raises(SolverError, match="2x2 crossbar"):
            network.solve(np.ones(2))


class TestVectorizedPathSmoke:
    """Fast CI smoke: the structural fast path is actually in use and
    produces finite physics.  No timing thresholds here — speedups are
    measured (and asserted) in ``benchmarks/test_spice_solver_perf.py``.
    """

    def test_structure_cache_populated_and_shared(self):
        _STRUCTURE_CACHE.pop((5, 7), None)
        a = CrossbarNetwork(np.full((5, 7), 1e5), 1.0, 1e3)
        a.solve(np.full(5, 0.3))
        assert (5, 7) in _STRUCTURE_CACHE
        b = CrossbarNetwork(np.full((5, 7), 2e5), 1.0, 1e3)
        assert b.structure is a.structure  # shared, not rebuilt
        assert _structure_for(5, 7) is a.structure

    def test_outputs_finite(self):
        device = get_memristor_model("RRAM")
        resistances, inputs = _random_network(device, 16, seed=3)
        network = CrossbarNetwork(resistances, 1.0, 1e3, device=device)
        batch = network.solve_many(
            np.stack([inputs, 0.5 * inputs, np.zeros_like(inputs)])
        )
        assert np.all(np.isfinite(batch.output_voltages))
        assert np.all(np.isfinite(batch.total_power))
        assert np.all(batch.converged)


class TestMonteCarloRegression:
    def test_parallel_bit_for_bit(self):
        """``jobs=2`` must reproduce the serial sweep exactly — the
        batched-solve rework must not perturb the runtime-engine
        equivalence guarantee."""
        from repro.accuracy.montecarlo import run_monte_carlo

        device = get_memristor_model("RRAM")
        serial = run_monte_carlo(device, 8, 2.0, seed=13, trials=6)
        parallel = run_monte_carlo(device, 8, 2.0, seed=13, trials=6,
                                   jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_batched_trials_extend_samples(self):
        """``inputs_per_trial > 1`` adds extra random input vectors per
        sampled resistance matrix through ``solve_many``; the first
        vector of each trial is the same one the default protocol
        draws, so the sample set extends it (up to the last-bit BLAS
        difference between the batched and single-vector ideal
        divider)."""
        from repro.accuracy.montecarlo import run_monte_carlo

        device = get_memristor_model("RRAM")
        base = run_monte_carlo(device, 8, 2.0, seed=31, trials=3)
        widened = run_monte_carlo(device, 8, 2.0, seed=31, trials=3,
                                  inputs_per_trial=4)
        assert widened.samples.size == 4 * base.samples.size
        np.testing.assert_allclose(
            widened.samples.reshape(3, 4, 8)[:, 0, :].ravel(),
            base.samples, rtol=1e-12, atol=1e-15,
        )


# ----------------------------------------------------------------------
# Allocation-quiet solving (DESIGN.md S38)
@st.composite
def refills(draw):
    """One shape; a matrix assembled at one network's values, and the
    cell conductances and fault-mask wire tail to refill it with."""
    rows = draw(st.integers(min_value=1, max_value=8))
    cols = draw(st.integers(min_value=1, max_value=8))

    def network():
        mask = sample_fault_mask(
            rows, cols, draw(st.floats(0.0, 1.0)),
            np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
            mode=draw(st.sampled_from(FAULT_MODES)),
        )
        return CrossbarNetwork(
            np.full((rows, cols), 1e5), draw(st.floats(0.0, 10.0)),
            draw(st.floats(10.0, 1e5)), fault_mask=mask,
        )

    def conductances():
        return draw(arrays(
            float, (rows, cols), elements=st.floats(0.0, 1e-2),
        ))

    return (network(), conductances()), (network(), conductances())


class TestInPlaceRefill:
    @settings(max_examples=60, deadline=None)
    @given(refills())
    def test_refill_equals_fresh_assembly(self, case):
        """A refilled matrix is the freshly assembled one, bit for bit,
        whatever values it held before."""
        (old_net, old_g), (net, g) = case
        structure = net.structure
        matrix = structure.matrix(old_g, old_net._wire_tail())
        data = matrix.data
        refilled = structure.matrix(g, net._wire_tail(), out=matrix)
        fresh = structure.matrix(g, net._wire_tail())
        assert refilled is matrix and refilled.data is data
        assert refilled.data.tobytes() == fresh.data.tobytes()
        assert np.array_equal(refilled.indices, fresh.indices)
        assert np.array_equal(refilled.indptr, fresh.indptr)


_FAULT_PROBE = """
import resource
import numpy as np
from repro.spice.solver import CrossbarNetwork

rng = np.random.default_rng(0)
network = CrossbarNetwork(rng.uniform(1e5, 1e6, (64, 64)), 0.25, 1e3)
inputs = rng.uniform(0.1, 1.0, 64)
network.solve(inputs)  # warm-up: the first factorization sizes the heap
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    network.solve(inputs)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / 10)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the malloc thresholds the solver sets are glibc's",
)
def test_factorization_work_memory_stays_resident():
    """Repeated 64x64 solves fault no page back in after a warm-up.

    At glibc's default thresholds every ``splu`` re-faulted SuperLU's
    freed work arrays, ~1 100-1 500 minor faults per 64x64 solve.  A
    fresh interpreter keeps other tests' heap state from hiding that.
    """
    result = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    faults_per_solve = float(result.stdout.split()[-1])
    assert faults_per_solve < 10
