"""Observability wired through the engine and the solver."""

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import trace
from repro.runtime.jobs import JobSpec, content_key
from repro.runtime.pool import RunPolicy, run_jobs


@pytest.fixture(autouse=True)
def _clean_obs():
    trace.disable()
    trace.clear()
    trace.activate(None)
    obs.REGISTRY.reset()
    yield
    trace.disable()
    trace.clear()
    trace.activate(None)
    obs.REGISTRY.reset()


def _square(task):
    return task * task


def _slow_square(task):
    # Slow enough that one worker cannot drain every chunk before the
    # second one wakes up — the test needs spans from >= 2 pids.
    import time
    time.sleep(0.05)
    return task * task


def _specs(n):
    return [
        JobSpec(kind="square", payload=i, key=content_key("square", i))
        for i in range(n)
    ]


class TestEnginePropagation:
    def test_serial_run_produces_nested_spans(self):
        obs.enable()
        run_jobs(_square, _specs(3))
        names = [s["name"] for s in trace.spans()]
        assert names.count("runtime.job") == 3
        assert "runtime.run_jobs" in names

    def test_parallel_run_merges_worker_spans(self):
        """Worker spans come back parented under their chunk span and
        carry worker (not dispatcher) pids — the cross-process
        propagation contract."""
        obs.enable()
        policy = RunPolicy(jobs=2, chunk_size=1)
        results = run_jobs(_slow_square, _specs(4), policy=policy)
        assert results == [0, 1, 4, 9]

        spans = trace.spans()
        by_id = {s["span_id"]: s for s in spans}
        chunk_spans = [s for s in spans if s["name"] == "runtime.chunk"]
        job_spans = [s for s in spans if s["name"] == "runtime.job"]
        assert len(chunk_spans) == 4
        assert len(job_spans) == 4
        for job in job_spans:
            parent = by_id[job["parent_id"]]
            assert parent["name"] == "runtime.chunk"

        worker_pids = {s["pid"] for s in job_spans}
        dispatcher_pids = {s["pid"] for s in chunk_spans}
        assert len(worker_pids) >= 2
        assert not (worker_pids & dispatcher_pids)

    def test_disabled_run_collects_nothing(self):
        policy = RunPolicy(jobs=2, chunk_size=1)
        run_jobs(_square, _specs(4), policy=policy)
        assert trace.spans() == []

    def test_cache_spans_and_counters(self, tmp_path):
        from repro.runtime.cache import ResultCache

        obs.enable()
        with ResultCache(tmp_path / "cache") as cache:
            run_jobs(_square, _specs(3), cache=cache)
            run_jobs(_square, _specs(3), cache=cache)
        names = [s["name"] for s in trace.spans()]
        assert "cache.get" in names
        assert "cache.put" in names
        lookups = obs.REGISTRY.get("repro_cache_lookups_total")
        assert lookups.value(outcome="miss") == 3
        assert lookups.value(outcome="hit") == 3


class TestEngineAccounting:
    def test_runtime_series_record_with_tracing_off(self):
        """Engine accounting is the registry itself, so it records
        whether or not tracing is enabled (DESIGN.md S36)."""
        assert not obs.enabled()
        run_jobs(_square, _specs(3))
        events = obs.REGISTRY.get("repro_runtime_events_total")
        assert events.value(event="jobs_total") == 3
        assert events.value(event="jobs_executed") == 3
        stages = obs.REGISTRY.get("repro_runtime_stage_seconds")
        assert stages.snapshot(stage="execute")["count"] == 1
        assert trace.spans() == []


class TestSolverInstrumentation:
    def test_solver_spans_and_events(self):
        from repro.spice.solver import CrossbarNetwork

        obs.enable()
        rng = np.random.default_rng(7)
        resistances = rng.uniform(1e5, 1e6, size=(8, 8))
        network = CrossbarNetwork(resistances, 2.0, 100.0)
        network.solve(np.full(8, 0.3))
        names = {s["name"] for s in trace.spans()}
        assert "solver.solve" in names
        assert "solver.assemble" in names
        events = obs.REGISTRY.get("repro_solver_events_total")
        assert events.value(event="factorize") >= 1

    def test_factorize_span_records_minor_faults(self):
        pytest.importorskip("resource")
        from repro.spice.solver import CrossbarNetwork

        obs.enable()
        network = CrossbarNetwork(np.full((8, 8), 1e5), 2.0, 100.0)
        network.solve(np.full(8, 0.3))
        factorize = [
            s for s in trace.spans() if s["name"] == "solver.factorize"
        ]
        assert len(factorize) == 1
        faults = factorize[0]["attrs"]["minor_faults"]
        assert isinstance(faults, int) and faults >= 0

    def test_one_assemble_span_per_iteration(self):
        """Refilling the matrix in place keeps the per-iteration span."""
        from repro.spice.solver import CrossbarNetwork
        from repro.tech import get_memristor_model

        obs.enable()
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(7)
        levels = rng.integers(0, device.levels, size=(8, 8))
        network = CrossbarNetwork(
            device.resistance_of_level(levels), 2.0, 100.0, device=device,
        )
        solution = network.solve(np.full(8, device.read_voltage))
        names = [s["name"] for s in trace.spans()]
        assert solution.iterations > 1
        assert names.count("solver.assemble") == solution.iterations

    def test_debug_mode_records_residuals(self):
        from repro.config import SimConfig
        from repro.spice.solver import CrossbarNetwork

        obs.enable(debug=True)
        device = SimConfig().device
        rng = np.random.default_rng(7)
        levels = rng.integers(0, device.levels, size=(8, 8))
        resistances = device.resistance_of_level(levels)
        network = CrossbarNetwork(resistances, 2.0, 100.0, device=device)
        network.solve(np.full(8, device.read_voltage))
        solve = next(
            s for s in trace.spans() if s["name"] == "solver.solve"
        )
        assert solve["attrs"]["nonlinear"] is True
        # One delta per iteration after the first.
        residuals = solve["attrs"]["residuals"]
        assert len(residuals) == solve["attrs"]["iterations"] - 1
        assert all(r >= 0 for r in residuals)


class TestWorkerTeardownCounter:
    def test_teardown_failure_is_counted_and_logged(self, caplog):
        import logging

        from repro.runtime import pool as pool_mod

        obs.enable()

        class ExplodingPool:
            class _Proc:
                pid = 1234

                def terminate(self):
                    raise OSError("gone")

            _processes = {0: _Proc()}

            def shutdown(self, wait=True):
                pass

        # The CLI may have switched the package logger to non-propagating
        # stderr handling in an earlier test; caplog captures at the root.
        logging.getLogger("repro").propagate = True
        with caplog.at_level(logging.WARNING, logger="repro.runtime.pool"):
            pool_mod._shutdown_pool(ExplodingPool(), kill=True)
        assert any(
            "terminate" in rec.getMessage() for rec in caplog.records
        )
        failures = obs.REGISTRY.get("repro_worker_teardown_failures_total")
        assert failures is not None
        assert failures.value() >= 1


class TestBatchedSolveInstrumentation:
    def test_solve_batch_records_size_and_count(self):
        from repro.spice.solver import CrossbarNetwork, solve_batch
        from repro.tech import get_memristor_model

        obs.enable()
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(61)
        networks, inputs = [], []
        for _ in range(5):
            networks.append(CrossbarNetwork(
                rng.uniform(1e5, 1e6, size=(8, 8)), 0.25, 1e3,
                device=device,
            ))
            inputs.append(rng.uniform(0.1, 1.0, size=8))
        solve_batch(networks, np.stack(inputs))

        names = [s["name"] for s in trace.spans()]
        assert "solver.solve_batch" in names
        batch_span = next(
            s for s in trace.spans() if s["name"] == "solver.solve_batch"
        )
        assert batch_span["attrs"]["batch"] == 5

        hist = obs.REGISTRY.get("repro_solver_batch_size")
        assert hist.snapshot()["count"] == 1
        assert hist.snapshot()["sum"] == 5.0
        counter = obs.REGISTRY.get("repro_solver_batched_solves_total")
        assert counter.value() == 5

    @staticmethod
    def _solver_counts():
        batched = obs.REGISTRY.get("repro_solver_batched_solves_total")
        events = obs.REGISTRY.get("repro_solver_events_total")
        return {
            "batched": batched.total() if batched else 0,
            "pointwise": events.total(event="pointwise_solve")
            if events else 0,
            "iterations": events.total(event="fixed_point_iterations")
            if events else 0,
        }

    def test_linear_solve_many_counts_every_vector(self):
        from repro.spice.solver import CrossbarNetwork

        obs.enable()
        rng = np.random.default_rng(63)
        network = CrossbarNetwork(rng.uniform(1e5, 1e6, size=(8, 8)),
                                  0.25, 1e3)
        result = network.solve_many(rng.uniform(0.1, 1.0, size=(7, 8)))
        assert self._solver_counts() == {
            "batched": 7, "pointwise": 0,
            "iterations": int(np.sum(result.iterations)),
        }

    def test_nonlinear_members_counted_once(self):
        from repro.spice.solver import CrossbarNetwork, solve_batch
        from repro.tech import get_memristor_model

        obs.enable()
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(64)
        networks = [
            CrossbarNetwork(rng.uniform(1e5, 1e6, size=(8, 8)), 0.25, 1e3,
                            device=device)
            for _ in range(4)
        ]
        inputs = rng.uniform(0.1, 1.0, size=(4, 8))
        batch = solve_batch(networks, inputs)
        many = networks[0].solve_many(inputs)
        assert self._solver_counts() == {
            "batched": 8, "pointwise": 0,
            "iterations": int(np.sum(batch.iterations)
                              + np.sum(many.iterations)),
        }
        single = networks[0].solve(inputs[0])
        assert self._solver_counts()["pointwise"] == 1
        assert self._solver_counts()["iterations"] == int(
            np.sum(batch.iterations) + np.sum(many.iterations)
            + single.iterations
        )

    def test_marked_members_add_no_iterations(self):
        from repro.faults.models import sample_fault_mask
        from repro.spice.solver import CrossbarNetwork, solve_batch
        from repro.tech import get_memristor_model

        obs.enable()
        device = get_memristor_model("RRAM")
        rng = np.random.default_rng(1)
        networks, inputs = [], []
        for _ in range(6):
            resistances = rng.uniform(1e5, 1e6, size=(8, 8))
            mask = sample_fault_mask(8, 8, 0.25, rng, mode="line_open")
            networks.append(CrossbarNetwork(resistances, 0.25, 1e3,
                                            device=device, fault_mask=mask))
            inputs.append(rng.uniform(0.1, 1.0, size=8))
        batch = solve_batch(networks, np.stack(inputs), on_singular="mark")
        assert batch.failed.any() and not batch.failed.all()
        assert (batch.iterations[batch.failed] == 0).all()
        assert self._solver_counts() == {
            "batched": 6, "pointwise": 0,
            "iterations": int(np.sum(batch.iterations)),
        }

    def test_disabled_tracing_records_nothing(self):
        from repro.spice.solver import CrossbarNetwork, solve_batch

        rng = np.random.default_rng(62)
        networks = [
            CrossbarNetwork(rng.uniform(1e5, 1e6, size=(6, 6)),
                            0.25, 1e3, device=None)
            for _ in range(3)
        ]
        solve_batch(networks, rng.uniform(0.1, 1.0, size=(3, 6)))
        assert obs.REGISTRY.get("repro_solver_batch_size") is None
