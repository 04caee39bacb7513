"""Monte-Carlo accuracy simulation against the circuit-level solver.

The closed-form model gives worst/average-case error rates; this module
provides the *distributional* view: sample weight matrices (optionally
with device variation per Eq. 16), run the circuit-level solver, and
collect the empirical distribution of relative output errors.  It both
validates the closed-form bounds (the worst case must dominate the
samples) and supports variation studies the paper defers to the
``Memristor_Model`` configuration.

Sampling runs through :mod:`repro.runtime`: each trial draws from its
own ``np.random.SeedSequence(seed, spawn_key=(trial,))`` stream, which
makes the result *independent of the execution schedule* — ``jobs=N``
parallel runs reproduce the serial samples bit-for-bit, and trials are
individually cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.accuracy.variation import sample_resistances
from repro.errors import ConfigError
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec, content_key
from repro.runtime.pool import RunPolicy, run_jobs
from repro.spice.solver import CrossbarNetwork, ideal_output_voltages
from repro.tech.memristor import MemristorModel


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical error distribution over sampled crossbar solves."""

    samples: np.ndarray  # per-column relative errors, flattened

    @property
    def mean_abs_error(self) -> float:
        """Mean magnitude of the relative output error."""
        return float(np.mean(np.abs(self.samples)))

    @property
    def max_abs_error(self) -> float:
        """Largest observed relative output error."""
        return float(np.max(np.abs(self.samples)))

    def percentile(self, q: float) -> float:
        """Percentile of the |error| distribution (q in 0..100)."""
        return float(np.percentile(np.abs(self.samples), q))


def _draw_trial(
    device: MemristorModel,
    size: int,
    sigma: float,
    input_mode: str,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One trial's random draws, in the fixed (contractual) order.

    The draw order — levels, variation sample, inputs — is the
    reproducibility contract: each trial is a pure function of its
    spawn-keyed stream, so the execution schedule can never change a
    sample.
    """
    levels = rng.integers(0, device.levels, size=(size, size))
    programmed = device.resistance_of_level(levels)
    actual = sample_resistances(programmed, sigma, rng)
    if input_mode == "full":
        inputs = np.full(size, device.read_voltage)
    else:
        inputs = rng.uniform(0, device.read_voltage, size=size)
    return programmed, actual, inputs


def _single_trial(
    device: MemristorModel,
    size: int,
    segment_resistance: float,
    sense_resistance: float,
    sigma: float,
    input_mode: str,
    rng: np.random.Generator,
    inputs_per_trial: int = 1,
) -> np.ndarray:
    """One sampled crossbar solve; returns the finite relative errors.

    With ``inputs_per_trial > 1`` the sampled array is driven by a whole
    batch of input vectors through
    :meth:`~repro.spice.solver.CrossbarNetwork.solve_many`, which
    factorizes the (ideal-device) system once per trial instead of once
    per vector.
    """
    programmed, actual, inputs = _draw_trial(
        device, size, sigma, input_mode, rng
    )
    network = CrossbarNetwork(
        actual, segment_resistance, sense_resistance, device=device
    )
    if inputs_per_trial == 1:
        solution = network.solve(inputs)
        ideal = ideal_output_voltages(programmed, inputs, sense_resistance)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = (ideal - solution.output_voltages) / ideal
        return rel[np.isfinite(rel)]
    extra = rng.uniform(
        0, device.read_voltage, size=(inputs_per_trial - 1, size)
    )
    batch_inputs = np.vstack((inputs[np.newaxis, :], extra))
    batch = network.solve_many(batch_inputs)
    ideal = ideal_output_voltages(
        programmed, batch_inputs, sense_resistance
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (ideal - batch.output_voltages) / ideal
    return rel[np.isfinite(rel)]


def _run_trial(task: Tuple) -> np.ndarray:
    """Worker: one seeded trial (runs in a pool process)."""
    (device, size, segment_resistance, sense_resistance, sigma,
     input_mode, seed, trial, inputs_per_trial) = task
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(trial,))
    )
    with obs_trace.span("mc.trial", trial=trial, size=size):
        return _single_trial(
            device, size, segment_resistance, sense_resistance, sigma,
            input_mode, rng, inputs_per_trial,
        )


def run_monte_carlo(
    device: MemristorModel,
    size: int,
    segment_resistance: float,
    trials: int = 10,
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    sigma: Optional[float] = None,
    input_mode: str = "random",
    *,
    seed: int,
    jobs: int = 1,
    inputs_per_trial: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RunPolicy] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> MonteCarloResult:
    """Sample crossbar solves and collect relative output errors.

    Parameters
    ----------
    device:
        Memristor model (its nonlinearity is applied in the solver).
    size:
        Square crossbar size.
    segment_resistance:
        Wire segment resistance ``r``.
    trials:
        Number of sampled weight matrices.
    sigma:
        Device-variation magnitude; defaults to ``device.sigma``.
    input_mode:
        ``"random"`` draws uniform inputs; ``"full"`` drives every row
        at the read voltage (the worst-case protocol).
    seed:
        Trial-independent reproducibility: trial ``i`` draws from
        ``SeedSequence(seed, spawn_key=(i,))``, so results are
        identical for any ``jobs`` and individually cacheable.
    jobs:
        Worker processes for the trial sweep.
    inputs_per_trial:
        Input vectors solved per sampled weight matrix (batched through
        ``solve_many``, which factorizes the system once per trial).
        Values above 1 require ``input_mode="random"``; the default of
        1 reproduces the original one-vector-per-trial protocol
        bit-for-bit.
    cache / policy:
        Engine knobs, as in :func:`repro.dse.explorer.explore`.
    progress / should_cancel:
        Engine hooks forwarded to :func:`repro.runtime.pool.run_jobs`.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if input_mode not in ("random", "full"):
        raise ConfigError("input_mode must be 'random' or 'full'")
    if inputs_per_trial < 1:
        raise ConfigError("inputs_per_trial must be >= 1")
    if inputs_per_trial > 1 and input_mode != "random":
        raise ConfigError(
            "inputs_per_trial > 1 requires input_mode='random' (a batch "
            "of identical full-scale vectors would resample one point)"
        )
    sigma = device.sigma if sigma is None else sigma
    specs = []
    for trial in range(trials):
        task = (device, size, segment_resistance, sense_resistance,
                sigma, input_mode, seed, trial, inputs_per_trial)
        # Keys for the default single-vector protocol predate the
        # batching knob; keep them unchanged so existing cache entries
        # stay valid.
        key_parts = [
            "montecarlo-trial", device, size, segment_resistance,
            sense_resistance, sigma, input_mode, seed, trial,
        ]
        if inputs_per_trial != 1:
            key_parts.append(inputs_per_trial)
        specs.append(JobSpec(
            kind="montecarlo-trial",
            payload=task,
            # Keys only matter to a cache; without one, skip hashing.
            key=content_key(*key_parts) if cache is not None else None,
        ))
    with obs_trace.span("mc.run", trials=trials, size=size):
        errors = run_jobs(
            _run_trial,
            specs,
            policy=policy if policy is not None else RunPolicy(jobs=jobs),
            cache=cache,
            encode=lambda arr: [float(v) for v in arr],
            decode=lambda data: np.asarray(data, dtype=float),
            progress=progress,
            should_cancel=should_cancel,
        )
    return MonteCarloResult(samples=np.concatenate(errors))


def bound_check(
    result: MonteCarloResult, worst_case_bound: float, slack: float = 1.3
) -> bool:
    """Does the closed-form worst-case bound dominate the samples?

    ``slack`` tolerates the bound being a lumped approximation; a
    return of False flags a model/solver inconsistency.
    """
    if worst_case_bound < 0:
        raise ConfigError("worst_case_bound must be non-negative")
    return result.max_abs_error <= worst_case_bound * slack + 1e-6
