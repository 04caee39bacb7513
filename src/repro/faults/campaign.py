"""Campaign runner: accuracy-vs-fault-rate curves over the job engine.

A *campaign* sweeps the cartesian product of fault rate x fault mode x
network, running ``trials`` independently seeded injections per point
and aggregating them into accuracy curves with 95% confidence
intervals.  Two network levels are supported:

* ``"crossbar"`` — circuit-level: a programmed crossbar is solved with
  and without the sampled :class:`~repro.faults.models.FaultMask`
  through :class:`~repro.spice.solver.CrossbarNetwork`, so line opens /
  shorts and the full interconnect interaction are captured.  A mask
  that makes the MNA system singular (e.g. an open wordline whose cells
  are all open too) surfaces as the structured
  :class:`~repro.errors.SolverError` and is counted as a *failed*
  trial, never a crash.
* ``"mlp:a,b,..."`` — behaviour-level: a seeded random MLP
  (:func:`repro.nn.networks.mlp`) runs its fixed-point forward pass
  with every layer's weights corrupted by an independent mask
  (:func:`~repro.faults.models.apply_mask_to_weights`), which scales to
  network shapes the circuit solver cannot.

Every trial draws from ``SeedSequence(seed, spawn_key=(network_index,
mode_index, rate_index, trial))`` — the same contract as
:mod:`repro.accuracy.montecarlo` — so campaigns are bit-identical
across serial and parallel execution and each trial is individually
cacheable through :mod:`repro.runtime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.faults.models import (
    FaultsSpec,
    parse_network_spec,
    sample_fault_mask,
)
from repro.jsonio import render_document
from repro.nn.networks import mlp
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec, content_key
from repro.runtime.pool import RunPolicy, run_jobs
from repro.tech.memristor import get_memristor_model

#: Stamp written into every campaign JSON; bump on semantic changes.
CAMPAIGN_SCHEMA = "faults-campaign-v1"


@dataclass(frozen=True)
class CurvePoint:
    """Aggregated statistics of one (network, mode, rate) sweep point.

    ``mean_error`` / ``std_error`` / ``ci95`` cover the *successful*
    trials (those whose faulted system was still solvable); ``failures``
    counts trials whose mask made the MNA system singular.  When every
    trial failed the error statistics are ``None``.
    """

    network: str
    fault_mode: str
    fault_rate: float
    trials: int
    failures: int
    mean_fault_count: float
    mean_error: Optional[float]
    std_error: Optional[float]
    ci95: Optional[float]
    relative_accuracy: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "network": self.network,
            "fault_mode": self.fault_mode,
            "fault_rate": self.fault_rate,
            "trials": self.trials,
            "failures": self.failures,
            "mean_fault_count": self.mean_fault_count,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
            "ci95": self.ci95,
            "relative_accuracy": self.relative_accuracy,
        }


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: the spec plus one curve point per combo."""

    spec: FaultsSpec
    points: Tuple[CurvePoint, ...]

    def to_dict(self) -> Dict[str, Any]:
        # The spec under its Python field names, plus the sense
        # resistance every crossbar trial solved with.
        spec = {}
        for field in fields(self.spec):
            value = getattr(self.spec, field.name)
            spec[field.name] = (
                list(value) if isinstance(value, tuple) else value
            )
        spec["sense_resistance"] = DEFAULT_SENSE_RESISTANCE
        return {
            "schema": CAMPAIGN_SCHEMA,
            "spec": spec,
            "points": [point.to_dict() for point in self.points],
        }

    def to_json(self) -> str:
        """Deterministic serialization: equal campaigns -> equal bytes.

        No timestamps, no environment data, sorted keys — this is what
        the byte-identical reproducibility check in CI compares.
        """
        return render_document(self.to_dict())


# ----------------------------------------------------------------------
# Trial workers (top-level: must be picklable for the process pool).

def _mlp_trial(
    sizes: Tuple[int, ...],
    mode: str,
    fault_rate: float,
    rng: np.random.Generator,
) -> Dict[str, Any]:
    """Fixed-point forward pass with per-layer weight corruption."""
    # Loaded with the first MLP trial: a crossbar sweep never needs it.
    from repro.nn.inference import MlpInference

    network = mlp(list(sizes), name="faults-mlp")
    model = MlpInference.with_random_weights(network, rng)
    # Draw order is fixed: inputs first, then one mask per layer, so the
    # trial is a pure function of its SeedSequence stream.
    inputs = rng.uniform(-1.0, 1.0, size=sizes[0])
    masks = [
        sample_fault_mask(
            out_features, in_features, fault_rate, rng, mode=mode
        )
        for out_features, in_features in (
            layer.weight_shape for layer in network.layers
        )
    ]
    ideal = model.forward(inputs)[-1]
    # Hoist the mask application: corrupt each layer's weights once
    # (same apply_mask_to_weights arithmetic, so bit-identical) instead
    # of re-corrupting inside every forward pass.
    faulty = model.with_fault_masks(masks).forward(inputs)[-1]
    return {
        "failed": False, "error": _relative_error(ideal, faulty),
        "fault_count": sum(mask.fault_count for mask in masks),
    }


def _relative_error(ideal: np.ndarray, actual: np.ndarray) -> float:
    """Mean absolute deviation from ``ideal``, over its peak magnitude."""
    scale = float(np.max(np.abs(ideal)))
    return (
        float(np.mean(np.abs(ideal - actual)) / scale)
        if scale > 0 else 0.0
    )


def _run_trial_batch(tasks: List[Tuple]) -> List[Dict[str, Any]]:
    """Worker: a group of seeded trials (pool process safe).

    The spawn key — not worker state, not schedule, not grouping — is
    the only RNG source, so results are identical for any
    ``jobs``/``chunk_size``.  A crossbar trial draws its levels, inputs
    and mask in that fixed order, then the group's crossbars run
    through one :func:`~repro.spice.solver.solve_batch`, whose members
    are bit-identical to :meth:`~repro.spice.solver.CrossbarNetwork.
    solve`.  A mask that makes the MNA system singular is *marked*
    (``on_singular="mark"``) and becomes a failed trial.  MLP trials
    run in place.
    """
    from repro.spice.solver import (
        CrossbarNetwork,
        ideal_output_voltages,
        solve_batch,
    )

    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    crossbars: List[Tuple[int, CrossbarNetwork, np.ndarray, int]] = []
    for slot, task in enumerate(tasks):
        (network_spec, mode, fault_rate, seed, spawn_key, device, size,
         segment_resistance, sense_resistance) = task
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
        )
        sizes = parse_network_spec(network_spec)
        if sizes is not None:
            with obs_trace.span(
                "faults.trial", network=network_spec, mode=mode,
                rate=fault_rate,
            ):
                results[slot] = _mlp_trial(sizes, mode, fault_rate, rng)
            continue
        levels = rng.integers(0, device.levels, size=(size, size))
        inputs = rng.uniform(0, device.read_voltage, size=size)
        mask = sample_fault_mask(size, size, fault_rate, rng, mode=mode)
        network = CrossbarNetwork(
            device.resistance_of_level(levels), segment_resistance,
            sense_resistance, device=device, fault_mask=mask,
        )
        crossbars.append((slot, network, inputs, mask.fault_count))
    if crossbars:
        with obs_trace.span("faults.batch", trials=len(crossbars)):
            batch = solve_batch(
                [network for _, network, _, _ in crossbars],
                np.stack([inputs for _, _, inputs, _ in crossbars]),
                on_singular="mark",
            )
        for member, (slot, network, inputs, fault_count) in enumerate(
            crossbars
        ):
            if batch.failed[member]:
                results[slot] = {
                    "failed": True, "error": None,
                    "fault_count": fault_count,
                }
                continue
            ideal = ideal_output_voltages(
                network.programmed_resistances, inputs,
                network.sense_resistance,
            )
            results[slot] = {
                "failed": False,
                "error": _relative_error(
                    ideal, batch.output_voltages[member]
                ),
                "fault_count": fault_count,
            }
    if obs_trace.enabled():
        counter = obs_metrics.counter(
            "repro_fault_trials_total",
            "Fault-injection trials by outcome",
        )
        for result in results:
            counter.inc(
                outcome="failed" if result["failed"] else "solved"
            )
    return results


# ----------------------------------------------------------------------

def _aggregate(
    network: str, mode: str, rate: float, trials: List[Dict[str, Any]]
) -> CurvePoint:
    """Fold one point's trial dicts into a :class:`CurvePoint`."""
    failures = sum(1 for t in trials if t["failed"])
    errors = [float(t["error"]) for t in trials if not t["failed"]]
    mean_fault_count = float(
        np.mean([float(t["fault_count"]) for t in trials])
    )
    if errors:
        mean_error = float(np.mean(errors))
        std_error = (
            float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
        )
        ci95 = 1.96 * std_error / math.sqrt(len(errors))
        relative_accuracy = max(0.0, 1.0 - mean_error)
    else:
        mean_error = std_error = ci95 = relative_accuracy = None
    return CurvePoint(
        network=network,
        fault_mode=mode,
        fault_rate=rate,
        trials=len(trials),
        failures=failures,
        mean_fault_count=mean_fault_count,
        mean_error=mean_error,
        std_error=std_error,
        ci95=ci95,
        relative_accuracy=relative_accuracy,
    )


def run_campaign(
    spec: FaultsSpec,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    policy: Optional[RunPolicy] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> CampaignResult:
    """Run the full fault sweep through the job engine.

    Parameters
    ----------
    spec:
        The campaign definition (networks x modes x rates x trials).
    jobs:
        Worker processes (``0`` = all cores); results are bit-identical
        for any value because every trial owns a spawn-keyed stream.
    cache / policy:
        Engine knobs, as in :func:`repro.dse.explorer.explore`; cached
        campaigns replay without touching the solver.
    progress / should_cancel:
        Engine hooks forwarded to :func:`repro.runtime.pool.run_jobs`.
    """
    # Keys only matter to a cache; without one, skip hashing them.
    combos, specs = _trial_specs(spec, keyed=cache is not None)
    with obs_trace.span(
        "faults.campaign",
        points=len(combos), trials_per_point=spec.trials,
    ):
        results = run_jobs(
            _run_trial_batch,
            specs,
            policy=policy if policy is not None else RunPolicy(jobs=jobs),
            cache=cache,
            progress=progress,
            should_cancel=should_cancel,
            batch=True,
        )
    points = []
    for index, (network, mode, rate) in enumerate(combos):
        start = index * spec.trials
        points.append(_aggregate(
            network, mode, rate, results[start:start + spec.trials]
        ))
    return CampaignResult(spec=spec, points=tuple(points))


def _trial_specs(
    spec: FaultsSpec, *, keyed: bool
) -> Tuple[List[Tuple[str, str, float]], List[JobSpec]]:
    """Expand the sweep into combos and spawn-keyed trial job specs.

    Trials are laid out combo by combo, ``spec.trials`` each, and carry
    a cache key only when ``keyed``.
    """
    device = get_memristor_model(spec.device)
    combos: List[Tuple[str, str, float]] = []
    specs: List[JobSpec] = []
    for net_index, network in enumerate(spec.networks):
        for mode_index, mode in enumerate(spec.fault_modes):
            for rate_index, rate in enumerate(spec.fault_rates):
                combos.append((network, mode, rate))
                for trial in range(spec.trials):
                    spawn_key = (net_index, mode_index, rate_index, trial)
                    task = (
                        network, mode, rate, spec.seed, spawn_key,
                        device, spec.size, spec.segment_resistance,
                        DEFAULT_SENSE_RESISTANCE,
                    )
                    specs.append(JobSpec(
                        kind="faults-trial",
                        payload=task,
                        key=content_key(
                            "faults-trial", network, mode, rate,
                            spec.seed, list(spawn_key), device,
                            spec.size, spec.segment_resistance,
                            DEFAULT_SENSE_RESISTANCE,
                        ) if keyed else None,
                    ))
    return combos, specs
