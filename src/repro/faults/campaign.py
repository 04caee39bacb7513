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
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.errors import ConfigError, SolverError
from repro.faults.models import (
    FAULT_MODES,
    sample_fault_mask,
)
from repro.jsonio import render_document
from repro.nn.inference import MlpInference
from repro.nn.networks import mlp
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import JobSpec, content_key
from repro.runtime.metrics import RunMetrics
from repro.runtime.pool import RunPolicy, run_jobs
from repro.tech.memristor import MemristorModel, get_memristor_model

#: Fault modes that only make sense at the circuit level: a line open /
#: short has no single-weight-matrix meaning, so MLP networks reject it.
_CIRCUIT_ONLY_MODES = ("line_open", "line_short")

#: Stamp written into every campaign JSON; bump on semantic changes.
CAMPAIGN_SCHEMA = "faults-campaign-v1"


def _parse_network_spec(spec: str) -> Optional[Tuple[int, ...]]:
    """``"crossbar"`` -> None, ``"mlp:a,b,..."`` -> neuron sizes."""
    if spec == "crossbar":
        return None
    if spec.startswith("mlp:"):
        body = spec[len("mlp:"):]
        try:
            sizes = tuple(int(token) for token in body.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"bad MLP spec {spec!r}: sizes must be integers"
            ) from exc
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(
                f"bad MLP spec {spec!r}: need >= 2 positive neuron counts"
            )
        return sizes
    raise ConfigError(
        f"unknown network spec {spec!r}; use 'crossbar' or 'mlp:a,b,...'"
    )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that identifies one fault-injection campaign.

    Attributes
    ----------
    networks:
        Network specs to sweep: ``"crossbar"`` (circuit level) and/or
        ``"mlp:a,b,..."`` (behaviour level, neuron counts per level).
    fault_modes:
        Subset of :data:`~repro.faults.models.FAULT_MODES`.
    fault_rates:
        Per-cell/per-line fault probabilities (drift: lognormal sigma).
    trials:
        Independently seeded injections per (network, mode, rate) point.
    seed:
        Root of the per-trial ``SeedSequence`` tree; the only source of
        randomness in the whole campaign.
    size:
        Square crossbar size for ``"crossbar"`` networks.
    device:
        Built-in memristor model name (see
        :func:`repro.tech.memristor.get_memristor_model`).
    segment_resistance / sense_resistance:
        Interconnect parameters for the circuit-level solve.
    """

    networks: Tuple[str, ...] = ("crossbar",)
    fault_modes: Tuple[str, ...] = ("stuck_mixed",)
    fault_rates: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05)
    trials: int = 8
    seed: int = 0
    size: int = 16
    device: str = "IDEAL"
    segment_resistance: float = 1.0
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE

    def __post_init__(self) -> None:
        object.__setattr__(self, "networks", tuple(self.networks))
        object.__setattr__(self, "fault_modes", tuple(self.fault_modes))
        object.__setattr__(
            self, "fault_rates", tuple(float(r) for r in self.fault_rates)
        )
        if not self.networks:
            raise ConfigError("a campaign needs at least one network")
        if not self.fault_modes:
            raise ConfigError("a campaign needs at least one fault mode")
        if not self.fault_rates:
            raise ConfigError("a campaign needs at least one fault rate")
        for mode in self.fault_modes:
            if mode not in FAULT_MODES:
                raise ConfigError(
                    f"unknown fault mode {mode!r}; pick from {FAULT_MODES}"
                )
        for rate in self.fault_rates:
            if not math.isfinite(rate) or rate < 0:
                raise ConfigError("fault rates must be finite and >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.size < 2:
            raise ConfigError("crossbar size must be >= 2")
        if self.segment_resistance < 0 or self.sense_resistance <= 0:
            raise ConfigError("bad interconnect resistances")
        for net in self.networks:
            sizes = _parse_network_spec(net)  # validates the spelling
            if sizes is not None:
                for mode in self.fault_modes:
                    if mode in _CIRCUIT_ONLY_MODES:
                        raise ConfigError(
                            f"mode {mode!r} is circuit-level only and "
                            f"cannot be applied to {net!r}; drop the "
                            "MLP network or the line mode"
                        )
        get_memristor_model(self.device)  # fail fast on unknown names

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe, deterministic encoding (embedded in results)."""
        return {
            "networks": list(self.networks),
            "fault_modes": list(self.fault_modes),
            "fault_rates": list(self.fault_rates),
            "trials": self.trials,
            "seed": self.seed,
            "size": self.size,
            "device": self.device,
            "segment_resistance": self.segment_resistance,
            "sense_resistance": self.sense_resistance,
        }


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

    spec: CampaignSpec
    points: Tuple[CurvePoint, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "spec": self.spec.to_dict(),
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

def _draw_crossbar_trial(
    mode: str,
    fault_rate: float,
    device: MemristorModel,
    size: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, Any]:
    """One circuit trial's draws, in the fixed (contractual) order.

    Levels, inputs, mask — shared verbatim by the point-wise and
    batched workers, so each trial stays a pure function of its
    spawn-keyed stream no matter how trials are grouped.
    """
    levels = rng.integers(0, device.levels, size=(size, size))
    programmed = device.resistance_of_level(levels)
    inputs = rng.uniform(0, device.read_voltage, size=size)
    mask = sample_fault_mask(size, size, fault_rate, rng, mode=mode)
    return programmed, inputs, mask


def _crossbar_error(
    programmed: np.ndarray,
    inputs: np.ndarray,
    sense_resistance: float,
    output_voltages: np.ndarray,
    fault_count: int,
) -> Dict[str, Any]:
    """The trial dict of a solved (non-singular) circuit trial."""
    from repro.spice.solver import ideal_output_voltages

    ideal = ideal_output_voltages(programmed, inputs, sense_resistance)
    scale = float(np.max(np.abs(ideal)))
    error = (
        float(np.mean(np.abs(ideal - output_voltages)) / scale)
        if scale > 0 else 0.0
    )
    return {
        "failed": False, "error": error, "fault_count": fault_count,
    }


def _failed_trial(fault_count: int) -> Dict[str, Any]:
    """The trial dict of a singular (unsolvable) faulted system."""
    return {
        "failed": True, "error": None, "fault_count": fault_count,
    }


def _crossbar_trial(
    mode: str,
    fault_rate: float,
    device: MemristorModel,
    size: int,
    segment_resistance: float,
    sense_resistance: float,
    rng: np.random.Generator,
) -> Dict[str, Any]:
    """Solve one programmed crossbar with and without a sampled mask."""
    from repro.spice.solver import CrossbarNetwork

    programmed, inputs, mask = _draw_crossbar_trial(
        mode, fault_rate, device, size, rng
    )
    try:
        network = CrossbarNetwork(
            programmed, segment_resistance, sense_resistance,
            device=device, fault_mask=mask,
        )
        solution = network.solve(inputs)
    except SolverError:
        # Singular faulted system (floating nodes): a *failed* trial.
        return _failed_trial(mask.fault_count)
    return _crossbar_error(
        programmed, inputs, sense_resistance,
        solution.output_voltages, mask.fault_count,
    )


def _mlp_trial(
    sizes: Tuple[int, ...],
    mode: str,
    fault_rate: float,
    rng: np.random.Generator,
) -> Dict[str, Any]:
    """Fixed-point forward pass with per-layer weight corruption."""
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
    scale = float(np.max(np.abs(ideal)))
    error = (
        float(np.mean(np.abs(ideal - faulty)) / scale)
        if scale > 0 else 0.0
    )
    return {
        "failed": False, "error": error,
        "fault_count": sum(mask.fault_count for mask in masks),
    }


def _run_trial(task: Tuple) -> Dict[str, Any]:
    """Worker: one seeded fault-injection trial (pool process safe).

    The spawn key — not worker state, not schedule — is the only RNG
    source, so results are identical for any ``jobs``/``chunk_size``.
    """
    (network_spec, mode, fault_rate, seed, spawn_key, device, size,
     segment_resistance, sense_resistance) = task
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
    )
    sizes = _parse_network_spec(network_spec)
    with obs_trace.span(
        "faults.trial", network=network_spec, mode=mode, rate=fault_rate
    ):
        if sizes is None:
            result = _crossbar_trial(
                mode, fault_rate, device, size, segment_resistance,
                sense_resistance, rng,
            )
        else:
            result = _mlp_trial(sizes, mode, fault_rate, rng)
    if obs_trace.enabled():
        obs_metrics.counter(
            "repro_fault_trials_total",
            "Fault-injection trials by outcome",
        ).inc(outcome="failed" if result["failed"] else "solved")
    return result


def _run_trial_batch(tasks: List[Tuple]) -> List[Dict[str, Any]]:
    """Batched worker: one group of seeded trials, one stacked solve.

    Every crossbar trial in the group shares the campaign's shape, so
    their structural assembly happens in one
    :meth:`~repro.spice.solver._CrossbarStructure.matrix_batch` sweep
    inside :func:`~repro.spice.solver.solve_batch`.  Masks that make
    the MNA system singular are *marked* (``on_singular="mark"``)
    instead of raising, which reproduces the point-wise worker's
    failed-trial dicts exactly; solvable members are bit-identical to
    :meth:`~repro.spice.solver.CrossbarNetwork.solve`, so campaign
    JSON is byte-identical to the point-wise path for any grouping.
    MLP trials (no shared matrix structure) run point-wise in place.
    """
    from repro.spice.solver import CrossbarNetwork, solve_batch

    results: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    member_slots: List[int] = []
    networks: List[CrossbarNetwork] = []
    input_vectors: List[np.ndarray] = []
    contexts: List[Tuple[np.ndarray, np.ndarray, float, int]] = []
    for slot, task in enumerate(tasks):
        (network_spec, mode, fault_rate, seed, spawn_key, device, size,
         segment_resistance, sense_resistance) = task
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=tuple(spawn_key))
        )
        sizes = _parse_network_spec(network_spec)
        if sizes is not None:
            with obs_trace.span(
                "faults.trial", network=network_spec, mode=mode,
                rate=fault_rate,
            ):
                results[slot] = _mlp_trial(sizes, mode, fault_rate, rng)
            continue
        programmed, inputs, mask = _draw_crossbar_trial(
            mode, fault_rate, device, size, rng
        )
        try:
            network = CrossbarNetwork(
                programmed, segment_resistance, sense_resistance,
                device=device, fault_mask=mask,
            )
        except SolverError:
            results[slot] = _failed_trial(mask.fault_count)
            continue
        member_slots.append(slot)
        networks.append(network)
        input_vectors.append(inputs)
        contexts.append(
            (programmed, inputs, sense_resistance, mask.fault_count)
        )
    if networks:
        with obs_trace.span("faults.batch", trials=len(networks)):
            batch = solve_batch(
                networks, np.stack(input_vectors), on_singular="mark"
            )
        for member, slot in enumerate(member_slots):
            programmed, inputs, sense_resistance, fault_count = (
                contexts[member]
            )
            if batch.failed[member]:
                results[slot] = _failed_trial(fault_count)
            else:
                results[slot] = _crossbar_error(
                    programmed, inputs, sense_resistance,
                    batch.output_voltages[member], fault_count,
                )
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
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: Optional[RunMetrics] = None,
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
    cache / metrics / policy:
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
            _run_trial,
            specs,
            policy=policy if policy is not None else RunPolicy(jobs=jobs),
            cache=cache,
            metrics=metrics,
            progress=progress,
            should_cancel=should_cancel,
            batch_worker=_run_trial_batch,
        )
    points = []
    for index, (network, mode, rate) in enumerate(combos):
        start = index * spec.trials
        points.append(_aggregate(
            network, mode, rate, results[start:start + spec.trials]
        ))
    return CampaignResult(spec=spec, points=tuple(points))


def _trial_specs(
    spec: CampaignSpec, *, keyed: bool
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
                        spec.sense_resistance,
                    )
                    specs.append(JobSpec(
                        kind="faults-trial",
                        payload=task,
                        key=content_key(
                            "faults-trial", network, mode, rate,
                            spec.seed, list(spawn_key), device,
                            spec.size, spec.segment_resistance,
                            spec.sense_resistance,
                        ) if keyed else None,
                    ))
    return combos, specs
