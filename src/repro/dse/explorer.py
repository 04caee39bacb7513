"""Traversal design-space exploration with per-metric optima (Fig. 9).

The explorer simulates every valid point of a :class:`~repro.dse.space.
DesignSpace`, discards points violating the error-rate constraint, and
reports the optimal design per optimization target — exactly the flow of
the paper's Tables IV and VI.  :func:`pentagon_factors` computes the
normalized five-axis comparison of Fig. 9 (reciprocal area, energy
efficiency, reciprocal power, speed, accuracy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.arch.accelerator import (
    Accelerator,
    AcceleratorSummary,
    network_fields,
)
from repro.circuits import ModuleRegistry
from repro.config import SimConfig
from repro.dse.space import DesignSpace
from repro.errors import ExplorationError
from repro.nn.networks import Network
from repro.obs import trace as obs_trace
from repro.runtime.jobs import (
    CANONICAL_ENCODER,
    JobSpec,
    canonical,
    canonical_json,
    content_key,
    key_of_json,
    network_fingerprint,
)
from repro.runtime.metrics import RunMetrics
from repro.runtime.pool import RunPolicy, run_jobs

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

#: Optimization targets, matching the columns of Tables IV / VI.
OPTIMIZATION_METRICS = ("area", "energy", "latency", "accuracy")


@dataclass(frozen=True)
class DesignPoint:
    """One simulated design: its swept parameters and its metrics."""

    crossbar_size: int
    parallelism_degree: int
    interconnect_tech: int
    summary: AcceleratorSummary

    # Convenience accessors for ranking -------------------------------
    @property
    def area(self) -> float:
        return self.summary.area

    @property
    def energy(self) -> float:
        return self.summary.energy_per_sample

    @property
    def latency(self) -> float:
        return self.summary.compute_latency

    @property
    def power(self) -> float:
        return self.summary.power

    @property
    def error_rate(self) -> float:
        return self.summary.worst_error_rate

    def metric(self, name: str) -> float:
        """Metric value where *smaller is better* for every name."""
        if name == "area":
            return self.area
        if name == "energy":
            return self.energy
        if name == "latency":
            return self.latency
        if name == "power":
            return self.power
        if name == "accuracy":
            return self.error_rate
        raise ExplorationError(f"unknown optimization metric {name!r}")


# ----------------------------------------------------------------------
# Simulation jobs (the repro.runtime integration)
# ----------------------------------------------------------------------
_SUMMARY_FIELDS = (
    "area", "energy_per_sample", "sample_latency", "compute_latency",
    "pipeline_cycle", "power", "worst_error_rate", "average_error_rate",
)


#: One simulation job's payload: base config, network and the grid
#: point ``(crossbar_size, parallelism_degree, interconnect_tech)``,
#: the only fields a point changes in its base.
PointTask = Tuple[SimConfig, Network, Tuple[int, int, int]]


def _point_task(config: SimConfig, network: Network) -> PointTask:
    """The payload that simulates ``config`` itself."""
    return (config, network, (
        config.crossbar_size, config.parallelism_degree,
        config.interconnect_tech,
    ))


def _evaluate_point(task: PointTask) -> AcceleratorSummary:
    """Worker: simulate one design point, as a batch of one."""
    return _evaluate_points_batch([task])[0]


def _shape_group_key(config: SimConfig) -> Tuple[Tuple[str, Any], ...]:
    """Hashable key of the accuracy-equivalent group a config is in.

    Parallelism degree changes only digital replication, never the
    crossbar computing accuracy (the paper's Sec. VII.C.1 observation),
    so configs differing only in ``parallelism_degree`` share one
    :meth:`~repro.arch.accelerator.Accelerator.accuracy` result.
    """
    return tuple(
        (name, getattr(config, name)) for name in config.__dataclass_fields__
        if name != "parallelism_degree"
    )


def _evaluate_points_batch(
    tasks: List[PointTask],
) -> List[AcceleratorSummary]:
    """Batched worker: design points sharing modules and accuracy.

    Each point's one :class:`SimConfig` is built here, only for a job
    the cache missed: its base with the grid point and the network's
    type and depth folded in, so :class:`Accelerator` copies nothing.
    Those network fields (and the depth check) are derived once per
    base and network.  Every point builds on one
    :class:`~repro.circuits.ModuleRegistry`, so each distinct circuit
    module in the batch is built and costed once.  Points are grouped
    by crossbar shape (config minus parallelism degree) and each
    group's accuracy model is evaluated once, reused via
    ``summary(accuracy=...)``.  Both shared values are each member's
    own computation verbatim, so results are byte-identical to a fresh
    :class:`Accelerator` per point.
    """
    registry = ModuleRegistry()
    shared: Dict[Tuple[Tuple[str, Any], ...], Any] = {}
    summaries: List[AcceleratorSummary] = []
    folded: Optional[Tuple[SimConfig, Network, Dict[str, Any]]] = None
    for base, network, (size, degree, node) in tasks:
        if folded is None or folded[0] is not base \
                or folded[1] is not network:
            folded = (base, network, network_fields(base, network))
        with obs_trace.span("dse.point", xbar=size, p=degree, wire=node):
            config = base.replace(
                crossbar_size=size,
                parallelism_degree=degree,
                interconnect_tech=node,
                **folded[2],
            )
            accelerator = Accelerator(config, network, registry)
            key = _shape_group_key(config)
            accuracy = shared.get(key)
            if accuracy is None:
                accuracy = shared[key] = accelerator.accuracy()
            summaries.append(accelerator.summary(accuracy=accuracy))
    return summaries


def _encode_summary(summary: AcceleratorSummary) -> dict:
    return {name: getattr(summary, name) for name in _SUMMARY_FIELDS}


def _decode_summary(data: dict) -> AcceleratorSummary:
    return AcceleratorSummary(**{name: data[name] for name in _SUMMARY_FIELDS})


def simulation_spec(config: SimConfig, network: Network) -> JobSpec:
    """The :class:`JobSpec` for one (config, network) simulation.

    The cache key folds the deterministic config serialization, the
    network fingerprint, and the engine schema version.  A cached sweep
    derives the same keys from its base (:func:`_sweep_specs`).
    """
    return JobSpec(
        kind="simulate-point",
        payload=_point_task(config, network),
        key=content_key(
            "simulate-point", config.to_dict(), network_fingerprint(network)
        ),
    )


def simulate_point(
    config: SimConfig,
    network: Network,
    *,
    cache: Optional[ResultCache] = None,
    metrics: Optional[RunMetrics] = None,
) -> AcceleratorSummary:
    """Simulate one design through the job engine (cache-aware)."""
    # Keys only matter to a cache; without one, skip hashing them.
    spec = simulation_spec(config, network) if cache is not None else (
        JobSpec(kind="simulate-point", payload=_point_task(config, network))
    )
    return run_jobs(
        _evaluate_point,
        [spec],
        cache=cache,
        encode=_encode_summary,
        decode=_decode_summary,
        metrics=metrics,
    )[0]


def explore(
    base_config: SimConfig,
    network: Network,
    space: Optional[DesignSpace] = None,
    max_error_rate: Optional[float] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    metrics: Optional[RunMetrics] = None,
    policy: Optional[RunPolicy] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> List[DesignPoint]:
    """Simulate every valid design point.

    Parameters
    ----------
    base_config:
        Non-swept parameters (CMOS node, precisions, device, ...).
    network:
        The application mapped onto every candidate design.
    space:
        The swept grid (defaults to the paper's large-bank grid).
    max_error_rate:
        Optional constraint: points whose worst-case error rate exceeds
        this bound are dropped (the paper uses 25 % / 50 %).
    jobs:
        Worker processes for the sweep; ``1`` runs serially and
        ``jobs>1`` returns the exact same points in the same order
        (the engine guarantees result equivalence).
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; previously
        simulated points are read back instead of recomputed.  Job
        keys are derived only when a cache is attached.
    metrics:
        Optional :class:`~repro.runtime.metrics.RunMetrics` filled with
        stage times / cache hits for this sweep.
    policy:
        Full :class:`~repro.runtime.pool.RunPolicy` override (timeout,
        retries, chunking); when given, ``jobs`` is ignored.
    progress / should_cancel:
        Engine hooks forwarded to :func:`repro.runtime.pool.run_jobs`
        (per-sweep completion callback / cooperative cancellation).
    """
    space = space if space is not None else DesignSpace()
    with obs_trace.span(
        "dse.explore", points=len(space), network=network.name,
    ):
        points = list(space.valid_points())
        summaries = run_jobs(
            _evaluate_point,
            # Keys only matter to a cache; without one, skip hashing.
            _sweep_specs(
                base_config, network, points, keyed=cache is not None
            ),
            policy=policy if policy is not None else RunPolicy(jobs=jobs),
            cache=cache,
            encode=_encode_summary,
            decode=_decode_summary,
            metrics=metrics,
            progress=progress,
            should_cancel=should_cancel,
            batch_worker=_evaluate_points_batch,
        )
    return [
        DesignPoint(
            crossbar_size=size,
            parallelism_degree=degree,
            interconnect_tech=node,
            summary=summary,
        )
        for (size, degree, node), summary in zip(points, summaries)
        # ``not >`` rather than ``<=``: only a rate above the bound is
        # dropped, so a NaN rate stays in the sweep.
        if max_error_rate is None
        or not summary.worst_error_rate > max_error_rate
    ]


#: The config fields a grid point sets, in their keys' sorted order.
_SWEPT_FIELDS = ("crossbar_size", "interconnect_tech", "parallelism_degree")
#: Marks a swept field's place in the base config text; no validated
#: config holds this string.
_HOLE = "\x00"


def _sweep_specs(
    base: SimConfig,
    network: Network,
    points: List[Tuple[int, int, int]],
    *,
    keyed: bool,
) -> List[JobSpec]:
    """One engine job spec per grid point, keyed only when ``keyed``.

    No :class:`SimConfig` is built here: the worker builds one per
    point the cache missed.  :class:`DesignSpace` has already checked
    every axis against the bounds ``SimConfig`` enforces.
    """
    if not keyed:
        return [
            JobSpec(kind="simulate-point", payload=(base, network, point))
            for point in points
        ]
    # simulation_spec's keys from one canonical base: a point's
    # config text is the base's with its three swept values in
    # place, so the base text is split around them once per sweep.
    kind = canonical_json("simulate-point")
    fingerprint = canonical_json(network_fingerprint(network))
    fields = canonical(base.to_dict())
    fields.update(dict.fromkeys(_SWEPT_FIELDS, _HOLE))
    head, after_size, after_node, tail = CANONICAL_ENCODER.encode(
        fields
    ).split(canonical_json(_HOLE))
    spelled: Dict[Tuple[type, Any], str] = {}

    def spell(value: Any) -> str:
        # Keyed by type too: 1 and True are equal but spelled apart.
        key = (type(value), value)
        text = spelled.get(key)
        if text is None:
            text = spelled[key] = canonical_json(value)
        return text

    specs = []
    for point in points:
        size, degree, node = point
        config_text = (
            head + spell(size) + after_size + spell(node)
            + after_node + spell(degree) + tail
        )
        specs.append(JobSpec(
            kind="simulate-point",
            payload=(base, network, point),
            key=key_of_json(kind, config_text, fingerprint),
        ))
    return specs


def optimal(points: Sequence[DesignPoint], metric: str) -> DesignPoint:
    """The best point for one optimization target (smallest value).

    Raises
    ------
    ExplorationError
        If no points remain (e.g. the constraint excluded everything).
    """
    if not points:
        raise ExplorationError(
            "no design satisfies the constraints; relax the error bound "
            "or widen the design space"
        )
    return min(points, key=lambda p: p.metric(metric))


def optimal_table(
    points: Sequence[DesignPoint],
    metrics: Iterable[str] = OPTIMIZATION_METRICS,
) -> Dict[str, DesignPoint]:
    """Optimal design per target — the column set of Tables IV / VI."""
    return {metric: optimal(points, metric) for metric in metrics}


def optimal_with_secondary(
    points: Sequence[DesignPoint],
    primary: str,
    secondary: str,
    tolerance: float = 0.0,
) -> DesignPoint:
    """Best point by ``primary``, ties broken by ``secondary``.

    The paper's Sec. VII.C.1 observation: "changing digital modules does
    not impact the computing accuracy of memristor crossbars, [so] the
    user can set a secondary optimization target for accuracy
    optimization" — many accuracy-equal designs exist and a secondary
    target picks among them.  ``tolerance`` widens the tie band to a
    relative margin around the primary optimum.
    """
    if tolerance < 0:
        raise ExplorationError("tolerance must be non-negative")
    best = optimal(points, primary)
    best_value = best.metric(primary)
    band = best_value * (1.0 + tolerance) + (
        0.0 if best_value else tolerance
    )
    candidates = [p for p in points if p.metric(primary) <= band]
    return min(candidates, key=lambda p: p.metric(secondary))


def pentagon_factors(
    selected: Sequence[DesignPoint],
) -> List[Dict[str, float]]:
    """Fig. 9's normalized five-axis factors for the given designs.

    Reciprocal area, energy efficiency (1/energy), reciprocal power,
    and speed (1/latency) are normalized by the maximum over
    ``selected``; accuracy is ``1 - error`` (already in [0, 1]).
    """
    if not selected:
        raise ExplorationError("pentagon needs at least one design")

    def reciprocal(value: float) -> float:
        return float("inf") if value == 0 else 1.0 / value

    raw = [
        {
            "reciprocal_area": reciprocal(p.area),
            "energy_efficiency": reciprocal(p.energy),
            "reciprocal_power": reciprocal(p.power),
            "speed": reciprocal(p.latency),
            "accuracy": 1.0 - p.error_rate,
        }
        for p in selected
    ]
    result = []
    axes = ("reciprocal_area", "energy_efficiency", "reciprocal_power",
            "speed")
    maxima = {axis: max(entry[axis] for entry in raw) for axis in axes}
    for entry in raw:
        normalized = {
            axis: (entry[axis] / maxima[axis] if maxima[axis] > 0 else 0.0)
            for axis in axes
        }
        normalized["accuracy"] = entry["accuracy"]
        result.append(normalized)
    return result
