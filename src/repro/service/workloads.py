"""Payload execution: one validated payload in, one result document out.

The bridge between :mod:`repro.service.schema` and the engine.  Each
:class:`~repro.service.schema.PayloadKind` maps to one runner that
canonicalises the payload into existing engine structures, executes
through :func:`repro.runtime.pool.run_jobs` (cache-aware, observable,
cancellable) and returns a JSON-safe *result document*.

Byte-identity contract
----------------------
:func:`render_document` is the single serialization used for stored
service results, and the document builders here are also what the CLI's
``--output`` paths call — so a service result and the file written by
the equivalent CLI invocation are byte-identical *by construction*, not
by coincidence.  The same deterministic settings as
:meth:`repro.faults.campaign.CampaignResult.to_json` apply: sorted keys,
two-space indent, no NaN, trailing newline.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.config import SimConfig
from repro.dse.explorer import (
    _SUMMARY_FIELDS,
    explore,
    optimal_table,
    simulate_point,
)
from repro.errors import ExplorationError
from repro.runtime.cache import ResultCache
from repro.runtime.metrics import RunMetrics
from repro.runtime.pool import RunPolicy
from repro.service.schema import MonteCarloSpec, PayloadKind, SimulationPayload

#: Version stamp embedded in every result document.
RESULT_SCHEMA = "service-result-v1"

ProgressFn = Optional[Callable[[int, int], None]]
CancelFn = Optional[Callable[[], bool]]


def render_document(doc: Dict[str, Any]) -> str:
    """Deterministic serialization: equal documents -> equal bytes."""
    return json.dumps(
        doc, sort_keys=True, indent=2, separators=(",", ": "),
        allow_nan=False,
    ) + "\n"


def _summary_dict(summary: Any) -> Dict[str, float]:
    return {name: getattr(summary, name) for name in _SUMMARY_FIELDS}


def montecarlo_document(
    config: SimConfig,
    spec: MonteCarloSpec,
    *,
    cache: Optional[ResultCache] = None,
    metrics: Optional[RunMetrics] = None,
    policy: Optional[RunPolicy] = None,
    progress: ProgressFn = None,
    should_cancel: CancelFn = None,
) -> Dict[str, Any]:
    """Run Monte-Carlo sampling and build its result document.

    Shared by the service's ``montecarlo`` payload kind and the CLI's
    ``montecarlo --output`` path, which is what makes their outputs
    byte-identical.
    """
    from repro.accuracy.montecarlo import run_monte_carlo

    device = config.device
    size = spec.size if spec.size is not None else config.crossbar_size
    segment = config.wire.segment_resistance(
        device.cell_pitch(config.cell_type)
    )
    result = run_monte_carlo(
        device, size, segment,
        trials=spec.trials,
        sense_resistance=DEFAULT_SENSE_RESISTANCE,
        sigma=spec.sigma,
        input_mode=spec.input_mode.value,
        seed=spec.seed,
        inputs_per_trial=spec.inputs_per_trial,
        cache=cache,
        metrics=metrics,
        policy=policy,
        progress=progress,
        should_cancel=should_cancel,
    )
    return {
        "schema": RESULT_SCHEMA,
        "kind": PayloadKind.MONTECARLO.value,
        "spec": {
            "config": config.to_dict(),
            "montecarlo": spec.to_dict(),
            "segment_resistance": segment,
            "sense_resistance": DEFAULT_SENSE_RESISTANCE,
            "size": size,
        },
        "summary": {
            "samples": int(result.samples.size),
            "mean_abs_error": result.mean_abs_error,
            "max_abs_error": result.max_abs_error,
            "p50_abs_error": result.percentile(50),
            "p95_abs_error": result.percentile(95),
            "p99_abs_error": result.percentile(99),
        },
        "samples": [float(v) for v in result.samples],
    }


def _run_simulate(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache],
    metrics: Optional[RunMetrics],
    progress: ProgressFn,
    should_cancel: CancelFn,
) -> Dict[str, Any]:
    network = payload.network.build()
    if progress is not None:
        progress(0, 1)
    summary = simulate_point(
        payload.config, network, cache=cache, metrics=metrics
    )
    if progress is not None:
        progress(1, 1)
    return {
        "schema": RESULT_SCHEMA,
        "kind": PayloadKind.SIMULATE.value,
        "spec": {
            "config": payload.config.to_dict(),
            "network": payload.network.spec_string(),
        },
        "summary": _summary_dict(summary),
    }


def _run_explore(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache],
    metrics: Optional[RunMetrics],
    progress: ProgressFn,
    should_cancel: CancelFn,
) -> Dict[str, Any]:
    sweep = payload.sweep
    network = payload.network.build()
    points = explore(
        payload.config,
        network,
        space=sweep.to_design_space(),
        max_error_rate=sweep.max_error_rate,
        cache=cache,
        metrics=metrics,
        policy=payload.execution.to_policy(),
        progress=progress,
        should_cancel=should_cancel,
    )
    try:
        optima = {
            metric: {
                "crossbar_size": point.crossbar_size,
                "parallelism_degree": point.parallelism_degree,
                "interconnect_tech": point.interconnect_tech,
            }
            for metric, point in optimal_table(points).items()
        }
    except ExplorationError:
        optima = {}  # the error bound excluded every design
    return {
        "schema": RESULT_SCHEMA,
        "kind": PayloadKind.EXPLORE.value,
        "spec": {
            "config": payload.config.to_dict(),
            "network": payload.network.spec_string(),
            "sweep": sweep.to_dict(),
        },
        "points": [
            {
                "crossbar_size": point.crossbar_size,
                "parallelism_degree": point.parallelism_degree,
                "interconnect_tech": point.interconnect_tech,
                "summary": _summary_dict(point.summary),
            }
            for point in points
        ],
        "optima": optima,
    }


def _run_montecarlo(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache],
    metrics: Optional[RunMetrics],
    progress: ProgressFn,
    should_cancel: CancelFn,
) -> Dict[str, Any]:
    return montecarlo_document(
        payload.config,
        payload.montecarlo,
        cache=cache,
        metrics=metrics,
        policy=payload.execution.to_policy(),
        progress=progress,
        should_cancel=should_cancel,
    )


def _run_faults(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache],
    metrics: Optional[RunMetrics],
    progress: ProgressFn,
    should_cancel: CancelFn,
) -> Dict[str, Any]:
    from repro.faults.campaign import run_campaign

    result = run_campaign(
        payload.faults.to_campaign_spec(),
        cache=cache,
        metrics=metrics,
        policy=payload.execution.to_policy(),
        progress=progress,
        should_cancel=should_cancel,
    )
    # The campaign document *is* the CLI `faults --output` document, so
    # byte-identity with the CLI falls out of CampaignResult.to_json()
    # using the same serialization as render_document().
    return result.to_dict()


def _run_campaign(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache],
    metrics: Optional[RunMetrics],
    progress: ProgressFn,
    should_cancel: CancelFn,
) -> Dict[str, Any]:
    # Deferred import: repro.campaign.runner imports this module.
    from repro.campaign.runner import run_campaign_config

    run = run_campaign_config(
        payload.campaign,
        cache=cache,
        metrics=metrics,
        progress=progress,
        should_cancel=should_cancel,
    )
    # The report *is* the CLI `campaign run --output` document, so the
    # service/CLI byte-identity contract extends to campaigns.
    return run.document


_RUNNERS = {
    PayloadKind.SIMULATE: _run_simulate,
    PayloadKind.EXPLORE: _run_explore,
    PayloadKind.MONTECARLO: _run_montecarlo,
    PayloadKind.FAULTS: _run_faults,
    PayloadKind.CAMPAIGN: _run_campaign,
}


def run_payload(
    payload: SimulationPayload,
    *,
    cache: Optional[ResultCache] = None,
    metrics: Optional[RunMetrics] = None,
    progress: ProgressFn = None,
    should_cancel: CancelFn = None,
) -> Dict[str, Any]:
    """Execute a validated payload and return its result document.

    ``progress(done, total)`` is invoked as the underlying sweep
    advances; ``should_cancel()`` returning True aborts the run with
    :class:`~repro.errors.JobCancelled` at the next chunk boundary.
    """
    runner = _RUNNERS[payload.kind]
    return runner(
        payload,
        cache=cache,
        metrics=metrics,
        progress=progress,
        should_cancel=should_cancel,
    )
