"""Run declarative campaigns: one loop over the expanded units.

A :class:`~repro.campaign.config.CampaignConfig` expands into a flat
list of units, ``combination`` x ``numRuns`` (the 6tisch shape,
SNIPPETS.md #3).  :class:`CampaignLoop` runs them in order, then the
``post`` hooks, then assembles the report:

* each unit runs its payload through
  :func:`repro.service.workloads.run_payload` and, with a cache,
  stores the result as a ``campaign-stage`` row keyed on the payload's
  ``result_identity`` (:func:`stage_key`), never on engine knobs, so
  serial and ``--jobs`` runs share rows.  A resumed campaign replays
  completed units from those rows wholesale; a unit killed mid-way
  replays its finished jobs through the engine's own per-job cache;
* ``should_cancel`` is checked before every unit (the engine checks
  it at chunk boundaries inside one);
* progress is one monotone ``(done, total)`` stream over the whole
  campaign, each unit weighted by its payload's ``total_work()``.

Every unit result is JSON-safe by construction, which is what lets
the stage cache persist them and lets resumed and uninterrupted runs
produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.campaign.config import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    CampaignUnit,
)
from repro.errors import JobCancelled
from repro.jsonio import render_document
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import content_key
from repro.runtime.pool import RUNTIME_EVENTS
from repro.service.schema import PayloadKind, SimulationPayload
from repro.service.workloads import run_payload

__all__ = ["run_campaign_config", "CampaignRun", "CampaignLoop",
           "stage_key", "REPORT_STAGE", "STAGE_CACHE_KIND"]

#: ``ResultCache`` row kind of a completed unit's result.
STAGE_CACHE_KIND = "campaign-stage"

#: Name of the final assembly step (its result is the report document).
REPORT_STAGE = "report"


@dataclasses.dataclass(frozen=True)
class CampaignRun:
    """Outcome of one campaign execution.

    ``document`` is the final report (render with
    :func:`repro.jsonio.render_document` for the canonical
    bytes); ``stage_stats`` is the runner's per-stage ledger —
    ``resumed`` / ``jobs`` / ``cache_hits`` per stage — which is what
    the CLI's ``campaign resume`` prints to prove a resume replayed
    from cache.
    """

    document: Dict[str, Any]
    stage_stats: Dict[str, Dict[str, Any]]
    fingerprint: str

    def to_json(self) -> str:
        return render_document(self.document)


def stage_key(payload: SimulationPayload) -> str:
    """Cache key of a unit's ``campaign-stage`` row.

    Persisted rows are only found again while this stays byte-stable.
    """
    return content_key(CAMPAIGN_SCHEMA, "unit", payload.result_identity())


# ----------------------------------------------------------------------
# Post hooks and the report
# ----------------------------------------------------------------------
#: Result-document field each kind's one-number headline comes from.
def _headline(kind: PayloadKind, doc: Dict[str, Any]) -> Dict[str, Any]:
    if kind is PayloadKind.MONTECARLO:
        return {"metric": "mean_abs_error",
                "value": doc["summary"]["mean_abs_error"]}
    if kind is PayloadKind.FAULTS:
        errors = [
            point["mean_error"] for point in doc["points"]
            if point.get("mean_error") is not None
        ]
        return {"metric": "worst_mean_error",
                "value": max(errors) if errors else None}
    if kind is PayloadKind.EXPLORE:
        return {"metric": "feasible_points", "value": len(doc["points"])}
    if kind is PayloadKind.SIMULATE:
        return {"metric": "area", "value": doc["summary"]["area"]}
    return {"metric": None, "value": None}


def _unit_fields(unit: CampaignUnit) -> Dict[str, Any]:
    """What names a unit in the summary rows and the report."""
    return {
        "stage": unit.stage,
        "combination": dict(unit.combination),
        "run": unit.run,
        "seed": unit.seed,
        "kind": unit.payload.kind.value,
    }


def _summary(
    config: CampaignConfig, results: Dict[str, Any]
) -> Dict[str, Any]:
    rows = [
        {**_unit_fields(unit),
         **_headline(unit.payload.kind, results[unit.stage])}
        for unit in config.units
    ]
    return {"hook": "summary", "rows": rows}


#: The ``post`` hooks by name (``config.POST_HOOKS`` validates them).
_POST_HOOKS = {"summary": _summary}


def _report(
    config: CampaignConfig,
    results: Dict[str, Any],
    post: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "schema": CAMPAIGN_SCHEMA,
        "name": config.name,
        "version": config.version,
        "num_runs": config.num_runs,
        "fingerprint": config.fingerprint(),
        "combination": {
            key: list(values) for key, values in config.combination
        },
        "units": [
            {**_unit_fields(unit), "result": results[unit.stage]}
            for unit in config.units
        ],
        "post": post,
    }


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
def _engine_counts() -> Tuple[int, int]:
    """Engine job and cache-hit counts so far: the current job's
    series inside a JobContext (a campaign running concurrently in
    another job never counts here), else the base series."""
    events = obs_metrics.counter(RUNTIME_EVENTS)
    job = obs_trace.current_job()
    scope = {} if job is None else {"job": job}
    return (
        int(events.value(event="jobs_total", **scope)),
        int(events.value(event="cache_hits", **scope)),
    )


class CampaignLoop:
    """One campaign execution: the units in order, the post hooks, the
    report.

    ``jobs`` overrides the file's ``numCPUs`` (the CLI ``--jobs`` flag)
    on every unit payload; stage keys exclude engine knobs, so serial
    and overridden runs share every cache row.  ``stages`` names each
    step in run order (``unit-…``, ``post:<hook>``, ``report``) and
    :meth:`run` fills :attr:`stage_stats` under the same names.
    """

    def __init__(
        self,
        config: CampaignConfig,
        *,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.progress = progress
        self.should_cancel = should_cancel
        self.payloads = tuple(
            unit.payload if jobs is None else dataclasses.replace(
                unit.payload,
                execution=dataclasses.replace(
                    unit.payload.execution, jobs=jobs
                ),
            )
            for unit in config.units
        )
        self.stages = (
            tuple(unit.stage for unit in config.units)
            + tuple(f"post:{hook}" for hook in config.post)
            + (REPORT_STAGE,)
        )
        #: ``{"resumed": bool, "jobs": int, "cache_hits": int,
        #:    "elapsed_seconds": float}`` per stage name.
        self.stage_stats: Dict[str, Dict[str, Any]] = {}

    def _report_progress(self, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(done, total)

    def _run_unit(
        self, stage: str, payload: SimulationPayload, offset: int,
        total: int,
    ) -> Tuple[Any, bool]:
        """The unit's result, and whether it came from the stage cache."""
        key = None if self.cache is None else stage_key(payload)
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached, True
        with obs_trace.span(
            "campaign.stage", stage=stage, weight=payload.total_work()
        ):
            result = run_payload(
                payload,
                cache=self.cache,
                progress=lambda done, _total: self._report_progress(
                    min(offset + done, total), total
                ),
                should_cancel=self.should_cancel,
            )
        if key is not None:
            self.cache.put(key, STAGE_CACHE_KIND, result)
        return result, False

    def _record_plain(self, name: str, started: float) -> None:
        """Stats of a post hook or the report: pure functions that run
        no engine jobs."""
        self.stage_stats[name] = {
            "resumed": False,
            "jobs": 0,
            "cache_hits": 0,
            "elapsed_seconds": time.monotonic() - started,
        }

    def run(self) -> Dict[str, Any]:
        """Run every unit, then the post hooks; return the report.

        Raises :class:`~repro.errors.JobCancelled` when
        ``should_cancel`` fires before a unit (the engine raises it at
        chunk boundaries inside one); every unit already stored stays
        stored, which is what makes resume work.
        """
        self.stage_stats = {}
        total = sum(payload.total_work() for payload in self.payloads)
        results: Dict[str, Any] = {}
        offset = 0
        self._report_progress(0, total)
        for unit, payload in zip(self.config.units, self.payloads):
            if self.should_cancel is not None and self.should_cancel():
                raise JobCancelled("campaign cancelled at a stage boundary")
            weight = payload.total_work()
            jobs_before, hits_before = _engine_counts()
            started = time.monotonic()
            result, resumed = self._run_unit(
                unit.stage, payload, offset, total
            )
            elapsed = 0.0 if resumed else time.monotonic() - started
            results[unit.stage] = result
            offset += weight
            # A unit's end pins the campaign axis even when it reported
            # nothing itself (a resumed unit).
            self._report_progress(offset, total)
            jobs_after, hits_after = _engine_counts()
            self.stage_stats[unit.stage] = {
                "resumed": resumed,
                "jobs": jobs_after - jobs_before,
                "cache_hits": hits_after - hits_before,
                "elapsed_seconds": elapsed,
            }
        post = {}
        for hook in self.config.post:
            started = time.monotonic()
            post[hook] = _POST_HOOKS[hook](self.config, results)
            self._record_plain(f"post:{hook}", started)
        started = time.monotonic()
        report = _report(self.config, results, post)
        self._record_plain(REPORT_STAGE, started)
        return report


def run_campaign_config(
    config: CampaignConfig,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> CampaignRun:
    """Execute a validated campaign and return its report.

    Resume needs ``cache``: with one configured, completed units of an
    interrupted run replay wholesale on the next invocation (their
    ``resumed`` flag flips in ``stage_stats``) and a unit killed
    mid-way replays its finished jobs through the engine's per-job
    cache — the report comes out byte-identical either way.
    """
    loop = CampaignLoop(
        config,
        jobs=jobs,
        cache=cache,
        progress=progress,
        should_cancel=should_cancel,
    )
    with obs_trace.span(
        "campaign.run",
        campaign=config.name,
        units=len(config.units),
        total_work=config.total_work(),
    ):
        document = loop.run()
    return CampaignRun(
        document=document,
        stage_stats=dict(loop.stage_stats),
        fingerprint=config.fingerprint(),
    )
