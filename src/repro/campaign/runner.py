"""Run declarative campaigns on the stage DAG.

A :class:`~repro.campaign.config.CampaignConfig` compiles into one
graph shape:

* one ``campaign.unit`` stage per expanded unit (weight = the unit
  payload's :meth:`~repro.service.schema.SimulationPayload.total_work`,
  stage-level ``cache_key`` derived from the unit's
  ``result_identity`` so resume replays completed units wholesale),
* one ``campaign.post.*`` stage per ``post`` hook, depending on every
  unit, and
* a weight-0 ``campaign.report`` stage depending on everything, which
  assembles the final deterministic document.

Every stage result is JSON-safe by construction, which is what lets
the stage cache persist them and lets resumed and uninterrupted runs
produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.campaign.config import CAMPAIGN_SCHEMA, CampaignConfig
from repro.campaign.dag import DagRunner, Stage, StageContext, register_executor
from repro.jsonio import render_document
from repro.obs import trace as obs_trace
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import content_key
from repro.service.schema import PayloadKind
from repro.service.workloads import run_payload

__all__ = ["run_campaign_config", "CampaignRun", "REPORT_STAGE"]

#: Name of the final assembly stage (its result is the report document).
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


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
@register_executor("campaign.unit")
def _run_unit(stage: Stage, context: StageContext) -> Dict[str, Any]:
    unit = stage.params["unit"]
    return run_payload(
        unit.payload,
        cache=context.cache,
        progress=context.progress,
        should_cancel=context.should_cancel,
    )


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


@register_executor("campaign.post.summary")
def _run_summary(stage: Stage, context: StageContext) -> Dict[str, Any]:
    config: CampaignConfig = stage.params["config"]
    rows: List[Dict[str, Any]] = []
    for unit in config.units:
        doc = context.upstream[unit.stage]
        rows.append({
            "stage": unit.stage,
            "combination": dict(unit.combination),
            "run": unit.run,
            "seed": unit.seed,
            "kind": unit.payload.kind.value,
            **_headline(unit.payload.kind, doc),
        })
    return {"hook": "summary", "rows": rows}


@register_executor("campaign.report")
def _run_report(stage: Stage, context: StageContext) -> Dict[str, Any]:
    config: CampaignConfig = stage.params["config"]
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
            {
                "stage": unit.stage,
                "combination": dict(unit.combination),
                "run": unit.run,
                "seed": unit.seed,
                "kind": unit.payload.kind.value,
                "result": context.upstream[unit.stage],
            }
            for unit in config.units
        ],
        "post": {
            hook: context.upstream[f"post:{hook}"] for hook in config.post
        },
    }


# ----------------------------------------------------------------------
# Graph assembly
# ----------------------------------------------------------------------
def build_stages(
    config: CampaignConfig, *, jobs: Optional[int] = None
) -> List[Stage]:
    """Compile a campaign into its stage graph.

    ``jobs`` overrides the file's ``numCPUs`` (the CLI ``--jobs`` flag)
    by swapping the engine knobs on every unit payload — identity and
    cache keys are execution-independent, so serial and overridden runs
    share every cache row.
    """
    stages: List[Stage] = []
    unit_names: List[str] = []
    for unit in config.units:
        payload = unit.payload
        if jobs is not None:
            payload = dataclasses.replace(
                payload,
                execution=dataclasses.replace(payload.execution, jobs=jobs),
            )
        stages.append(Stage(
            name=unit.stage,
            executor="campaign.unit",
            params={"unit": dataclasses.replace(unit, payload=payload)},
            weight=payload.total_work(),
            cache_key=content_key(
                CAMPAIGN_SCHEMA, "unit", payload.result_identity()
            ),
        ))
        unit_names.append(unit.stage)
    post_names: List[str] = []
    for hook in config.post:
        name = f"post:{hook}"
        stages.append(Stage(
            name=name,
            executor=f"campaign.post.{hook}",
            params={"config": config},
            depends_on=tuple(unit_names),
        ))
        post_names.append(name)
    stages.append(Stage(
        name=REPORT_STAGE,
        executor="campaign.report",
        params={"config": config},
        depends_on=tuple(unit_names + post_names),
    ))
    return stages


def run_campaign_config(
    config: CampaignConfig,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
) -> CampaignRun:
    """Execute a validated campaign and return its report.

    Stage-level resume needs ``cache``: with one configured, completed
    unit stages of an interrupted run replay wholesale on the next
    invocation (their ``resumed`` flag flips in ``stage_stats``) and
    partially-complete stages replay finished jobs through the engine's
    per-job cache — the report comes out byte-identical either way.
    """
    stages = build_stages(config, jobs=jobs)
    runner = DagRunner(
        stages,
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
        results = runner.run()
    return CampaignRun(
        document=results[REPORT_STAGE],
        stage_stats=dict(runner.stage_stats),
        fingerprint=config.fingerprint(),
    )
