"""Declarative campaigns and the stage-DAG runner.

The declarative layer — :mod:`repro.campaign.config` and
:mod:`repro.campaign.runner` — imports :mod:`repro.service`, which
itself reaches back here for the ``campaign`` payload kind.  Every
name resolves lazily (:func:`repro._lazy.lazy_exports`), which keeps
that import graph acyclic and leaves :mod:`repro.campaign.dag` unloaded
until a stage graph runs.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.campaign.dag": [
        "DagRunner",
        "Stage",
        "StageContext",
        "get_executor",
        "register_executor",
    ],
    "repro.campaign.config": ["CampaignConfig", "CampaignUnit"],
    "repro.campaign.runner": ["CampaignRun", "run_campaign_config"],
})
