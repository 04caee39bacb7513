"""Declarative campaigns and the loop that runs them.

The declarative layer — :mod:`repro.campaign.config` and
:mod:`repro.campaign.runner` — imports :mod:`repro.service`, which
itself reaches back here for the ``campaign`` payload kind.  Every
name resolves lazily (:func:`repro._lazy.lazy_exports`), which keeps
that import graph acyclic.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.campaign.config": ["CampaignConfig", "CampaignUnit"],
    "repro.campaign.runner": ["CampaignRun", "run_campaign_config"],
})
