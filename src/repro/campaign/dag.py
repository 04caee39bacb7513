"""The campaign loop under its former name, for the per-layer benchmark.

Campaigns no longer run on a stage graph: they run as one loop over
their units, :class:`repro.campaign.runner.CampaignLoop` (DESIGN.md
S39).  ``benchmarks/perf/layers.py`` still wraps
``repro.campaign.dag:DagRunner.run`` to count ``campaign.runs`` and
``campaign.stages``, so this module keeps that name for the loop class
itself.  Nothing in the package imports it; it goes when the benchmark
hook moves to the runner.
"""

from repro.campaign.runner import CampaignLoop as DagRunner

__all__ = ["DagRunner"]
