"""Hard-fault injection: masks, solver integration, sweep campaigns.

The accuracy stack (Sec. V/VI of the paper) models device imperfection
as *parametric* spread — Gaussian resistance variation, nonlinearity —
but fabricated crossbars also fail *discretely*: cells fuse at the
lowest resistance (stuck-at-ON), burn open at the highest
(stuck-at-OFF), lose contact entirely, and whole word- or bit-lines
open or short during bonding.  This subpackage makes those failure
modes first-class:

* :mod:`repro.faults.models` — :class:`FaultMask`, a deterministic,
  seed-reproducible description of every hard fault on one crossbar
  (stuck cells, open cells, open/short lines, parametric drift
  overlays), with JSON round-trip for cache keys and reports;
* :class:`~repro.spice.solver.CrossbarNetwork` accepts a
  ``fault_mask=``: stuck cells rewrite the programmed stamp values,
  open cells/lines drop their branches, and a mask that leaves nodes
  floating surfaces as the structured
  :class:`~repro.errors.SolverError` — never a raw numpy crash;
* :mod:`repro.faults.campaign` — a campaign runner that sweeps
  fault rate x fault type x network through :mod:`repro.runtime`
  (chunked pool, persistent cache, per-trial ``SeedSequence``
  spawning) and reports accuracy-vs-fault-rate curves with
  confidence intervals; surfaced as ``repro faults`` on the CLI.

Every sampled mask derives from ``SeedSequence(seed, spawn_key)``
streams, so campaigns are bit-identical across serial and parallel
execution and individually cacheable per trial.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.faults.models": [
        "FAULT_MODES",
        "FaultMask",
        "apply_mask_to_weights",
        "sample_fault_mask",
    ],
    "repro.faults.campaign": [
        "CampaignResult",
        "CampaignSpec",
        "CurvePoint",
        "run_campaign",
    ],
})
