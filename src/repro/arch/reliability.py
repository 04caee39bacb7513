"""Lifetime and reliability modelling: retention, disturb, refresh.

The paper's inference-only usage avoids *endurance* wear (Sec. II.B.1),
but two slower mechanisms still erode a deployed crossbar:

* **retention drift** — programmed resistances relax toward the window
  midpoint over time (thermally activated); once the accumulated drift
  reaches half a level width the stored weight reads wrong;
* **read disturb** — every COMPUTE biases the cells; a tiny per-read
  drift accumulates with sample count.

Both are repaired by re-programming (**refresh**).  This module derives
the refresh interval a deployment needs and what the refresh traffic
costs — closing the loop with the write-verify model
(:mod:`repro.arch.programming`) and the endurance budget: refreshing
too often wears the device out, the classic NVM retention/endurance
squeeze.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.arch.programming import programming_cost
from repro.errors import ConfigError

# Fraction of a level width the weight may drift before refresh.
DEFAULT_DRIFT_BUDGET = 0.5

# Retention: time for the resistance to drift one full level width at
# operating temperature.  RRAM retention specs run months to 10 years;
# one year per level is a mid-range figure.
DEFAULT_RETENTION_PER_LEVEL = 365.0 * 24 * 3600

# Read disturb: fractional level drift per compute operation.  Low-bias
# reads disturb extremely weakly; 1e-9 levels/read is representative.
DEFAULT_DISTURB_PER_READ = 1e-9


@dataclass(frozen=True)
class ReliabilityReport:
    """Lifetime summary of one deployment.

    Attributes
    ----------
    refresh_interval:
        Seconds between refreshes (drift budget / combined drift rate).
    refreshes_per_year:
        Refresh operations per year of continuous operation.
    refresh_energy_per_year:
        Energy spent refreshing per year (J).
    refresh_duty_cycle:
        Fraction of wall-clock time spent refreshing.
    endurance_lifetime_years:
        Years until the refresh traffic exhausts the write endurance.
    retention_limited:
        True when retention (not read disturb) sets the interval.
    hard_fault_rate:
        Fraction of cells with unrepairable hard faults (stuck/open);
        see :func:`reliability_report` for how it tightens the policy.
    """

    refresh_interval: float
    refreshes_per_year: float
    refresh_energy_per_year: float
    refresh_duty_cycle: float
    endurance_lifetime_years: float
    retention_limited: bool
    hard_fault_rate: float = 0.0


def reliability_report(
    accelerator: Accelerator,
    samples_per_second: float,
    drift_budget: float = DEFAULT_DRIFT_BUDGET,
    retention_per_level: float = DEFAULT_RETENTION_PER_LEVEL,
    disturb_per_read: float = DEFAULT_DISTURB_PER_READ,
    write_endurance: float = 1e9,
    hard_fault_rate: float = 0.0,
) -> ReliabilityReport:
    """Derive the refresh policy and lifetime of a deployment.

    Parameters
    ----------
    accelerator:
        The deployed design (its programming cost prices each refresh).
    samples_per_second:
        Sustained inference rate (drives the read-disturb term).
    drift_budget:
        Levels of drift tolerated before refresh (default: half).
    retention_per_level:
        Seconds for retention drift to cross one level width.
    disturb_per_read:
        Levels of drift per compute operation.
    write_endurance:
        Programming cycles each cell tolerates.
    hard_fault_rate:
        Fraction of cells with unrepairable hard faults, e.g. the
        ``cell_fault_fraction`` of a measured or sampled
        :class:`~repro.faults.models.FaultMask`.  First-order model:
        stuck/open cells permanently consume part of the array's error
        margin, so the drift budget the *healthy* cells may spend
        shrinks to ``drift_budget * (1 - hard_fault_rate)`` and every
        refresh-derived quantity tightens proportionally.  Must lie in
        ``[0, 1)`` — a fully-faulted array has no refresh policy.
    """
    if samples_per_second < 0:
        raise ConfigError("samples_per_second must be >= 0")
    if drift_budget <= 0:
        raise ConfigError("drift_budget must be positive")
    if retention_per_level <= 0 or disturb_per_read < 0:
        raise ConfigError("bad drift parameters")
    if not 0.0 <= hard_fault_rate < 1.0:
        raise ConfigError("hard_fault_rate must lie in [0, 1)")
    drift_budget = drift_budget * (1.0 - hard_fault_rate)

    retention_rate = 1.0 / retention_per_level  # levels per second
    disturb_rate = disturb_per_read * samples_per_second
    total_rate = retention_rate + disturb_rate
    if total_rate <= 0:
        raise ConfigError("degenerate drift model")

    refresh_interval = drift_budget / total_rate
    year = 365.0 * 24 * 3600
    refreshes_per_year = year / refresh_interval

    refresh = programming_cost(
        accelerator, write_endurance=write_endurance
    )
    refresh_energy_per_year = refresh.energy * refreshes_per_year
    refresh_duty_cycle = min(1.0, refresh.latency / refresh_interval)

    # Each refresh writes every cell pulses_per_cell times.
    writes_per_year = refresh.pulses_per_cell * refreshes_per_year
    endurance_lifetime_years = write_endurance / writes_per_year

    return ReliabilityReport(
        refresh_interval=refresh_interval,
        refreshes_per_year=refreshes_per_year,
        refresh_energy_per_year=refresh_energy_per_year,
        refresh_duty_cycle=refresh_duty_cycle,
        endurance_lifetime_years=endurance_lifetime_years,
        retention_limited=retention_rate >= disturb_rate,
        hard_fault_rate=hard_fault_rate,
    )

