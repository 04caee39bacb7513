"""Weight-programming model: write-verify tuning under variation.

Programming a multi-level memristor cell is not a single pulse: device
variation scatters the landed resistance, so practical flows use
program-and-verify loops (the paper cites Alibart's variation-tolerant
tuning algorithm [48] for its 7-bit device).  This module models that
cost:

* the expected **pulses per cell** to land within half a level given a
  per-pulse placement spread (derived from the device precision and
  sigma);
* the full **programming schedule** of an accelerator: cells written
  row-by-row (one row's cells in parallel across columns through the
  column drivers), banks programmed sequentially;
* the resulting one-time energy/latency, and the write-endurance
  consumed per full reload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.accelerator import Accelerator
from repro.errors import ConfigError
from repro.report import Performance
from repro.tech.memristor import MemristorModel


@dataclass(frozen=True)
class ProgrammingCost:
    """One full weight load, write-verify included.

    Attributes
    ----------
    pulses_per_cell:
        Expected program pulses per cell (>= 1).
    verify_reads_per_cell:
        Verify (read) operations per cell (one per pulse).
    energy / latency:
        Total one-time cost of loading every bank.
    endurance_consumed:
        Fraction of a 1e9-cycle endurance budget used by one load.
    """

    pulses_per_cell: float
    verify_reads_per_cell: float
    energy: float
    latency: float
    endurance_consumed: float


def expected_pulses_per_cell(
    device: MemristorModel, target_fraction: float = 0.5
) -> float:
    """Expected write-verify pulses to land a level within tolerance.

    Per-pulse placement error is modelled as uniform within
    ``+-sigma`` of the target resistance; the tuning loop succeeds when
    the landed value is within ``target_fraction`` of one level width.
    With success probability ``p`` per pulse, the expectation is
    ``1/p`` (geometric), clamped to at least one pulse.

    A zero-sigma device programs in exactly one pulse.
    """
    if not 0 < target_fraction <= 1:
        raise ConfigError("target_fraction must lie in (0, 1]")
    if device.sigma == 0:
        return 1.0
    # Level width as a fraction of the full resistance window; sigma is
    # a fraction of the target resistance, so compare like for like by
    # expressing both relative to the window midpoint.
    level_fraction = 1.0 / (device.levels - 1)
    tolerance = target_fraction * level_fraction
    success = min(1.0, tolerance / device.sigma)
    if success <= 0:
        raise ConfigError("degenerate tuning problem")
    return 1.0 / success


def programming_cost(
    accelerator: Accelerator,
    target_fraction: float = 0.5,
    write_endurance: float = 1e9,
) -> ProgrammingCost:
    """Full write-verify weight load of the accelerator.

    Builds on each bank's write model (cells through both decoders,
    banks sequential) and scales by the expected pulse count; each
    pulse is followed by one verify read through the unit's read path.
    """
    if write_endurance <= 0:
        raise ConfigError("write_endurance must be positive")
    device = accelerator.config.device
    pulses = expected_pulses_per_cell(device, target_fraction)

    total = Performance()
    for bank in accelerator.banks:
        write = bank.write_performance()
        verify_energy = 0.0
        verify_latency = 0.0
        for unit, count in bank._shaped_units:
            read = unit.read_performance()
            cells = unit.active_rows * unit.active_cols * unit.polarity
            verify_energy += read.dynamic_energy * cells * count
            verify_latency += read.latency * cells * math.ceil(
                count / max(bank.mapping.col_blocks, 1)
            )
        total = total.serial(
            Performance(
                dynamic_energy=(
                    write.dynamic_energy * pulses
                    + verify_energy * pulses
                ),
                latency=(
                    write.latency * pulses + verify_latency * pulses
                ),
            )
        )

    return ProgrammingCost(
        pulses_per_cell=pulses,
        verify_reads_per_cell=pulses,
        energy=total.dynamic_energy,
        latency=total.latency,
        endurance_consumed=pulses / write_endurance,
    )

