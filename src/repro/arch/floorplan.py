"""First-order floorplanning: die geometry and global-wire overhead.

The hierarchical performance model sums module areas; a physical chip
also pays for arranging them.  This module adds the classic first-order
corrections:

* **bank placement** — banks arranged in a near-square grid of
  rectangular slots, with a configurable white-space factor (routing
  channels, power grid), giving die dimensions and utilisation;
* **global interconnect** — the cascade bank[i] -> bank[i+1] travels a
  Manhattan distance estimated from the placement; global-wire delay
  (repeated-wire, delay linear in length) and energy (C·V²/2 per bit)
  add to the accelerator's latency/energy.

Deliberately behavior-level, matching the rest of MNSIM: it bounds the
effect of physical design, it does not replace a placer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.arch.accelerator import Accelerator
from repro.errors import ConfigError

# White space (routing, power, clock) added over pure module area.
DEFAULT_WHITESPACE_FACTOR = 1.25

# Repeated global wire: delay per length and capacitance per length.
GLOBAL_WIRE_DELAY_PER_M = 60e-12 / 1e-3  # 60 ps/mm
GLOBAL_WIRE_CAP_PER_M = 0.25e-12 / 1e-3  # 0.25 pF/mm


@dataclass(frozen=True)
class Slot:
    """Placed rectangle of one bank."""

    index: int
    x: float
    y: float
    width: float
    height: float

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)


@dataclass(frozen=True)
class Floorplan:
    """Die geometry plus the global-wire overheads.

    Attributes
    ----------
    die_width, die_height:
        Die dimensions in metres.
    slots:
        One placed rectangle per bank, in cascade order.
    utilization:
        Module area / die area.
    wire_latency:
        Total bank-to-bank global wire delay along the cascade (s).
    wire_energy_per_sample:
        Global-wire switching energy for one sample (J).
    """

    die_width: float
    die_height: float
    slots: Tuple[Slot, ...]
    utilization: float
    wire_latency: float
    wire_energy_per_sample: float

    @property
    def die_area(self) -> float:
        """Die area in m^2."""
        return self.die_width * self.die_height

    @property
    def aspect_ratio(self) -> float:
        """Width / height of the die."""
        return self.die_width / self.die_height

    def total_wire_length(self) -> float:
        """Manhattan length of the cascade route (m)."""
        total = 0.0
        for a, b in zip(self.slots, self.slots[1:]):
            (ax, ay), (bx, by) = a.center, b.center
            total += abs(ax - bx) + abs(ay - by)
        return total


def floorplan(
    accelerator: Accelerator,
    whitespace_factor: float = DEFAULT_WHITESPACE_FACTOR,
    vdd: float = None,
) -> Floorplan:
    """Place the accelerator's banks and estimate wiring overheads.

    Banks are laid out left-to-right, top-to-bottom in a
    ``ceil(sqrt(n))``-column grid; each bank's slot is a square of its
    (whitespace-inflated) area; rows are as tall as their tallest slot.
    """
    if whitespace_factor < 1.0:
        raise ConfigError("whitespace_factor must be >= 1")
    banks = accelerator.banks
    if vdd is None:
        vdd = accelerator.config.cmos.vdd

    areas = [
        bank.sample_performance().area * whitespace_factor
        for bank in banks
    ]
    columns = max(1, math.ceil(math.sqrt(len(banks))))

    slots: List[Slot] = []
    x = y = 0.0
    die_width = 0.0
    row_height = 0.0
    for index, area in enumerate(areas):
        side = math.sqrt(area)
        if index % columns == 0 and index > 0:
            y += row_height
            x = 0.0
            row_height = 0.0
        slots.append(Slot(index=index, x=x, y=y, width=side, height=side))
        x += side
        die_width = max(die_width, x)
        row_height = max(row_height, side)
    die_height = y + row_height

    plan_area = die_width * die_height
    module_area = sum(
        bank.sample_performance().area for bank in banks
    )
    utilization = module_area / plan_area if plan_area else 0.0

    # Global wires along the cascade.
    wire_length = 0.0
    for a, b in zip(slots, slots[1:]):
        (ax, ay), (bx, by) = a.center, b.center
        wire_length += abs(ax - bx) + abs(ay - by)
    wire_latency = wire_length * GLOBAL_WIRE_DELAY_PER_M

    # Bits crossing each hop: the producing layer's output sample.
    bits_per_hop = [
        layer.output_values * accelerator.config.signal_bits
        for layer in list(accelerator.network.layers)[:-1]
    ]
    wire_energy = 0.0
    for (a, b), bits in zip(zip(slots, slots[1:]), bits_per_hop):
        (ax, ay), (bx, by) = a.center, b.center
        hop = abs(ax - bx) + abs(ay - by)
        capacitance = hop * GLOBAL_WIRE_CAP_PER_M
        # Half the bits toggle on average.
        wire_energy += 0.5 * bits * capacitance * vdd**2

    return Floorplan(
        die_width=die_width,
        die_height=die_height,
        slots=tuple(slots),
        utilization=utilization,
        wire_latency=wire_latency,
        wire_energy_per_sample=wire_energy,
    )

