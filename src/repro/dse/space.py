"""The design-space grid: crossbar size x parallelism x interconnect.

The paper's case studies sweep exactly these three variables
(Sec. VII.C: "the crossbar size, computation parallelism degree, and
interconnect technology are three variables for design space
exploration").  :class:`DesignSpace` enumerates the valid combinations
as :class:`~repro.config.SimConfig` instances derived from a base
configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.config import Declared, SimConfig, declare
from repro.errors import ValidationError
from repro.tech import available_interconnect_nodes


def _powers_of_two(low: int, high: int) -> Tuple[int, ...]:
    values = []
    value = low
    while value <= high:
        values.append(value)
        value *= 2
    return tuple(values)


@dataclass(frozen=True)
class DesignSpace(Declared):
    """The swept parameter grid.

    Defaults follow the large-computation-bank case study: crossbar
    sizes doubling from 4 to 1024, parallelism degrees doubling from 1
    to 256 (clamped per size; 0 = fully parallel), and the
    {18, 22, 28, 36, 45} nm interconnect nodes.

    Every axis entry meets the rule ``SimConfig`` puts on the field it
    sweeps, checked here so a sweep builds every point's config only
    when it simulates it: a bad axis fails before any point runs, not
    midway.  (Without the minimum, a grid of too-small sizes would
    silently yield no valid point.)
    """

    crossbar_sizes: Tuple[int, ...] = declare(
        _powers_of_two(4, 1024), minimum=2, nonempty=True
    )
    parallelism_degrees: Tuple[int, ...] = declare(
        _powers_of_two(1, 256), minimum=0, nonempty=True
    )
    interconnect_nodes: Tuple[int, ...] = declare(
        (18, 22, 28, 36, 45), nonempty=True
    )

    def _check(self) -> None:
        for index, size in enumerate(self.crossbar_sizes):
            if size & (size - 1):
                raise ValidationError(
                    "must be a power of two",
                    path=f"crossbar_sizes[{index}]", value=size,
                )
        known = available_interconnect_nodes()
        for index, node in enumerate(self.interconnect_nodes):
            if node not in known:
                raise ValidationError(
                    "unknown interconnect node",
                    path=f"interconnect_nodes[{index}]", value=node,
                    allowed=known,
                )

    # ------------------------------------------------------------------
    def valid_points(self) -> Iterator[Tuple[int, int, int]]:
        """Yield valid ``(crossbar_size, parallelism, interconnect)``.

        Degrees larger than the crossbar size are skipped (they would
        duplicate the fully-parallel point).
        """
        for size in self.crossbar_sizes:
            for degree in self.parallelism_degrees:
                if degree > size:
                    continue
                for node in self.interconnect_nodes:
                    yield (size, degree, node)

    def __len__(self) -> int:
        return sum(1 for _point in self.valid_points())

    def configs(self, base: SimConfig) -> Iterator[SimConfig]:
        """Yield a :class:`SimConfig` per valid point, derived from
        ``base`` (all other fields unchanged)."""
        for size, degree, node in self.valid_points():
            yield base.replace(
                crossbar_size=size,
                parallelism_degree=degree,
                interconnect_tech=node,
            )


class SweepMode(enum.Enum):
    """How an ``explore`` payload traverses its design space."""

    GRID = "grid"


@dataclass(frozen=True)
class SweepSpec(DesignSpace):
    """The ``sweep`` section of an ``explore`` payload, and the grid
    ``repro explore`` reads from its flags.

    It is the :class:`DesignSpace` it sweeps, on a smaller default grid
    (every explore's fingerprint holds these defaults), plus the
    traversal mode and the error-rate constraint.
    """

    crossbar_sizes: Tuple[int, ...] = (64, 128, 256, 512)
    parallelism_degrees: Tuple[int, ...] = (1, 16, 256)
    interconnect_nodes: Tuple[int, ...] = (18, 28, 45)
    mode: SweepMode = SweepMode.GRID
    max_error_rate: Optional[float] = declare(None, minimum=0, maximum=1)
