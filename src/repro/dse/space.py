"""The design-space grid: crossbar size x parallelism x interconnect.

The paper's case studies sweep exactly these three variables
(Sec. VII.C: "the crossbar size, computation parallelism degree, and
interconnect technology are three variables for design space
exploration").  :class:`DesignSpace` enumerates the valid combinations
as :class:`~repro.config.SimConfig` instances derived from a base
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.config import SimConfig
from repro.errors import ConfigError, ValidationError
from repro.tech import available_interconnect_nodes


def _powers_of_two(low: int, high: int) -> Tuple[int, ...]:
    values = []
    value = low
    while value <= high:
        values.append(value)
        value *= 2
    return tuple(values)


@dataclass(frozen=True)
class DesignSpace:
    """The swept parameter grid.

    Defaults follow the large-computation-bank case study: crossbar
    sizes doubling from 4 to 1024, parallelism degrees doubling from 1
    to 256 (clamped per size; 0 = fully parallel is expressed by the
    degree equal to the crossbar size), and the {18, 22, 28, 36, 45} nm
    interconnect nodes.
    """

    crossbar_sizes: Tuple[int, ...] = _powers_of_two(4, 1024)
    parallelism_degrees: Tuple[int, ...] = _powers_of_two(1, 256)
    interconnect_nodes: Tuple[int, ...] = (18, 22, 28, 36, 45)

    def __post_init__(self) -> None:
        if not self.crossbar_sizes or not self.parallelism_degrees \
                or not self.interconnect_nodes:
            raise ConfigError("design space axes must be non-empty")
        # The bounds SimConfig puts on each point, checked here so a
        # sweep builds every point's config only when it simulates it:
        # a bad axis fails before any point runs, not midway.  (Without
        # the minimum, a grid of too-small sizes would silently yield
        # no valid point.)
        for axis, values, minimum in (
            ("crossbar_sizes", self.crossbar_sizes, 2),
            ("parallelism_degrees", self.parallelism_degrees, 0),
        ):
            if min(values) < minimum:
                raise ValidationError(
                    f"must all be >= {minimum}", path=axis,
                    value=list(values),
                )
        if any(size & (size - 1) for size in self.crossbar_sizes):
            raise ValidationError(
                "must all be powers of two", path="crossbar_sizes",
                value=list(self.crossbar_sizes),
            )
        known = set(available_interconnect_nodes())
        unknown = set(self.interconnect_nodes) - known
        if unknown:
            raise ValidationError(
                f"unknown interconnect nodes {sorted(unknown)}",
                path="interconnect_nodes",
                value=list(self.interconnect_nodes), allowed=sorted(known),
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
