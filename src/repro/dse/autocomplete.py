"""Configuration auto-completion (Sec. IV.A of the paper).

"If users do not determine all configurations, MNSIM will give the
optimal design for each performance with design details."  This module
implements that behaviour: the user marks configuration fields as
*free*, and the tool sweeps only those axes, returning — per
optimization target — a fully-specified :class:`~repro.config.
SimConfig` plus its metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.dse.explorer import DesignPoint, explore, optimal_table
from repro.dse.space import DesignSpace
from repro.errors import ExplorationError
from repro.nn.networks import Network

#: Fields the auto-completer can sweep, with their default candidate sets.
FREE_AXES: Dict[str, Tuple[int, ...]] = {
    "crossbar_size": (32, 64, 128, 256, 512, 1024),
    "parallelism_degree": (1, 4, 16, 64, 256),
    "interconnect_tech": (18, 22, 28, 36, 45),
}


@dataclass(frozen=True)
class CompletedDesign:
    """One fully-specified suggestion."""

    metric: str
    config: SimConfig
    point: DesignPoint


def suggest_designs(
    base: SimConfig,
    network: Network,
    free: Sequence[str] = ("crossbar_size", "parallelism_degree",
                           "interconnect_tech"),
    max_error_rate: Optional[float] = None,
    candidates: Optional[Dict[str, Sequence[int]]] = None,
) -> Dict[str, CompletedDesign]:
    """Complete the free fields optimally, per optimization target.

    Parameters
    ----------
    base:
        The user's partial decision: every field not listed in ``free``
        is pinned at its ``base`` value.
    free:
        Which fields the tool may choose (subset of :data:`FREE_AXES`).
    max_error_rate:
        Optional worst-case error constraint.
    candidates:
        Optional per-field candidate overrides.

    Returns a mapping ``metric -> CompletedDesign`` for the four paper
    targets (area / energy / latency / accuracy).
    """
    free = tuple(free)
    if not free:
        raise ExplorationError("at least one field must be free")
    unknown = set(free) - set(FREE_AXES)
    if unknown:
        raise ExplorationError(
            f"cannot sweep {sorted(unknown)}; sweepable: "
            f"{sorted(FREE_AXES)}"
        )

    def axis(name: str) -> Tuple[int, ...]:
        if candidates and name in candidates:
            return tuple(candidates[name])
        if name in free:
            return FREE_AXES[name]
        return (getattr(base, name),)

    space = DesignSpace(
        crossbar_sizes=axis("crossbar_size"),
        parallelism_degrees=axis("parallelism_degree"),
        interconnect_nodes=axis("interconnect_tech"),
    )
    points = explore(base, network, space, max_error_rate=max_error_rate)
    if not points:
        raise ExplorationError(
            "no completion satisfies the constraints; free more fields "
            "or relax the error bound"
        )
    best = optimal_table(points)
    suggestions = {}
    for metric, point in best.items():
        config = base.replace(
            crossbar_size=point.crossbar_size,
            parallelism_degree=point.parallelism_degree,
            interconnect_tech=point.interconnect_tech,
        )
        suggestions[metric] = CompletedDesign(
            metric=metric, config=config, point=point
        )
    return suggestions
