"""Design-space exploration (Sec. VII.C/D of the paper).

MNSIM's speed makes exhaustive traversal practical ("All the 10,220
designs are simulated within 4 seconds"); this package implements that
flow:

* :mod:`~repro.dse.space` — the parameter grid (crossbar size,
  parallelism degree, interconnect node) with validity filtering;
* :mod:`~repro.dse.explorer` — traversal, error-rate constraints,
  per-metric optima, and the normalized pentagon factors of Fig. 9;
* :mod:`~repro.dse.tradeoff` — the trade-off sweeps behind Table V and
  Figs. 7/8 (error/area/energy vs crossbar size; area/latency vs
  parallelism degree; Pareto frontier and knee detection).
"""

from repro.dse.space import DesignSpace
from repro.dse.explorer import (
    DesignPoint,
    OPTIMIZATION_METRICS,
    explore,
    optimal,
    optimal_table,
    optimal_with_secondary,
    pentagon_factors,
)
from repro.dse.autocomplete import CompletedDesign, suggest_designs
from repro.dse.constraints import ConstraintSet
from repro.dse.heterogeneous import (
    HeterogeneousDesign,
    optimise_heterogeneous,
    uniform_best,
)
from repro.dse.export import points_to_rows, to_csv, to_json
from repro.dse.tradeoff import (
    inflection_point,
    pareto_frontier,
    parallelism_sweep,
    size_tradeoff,
)

__all__ = [
    "DesignSpace",
    "DesignPoint",
    "OPTIMIZATION_METRICS",
    "explore",
    "optimal",
    "optimal_table",
    "optimal_with_secondary",
    "pentagon_factors",
    "parallelism_sweep",
    "size_tradeoff",
    "pareto_frontier",
    "inflection_point",
    "ConstraintSet",
    "points_to_rows",
    "to_csv",
    "to_json",
    "HeterogeneousDesign",
    "optimise_heterogeneous",
    "uniform_best",
    "CompletedDesign",
    "suggest_designs",
]
