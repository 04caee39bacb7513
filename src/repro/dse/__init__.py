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

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.dse.space": ["DesignSpace"],
    "repro.dse.explorer": [
        "DesignPoint",
        "OPTIMIZATION_METRICS",
        "explore",
        "optimal",
        "optimal_table",
        "optimal_with_secondary",
        "pentagon_factors",
    ],
    "repro.dse.autocomplete": ["CompletedDesign", "suggest_designs"],
    "repro.dse.constraints": ["ConstraintSet"],
    "repro.dse.heterogeneous": [
        "HeterogeneousDesign",
        "optimise_heterogeneous",
        "uniform_best",
    ],
    "repro.dse.export": ["points_to_rows", "to_csv", "to_json"],
    "repro.dse.tradeoff": [
        "inflection_point",
        "pareto_frontier",
        "parallelism_sweep",
        "size_tradeoff",
    ],
})
