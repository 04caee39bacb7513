"""Circuit-level crossbar simulation (the "SPICE" baseline).

MNSIM's validation experiments compare the behavior-level models against a
circuit-level solve of the full crossbar resistor network.  This package
implements that baseline from scratch:

* :mod:`~repro.spice.solver` — a modified-nodal-analysis solver over the
  ``M x N`` cell network with per-segment wire resistances and sense
  resistors, iterating a fixed point over the nonlinear memristor V-I
  characteristic (Sec. VI's "large number of non-linear Kirchhoff
  equations": ``2MN`` node voltages per solve).
* :mod:`~repro.spice.netlist` — SPICE netlist export of the same network,
  the paper's hand-off path to external circuit simulators (Sec. IV.A).
* :mod:`~repro.spice.reference` — the original loop-based solver, kept
  as an executable specification for equivalence tests and the
  ``BENCH_spice.json`` speedup benchmark.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.spice.solver": [
        "CrossbarNetwork",
        "CrossbarSolution",
        "CrossbarSolutionBatch",
        "clear_structure_cache",
        "ideal_output_voltages",
    ],
    "repro.spice.netlist": ["generate_netlist"],
    "repro.spice.parser": ["ParsedNetlist", "parse_netlist"],
})
