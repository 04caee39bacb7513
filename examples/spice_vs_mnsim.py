#!/usr/bin/env python
"""Circuit-level validation: speed-up and error-model fit (Tables II/III,
Fig. 5).

1. Times the internal circuit-level solver against the behavior-level
   accuracy model across crossbar sizes (the Table III speed-up).
2. Re-derives the fitted wire-term constants against the solver and
   reports the fit RMSE (the Fig. 5 fitting flow; paper bound: 0.01).
3. Exports a SPICE netlist for external cross-checking (Sec. IV.A).

Run:  python examples/spice_vs_mnsim.py
"""

import time

import numpy as np

from repro.accuracy import analog_error_rate
from repro.accuracy.fitting import fit_wire_term
from repro.accuracy.interconnect import DEFAULT_SENSE_RESISTANCE
from repro.spice import CrossbarNetwork, generate_netlist
from repro.report import format_table
from repro.tech import get_interconnect_node, get_memristor_model
from repro.tech.memristor import CellType


def main() -> None:
    device = get_memristor_model("RRAM")
    pitch = device.cell_pitch(CellType.ONE_T_ONE_R)

    # --- Table III: simulation time, solver vs model -------------------
    wire_45 = get_interconnect_node(45).segment_resistance(pitch)
    rows = []
    for size in (16, 32, 64, 128):
        resistances = np.full((size, size), device.r_min)
        inputs = np.full(size, device.read_voltage)
        network = CrossbarNetwork(
            resistances, wire_45, DEFAULT_SENSE_RESISTANCE, device=device
        )
        start = time.perf_counter()
        network.solve(inputs)
        solver_time = time.perf_counter() - start

        start = time.perf_counter()
        repeats = 1000
        for _ in range(repeats):
            analog_error_rate(size, size, wire_45, device)
        model_time = (time.perf_counter() - start) / repeats

        rows.append([
            size,
            f"{solver_time:.4f}",
            f"{model_time * 1e6:.2f}",
            f"{solver_time / model_time:,.0f}x",
        ])
    print("=== Table III: circuit-level solve vs behavior-level model ===")
    print(format_table(
        ["crossbar", "solver s", "model us", "speed-up"], rows
    ))

    # --- Fig. 5: fit quality --------------------------------------------
    print()
    print("=== Fig. 5: wire-term fit against the circuit solver ===")
    segments = [
        get_interconnect_node(node).segment_resistance(pitch)
        for node in (18, 28, 45, 90)
    ]
    fit = fit_wire_term(device, segments, sizes=(8, 16, 32, 64))
    print(f"fitted kappa={fit.kappa:.4f}, beta={fit.beta:.4f}")
    print(f"fit RMSE = {fit.rmse:.5f}  (paper bound: < 0.01)")
    print(f"max |model - solver| = {fit.max_abs_residual:.5f}")
    print()
    print(format_table(
        ["wire r (ohm)", "size", "solver eps", "model eps"],
        [
            [f"{p.segment_resistance:.3f}", p.size,
             f"{p.solver_error:+.4f}", f"{p.model_error:+.4f}"]
            for p in fit.points
        ],
    ))

    # --- SPICE netlist export -------------------------------------------
    rng = np.random.default_rng(1)
    levels = rng.integers(0, device.levels, size=(8, 8))
    resistances = np.vectorize(device.resistance_of_level)(levels)
    netlist = generate_netlist(
        resistances, rng.uniform(0, 1, size=8), wire_45,
        DEFAULT_SENSE_RESISTANCE, title="MNSIM 8x8 export",
    )
    print()
    print("=== SPICE netlist export (first 12 lines) ===")
    print("\n".join(netlist.splitlines()[:12]))
    print(f"... ({len(netlist.splitlines())} lines total)")


if __name__ == "__main__":
    main()
