"""Fit the accuracy model's wire term against circuit-level simulation.

This module reproduces the paper's calibration step for Fig. 5: "we use
M, N, and r as variables to simulate the error of output voltages on
SPICE, and fit the relationship according to Equ. (11) to obtain the
accuracy module", reporting a fit RMSE (the paper claims < 0.01).

:func:`fit_wire_term` runs the internal circuit solver
(:class:`~repro.spice.solver.CrossbarNetwork`) over a grid of crossbar
sizes and wire resistances, extracts the worst-column output error, and
least-squares fits the two constants of the effective wire term::

    W = kappa * r * (M + N)**beta

used by :func:`repro.accuracy.interconnect.analog_error_rate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.accuracy.interconnect import (
    DEFAULT_SENSE_RESISTANCE,
    analog_error_rate,
)
from repro.spice.solver import CrossbarNetwork, ideal_output_voltages
from repro.tech.memristor import MemristorModel

DEFAULT_FIT_SIZES = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class FitPoint:
    """One calibration sample: a (wire resistance, size) solver run."""

    segment_resistance: float
    size: int
    solver_error: float
    model_error: float


@dataclass(frozen=True)
class WireFit:
    """Result of the wire-term calibration.

    ``kappa`` / ``beta`` are the fitted constants; ``rmse`` is the
    root-mean-squared residual between the analytic model and the
    circuit-level solver over all calibration points (the Fig. 5 metric).
    """

    kappa: float
    beta: float
    rmse: float
    points: Tuple[FitPoint, ...]

    @property
    def max_abs_residual(self) -> float:
        """Largest model-vs-solver deviation across the fit points."""
        return max(
            abs(p.model_error - p.solver_error) for p in self.points
        )


def solver_worst_column_error(
    device: MemristorModel,
    size: int,
    segment_resistance: float,
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
) -> float:
    """Signed relative error of the worst (last) column from the solver.

    Runs the paper's worst case: a ``size x size`` array with every cell
    at the minimum resistance and all inputs at full scale.
    """
    resistances = np.full((size, size), device.r_min)
    inputs = np.full(size, device.read_voltage)
    network = CrossbarNetwork(
        resistances, segment_resistance, sense_resistance, device=device
    )
    solution = network.solve(inputs)
    ideal = ideal_output_voltages(resistances, inputs, sense_resistance)
    return float((ideal[-1] - solution.output_voltages[-1]) / ideal[-1])


def fit_wire_term(
    device: MemristorModel,
    segment_resistances: Sequence[float],
    sizes: Sequence[int] = DEFAULT_FIT_SIZES,
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    initial_guess: Tuple[float, float] = (0.5, 1.8),
) -> WireFit:
    """Calibrate ``(kappa, beta)`` against the circuit-level solver.

    Parameters
    ----------
    device:
        Memristor model used for the calibration runs.
    segment_resistances:
        Wire segment resistances to sweep (one per interconnect node).
    sizes:
        Square crossbar sizes to sweep.
    sense_resistance:
        Read-circuit sense resistance.
    initial_guess:
        Starting ``(kappa, beta)`` for the least-squares solve.
    """
    from scipy.optimize import least_squares

    samples: List[Tuple[float, int, float]] = []
    for r in segment_resistances:
        for size in sizes:
            solver_eps = solver_worst_column_error(
                device, size, r, sense_resistance
            )
            samples.append((r, size, solver_eps))

    def residuals(params: np.ndarray) -> List[float]:
        kappa, beta = params
        out = []
        for r, size, solver_eps in samples:
            model_eps = analog_error_rate(
                size, size, r, device,
                case="worst",
                sense_resistance=sense_resistance,
                wire_fit=(kappa, beta),
            )
            out.append(model_eps - solver_eps)
        return out

    result = least_squares(
        residuals,
        x0=np.asarray(initial_guess, dtype=float),
        bounds=([1e-3, 1.0], [10.0, 2.5]),
    )
    kappa, beta = (float(result.x[0]), float(result.x[1]))

    points = []
    for r, size, solver_eps in samples:
        model_eps = analog_error_rate(
            size, size, r, device,
            case="worst",
            sense_resistance=sense_resistance,
            wire_fit=(kappa, beta),
        )
        points.append(
            FitPoint(
                segment_resistance=r,
                size=size,
                solver_error=solver_eps,
                model_error=model_eps,
            )
        )
    residual_values = [p.model_error - p.solver_error for p in points]
    rmse = math.sqrt(
        sum(v * v for v in residual_values) / len(residual_values)
    )
    return WireFit(kappa=kappa, beta=beta, rmse=rmse, points=tuple(points))
