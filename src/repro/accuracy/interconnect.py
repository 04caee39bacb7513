"""Analog error model of one crossbar column (Eq. 9-11, Eq. 16).

With equal input voltages the output of a column is the divider of Eq. 9::

    V_o = V_i * R_s / (R_parallel + R_s)

Folding the per-segment wire resistance into the column (Eq. 10) gives
``R_parallel ~ (R + (M+N) r) / M``, and re-evaluating each cell at its
operating voltage replaces the ideal resistance ``R_idl`` with the
nonlinear ``R_act``.  The signed relative output error (Eq. 11 divided by
the ideal output) is then::

    eps = ((M+N) r + R_act - R_idl) / (R_act + (M+N) r + R_s M)

The wire term is positive and grows with crossbar size; the nonlinearity
term is negative and grows as crossbars *shrink* (a small column divides
less of the input to the output, biasing every cell harder).  Their
cancellation produces the U-shaped error-vs-size curve of Table V, with
the minimum near size 64 for the reference RRAM at the 45 nm wire node.

Like the paper, the wire term is *fitted* against circuit-level
simulation ("we use M, N, and r as variables to simulate the error of
output voltages on SPICE, and fit the relationship according to
Equ. (11)"): the effective series wire resistance of the worst column is

    W = kappa * r * (M + N)**beta

with ``kappa ~ 0.22`` and ``beta ~ 1.99`` obtained by least squares
against :mod:`repro.spice` (see :mod:`repro.accuracy.fitting`); the
near-quadratic exponent reflects the accumulation of IR drop along the
shared word/bit lines.  The fit RMSE is ~1e-4, well inside the paper's
reported 0.01.

Device variation (Eq. 16) enters as a ``(1 +/- sigma)`` factor on
``R_act``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.tech.memristor import MemristorModel

# Equivalent sensing resistance of the reference read circuit (ohms).  A
# fixed R_s (small against the cell resistances) presents a stable load to
# every column; it is exposed as a parameter everywhere for customization.
DEFAULT_SENSE_RESISTANCE = 1000.0

# Fitted effective-wire-term constants (see module docstring and
# repro.accuracy.fitting.fit_wire_term, which re-derives them from the
# circuit-level solver).
WIRE_FIT_COEFFICIENT = 0.22
WIRE_FIT_EXPONENT = 2.0

_CASES = ("worst", "average")


def _case_parameters(
    device: MemristorModel, case: str
) -> Tuple[float, float]:
    """Return ``(R_idl, V_in)`` for the requested estimation case.

    Worst case (Sec. VI.C): every cell at the minimum resistance, inputs
    at full scale.  Average case: harmonic-mean resistance (the same
    substitution the power model makes) and half-scale inputs.
    """
    if case == "worst":
        return device.r_min, device.read_voltage
    if case == "average":
        return device.harmonic_mean_resistance, device.read_voltage / 2.0
    raise ValueError(f"case must be one of {_CASES}, got {case!r}")


def _wire_term(
    rows: int,
    cols: int,
    segment_resistance: float,
    kappa: float = WIRE_FIT_COEFFICIENT,
    beta: float = WIRE_FIT_EXPONENT,
) -> float:
    """Effective series wire resistance of the worst column.

    The fitted generalisation ``kappa * r * (M+N)**beta`` of the paper's
    ``(M+N) r`` term (see module docstring).
    """
    if rows < 1 or cols < 1:
        raise ValueError("crossbar dimensions must be >= 1")
    if segment_resistance < 0:
        raise ValueError("segment_resistance must be non-negative")
    return kappa * segment_resistance * float(rows + cols) ** beta


def cell_operating_voltage(
    rows: int,
    cols: int,
    segment_resistance: float,
    device: MemristorModel,
    case: str = "worst",
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    wire_fit: Optional[Tuple[float, float]] = None,
) -> float:
    """Ideal-operating-point voltage across one cell (Sec. VI.A step 1).

    Computed with the *ideal* resistances (linearised network); the
    nonlinear ``R_act`` is then evaluated at this voltage.
    """
    r_idl, v_in = _case_parameters(device, case)
    wire = _wire_term(rows, cols, segment_resistance, *(wire_fit or ()))
    denominator = r_idl + wire + sense_resistance * rows
    return v_in * r_idl / denominator


def _actual_resistance(
    rows: int,
    cols: int,
    segment_resistance: float,
    device: MemristorModel,
    case: str,
    sense_resistance: float,
    sigma_sign: float,
    wire_fit: Optional[Tuple[float, float]] = None,
) -> Tuple[float, float, float, float]:
    """Return ``(R_idl, R_act, wire, V_in)`` with nonlinearity and
    variation applied to ``R_act``."""
    r_idl, v_in = _case_parameters(device, case)
    wire = _wire_term(rows, cols, segment_resistance, *(wire_fit or ()))
    v_cell = cell_operating_voltage(
        rows, cols, segment_resistance, device, case, sense_resistance,
        wire_fit,
    )
    r_act = device.actual_resistance(r_idl, v_cell)
    if sigma_sign:
        r_act *= 1.0 + sigma_sign * device.sigma
    return r_idl, r_act, wire, v_in


def output_voltage_ideal(
    rows: int,
    device: MemristorModel,
    case: str = "worst",
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
) -> float:
    """Ideal column output voltage (Eq. 9 with r = 0, ohmic cells)."""
    r_idl, v_in = _case_parameters(device, case)
    return v_in * sense_resistance * rows / (r_idl + sense_resistance * rows)


def output_voltage_actual(
    rows: int,
    cols: int,
    segment_resistance: float,
    device: MemristorModel,
    case: str = "worst",
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    sigma_sign: float = 0.0,
    wire_fit: Optional[Tuple[float, float]] = None,
) -> float:
    """Column output with wire resistance and nonlinearity (Eq. 9 + 10)."""
    r_idl, r_act, wire, v_in = _actual_resistance(
        rows, cols, segment_resistance, device, case, sense_resistance,
        sigma_sign, wire_fit,
    )
    rs_m = sense_resistance * rows
    return v_in * rs_m / (r_act + wire + rs_m)


def voltage_deviation(
    rows: int,
    cols: int,
    segment_resistance: float,
    device: MemristorModel,
    case: str = "worst",
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    sigma_sign: float = 0.0,
    wire_fit: Optional[Tuple[float, float]] = None,
) -> float:
    """``V_o,idl - V_o,act`` per Eq. 11 (Eq. 16 when ``sigma_sign != 0``).

    Positive when the wire term dominates (output sags below ideal),
    negative when the nonlinearity dominates (cells conduct harder than
    ideal and the output overshoots).
    """
    ideal = output_voltage_ideal(rows, device, case, sense_resistance)
    actual = output_voltage_actual(
        rows, cols, segment_resistance, device, case, sense_resistance,
        sigma_sign, wire_fit,
    )
    return ideal - actual


def analog_error_rate(
    rows: int,
    cols: int,
    segment_resistance: float,
    device: MemristorModel,
    case: str = "worst",
    sense_resistance: float = DEFAULT_SENSE_RESISTANCE,
    sigma_sign: float = 0.0,
    wire_fit: Optional[Tuple[float, float]] = None,
) -> float:
    """Signed relative output error ``(V_idl - V_act) / V_idl``.

    ``wire_fit`` optionally overrides the fitted ``(kappa, beta)`` wire
    constants (used during calibration, :mod:`repro.accuracy.fitting`).
    This is the ``epsilon`` fed into the digital-deviation formulas
    (Eq. 12-14).  Callers interested in magnitude take ``abs()``.
    """
    r_idl, r_act, wire, _v_in = _actual_resistance(
        rows, cols, segment_resistance, device, case, sense_resistance,
        sigma_sign, wire_fit,
    )
    rs_m = sense_resistance * rows
    return (wire + r_act - r_idl) / (r_act + wire + rs_m)

