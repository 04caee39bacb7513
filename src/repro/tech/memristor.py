"""Memristor device models (RRAM, PCM) and cell-area formulas.

A :class:`MemristorModel` carries the device-level quantities the simulator
needs: the programmable resistance window, the number of distinguishable
resistance levels (device precision), cell geometry (Eq. 7/8 of the paper),
read/write electrical parameters, and a nonlinear V-I characteristic.

Nonlinearity model
------------------
Practical memristor cells follow a sinh-shaped V-I curve (the paper cites
[39]): ``I(V) = (V0 / R) * sinh(V / V0)``, which reduces to Ohm's law for
small ``V``.  The *actual* resistance seen at an operating voltage ``V`` is
therefore::

    R_act(V) = V / I(V) = R * (V / V0) / sinh(V / V0)  <=  R

This is exactly the ``R_act`` vs ``R_idl`` distinction of Sec. VI.A: MNSIM
linearises the array to find the operating point, then re-evaluates each
cell's resistance at that voltage.  Small crossbars bias each cell at a
higher voltage (the column divider delivers less of the input to the output),
so their nonlinearity error grows -- which combines with the interconnect
error (growing with size) to produce the U-shaped error curves of Table V.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import TechnologyError
from repro.units import NM, NS


class CellType(enum.Enum):
    """Crossbar cell style: MOS-accessed (1T1R) or cross-point (0T1R)."""

    ONE_T_ONE_R = "1T1R"
    CROSS_POINT = "0T1R"

    @classmethod
    def _missing_(cls, value: object) -> Optional["CellType"]:
        # Spellings are case-insensitive: CellType("1t1r") is 1T1R.
        if isinstance(value, str):
            normalized = value.strip().upper()
            for member in cls:
                if member.value == normalized:
                    return member
        return None

    @classmethod
    def from_string(cls, text: str) -> "CellType":
        """Parse ``"1T1R"`` / ``"0T1R"`` (case-insensitive)."""
        try:
            return cls(str(text))
        except ValueError:
            raise TechnologyError(
                f"unknown cell type {text!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class MemristorModel:
    """Electrical and geometric model of one memristor device.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"RRAM"``.
    r_min, r_max:
        Lowest / highest programmable resistance in ohms
        (``Resistance_Range`` in the paper's Table I).
    precision_bits:
        Device precision: the cell distinguishes ``2**precision_bits``
        conductance levels.
    feature_size:
        Device feature size ``F`` in metres (sets the cell pitch).
    access_wl_ratio:
        ``W/L`` of the access transistor for 1T1R cells (Eq. 7).
    read_voltage:
        Full-scale input (DAC output) voltage in volts.
    write_voltage, write_pulse:
        Programming voltage (V) and pulse width (s) for WRITE cost models.
    nonlinearity_v0:
        Characteristic voltage of the sinh V-I curve; ``inf`` disables the
        nonlinearity (ideal ohmic device).
    sigma:
        Maximum fractional device-to-device resistance variation
        (0 to 0.3 per the paper); the reference value is 0.
    """

    name: str
    r_min: float
    r_max: float
    precision_bits: int
    feature_size: float
    access_wl_ratio: float
    read_voltage: float
    write_voltage: float
    write_pulse: float
    nonlinearity_v0: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max):
            raise TechnologyError(
                f"invalid resistance range [{self.r_min}, {self.r_max}]"
            )
        if self.precision_bits < 1:
            raise TechnologyError("precision_bits must be >= 1")
        if not 0.0 <= self.sigma <= 0.5:
            raise TechnologyError("sigma must lie in [0, 0.5]")

    # ------------------------------------------------------------------
    # Geometry (Eq. 7 / Eq. 8)
    # ------------------------------------------------------------------
    def cell_area(self, cell_type: CellType) -> float:
        """Area of one cell in m^2 per Eq. 7 (1T1R) / Eq. 8 (0T1R)."""
        f2 = self.feature_size**2
        if cell_type is CellType.ONE_T_ONE_R:
            return 3.0 * (self.access_wl_ratio + 1.0) * f2
        return 4.0 * f2

    def cell_pitch(self, cell_type: CellType) -> float:
        """Cell-to-cell pitch in metres (square-cell assumption)."""
        return math.sqrt(self.cell_area(cell_type))

    # ------------------------------------------------------------------
    # Resistance levels
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        """Number of distinguishable conductance levels."""
        return 2**self.precision_bits

    @property
    def g_min(self) -> float:
        """Lowest programmable conductance (siemens)."""
        return 1.0 / self.r_max

    @property
    def g_max(self) -> float:
        """Highest programmable conductance (siemens)."""
        return 1.0 / self.r_min

    def conductance_of_level(self, level):
        """Conductance of discrete ``level`` (0 .. levels-1), linear in G.

        Level 0 maps to ``g_min`` (weight 0) and the top level to ``g_max``,
        the standard linear weight-to-conductance mapping for crossbar
        matrix-vector multiplication.  Accepts a scalar (returns ``float``)
        or an integer array of any shape (returns an array elementwise) —
        the whole-crossbar form the vectorized solver and samplers use.
        """
        values = np.asarray(level)
        if np.any(values < 0) or np.any(values >= self.levels):
            raise ValueError(f"level {level} out of range 0..{self.levels - 1}")
        span = self.g_max - self.g_min
        out = self.g_min + span * (values / (self.levels - 1))
        return out if values.ndim else float(out)

    def resistance_of_level(self, level):
        """Resistance of discrete ``level`` (0 .. levels-1); array-capable
        like :meth:`conductance_of_level`."""
        return 1.0 / self.conductance_of_level(level)

    @property
    def harmonic_mean_resistance(self) -> float:
        """Harmonic mean of ``r_min`` and ``r_max``.

        MNSIM substitutes this value for every cell when estimating the
        average-case computation power of a crossbar (Sec. V.A).
        """
        return 2.0 * self.r_min * self.r_max / (self.r_min + self.r_max)

    # ------------------------------------------------------------------
    # Nonlinear V-I characteristic
    # ------------------------------------------------------------------
    def current(self, r_state, v_cell):
        """Cell current (A) at programmed resistance ``r_state`` and
        voltage ``v_cell`` following the sinh V-I curve.

        Scalar in, ``float`` out; arrays broadcast elementwise.
        """
        if math.isinf(self.nonlinearity_v0):
            out = np.asarray(v_cell, dtype=float) / r_state
            return out if out.ndim else float(out)
        v0 = self.nonlinearity_v0
        out = (v0 / np.asarray(r_state, dtype=float)) * np.sinh(
            np.asarray(v_cell, dtype=float) / v0
        )
        return out if out.ndim else float(out)

    def _sinh_shrink(self, v_cell) -> np.ndarray:
        """``x / sinh(x)`` at ``x = |v| / V0``, with the ``x -> 0`` limit
        of 1 handled exactly (the factor multiplying ``R_idl``)."""
        x = np.abs(np.asarray(v_cell, dtype=float)) / self.nonlinearity_v0
        sinh = np.sinh(x)
        return np.divide(x, sinh, out=np.ones_like(x), where=sinh != 0.0)

    def actual_resistance(self, r_state, v_cell):
        """``R_act``: effective resistance at operating voltage ``v_cell``.

        Returns ``r_state`` itself at zero bias or for an ideal device.
        Accepts scalars (returns ``float``) or broadcastable arrays —
        the solver evaluates the whole ``(M, N)`` cell-voltage grid in
        one call per nonlinear iteration.
        """
        if math.isinf(self.nonlinearity_v0):
            return r_state
        out = np.asarray(r_state, dtype=float) * self._sinh_shrink(v_cell)
        return out if out.ndim else float(out)

    def nonlinearity_factor(self, v_cell):
        """Fractional resistance drop ``(R_idl - R_act) / R_idl`` at
        ``v_cell``; 0 for an ideal device.  Array-capable."""
        if math.isinf(self.nonlinearity_v0):
            out = np.zeros_like(np.asarray(v_cell, dtype=float))
            return out if out.ndim else 0.0
        out = 1.0 - self._sinh_shrink(v_cell)
        return out if out.ndim else float(out)

    # ------------------------------------------------------------------
    # Write cost
    # ------------------------------------------------------------------
    def write_energy_per_cell(self) -> float:
        """Energy (J) of one programming pulse into an average cell."""
        return (
            self.write_voltage**2 / self.harmonic_mean_resistance
        ) * self.write_pulse

    def with_sigma(self, sigma: float) -> "MemristorModel":
        """Return a copy with a different device-variation ``sigma``."""
        return replace(self, sigma=sigma)

    def with_overrides(self, **kwargs) -> "MemristorModel":
        """Return a copy with any field overridden (config-file hook)."""
        return replace(self, **kwargs)


_MEMRISTOR_MODELS = {
    # Reference RRAM: the 7-bit device of the case studies
    # (Gao/Alibart/Strukov).  The compute-mode resistance window is
    # [100k, 10M] ohm -- analog matrix-vector crossbars need
    # high-resistance states or the array IR drop destroys the result
    # (confirmed by the circuit-level solver in repro.spice); Table I's
    # [500, 500k] memory-mode window remains available through the
    # ``Resistance_Range`` configuration override.
    "RRAM": MemristorModel(
        name="RRAM",
        r_min=100e3,
        r_max=10e6,
        precision_bits=7,
        feature_size=50 * NM,
        access_wl_ratio=2.0,
        read_voltage=1.0,
        write_voltage=2.5,
        write_pulse=50 * NS,
        nonlinearity_v0=2.0,
    ),
    # 4-bit RRAM as configured in the PRIME case study (Sec. VII.E.1).
    "RRAM-4BIT": MemristorModel(
        name="RRAM-4BIT",
        r_min=100e3,
        r_max=10e6,
        precision_bits=4,
        feature_size=50 * NM,
        access_wl_ratio=2.0,
        read_voltage=1.0,
        write_voltage=2.5,
        write_pulse=50 * NS,
        nonlinearity_v0=2.0,
    ),
    # Phase-change memory: higher resistances, slower writes, 4-bit MLC.
    "PCM": MemristorModel(
        name="PCM",
        r_min=200e3,
        r_max=20e6,
        precision_bits=4,
        feature_size=45 * NM,
        access_wl_ratio=4.0,
        read_voltage=0.8,
        write_voltage=3.0,
        write_pulse=150 * NS,
        nonlinearity_v0=2.4,
    ),
    # Table I's default memory-mode window [500, 500k] ohm.  Fine for
    # READ/WRITE studies; the circuit solver shows it is unusable for
    # large analog matrix-vector arrays (see the RRAM note above).
    "RRAM-MEMORY": MemristorModel(
        name="RRAM-MEMORY",
        r_min=500.0,
        r_max=500e3,
        precision_bits=7,
        feature_size=50 * NM,
        access_wl_ratio=2.0,
        read_voltage=1.0,
        write_voltage=2.5,
        write_pulse=50 * NS,
        nonlinearity_v0=2.0,
    ),
    # Ideal ohmic device, useful for isolating interconnect error in tests.
    "IDEAL": MemristorModel(
        name="IDEAL",
        r_min=100e3,
        r_max=10e6,
        precision_bits=7,
        feature_size=50 * NM,
        access_wl_ratio=2.0,
        read_voltage=1.0,
        write_voltage=2.5,
        write_pulse=50 * NS,
        nonlinearity_v0=math.inf,
    ),
}


def available_memristor_models() -> tuple:
    """Return the names of the built-in device models."""
    return tuple(sorted(_MEMRISTOR_MODELS))


def get_memristor_model(name: str) -> MemristorModel:
    """Look up a built-in :class:`MemristorModel` by name.

    Raises
    ------
    TechnologyError
        If the model name is unknown.
    """
    try:
        return _MEMRISTOR_MODELS[str(name).strip().upper()]
    except KeyError:
        raise TechnologyError(
            f"unknown memristor model {name!r}; "
            f"available: {available_memristor_models()}"
        ) from None
