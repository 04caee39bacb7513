"""Fault models: deterministic hard-fault masks for one crossbar.

A :class:`FaultMask` describes every *hard* (discrete) fault on one
``M x N`` crossbar:

* **stuck-at-ON cells** (``stuck_low``) — the filament fused; the cell
  reads the lowest programmable resistance ``R_min`` regardless of the
  programmed level;
* **stuck-at-OFF cells** (``stuck_high``) — the cell froze at the
  highest resistance ``R_max``;
* **open cells** (``open_cells``) — the cell lost contact entirely;
  its branch disappears from the resistor network;
* **open / short word- and bit-lines** — a whole line's interconnect
  segments drop out (open) or collapse to the minimum wire resistance
  (short), the bonding/electromigration failure modes;
* **parametric drift overlays** (``drift``) — a per-cell multiplicative
  resistance factor layered on top, for modelling relaxed or
  half-formed cells that are wrong but not pinned.

Masks are value objects: validated on construction, immutable (the
arrays are frozen read-only), JSON round-trippable via
:meth:`FaultMask.to_dict` / :meth:`FaultMask.from_dict` (a sparse
index-list encoding, safe for :func:`repro.runtime.jobs.canonical`
cache keys), and composable onto any programmed resistance grid with
:meth:`FaultMask.apply_to_resistances`.

:func:`sample_fault_mask` draws a mask from a seeded
:class:`numpy.random.Generator` with a *fixed draw order per mode*, so
the same seed always produces the same mask — the reproducibility
contract the campaign runner (:mod:`repro.faults.campaign`) builds on.

:class:`FaultsSpec` declares one such campaign: every field once, with
its default and bound, read the same way by the Python API, ``repro
faults`` and the service's ``faults`` payload section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.config import Declared, declare
from repro.errors import ConfigError, TechnologyError, ValidationError
from repro.tech.memristor import (
    available_memristor_models,
    get_memristor_model,
)

#: Fault-type vocabulary of :func:`sample_fault_mask` and the campaign
#: runner.  ``stuck_*``/``open_cell`` rates are per-cell probabilities,
#: ``line_*`` rates are per-line probabilities, and ``drift`` reads the
#: rate as the sigma of a lognormal resistance overlay.
FAULT_MODES = (
    "stuck_low",
    "stuck_high",
    "stuck_mixed",
    "open_cell",
    "line_open",
    "line_short",
    "drift",
)

#: Fault modes that only make sense at the circuit level: a line open /
#: short has no single-weight-matrix meaning, so MLP networks reject it.
CIRCUIT_ONLY_MODES = ("line_open", "line_short")


def parse_network_spec(spec: str) -> Optional[Tuple[int, ...]]:
    """``"crossbar"`` -> None, ``"mlp:a,b,..."`` -> neuron sizes."""
    if spec == "crossbar":
        return None
    if spec.startswith("mlp:"):
        body = spec[len("mlp:"):]
        try:
            sizes = tuple(int(token) for token in body.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"bad MLP spec {spec!r}: sizes must be integers"
            ) from exc
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(
                f"bad MLP spec {spec!r}: need >= 2 positive neuron counts"
            )
        return sizes
    raise ConfigError(
        f"unknown network spec {spec!r}; use 'crossbar' or 'mlp:a,b,...'"
    )


@dataclass(frozen=True)
class FaultsSpec(Declared):
    """Everything that identifies one fault-injection campaign.

    Attributes
    ----------
    networks:
        Network specs to sweep: ``"crossbar"`` (circuit level) and/or
        ``"mlp:a,b,..."`` (behaviour level, neuron counts per level).
    fault_modes:
        Subset of :data:`FAULT_MODES` (document key ``modes``); the
        :data:`CIRCUIT_ONLY_MODES` need every network to be a crossbar.
    fault_rates:
        Per-cell/per-line fault probabilities, drift's lognormal sigma
        (document key ``rates``).
    trials:
        Independently seeded injections per (network, mode, rate) point.
    seed:
        Root of the per-trial ``SeedSequence`` tree; the only source of
        randomness in the whole campaign.
    size:
        Square crossbar size for ``"crossbar"`` networks.
    device:
        Built-in memristor model name, any case (see
        :func:`repro.tech.memristor.get_memristor_model`).
    segment_resistance:
        Wire segment resistance of the circuit-level solve (ohm).
    """

    networks: Tuple[str, ...] = declare(("crossbar",), nonempty=True)
    fault_modes: Tuple[str, ...] = declare(
        ("stuck_mixed",), key="modes", nonempty=True
    )
    fault_rates: Tuple[float, ...] = declare(
        (0.0, 0.01, 0.02, 0.05), key="rates", minimum=0, nonempty=True
    )
    trials: int = declare(8, minimum=1)
    seed: int = 0
    size: int = declare(16, minimum=2)
    device: str = "IDEAL"
    segment_resistance: float = declare(1.0, minimum=0)

    def __post_init__(self) -> None:
        # The Python API's spellings: lists, int rates, "rram".
        set_attr = object.__setattr__
        set_attr(self, "networks", tuple(self.networks))
        set_attr(self, "fault_modes", tuple(self.fault_modes))
        set_attr(self, "fault_rates",
                 tuple(float(rate) for rate in self.fault_rates))
        # One spelling per device, so one echo: get_memristor_model's.
        if isinstance(self.device, str):
            set_attr(self, "device", self.device.strip().upper())
        super().__post_init__()

    def _check(self) -> None:
        for index, rate in enumerate(self.fault_rates):
            if not math.isfinite(rate):  # parse rejects these already
                raise ValidationError(
                    "must be finite", path=f"rates[{index}]", value=rate,
                )
        for index, mode in enumerate(self.fault_modes):
            if mode not in FAULT_MODES:
                raise ValidationError(
                    "unknown fault mode", path=f"modes[{index}]",
                    value=mode, allowed=FAULT_MODES,
                )
        # Every mode but drift reads a rate as a probability (drift
        # reads a sigma), and each rate runs under every mode.
        probability = [mode for mode in self.fault_modes if mode != "drift"]
        for index, rate in enumerate(self.fault_rates):
            if probability and rate > 1:
                raise ValidationError(
                    f"must be <= 1: {probability[0]!r} reads it as a "
                    "probability", path=f"rates[{index}]", value=rate,
                )
        mlps = []
        for index, network in enumerate(self.networks):
            try:
                if parse_network_spec(network) is not None:
                    mlps.append(network)
            except ConfigError as exc:
                raise ValidationError(
                    str(exc), path=f"networks[{index}]", value=network,
                ) from None
        for index, mode in enumerate(self.fault_modes):
            if mlps and mode in CIRCUIT_ONLY_MODES:
                raise ValidationError(
                    f"circuit-level only, so it cannot be applied to "
                    f"{mlps[0]!r}; drop the MLP network or the line mode",
                    path=f"modes[{index}]", value=mode,
                    allowed=[m for m in FAULT_MODES
                             if m not in CIRCUIT_ONLY_MODES],
                )
        try:
            get_memristor_model(self.device)
        except TechnologyError:
            raise ValidationError(
                "unknown memristor model", path="device",
                value=self.device, allowed=available_memristor_models(),
            ) from None


def _frozen_bool(mask: Optional[np.ndarray], rows: int,
                 cols: int, name: str) -> np.ndarray:
    if mask is None:
        mask = np.zeros((rows, cols), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (rows, cols):
        raise ConfigError(
            f"{name} must have shape ({rows}, {cols}), got {mask.shape}"
        )
    mask = mask.copy()
    mask.flags.writeable = False
    return mask


def _line_tuple(indices: Sequence[int], limit: int,
                name: str) -> Tuple[int, ...]:
    out = tuple(sorted(int(i) for i in set(indices)))
    for i in out:
        if not 0 <= i < limit:
            raise ConfigError(f"{name} index {i} out of range 0..{limit - 1}")
    return out


@dataclass(frozen=True, eq=False)
class FaultMask:
    """Immutable description of the hard faults on one crossbar.

    Parameters
    ----------
    rows, cols:
        Crossbar shape the mask applies to.
    stuck_low / stuck_high / open_cells:
        Boolean ``(rows, cols)`` cell masks; ``None`` means no faults
        of that kind.  A cell may carry at most one cell fault.
    open_wordlines / open_bitlines:
        Row / column indices whose interconnect segments are dropped
        (an open wordline also loses its input-source branch).
    short_wordlines / short_bitlines:
        Row / column indices whose segments collapse to the minimum
        wire resistance.  A line cannot be both open and shorted.
    drift:
        Optional positive ``(rows, cols)`` multiplicative resistance
        overlay; stuck cells ignore it (they are pinned).
    """

    rows: int
    cols: int
    stuck_low: np.ndarray = None
    stuck_high: np.ndarray = None
    open_cells: np.ndarray = None
    open_wordlines: Tuple[int, ...] = ()
    open_bitlines: Tuple[int, ...] = ()
    short_wordlines: Tuple[int, ...] = ()
    short_bitlines: Tuple[int, ...] = ()
    drift: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError("mask shape must be at least 1x1")
        set_attr = object.__setattr__
        for name in ("stuck_low", "stuck_high", "open_cells"):
            set_attr(self, name, _frozen_bool(
                getattr(self, name), self.rows, self.cols, name
            ))
        overlap = (
            (self.stuck_low & self.stuck_high)
            | (self.stuck_low & self.open_cells)
            | (self.stuck_high & self.open_cells)
        )
        if overlap.any():
            raise ConfigError(
                "a cell may carry at most one fault (stuck_low / "
                "stuck_high / open_cells overlap)"
            )
        set_attr(self, "open_wordlines", _line_tuple(
            self.open_wordlines, self.rows, "open_wordlines"))
        set_attr(self, "open_bitlines", _line_tuple(
            self.open_bitlines, self.cols, "open_bitlines"))
        set_attr(self, "short_wordlines", _line_tuple(
            self.short_wordlines, self.rows, "short_wordlines"))
        set_attr(self, "short_bitlines", _line_tuple(
            self.short_bitlines, self.cols, "short_bitlines"))
        if set(self.open_wordlines) & set(self.short_wordlines):
            raise ConfigError("a wordline cannot be both open and shorted")
        if set(self.open_bitlines) & set(self.short_bitlines):
            raise ConfigError("a bitline cannot be both open and shorted")
        if self.drift is not None:
            drift = np.asarray(self.drift, dtype=float)
            if drift.shape != (self.rows, self.cols):
                raise ConfigError(
                    f"drift must have shape ({self.rows}, {self.cols}), "
                    f"got {drift.shape}"
                )
            if not np.all(np.isfinite(drift)) or np.any(drift <= 0):
                raise ConfigError("drift factors must be finite and positive")
            drift = drift.copy()
            drift.flags.writeable = False
            set_attr(self, "drift", drift)

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, rows: int, cols: int) -> "FaultMask":
        """A mask with no faults at all (the fault-free overlay)."""
        return cls(rows=rows, cols=cols)

    @property
    def is_empty(self) -> bool:
        """True when applying this mask is a no-op."""
        return (
            self.cell_fault_count == 0
            and not self.has_line_faults
            and self.drift is None
        )

    @property
    def cell_fault_count(self) -> int:
        """Number of cells carrying a stuck or open fault."""
        return int(
            self.stuck_low.sum() + self.stuck_high.sum()
            + self.open_cells.sum()
        )

    @property
    def cell_fault_fraction(self) -> float:
        """Fraction of cells carrying a hard cell fault (0..1).

        This is the ``hard_fault_rate`` the refresh model in
        :func:`repro.arch.reliability.reliability_report` consumes.
        """
        return self.cell_fault_count / float(self.rows * self.cols)

    @property
    def has_line_faults(self) -> bool:
        """True when any word- or bit-line is open or shorted."""
        return bool(
            self.open_wordlines or self.open_bitlines
            or self.short_wordlines or self.short_bitlines
        )

    @property
    def fault_count(self) -> int:
        """Total discrete faults: faulty cells plus faulty lines."""
        return self.cell_fault_count + len(self.open_wordlines) + len(
            self.open_bitlines
        ) + len(self.short_wordlines) + len(self.short_bitlines)

    # ------------------------------------------------------------------
    def apply_to_resistances(
        self, resistances: np.ndarray, r_on: float, r_off: float
    ) -> np.ndarray:
        """The faulty resistance grid for a programmed grid.

        ``r_on`` / ``r_off`` are the stuck-at values (the device's
        ``r_min`` / ``r_max``).  Drift multiplies first, stuck pins
        override it; open cells keep their programmed value here —
        their *branch* is removed by the solver, not their resistance.
        """
        resistances = np.asarray(resistances, dtype=float)
        if resistances.shape != (self.rows, self.cols):
            raise ConfigError(
                f"resistances must have shape ({self.rows}, {self.cols}), "
                f"got {resistances.shape}"
            )
        out = resistances.copy()
        if self.drift is not None:
            out *= self.drift
        out[self.stuck_low] = r_on
        out[self.stuck_high] = r_off
        return out

    def cell_conductance_gain(self) -> Optional[np.ndarray]:
        """Per-cell conductance multiplier, or ``None`` when trivial.

        Open cells contribute zero conductance (their branch is gone);
        every other cell passes through unchanged.
        """
        if not self.open_cells.any():
            return None
        return np.where(self.open_cells, 0.0, 1.0)

    # ------------------------------------------------------------------
    # JSON round trip (sparse, canonicalizable for cache keys)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Sparse JSON-safe encoding with deterministic ordering."""
        def cells(mask: np.ndarray):
            return [[int(i), int(j)] for i, j in zip(*np.nonzero(mask))]

        return {
            "rows": self.rows,
            "cols": self.cols,
            "stuck_low": cells(self.stuck_low),
            "stuck_high": cells(self.stuck_high),
            "open_cells": cells(self.open_cells),
            "open_wordlines": list(self.open_wordlines),
            "open_bitlines": list(self.open_bitlines),
            "short_wordlines": list(self.short_wordlines),
            "short_bitlines": list(self.short_bitlines),
            "drift": None if self.drift is None else [
                [float(v) for v in row] for row in self.drift
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMask":
        """Rebuild a mask from a :meth:`to_dict` payload."""
        rows, cols = int(data["rows"]), int(data["cols"])

        def cells(entries):
            mask = np.zeros((rows, cols), dtype=bool)
            for i, j in entries or ():
                mask[int(i), int(j)] = True
            return mask

        drift = data.get("drift")
        return cls(
            rows=rows,
            cols=cols,
            stuck_low=cells(data.get("stuck_low")),
            stuck_high=cells(data.get("stuck_high")),
            open_cells=cells(data.get("open_cells")),
            open_wordlines=tuple(data.get("open_wordlines") or ()),
            open_bitlines=tuple(data.get("open_bitlines") or ()),
            short_wordlines=tuple(data.get("short_wordlines") or ()),
            short_bitlines=tuple(data.get("short_bitlines") or ()),
            drift=None if drift is None else np.asarray(drift, dtype=float),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultMask({self.rows}x{self.cols}, "
            f"{self.cell_fault_count} cell fault(s), "
            f"{len(self.open_wordlines) + len(self.open_bitlines)} open "
            f"line(s), {len(self.short_wordlines) + len(self.short_bitlines)}"
            f" short line(s), drift={self.drift is not None})"
        )


def sample_fault_mask(
    rows: int,
    cols: int,
    fault_rate: float,
    rng: np.random.Generator,
    mode: str = "stuck_mixed",
) -> FaultMask:
    """Draw a seed-reproducible random mask of one fault type.

    Parameters
    ----------
    fault_rate:
        Per-cell fault probability for the cell modes, per-line
        probability for the line modes, lognormal sigma for ``drift``.
    rng:
        A seeded generator; the draw order per mode is fixed, so equal
        seeds always give equal masks (the campaign's reproducibility
        contract).
    mode:
        One of :data:`FAULT_MODES`.
    """
    if mode not in FAULT_MODES:
        raise ConfigError(f"mode must be one of {FAULT_MODES}, got {mode!r}")
    if mode == "drift":
        if fault_rate < 0:
            raise ConfigError("drift sigma must be >= 0")
        if fault_rate == 0:
            return FaultMask.empty(rows, cols)
        return FaultMask(
            rows=rows, cols=cols,
            drift=np.exp(rng.normal(0.0, fault_rate, size=(rows, cols))),
        )
    if not 0 <= fault_rate <= 1:
        raise ConfigError("fault_rate must lie in [0, 1]")
    if mode in CIRCUIT_ONLY_MODES:
        wordlines = np.flatnonzero(rng.random(rows) < fault_rate)
        bitlines = np.flatnonzero(rng.random(cols) < fault_rate)
        if mode == "line_open":
            return FaultMask(
                rows=rows, cols=cols,
                open_wordlines=tuple(wordlines),
                open_bitlines=tuple(bitlines),
            )
        return FaultMask(
            rows=rows, cols=cols,
            short_wordlines=tuple(wordlines),
            short_bitlines=tuple(bitlines),
        )
    faulty = rng.random((rows, cols)) < fault_rate
    if mode == "open_cell":
        return FaultMask(rows=rows, cols=cols, open_cells=faulty)
    if mode == "stuck_low":
        return FaultMask(rows=rows, cols=cols, stuck_low=faulty)
    if mode == "stuck_high":
        return FaultMask(rows=rows, cols=cols, stuck_high=faulty)
    # stuck_mixed: split the faulty cells 50/50 between ON and OFF.
    coin = rng.random((rows, cols)) < 0.5
    return FaultMask(
        rows=rows, cols=cols,
        stuck_low=faulty & coin,
        stuck_high=faulty & ~coin,
    )


def apply_mask_to_weights(
    weights: np.ndarray, mask: FaultMask
) -> np.ndarray:
    """Corrupt a mapped weight matrix the way its crossbar faults would.

    The linear weight-to-conductance mapping sends the matrix's largest
    weight to the strongest conductance (``R_min``) and its smallest to
    the weakest (``R_max``), so:

    * ``stuck_low`` (stuck-at-ON)  -> the matrix's maximum weight;
    * ``stuck_high`` (stuck-at-OFF) -> the matrix's minimum weight;
    * ``open_cells`` -> 0 (the cell contributes nothing);
    * ``drift`` divides the weight (resistance up => conductance down).

    Line faults have no single-matrix meaning and are rejected; use the
    circuit-level path (``CrossbarNetwork(fault_mask=...)``) for those.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (mask.rows, mask.cols):
        raise ConfigError(
            f"weights must have shape ({mask.rows}, {mask.cols}), "
            f"got {weights.shape}"
        )
    if mask.has_line_faults:
        raise ConfigError(
            "line faults cannot be applied to a bare weight matrix; "
            "solve the crossbar with CrossbarNetwork(fault_mask=...)"
        )
    out = weights.copy()
    if mask.drift is not None:
        out /= mask.drift
    out[mask.stuck_low] = weights.max()
    out[mask.stuck_high] = weights.min()
    out[mask.open_cells] = 0.0
    return out
