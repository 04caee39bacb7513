"""Simulation configuration: the paper's Table I as a validated dataclass.

Users drive MNSIM with a configuration that selects design parameters at the
three hierarchy levels (Accelerator / Bank / Unit).  :class:`SimConfig`
mirrors the paper's configuration list, adds the data-precision knobs used in
the case studies (weight/signal bit widths), and performs eager validation so
that errors surface before any simulation starts.

A minimal INI-style configuration file is also supported via
:func:`SimConfig.from_file` (``key = value`` lines; ``#`` comments; values in
the same spellings as Table I, e.g. ``Crossbar_Size = 128``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.errors import ConfigError, TechnologyError, ValidationError
from repro.tech import (
    CellType,
    get_cmos_node,
    get_interconnect_node,
    get_memristor_model,
)
from repro.tech.memristor import MemristorModel

# Algorithm families from Sec. II.B; "ANN" is the paper's default spelling
# for fully-connected deep networks and is normalised to "DNN".
NETWORK_TYPES = ("DNN", "SNN", "CNN")

_POWERS_OF_TWO = tuple(2**i for i in range(2, 11))  # 4 .. 1024


@dataclass(frozen=True)
class SimConfig:
    """All user-visible design parameters (paper Table I + precision knobs).

    Attributes mirror Table I (level in parentheses):

    * ``network_depth`` (Accelerator) — number of neuromorphic layers; usually
      inferred from the network description, so ``None`` is allowed here.
    * ``interface_number`` (Accelerator) — (input, output) bus line counts.
    * ``network_type`` (Bank) — ``DNN`` / ``SNN`` / ``CNN``.
    * ``crossbar_size`` (Bank) — rows = columns of each memristor crossbar.
    * ``pooling_size`` (Bank) — pooling window ``k`` for CNN banks.
    * ``spacial_size`` (Bank) — conv-kernel spatial size (1 for FC layers);
      the paper's (sic) spelling is kept for config-file compatibility.
    * ``weight_polarity`` (Unit) — 1 for unsigned weights, 2 for signed
      (two crossbars or paired columns per Sec. III.C.1).
    * ``cmos_tech`` (Unit) — CMOS node in nm.
    * ``cell_type`` (Unit) — ``1T1R`` or ``0T1R``.
    * ``memristor_model`` (Unit) — device model name (``RRAM``/``PCM``/...).
    * ``interconnect_tech`` (Unit) — wire node in nm.
    * ``parallelism_degree`` (Unit) — read circuits per crossbar; 0 means
      fully parallel (one read circuit per used column).
    * ``resistance_range`` (Unit) — (R_min, R_max) override in ohms.

    Precision knobs used by the evaluation section:

    * ``weight_bits`` — algorithm weight precision (signed total bits).
    * ``signal_bits`` — input/output signal precision.
    * ``device_sigma`` — optional device-variation override (0..0.3).
    """

    network_depth: Optional[int] = None
    interface_number: Tuple[int, int] = (128, 128)
    network_type: str = "DNN"
    crossbar_size: int = 128
    pooling_size: int = 2
    spacial_size: int = 1
    weight_polarity: int = 2
    cmos_tech: int = 90
    cell_type: CellType = CellType.ONE_T_ONE_R
    memristor_model: str = "RRAM"
    interconnect_tech: int = 28
    parallelism_degree: int = 0
    resistance_range: Optional[Tuple[float, float]] = None
    weight_bits: int = 8
    signal_bits: int = 8
    device_sigma: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "network_type", _normalize_network_type(self.network_type)
        )
        if isinstance(self.cell_type, str):
            object.__setattr__(
                self, "cell_type", CellType.from_string(self.cell_type)
            )
        object.__setattr__(
            self, "interface_number", _as_pair(self.interface_number, int)
        )
        if self.resistance_range is not None:
            object.__setattr__(
                self,
                "resistance_range",
                _as_pair(self.resistance_range, float),
            )
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        # Field-addressed errors: the CLI and the HTTP service both
        # surface the same structured ValidationError for bad fields.
        if self.network_depth is not None and self.network_depth < 1:
            raise ValidationError(
                "must be >= 1 when given",
                path="network_depth", value=self.network_depth,
            )
        if min(self.interface_number) < 1:
            raise ValidationError(
                "entries must be >= 1",
                path="interface_number", value=list(self.interface_number),
            )
        if self.crossbar_size < 2:
            raise ValidationError(
                "must be >= 2",
                path="crossbar_size", value=self.crossbar_size,
            )
        if self.crossbar_size & (self.crossbar_size - 1):
            raise ValidationError(
                "must be a power of two",
                path="crossbar_size", value=self.crossbar_size,
            )
        if self.pooling_size < 1:
            raise ValidationError(
                "must be >= 1", path="pooling_size", value=self.pooling_size,
            )
        if self.spacial_size < 1:
            raise ValidationError(
                "must be >= 1", path="spacial_size", value=self.spacial_size,
            )
        if self.weight_polarity not in (1, 2):
            raise ValidationError(
                "must be 1 (unsigned) or 2 (signed)",
                path="weight_polarity", value=self.weight_polarity,
                allowed=(1, 2),
            )
        if self.parallelism_degree < 0:
            raise ValidationError(
                "must be >= 0 (0 = all parallel)",
                path="parallelism_degree", value=self.parallelism_degree,
            )
        if self.parallelism_degree > self.crossbar_size:
            raise ValidationError(
                f"cannot exceed crossbar_size ({self.crossbar_size})",
                path="parallelism_degree", value=self.parallelism_degree,
            )
        if self.weight_bits < 1:
            raise ValidationError(
                "must be >= 1", path="weight_bits", value=self.weight_bits,
            )
        if self.signal_bits < 1:
            raise ValidationError(
                "must be >= 1", path="signal_bits", value=self.signal_bits,
            )
        if self.resistance_range is not None:
            low, high = self.resistance_range
            if not 0 < low < high:
                raise ValidationError(
                    "must satisfy 0 < min < max",
                    path="resistance_range",
                    value=list(self.resistance_range),
                )
        if self.device_sigma is not None and not 0 <= self.device_sigma <= 0.3:
            raise ValidationError(
                "must lie in [0, 0.3]",
                path="device_sigma", value=self.device_sigma,
            )
        # Eagerly resolve technology lookups so typos fail here, not later.
        _TECH_FIELDS = (
            ("cmos_tech", get_cmos_node, self.cmos_tech),
            ("interconnect_tech", get_interconnect_node,
             self.interconnect_tech),
            ("memristor_model", get_memristor_model, self.memristor_model),
        )
        for field_name, lookup, value in _TECH_FIELDS:
            try:
                lookup(value)
            except TechnologyError as exc:
                raise ValidationError(
                    str(exc), path=field_name, value=value,
                ) from exc

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @cached_property
    def device(self) -> MemristorModel:
        """The resolved memristor model, with range/sigma overrides applied.

        Resolved once per config: :meth:`replace` builds a new instance,
        and equality, hashing and :meth:`to_dict` read fields only.
        """
        model = get_memristor_model(self.memristor_model)
        if self.resistance_range is not None:
            model = model.with_overrides(
                r_min=self.resistance_range[0],
                r_max=self.resistance_range[1],
            )
        if self.device_sigma is not None:
            model = model.with_sigma(self.device_sigma)
        return model

    @property
    def cmos(self):
        """The resolved :class:`~repro.tech.cmos.CmosNode`."""
        return get_cmos_node(self.cmos_tech)

    @property
    def wire(self):
        """The resolved :class:`~repro.tech.interconnect.InterconnectNode`."""
        return get_interconnect_node(self.interconnect_tech)

    @property
    def cells_per_weight(self) -> int:
        """Crossbars (bit slices) per weight from device precision.

        A ``weight_bits``-bit weight (one bit of which is sign when
        ``weight_polarity == 2``) is split across
        ``ceil(magnitude_bits / device_bits)`` cells, and the polarity
        doubles the cell count for the differential mapping.
        """
        magnitude_bits = self.weight_bits - (1 if self.weight_polarity == 2 else 0)
        magnitude_bits = max(magnitude_bits, 1)
        slices = math.ceil(magnitude_bits / self.device.precision_bits)
        return slices * self.weight_polarity

    @property
    def bit_slices(self) -> int:
        """Number of bit-sliced crossbar copies (excluding polarity)."""
        return self.cells_per_weight // self.weight_polarity

    @property
    def read_levels(self) -> int:
        """Quantization levels ``k`` of the read circuit (Sec. VI.C)."""
        return 2**self.signal_bits

    def effective_parallelism(self, used_columns: Optional[int] = None) -> int:
        """Read circuits active per crossbar for ``used_columns`` columns.

        ``parallelism_degree == 0`` means fully parallel: one read circuit
        per used column.  Otherwise the configured degree is clamped to the
        number of used columns.
        """
        columns = self.crossbar_size if used_columns is None else used_columns
        if columns < 1:
            raise ConfigError("used_columns must be >= 1")
        if self.parallelism_degree == 0:
            return columns
        return min(self.parallelism_degree, columns)

    # ------------------------------------------------------------------
    def replace(self, **kwargs) -> "SimConfig":
        """Return a copy with the given fields overridden."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Deterministic serialization (cache keys depend on this)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe mapping of every field, keys in sorted order.

        The ordering and value spellings are *stable by contract*:
        :mod:`repro.runtime` derives cache keys from this serialization,
        so any change here invalidates every cached result (bump
        :data:`repro.runtime.jobs.SCHEMA_VERSION` when that happens).
        """
        out = {}
        for name in sorted(self.__dataclass_fields__):
            value = getattr(self, name)
            if isinstance(value, CellType):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Rebuild a configuration from a :meth:`to_dict` mapping."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(
                f"unknown configuration fields {sorted(unknown)}",
                path=sorted(unknown)[0],
                allowed=sorted(cls.__dataclass_fields__),
            )
        values = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in data.items()
        }
        return cls(**values)

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "SimConfig":
        """Parse an INI-style configuration file into a :class:`SimConfig`.

        Lines are ``Key = value``; keys use the paper's Table I spellings
        (case-insensitive, underscores optional); ``#`` and ``;`` start
        comments; bracketed section headers are ignored.
        """
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_string(text)

    @classmethod
    def from_string(cls, text: str) -> "SimConfig":
        """Parse configuration text (see :meth:`from_file`)."""
        values = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value': {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            field_name = _KEY_ALIASES.get(key.lower().replace("_", ""))
            if field_name is None:
                raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
            values[field_name] = _parse_value(field_name, value)
        return cls(**values)


# Map normalised config-file keys (lowercase, underscores stripped) to
# dataclass field names.
_KEY_ALIASES = {
    "networkdepth": "network_depth",
    "interfacenumber": "interface_number",
    "networktype": "network_type",
    "crossbarsize": "crossbar_size",
    "poolingsize": "pooling_size",
    "spacialsize": "spacial_size",
    "spatialsize": "spacial_size",
    "weightpolarity": "weight_polarity",
    "cmostech": "cmos_tech",
    "celltype": "cell_type",
    "memristormodel": "memristor_model",
    "interconnecttech": "interconnect_tech",
    "parallelismdegree": "parallelism_degree",
    "resistancerange": "resistance_range",
    "weightbits": "weight_bits",
    "signalbits": "signal_bits",
    "devicesigma": "device_sigma",
}

_INT_FIELDS = {
    "network_depth",
    "crossbar_size",
    "pooling_size",
    "spacial_size",
    "weight_polarity",
    "parallelism_degree",
    "weight_bits",
    "signal_bits",
}


def _parse_value(field_name: str, raw: str):
    raw = raw.strip()
    if field_name in ("interface_number", "resistance_range"):
        return _parse_pair(raw)
    if field_name in _INT_FIELDS:
        return int(_parse_number(raw))
    if field_name in ("cmos_tech", "interconnect_tech"):
        return int(_parse_number(raw.lower().removesuffix("nm")))
    if field_name == "device_sigma":
        return float(raw)
    return raw


def _parse_number(raw: str) -> float:
    """Parse a number allowing SI suffixes ``k``/``M`` (e.g. ``500k``)."""
    raw = raw.strip()
    scale = 1.0
    if raw and raw[-1] in "kK":
        scale, raw = 1e3, raw[:-1]
    elif raw and raw[-1] == "M":
        scale, raw = 1e6, raw[:-1]
    try:
        return float(raw) * scale
    except ValueError:
        raise ConfigError(f"cannot parse number {raw!r}") from None


def _parse_pair(raw: str) -> Tuple[float, float]:
    cleaned = raw.strip().strip("[]()")
    parts = [p for chunk in cleaned.split(",") for p in chunk.split()]
    parts = [p for p in parts if p]
    if len(parts) != 2:
        raise ConfigError(f"expected a pair like [a, b], got {raw!r}")
    return (_parse_number(parts[0]), _parse_number(parts[1]))


def _as_pair(value: Sequence, cast) -> Tuple:
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ConfigError(f"expected a pair, got {value!r}") from None
    return (cast(first), cast(second))


def _normalize_network_type(text: str) -> str:
    normalized = str(text).strip().upper()
    if normalized == "ANN":  # Table I default spelling
        normalized = "DNN"
    if normalized not in NETWORK_TYPES:
        raise ValidationError(
            "unknown network type",
            path="network_type", value=text,
            allowed=NETWORK_TYPES + ("ANN",),
        )
    return normalized
