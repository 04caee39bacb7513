"""Simulation configuration: the paper's Table I as a validated dataclass.

Users drive MNSIM with a configuration that selects design parameters at the
three hierarchy levels (Accelerator / Bank / Unit).  :class:`SimConfig`
mirrors the paper's configuration list, adds the data-precision knobs used in
the case studies (weight/signal bit widths), and performs eager validation so
that errors surface before any simulation starts.

A minimal INI-style configuration file is also supported via
:func:`SimConfig.from_file` (``key = value`` lines; ``#`` comments; values in
the same spellings as Table I, e.g. ``Crossbar_Size = 128``).

This module also holds the declarative field layer that every validated
input shares (DESIGN.md S37): a class declares each field once, with its
rules in the field's metadata (:func:`declare`), and :func:`parse` and
:func:`dump` read and write its JSON form from that declaration.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import typing
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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

#: The SimConfig fields resolved against the technology tables.
_TECH_LOOKUPS = (
    ("cmos_tech", get_cmos_node),
    ("interconnect_tech", get_interconnect_node),
    ("memristor_model", get_memristor_model),
)


# ----------------------------------------------------------------------
# The declarative field layer
# ----------------------------------------------------------------------
def declare(
    default: Any = MISSING,
    *,
    factory: Any = MISSING,
    key: Optional[str] = None,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    nonempty: bool = False,
    omit_none: bool = False,
) -> Any:
    """A dataclass field whose ``metadata`` holds its input rules.

    ``key`` is the document spelling where it differs from the field
    name; ``minimum``/``maximum`` bound a number, or every entry of a
    tuple; ``nonempty`` rejects an empty tuple; ``omit_none`` leaves a
    ``None`` out of :func:`dump`.
    """
    return field(default=default, default_factory=factory, metadata={
        "key": key, "minimum": minimum, "maximum": maximum,
        "nonempty": nonempty, "omit_none": omit_none,
    })


class _Field(NamedTuple):
    name: str
    key: str
    hint: Any
    convert: Callable[[Any, str], Any]
    required: bool
    omit_none: bool


class _Table(NamedTuple):
    fields: Tuple[_Field, ...]
    by_key: Dict[str, _Field]
    required: Tuple[_Field, ...]
    #: (name, key, minimum, maximum, per-entry, nonempty, message) per
    #: field with a bound or a non-empty rule; an absent minimum is -inf.
    rules: Tuple[tuple, ...]


@functools.lru_cache(maxsize=None)
def _table(cls: type) -> _Table:
    """``cls``'s field table, built once from its declarations."""
    hints = typing.get_type_hints(cls)
    fields, rules = [], []
    for spec in dataclasses.fields(cls):
        meta = spec.metadata
        key = meta.get("key") or spec.name
        hint = hints[spec.name]
        fields.append(_Field(
            spec.name, key, hint, _converter(hint),
            spec.default is MISSING and spec.default_factory is MISSING,
            bool(meta.get("omit_none")),
        ))
        low, high = meta.get("minimum"), meta.get("maximum")
        nonempty = bool(meta.get("nonempty"))
        if low is None and high is None and not nonempty:
            continue
        rules.append((
            spec.name, key, -math.inf if low is None else low, high,
            typing.get_origin(_unwrap(hint)) is tuple,
            nonempty, _bounds(low, high),
        ))
    return _Table(
        tuple(fields), {f.key: f for f in fields},
        tuple(f for f in fields if f.required), tuple(rules),
    )


def _bounds(low: Optional[float], high: Optional[float]) -> Optional[str]:
    """The message for a value outside ``[low, high]``."""
    if low is not None and high is not None:
        return f"must lie in [{low:g}, {high:g}]"
    if low is not None:
        return f"must be >= {low:g}"
    return None if high is None else f"must be <= {high:g}"


def _unwrap(hint: Any) -> Any:
    """``X`` for ``Optional[X]``, else ``hint`` itself."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Union and type(None) in args:
        return args[0]
    return hint


def _vocabulary(hint: Any) -> Optional[list]:
    hint = _unwrap(hint)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return [member.value for member in hint]
    return None


def _converter(hint: Any) -> Callable[[Any, str], Any]:
    """The type check of one declared type: ``convert(value, path)``."""
    inner = _unwrap(hint)
    if inner is not hint:
        check = _converter(inner)
        return lambda value, path: (
            None if value is None else check(value, path)
        )
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return functools.partial(
            _entries, _converter(args[0]),
            None if args[-1] is Ellipsis else len(args),
        )
    if typing.get_origin(hint) is dict:
        return _mapping
    if hint is Any:
        return lambda value, path: value
    if dataclasses.is_dataclass(hint):
        return lambda value, path: hint.from_dict(value, path)
    if issubclass(hint, enum.Enum):
        return functools.partial(_member, hint)
    return {int: _integer, float: _number, str: _string}[hint]


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("must be an integer", path=path, value=value)
    return value


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("must be a number", path=path, value=value)
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError("must be finite", path=path, value=value)
    return number


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError("must be a string", path=path, value=value)
    return value


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise ValidationError("must be a JSON object", path=path, value=value)
    return dict(value)


def _member(cls: type, value: Any, path: str) -> enum.Enum:
    try:
        return cls(value)
    except (ValueError, TypeError):
        raise ValidationError(
            f"not in the {cls.__name__} vocabulary",
            path=path, value=value, allowed=_vocabulary(cls),
        ) from None


def _entries(
    convert: Callable[[Any, str], Any], size: Optional[int],
    value: Any, path: str,
) -> tuple:
    if not isinstance(value, (list, tuple)) or (
        size is not None and len(value) != size
    ):
        raise ValidationError(
            "must be a list" if size is None
            else f"must be a list of {size} entries",
            path=path, value=value,
        )
    return tuple(
        convert(entry, f"{path}[{index}]")
        for index, entry in enumerate(value)
    )


def read(cls: type, data: Any, path: str = "") -> dict:
    """Check ``data`` against ``cls``'s declared fields.

    Rejects unknown and missing keys, then values of the wrong type, each
    with a :class:`~repro.errors.ValidationError` addressed under
    ``path``.  Returns the converted values of the keys present, by
    field name.
    """
    if not isinstance(data, Mapping):
        raise ValidationError("must be a JSON object", path=path, value=data)
    table = _table(cls)
    prefix = f"{path}." if path else ""
    unknown = data.keys() - table.by_key.keys()
    if unknown:
        first = min(unknown, key=str)
        raise ValidationError(
            "unknown field", path=f"{prefix}{first}", value=first,
            allowed=sorted(table.by_key),
        )
    for spec in table.required:
        if spec.key not in data:
            raise ValidationError(
                "missing required field", path=prefix + spec.key,
                allowed=_vocabulary(spec.hint),
            )
    values = {}
    for key, value in data.items():
        spec = table.by_key[key]
        values[spec.name] = spec.convert(value, prefix + key)
    return values


def parse(cls: type, data: Any, path: str = "") -> Any:
    """Build ``cls`` from its JSON form, or raise a
    :class:`~repro.errors.ValidationError` under ``path``."""
    values = read(cls, data, path)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise exc.within(path) from None
    except ConfigError as exc:
        raise ValidationError(str(exc), path=path) from None


def dump(obj: Any) -> dict:
    """``obj``'s JSON form: its fields in order, under their spellings."""
    out = {}
    for spec in _table(type(obj)).fields:
        value = getattr(obj, spec.name)
        if value is not None or not spec.omit_none:
            out[spec.key] = _plain(value)
    return out


def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if dataclasses.is_dataclass(value):
        return value.to_dict()
    return value


class Declared:
    """Base of a declared input class (a frozen dataclass).

    Construction applies each field's declared bounds and non-empty
    rule, then the class's cross-field :meth:`_check`, so the Python API
    and :func:`parse` reject the same values.  Type checks run only in
    :func:`parse`, at the entrances for outside input.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # A redeclared field keeps its inherited rules: a plain value
        # overrides the default alone, a declare() only the rules it
        # sets.  Runs before @dataclass collects the fields.
        super().__init_subclass__(**kwargs)
        inherited = getattr(cls, "__dataclass_fields__", {})
        for name in vars(cls).get("__annotations__", {}):
            base, value = inherited.get(name), vars(cls).get(name, MISSING)
            if base is None or not base.metadata or value is MISSING:
                continue
            rules = dict(base.metadata)
            default, factory = value, MISSING
            if isinstance(value, dataclasses.Field):
                rules.update(
                    (rule, given) for rule, given in value.metadata.items()
                    if given is not None and given is not False
                )
                default, factory = value.default, value.default_factory
            setattr(cls, name, field(
                default=default, default_factory=factory, metadata=rules,
            ))

    def __post_init__(self) -> None:
        # Runs on every construction (SimConfig.replace in a sweep), so
        # the common case is one lookup and one comparison per rule.
        fields = self.__dict__
        for name, key, low, high, per_entry, nonempty, message in \
                _table(type(self)).rules:
            value = fields[name]
            if value is None:
                continue
            if not per_entry:
                if value < low or (high is not None and value > high):
                    raise ValidationError(message, path=key, value=value)
                continue
            if nonempty and not value:
                raise ValidationError(
                    "must be a non-empty list", path=key, value=list(value)
                )
            for index, entry in enumerate(value if message else ()):
                if entry < low or (high is not None and entry > high):
                    raise ValidationError(
                        message, path=f"{key}[{index}]", value=entry
                    )
        self._check()

    def _check(self) -> None:
        """Cross-field rules; errors are addressed within the class."""

    from_dict = classmethod(parse)
    to_dict = dump


@dataclass(frozen=True)
class SimConfig(Declared):
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

    network_depth: Optional[int] = declare(None, minimum=1)
    interface_number: Tuple[int, int] = declare((128, 128), minimum=1)
    network_type: str = "DNN"
    crossbar_size: int = declare(128, minimum=2)
    pooling_size: int = declare(2, minimum=1)
    spacial_size: int = declare(1, minimum=1)
    weight_polarity: int = 2
    cmos_tech: int = 90
    cell_type: CellType = CellType.ONE_T_ONE_R
    memristor_model: str = "RRAM"
    interconnect_tech: int = 28
    parallelism_degree: int = declare(0, minimum=0)
    resistance_range: Optional[Tuple[float, float]] = None
    weight_bits: int = declare(8, minimum=1)
    signal_bits: int = declare(8, minimum=1)
    device_sigma: Optional[float] = declare(None, minimum=0, maximum=0.3)

    def __post_init__(self) -> None:
        # The Python API's spellings: "ANN", "0t1r", "rram", lists for
        # pairs.
        if self.network_type not in NETWORK_TYPES:
            object.__setattr__(
                self, "network_type",
                _normalize_network_type(self.network_type),
            )
        if isinstance(self.cell_type, str):
            object.__setattr__(
                self, "cell_type", CellType.from_string(self.cell_type)
            )
        # One spelling per device, so one key: get_memristor_model's.
        if isinstance(self.memristor_model, str):
            object.__setattr__(
                self, "memristor_model",
                self.memristor_model.strip().upper(),
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
        super().__post_init__()

    # ------------------------------------------------------------------
    def _check(self) -> None:
        # Field-addressed errors: the CLI and the HTTP service both
        # surface the same structured ValidationError for bad fields.
        check_crossbar_size(self.crossbar_size, "crossbar_size")
        if self.weight_polarity not in (1, 2):
            raise ValidationError(
                "must be 1 (unsigned) or 2 (signed)",
                path="weight_polarity", value=self.weight_polarity,
                allowed=(1, 2),
            )
        if self.parallelism_degree > self.crossbar_size:
            raise ValidationError(
                f"cannot exceed crossbar_size ({self.crossbar_size})",
                path="parallelism_degree", value=self.parallelism_degree,
            )
        if self.resistance_range is not None:
            low, high = self.resistance_range
            if not 0 < low < high:
                raise ValidationError(
                    "must satisfy 0 < min < max",
                    path="resistance_range",
                    value=list(self.resistance_range),
                )
        # Eagerly resolve technology lookups so typos fail here, not later.
        for field_name, lookup in _TECH_LOOKUPS:
            value = getattr(self, field_name)
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
        # dataclasses.replace without its per-field init/ClassVar checks:
        # a sweep derives every point's config through here.
        values = {name: getattr(self, name) for name in _FIELD_NAMES}
        values.update(kwargs)
        return type(self)(**values)

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
        return dict(sorted(dump(self).items()))

    # Spelled out on the class (not inherited) so that
    # benchmarks/perf/layers.py can wrap it by name.
    @classmethod
    def from_dict(cls, data: Any, path: str = "") -> "SimConfig":
        """Rebuild a configuration from a :meth:`to_dict` mapping.

        Every value is type-checked against its declared field, so a
        mistyped entry fails as a :class:`ValidationError` addressed
        under ``path`` rather than deep inside a simulation.
        """
        return parse(cls, data, path)

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
        return cls.from_dict(values)


_FIELD_NAMES = tuple(SimConfig.__dataclass_fields__)


def check_crossbar_size(size: int, path: str) -> None:
    """:class:`SimConfig`'s rule for a crossbar size beyond its declared
    bound: a power of two; a :class:`ValidationError` at ``path``."""
    if size & (size - 1):
        raise ValidationError("must be a power of two", path=path, value=size)


# Normalised config-file keys (lowercase, underscores stripped) -> fields,
# plus the one other spelling of Table I's (sic) spacial_size.
_KEY_ALIASES = {
    **{name.replace("_", ""): name for name in _FIELD_NAMES},
    "spatialsize": "spacial_size",
}


def _parse_value(field_name: str, raw: str) -> Any:
    """One config-file value, read as its field's declared type."""
    hint = next(
        _unwrap(spec.hint) for spec in _table(SimConfig).fields
        if spec.name == field_name
    )
    if typing.get_origin(hint) is tuple:
        return _parse_pair(raw)
    if hint in (int, float):
        return _parse_number(raw)
    return raw


def _parse_number(raw: str) -> Union[int, float]:
    """Parse a number allowing SI suffixes ``k``/``M`` (e.g. ``500k``)
    and a trailing ``nm`` unit; integral values come back as ``int``."""
    raw = raw.strip()
    if raw.lower().endswith("nm"):
        raw = raw[:-2]
    scale = 1.0
    if raw and raw[-1] in "kK":
        scale, raw = 1e3, raw[:-1]
    elif raw and raw[-1] == "M":
        scale, raw = 1e6, raw[:-1]
    try:
        number = float(raw) * scale
    except ValueError:
        raise ConfigError(f"cannot parse number {raw!r}") from None
    return int(number) if number.is_integer() else number


def _parse_pair(raw: str) -> Tuple[Union[int, float], ...]:
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
