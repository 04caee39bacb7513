"""Validated simulation payloads: the service's input contract.

:class:`SimulationPayload` is the single, self-contained contract that
defines one submittable unit of work — the FastSim ``SimulationPayload``
philosophy (SNIPPETS.md #2) rebuilt on stdlib dataclasses: strict typing,
``Enum`` vocabularies instead of magic strings, and upfront validation
that rejects malformed or logically inconsistent input with structured,
path-addressed :class:`~repro.errors.ValidationError`\\ s *before* any
engine code runs.

A payload is a plain JSON document::

    {
      "kind": "montecarlo",                 # PayloadKind vocabulary
      "config": {"crossbar_size": 64},      # SimConfig fields (optional)
      "montecarlo": {"trials": 8, "seed": 0, "size": 16},
      "execution": {"jobs": 2}              # engine knobs (optional)
    }

Each payload kind owns exactly one workload section (``sweep`` for
``explore``, ``montecarlo``, ``faults``); sections that do not belong to
the declared kind are rejected as inconsistent rather than silently
ignored — the validation-first stance is that a payload the server does
not fully understand must never run.

Validated payloads canonicalise into the existing engine structures
(:class:`~repro.config.SimConfig`, :class:`~repro.dse.space.DesignSpace`,
:class:`~repro.faults.campaign.CampaignSpec`,
:class:`~repro.runtime.pool.RunPolicy`) and carry a deterministic
content-addressed :meth:`SimulationPayload.fingerprint` — the service's
job id — derived from the same canonical serialization the sqlite result
cache keys on, so identical submissions dedupe end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.dse.space import DesignSpace
from repro.errors import ConfigError, ValidationError
from repro.faults.models import FAULT_MODES
from repro.nn.networks import (
    Network,
    caffenet,
    jpeg_autoencoder,
    large_bank_layer,
    mlp,
    validation_mlp,
    vgg16,
)
from repro.runtime.jobs import content_key
from repro.runtime.pool import RunPolicy

if TYPE_CHECKING:
    from repro.faults.campaign import CampaignSpec

#: Version stamp folded into every payload fingerprint (and therefore
#: every job id); bump on any change to payload semantics.
PAYLOAD_SCHEMA = "service-payload-v1"


# ----------------------------------------------------------------------
# Enum vocabularies
# ----------------------------------------------------------------------
class PayloadKind(enum.Enum):
    """The workload families the service accepts."""

    SIMULATE = "simulate"
    EXPLORE = "explore"
    MONTECARLO = "montecarlo"
    FAULTS = "faults"
    CAMPAIGN = "campaign"


class NetworkTopology(enum.Enum):
    """Built-in network topologies plus the parametric ``mlp``."""

    MLP = "mlp"
    VALIDATION_MLP = "validation-mlp"
    JPEG = "jpeg"
    LARGE_BANK = "large-bank"
    CAFFENET = "caffenet"
    VGG16 = "vgg16"


class DeviceModel(enum.Enum):
    """Memristor device vocabulary (see :mod:`repro.tech.memristor`)."""

    RRAM = "RRAM"
    PCM = "PCM"
    IDEAL = "IDEAL"


class SweepMode(enum.Enum):
    """How an ``explore`` payload traverses its design space."""

    GRID = "grid"


class InputMode(enum.Enum):
    """Monte-Carlo input drive protocol."""

    RANDOM = "random"
    FULL = "full"


class FaultMode(enum.Enum):
    """Fault-injection vocabulary (mirrors ``faults.models.FAULT_MODES``)."""

    STUCK_LOW = "stuck_low"
    STUCK_HIGH = "stuck_high"
    STUCK_MIXED = "stuck_mixed"
    OPEN_CELL = "open_cell"
    LINE_OPEN = "line_open"
    LINE_SHORT = "line_short"
    DRIFT = "drift"


assert tuple(m.value for m in FaultMode) == FAULT_MODES, (
    "FaultMode enum drifted from faults.models.FAULT_MODES"
)

_BUILTIN_NETWORKS = {
    NetworkTopology.VALIDATION_MLP: validation_mlp,
    NetworkTopology.JPEG: jpeg_autoencoder,
    NetworkTopology.LARGE_BANK: large_bank_layer,
    NetworkTopology.CAFFENET: caffenet,
    NetworkTopology.VGG16: vgg16,
}


# ----------------------------------------------------------------------
# Validation helpers (path-addressed)
# ----------------------------------------------------------------------
def _expect_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValidationError(
            "must be a JSON object", path=path, value=value
        )
    return value

def _reject_unknown_keys(
    data: Mapping[str, Any], allowed: Sequence[str], path: str
) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ValidationError(
            "unknown field", path=where, value=unknown[0],
            allowed=sorted(allowed),
        )

def _expect_int(
    value: Any, path: str, *, minimum: Optional[int] = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            "must be an integer", path=path, value=value
        )
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"must be >= {minimum}", path=path, value=value
        )
    return value

def _expect_number(
    value: Any, path: str, *, minimum: Optional[float] = None
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(
            "must be a number", path=path, value=value
        )
    if minimum is not None and value < minimum:
        raise ValidationError(
            f"must be >= {minimum:g}", path=path, value=value
        )
    return float(value)

def _expect_enum(cls: type, value: Any, path: str) -> Any:
    allowed = [member.value for member in cls]
    try:
        return cls(value)
    except ValueError:
        raise ValidationError(
            f"not in the {cls.__name__} vocabulary",
            path=path, value=value, allowed=allowed,
        ) from None

def _reprefix(error: ValidationError, prefix: str) -> ValidationError:
    """Re-raise helper: prepend ``prefix`` to an error's field path."""
    path = f"{prefix}.{error.path}" if error.path else prefix
    message = str(error)
    # Strip the inner "path: " prefix so it is not spelled twice.
    if error.path and message.startswith(f"{error.path}: "):
        message = message[len(error.path) + 2:]
    kwargs: Dict[str, Any] = {"path": path}
    if error.has_value:
        kwargs["value"] = error.value
    if error.allowed is not None:
        # The inner message already spells the vocabulary.
        message = message.split(" (allowed:")[0]
        kwargs["allowed"] = error.allowed
    if error.has_value:
        message = message.split(" (got")[0]
    return ValidationError(message, **kwargs)


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkSpec:
    """A network topology selection (built-in name or parametric MLP)."""

    topology: NetworkTopology
    sizes: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_dict(cls, data: Any, path: str = "network") -> "NetworkSpec":
        data = _expect_mapping(data, path)
        _reject_unknown_keys(data, ("topology", "sizes"), path)
        if "topology" not in data:
            raise ValidationError(
                "missing required field", path=f"{path}.topology",
                allowed=[m.value for m in NetworkTopology],
            )
        topology = _expect_enum(
            NetworkTopology, data["topology"], f"{path}.topology"
        )
        sizes = data.get("sizes")
        if topology is NetworkTopology.MLP:
            if not isinstance(sizes, (list, tuple)) or len(sizes) < 2:
                raise ValidationError(
                    "mlp topology needs a list of >= 2 layer sizes",
                    path=f"{path}.sizes", value=sizes,
                )
            sizes = tuple(
                _expect_int(s, f"{path}.sizes[{i}]", minimum=1)
                for i, s in enumerate(sizes)
            )
        elif sizes is not None:
            raise ValidationError(
                f"sizes only apply to the 'mlp' topology, not "
                f"{topology.value!r}", path=f"{path}.sizes", value=sizes,
            )
        else:
            sizes = None
        return cls(topology=topology, sizes=sizes)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"topology": self.topology.value}
        if self.sizes is not None:
            out["sizes"] = list(self.sizes)
        return out

    def spec_string(self) -> str:
        """The CLI network-spec spelling (``mlp:a,b`` or a built-in)."""
        if self.topology is NetworkTopology.MLP:
            return "mlp:" + ",".join(str(s) for s in self.sizes or ())
        return self.topology.value

    def build(self) -> Network:
        """Materialise the :class:`~repro.nn.networks.Network`."""
        if self.topology is NetworkTopology.MLP:
            return mlp(list(self.sizes or ()), name=self.spec_string())
        return _BUILTIN_NETWORKS[self.topology]()


@dataclass(frozen=True)
class SweepSpec:
    """Declarative design-space sweep for ``explore`` payloads."""

    mode: SweepMode = SweepMode.GRID
    crossbar_sizes: Tuple[int, ...] = (64, 128, 256, 512)
    parallelism_degrees: Tuple[int, ...] = (1, 16, 256)
    interconnect_nodes: Tuple[int, ...] = (18, 28, 45)
    max_error_rate: Optional[float] = None

    _FIELDS = ("mode", "crossbar_sizes", "parallelism_degrees",
               "interconnect_nodes", "max_error_rate")

    @classmethod
    def from_dict(cls, data: Any, path: str = "sweep") -> "SweepSpec":
        data = _expect_mapping(data, path)
        _reject_unknown_keys(data, cls._FIELDS, path)
        mode = _expect_enum(
            SweepMode, data.get("mode", SweepMode.GRID.value),
            f"{path}.mode",
        )
        axes: Dict[str, Tuple[int, ...]] = {}
        for axis in ("crossbar_sizes", "parallelism_degrees",
                     "interconnect_nodes"):
            raw = data.get(axis)
            if raw is None:
                axes[axis] = getattr(cls, axis)
                continue
            if not isinstance(raw, (list, tuple)) or not raw:
                raise ValidationError(
                    "must be a non-empty list of integers",
                    path=f"{path}.{axis}", value=raw,
                )
            axes[axis] = tuple(
                _expect_int(v, f"{path}.{axis}[{i}]", minimum=1)
                for i, v in enumerate(raw)
            )
        max_error = data.get("max_error_rate")
        if max_error is not None:
            max_error = _expect_number(
                max_error, f"{path}.max_error_rate", minimum=0.0
            )
            if max_error > 1.0:
                raise ValidationError(
                    "must lie in [0, 1]",
                    path=f"{path}.max_error_rate", value=max_error,
                )
        spec = cls(mode=mode, max_error_rate=max_error, **axes)
        spec.to_design_space()  # surface DesignSpace vocabulary errors now
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode.value,
            "crossbar_sizes": list(self.crossbar_sizes),
            "parallelism_degrees": list(self.parallelism_degrees),
            "interconnect_nodes": list(self.interconnect_nodes),
            "max_error_rate": self.max_error_rate,
        }

    def to_design_space(self) -> DesignSpace:
        try:
            return DesignSpace(
                crossbar_sizes=self.crossbar_sizes,
                parallelism_degrees=self.parallelism_degrees,
                interconnect_nodes=self.interconnect_nodes,
            )
        except ValidationError as exc:
            raise _reprefix(exc, "sweep") from None
        except ConfigError as exc:
            raise ValidationError(str(exc), path="sweep") from None


@dataclass(frozen=True)
class MonteCarloSpec:
    """Monte-Carlo accuracy sampling parameters."""

    trials: int = 8
    seed: int = 0
    size: Optional[int] = None
    sigma: Optional[float] = None
    input_mode: InputMode = InputMode.RANDOM
    inputs_per_trial: int = 1

    _FIELDS = ("trials", "seed", "size", "sigma", "input_mode",
               "inputs_per_trial")

    @classmethod
    def from_dict(
        cls, data: Any, path: str = "montecarlo"
    ) -> "MonteCarloSpec":
        data = _expect_mapping(data, path)
        _reject_unknown_keys(data, cls._FIELDS, path)
        trials = _expect_int(
            data.get("trials", cls.trials), f"{path}.trials", minimum=1
        )
        seed = _expect_int(data.get("seed", cls.seed), f"{path}.seed")
        size = data.get("size")
        if size is not None:
            size = _expect_int(size, f"{path}.size", minimum=2)
        sigma = data.get("sigma")
        if sigma is not None:
            sigma = _expect_number(sigma, f"{path}.sigma", minimum=0.0)
        input_mode = _expect_enum(
            InputMode, data.get("input_mode", InputMode.RANDOM.value),
            f"{path}.input_mode",
        )
        inputs_per_trial = _expect_int(
            data.get("inputs_per_trial", cls.inputs_per_trial),
            f"{path}.inputs_per_trial", minimum=1,
        )
        if inputs_per_trial > 1 and input_mode is not InputMode.RANDOM:
            raise ValidationError(
                "inputs_per_trial > 1 requires input_mode='random'",
                path=f"{path}.inputs_per_trial", value=inputs_per_trial,
            )
        return cls(
            trials=trials, seed=seed, size=size, sigma=sigma,
            input_mode=input_mode, inputs_per_trial=inputs_per_trial,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "size": self.size,
            "sigma": self.sigma,
            "input_mode": self.input_mode.value,
            "inputs_per_trial": self.inputs_per_trial,
        }


@dataclass(frozen=True)
class FaultsSpec:
    """Fault-injection campaign parameters."""

    networks: Tuple[str, ...] = ("crossbar",)
    modes: Tuple[FaultMode, ...] = (FaultMode.STUCK_MIXED,)
    rates: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05)
    trials: int = 8
    seed: int = 0
    size: int = 16
    device: DeviceModel = DeviceModel.IDEAL
    segment_resistance: float = 1.0

    _FIELDS = ("networks", "modes", "rates", "trials", "seed", "size",
               "device", "segment_resistance")

    @classmethod
    def from_dict(cls, data: Any, path: str = "faults") -> "FaultsSpec":
        data = _expect_mapping(data, path)
        _reject_unknown_keys(data, cls._FIELDS, path)
        networks = data.get("networks", list(cls.networks))
        if not isinstance(networks, (list, tuple)) or not networks:
            raise ValidationError(
                "must be a non-empty list of network specs",
                path=f"{path}.networks", value=networks,
            )
        for i, net in enumerate(networks):
            if not isinstance(net, str):
                raise ValidationError(
                    "network specs are strings ('crossbar' or "
                    "'mlp:a,b,...')", path=f"{path}.networks[{i}]",
                    value=net,
                )
        raw_modes = data.get(
            "modes", [m.value for m in cls.modes]
        )
        if not isinstance(raw_modes, (list, tuple)) or not raw_modes:
            raise ValidationError(
                "must be a non-empty list of fault modes",
                path=f"{path}.modes", value=raw_modes,
                allowed=[m.value for m in FaultMode],
            )
        modes = tuple(
            _expect_enum(FaultMode, m, f"{path}.modes[{i}]")
            for i, m in enumerate(raw_modes)
        )
        raw_rates = data.get("rates", list(cls.rates))
        if not isinstance(raw_rates, (list, tuple)) or not raw_rates:
            raise ValidationError(
                "must be a non-empty list of fault rates",
                path=f"{path}.rates", value=raw_rates,
            )
        rates = tuple(
            _expect_number(r, f"{path}.rates[{i}]", minimum=0.0)
            for i, r in enumerate(raw_rates)
        )
        spec = cls(
            networks=tuple(networks),
            modes=modes,
            rates=rates,
            trials=_expect_int(
                data.get("trials", cls.trials), f"{path}.trials", minimum=1
            ),
            seed=_expect_int(data.get("seed", cls.seed), f"{path}.seed"),
            size=_expect_int(
                data.get("size", cls.size), f"{path}.size", minimum=2
            ),
            device=_expect_enum(
                DeviceModel, data.get("device", cls.device.value),
                f"{path}.device",
            ),
            segment_resistance=_expect_number(
                data.get("segment_resistance", cls.segment_resistance),
                f"{path}.segment_resistance", minimum=0.0,
            ),
        )
        spec.to_campaign_spec()  # cross-field rules live in CampaignSpec
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "networks": list(self.networks),
            "modes": [m.value for m in self.modes],
            "rates": list(self.rates),
            "trials": self.trials,
            "seed": self.seed,
            "size": self.size,
            "device": self.device.value,
            "segment_resistance": self.segment_resistance,
        }

    def to_campaign_spec(self) -> CampaignSpec:
        # Loaded with the first faults payload, not with the schema.
        from repro.faults.campaign import CampaignSpec

        try:
            return CampaignSpec(
                networks=self.networks,
                fault_modes=tuple(m.value for m in self.modes),
                fault_rates=self.rates,
                trials=self.trials,
                seed=self.seed,
                size=self.size,
                device=self.device.value,
                segment_resistance=self.segment_resistance,
            )
        except ValidationError as exc:
            raise _reprefix(exc, "faults") from None
        except ConfigError as exc:
            raise ValidationError(str(exc), path="faults") from None


@dataclass(frozen=True)
class ExecutionSpec:
    """Engine knobs — the 6tisch-style ``execution`` block.

    ``min_sweep_for_parallel`` defaults to 16 for service jobs (tiny
    submissions run serially instead of paying pool dispatch), higher
    than the engine-wide default of 2.
    """

    jobs: int = 1
    chunk_size: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1
    min_sweep_for_parallel: int = 16

    _FIELDS = ("jobs", "chunk_size", "timeout", "retries",
               "min_sweep_for_parallel")

    @classmethod
    def from_dict(
        cls, data: Any, path: str = "execution"
    ) -> "ExecutionSpec":
        data = _expect_mapping(data, path)
        _reject_unknown_keys(data, cls._FIELDS, path)
        chunk_size = data.get("chunk_size")
        if chunk_size is not None:
            chunk_size = _expect_int(
                chunk_size, f"{path}.chunk_size", minimum=1
            )
        timeout = data.get("timeout")
        if timeout is not None:
            timeout = _expect_number(timeout, f"{path}.timeout")
            if timeout <= 0:
                raise ValidationError(
                    "must be positive when given",
                    path=f"{path}.timeout", value=timeout,
                )
        return cls(
            jobs=_expect_int(
                data.get("jobs", cls.jobs), f"{path}.jobs", minimum=0
            ),
            chunk_size=chunk_size,
            timeout=timeout,
            retries=_expect_int(
                data.get("retries", cls.retries), f"{path}.retries",
                minimum=0,
            ),
            min_sweep_for_parallel=_expect_int(
                data.get("min_sweep_for_parallel",
                         cls.min_sweep_for_parallel),
                f"{path}.min_sweep_for_parallel", minimum=2,
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "chunk_size": self.chunk_size,
            "timeout": self.timeout,
            "retries": self.retries,
            "min_sweep_for_parallel": self.min_sweep_for_parallel,
        }

    def to_policy(self) -> RunPolicy:
        return RunPolicy(
            jobs=self.jobs,
            chunk_size=self.chunk_size,
            timeout=self.timeout,
            retries=self.retries,
            min_sweep_for_parallel=self.min_sweep_for_parallel,
        )


# ----------------------------------------------------------------------
# The payload
# ----------------------------------------------------------------------
#: Which workload section each kind owns (``None`` = no section).
_KIND_SECTION = {
    PayloadKind.SIMULATE: None,
    PayloadKind.EXPLORE: "sweep",
    PayloadKind.MONTECARLO: "montecarlo",
    PayloadKind.FAULTS: "faults",
    PayloadKind.CAMPAIGN: "campaign",
}

#: Kinds that map a network through the accelerator hierarchy; faults
#: and montecarlo drive crossbars directly from their own sections.
_NETWORK_KINDS = (PayloadKind.SIMULATE, PayloadKind.EXPLORE)

_TOP_LEVEL_FIELDS = ("kind", "config", "network", "sweep", "montecarlo",
                     "faults", "campaign", "execution")


@dataclass(frozen=True)
class SimulationPayload:
    """One validated, content-addressable unit of service work."""

    kind: PayloadKind
    config: SimConfig = field(default_factory=SimConfig)
    network: Optional[NetworkSpec] = None
    sweep: Optional[SweepSpec] = None
    montecarlo: Optional[MonteCarloSpec] = None
    faults: Optional[FaultsSpec] = None
    # A validated repro.campaign.config.CampaignConfig (typed Any to
    # keep repro.campaign a lazy import — it imports this module).
    campaign: Optional[Any] = None
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    @classmethod
    def from_dict(cls, data: Any) -> "SimulationPayload":
        """Validate a JSON document into a payload (the only entrance).

        Raises :class:`~repro.errors.ValidationError` naming the first
        offending field; on success every engine structure the payload
        canonicalises into has already been constructed once, so the
        job runner cannot hit a configuration error later.
        """
        data = _expect_mapping(data, "")
        _reject_unknown_keys(data, _TOP_LEVEL_FIELDS, "")
        if "kind" not in data:
            raise ValidationError(
                "missing required field", path="kind",
                allowed=[k.value for k in PayloadKind],
            )
        kind = _expect_enum(PayloadKind, data["kind"], "kind")

        if kind is PayloadKind.CAMPAIGN:
            return cls._campaign_from_dict(data)

        config_data = data.get("config", {})
        _expect_mapping(config_data, "config")
        try:
            config = SimConfig.from_dict(dict(config_data))
        except ValidationError as exc:
            raise _reprefix(exc, "config") from None
        except ConfigError as exc:
            raise ValidationError(str(exc), path="config") from None

        # Network section: required by simulate/explore, rejected for
        # the crossbar-level kinds (inconsistent input never runs).
        network: Optional[NetworkSpec] = None
        if kind in _NETWORK_KINDS:
            if "network" not in data:
                raise ValidationError(
                    f"required for kind={kind.value!r}", path="network",
                )
            network = NetworkSpec.from_dict(data["network"])
        elif "network" in data:
            raise ValidationError(
                f"does not apply to kind={kind.value!r} (crossbar-level "
                "workloads define their own geometry)", path="network",
            )

        # Workload sections: exactly the declared kind's section may be
        # present; the others are rejected, not ignored.
        own_section = _KIND_SECTION[kind]
        for section in ("sweep", "montecarlo", "faults", "campaign"):
            if section in data and section != own_section:
                raise ValidationError(
                    f"does not apply to kind={kind.value!r}",
                    path=section,
                )
        sweep = montecarlo = faults = None
        if kind is PayloadKind.EXPLORE:
            sweep = SweepSpec.from_dict(data.get("sweep", {}))
        elif kind is PayloadKind.MONTECARLO:
            montecarlo = MonteCarloSpec.from_dict(data.get("montecarlo", {}))
        elif kind is PayloadKind.FAULTS:
            faults = FaultsSpec.from_dict(data.get("faults", {}))

        execution = ExecutionSpec.from_dict(data.get("execution", {}))
        return cls(
            kind=kind, config=config, network=network, sweep=sweep,
            montecarlo=montecarlo, faults=faults, execution=execution,
        )

    @classmethod
    def _campaign_from_dict(cls, data: Mapping[str, Any]) -> \
            "SimulationPayload":
        """Validate ``kind="campaign"`` — a whole study as one payload.

        A campaign file carries its own per-unit configuration and its
        own ``execution`` block, so every other top-level section is
        inconsistent input and rejected, not ignored.
        """
        for section in ("config", "network", "sweep", "montecarlo",
                        "faults"):
            if section in data:
                raise ValidationError(
                    "does not apply to kind='campaign' (campaign files "
                    "carry per-unit settings)", path=section,
                )
        if "execution" in data:
            raise ValidationError(
                "campaigns carry their own execution block "
                "(campaign.execution.numCPUs)", path="execution",
            )
        if "campaign" not in data:
            raise ValidationError(
                "required for kind='campaign'", path="campaign",
            )
        # Deferred import: repro.campaign.config imports this module.
        from repro.campaign.config import CampaignConfig

        campaign = CampaignConfig.from_dict(
            data["campaign"], path="campaign"
        )
        return cls(
            kind=PayloadKind.CAMPAIGN,
            campaign=campaign,
            execution=campaign.execution,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe form (fingerprints derive from this)."""
        if self.kind is PayloadKind.CAMPAIGN:
            return {
                "kind": self.kind.value,
                "campaign": self.campaign.to_dict(),
            }
        out: Dict[str, Any] = {
            "kind": self.kind.value,
            "config": self.config.to_dict(),
            "execution": self.execution.to_dict(),
        }
        if self.network is not None:
            out["network"] = self.network.to_dict()
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        if self.montecarlo is not None:
            out["montecarlo"] = self.montecarlo.to_dict()
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    def result_identity(self) -> Dict[str, Any]:
        """The fields that determine the *result* (execution excluded).

        Two payloads that differ only in engine knobs (worker count,
        chunking, timeouts) produce byte-identical results — the
        engine's schedule-independence guarantee — so they share one
        job id and dedupe onto the same cache rows.
        """
        if self.kind is PayloadKind.CAMPAIGN:
            # CampaignConfig.identity() already excludes engine knobs
            # (numCPUs / chunking / timeouts) from every unit.
            return {
                "kind": self.kind.value,
                "campaign": self.campaign.identity(),
            }
        identity = self.to_dict()
        del identity["execution"]
        return identity

    def fingerprint(self) -> str:
        """Deterministic content-addressed job id for this payload."""
        return content_key(PAYLOAD_SCHEMA, self.result_identity())

    def total_work(self) -> int:
        """Exact job count this payload expands into.

        Matches what the driver reports through its first
        ``progress(0, total)`` call — one job for ``simulate``, a trial
        per Monte-Carlo draw, a design point per sweep combination,
        a trial per network x mode x rate for fault campaigns — so the
        service can seed a job's ``total`` (and its ETA denominator)
        before any engine code runs.
        """
        if self.kind is PayloadKind.CAMPAIGN:
            return self.campaign.total_work()
        if self.kind is PayloadKind.EXPLORE:
            return len(self.sweep.to_design_space())
        if self.kind is PayloadKind.MONTECARLO:
            return self.montecarlo.trials
        if self.kind is PayloadKind.FAULTS:
            faults = self.faults
            return (
                len(faults.networks) * len(faults.modes)
                * len(faults.rates) * faults.trials
            )
        return 1

    def describe(self) -> str:
        """One-line human summary for logs and job listings."""
        if self.kind is PayloadKind.CAMPAIGN:
            return f"campaign:{self.campaign.name}"
        target = self.network.spec_string() if self.network else (
            ",".join(self.faults.networks) if self.faults else "crossbar"
        )
        return f"{self.kind.value}:{target}"


#: Fraction of validated payload kinds with a workload section — kept
#: here so a new PayloadKind member fails loudly until it is routed.
assert set(_KIND_SECTION) == set(PayloadKind)
