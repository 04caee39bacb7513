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

Validated payloads *are* the engine structures they run: ``config``
is a :class:`~repro.config.SimConfig`, the ``sweep`` section a
:class:`~repro.dse.space.DesignSpace`, ``execution`` a
:class:`~repro.runtime.pool.RunPolicy`, and the ``faults`` section the
engine's :class:`~repro.faults.models.FaultsSpec`.  Payloads carry a
deterministic content-addressed :meth:`SimulationPayload.fingerprint` —
the service's job id — derived from the same canonical serialization the
sqlite result cache keys on, so identical submissions dedupe end to end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.config import Declared, SimConfig, declare, dump, read
from repro.dse.space import SweepMode as SweepMode, SweepSpec
from repro.errors import ValidationError
from repro.faults.models import FaultsSpec
from repro.nn.networks import BUILTIN_NETWORKS, Network, mlp
from repro.runtime.jobs import content_key
from repro.runtime.pool import RunPolicy

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


class InputMode(enum.Enum):
    """Monte-Carlo input drive protocol."""

    RANDOM = "random"
    FULL = "full"


assert {t.value for t in NetworkTopology} == {"mlp", *BUILTIN_NETWORKS}, (
    "NetworkTopology enum drifted from nn.networks.BUILTIN_NETWORKS"
)

# ----------------------------------------------------------------------
# Sections: each field declared once, with its rules (repro.config)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkSpec(Declared):
    """A network topology selection (built-in name or parametric MLP)."""

    topology: NetworkTopology
    sizes: Optional[Tuple[int, ...]] = declare(
        None, minimum=1, omit_none=True
    )

    def _check(self) -> None:
        if self.topology is NetworkTopology.MLP:
            if self.sizes is None or len(self.sizes) < 2:
                raise ValidationError(
                    "mlp topology needs a list of >= 2 layer sizes",
                    path="sizes",
                    value=None if self.sizes is None else list(self.sizes),
                )
        elif self.sizes is not None:
            raise ValidationError(
                f"sizes only apply to the 'mlp' topology, not "
                f"{self.topology.value!r}", path="sizes",
                value=list(self.sizes),
            )

    def spec_string(self) -> str:
        """The CLI network-spec spelling (``mlp:a,b`` or a built-in)."""
        if self.topology is NetworkTopology.MLP:
            return "mlp:" + ",".join(str(s) for s in self.sizes or ())
        return self.topology.value

    def build(self) -> Network:
        """Materialise the :class:`~repro.nn.networks.Network`."""
        if self.topology is NetworkTopology.MLP:
            return mlp(list(self.sizes or ()), name=self.spec_string())
        return BUILTIN_NETWORKS[self.topology.value]()


@dataclass(frozen=True)
class MonteCarloSpec(Declared):
    """Monte-Carlo accuracy sampling parameters."""

    trials: int = declare(8, minimum=1)
    seed: int = 0
    size: Optional[int] = declare(None, minimum=2)
    sigma: Optional[float] = declare(None, minimum=0)
    input_mode: InputMode = InputMode.RANDOM
    inputs_per_trial: int = declare(1, minimum=1)

    def _check(self) -> None:
        if self.inputs_per_trial > 1 and self.input_mode is not \
                InputMode.RANDOM:
            raise ValidationError(
                "inputs_per_trial > 1 requires input_mode='random'",
                path="inputs_per_trial", value=self.inputs_per_trial,
            )


@dataclass(frozen=True)
class ExecutionSpec(RunPolicy):
    """Engine knobs — the 6tisch-style ``execution`` block.

    It is the :class:`~repro.runtime.pool.RunPolicy` a job runs under;
    only ``min_sweep_for_parallel`` defaults higher for service jobs
    (16 against the engine's 2), so tiny submissions run serially
    instead of paying pool dispatch.
    """

    min_sweep_for_parallel: int = 16


# ----------------------------------------------------------------------
# The payload
# ----------------------------------------------------------------------
#: Per kind: the sections it must carry, then the ones it may carry.
_KIND_SECTIONS = {
    PayloadKind.SIMULATE: (("network",), ("config", "execution")),
    PayloadKind.EXPLORE: (("network",), ("sweep", "config", "execution")),
    PayloadKind.MONTECARLO: ((), ("montecarlo", "config", "execution")),
    PayloadKind.FAULTS: ((), ("faults", "config", "execution")),
    PayloadKind.CAMPAIGN: (("campaign",), ()),
}

#: The workload sections a kind gets at their defaults when absent.
_DEFAULT_SECTIONS = {
    "sweep": SweepSpec, "montecarlo": MonteCarloSpec, "faults": FaultsSpec,
}


@dataclass(frozen=True)
class SimulationPayload:
    """One validated, content-addressable unit of service work."""

    kind: PayloadKind
    config: SimConfig = field(default_factory=SimConfig)
    network: Optional[NetworkSpec] = declare(None, omit_none=True)
    sweep: Optional[SweepSpec] = declare(None, omit_none=True)
    montecarlo: Optional[MonteCarloSpec] = declare(None, omit_none=True)
    faults: Optional[FaultsSpec] = declare(None, omit_none=True)
    # A validated repro.campaign.config.CampaignConfig (typed Any to
    # keep repro.campaign a lazy import — it imports this module).
    campaign: Optional[Any] = declare(None, omit_none=True)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    @classmethod
    def from_dict(cls, data: Any) -> "SimulationPayload":
        """Validate a JSON document into a payload (the only entrance).

        Raises :class:`~repro.errors.ValidationError` naming the first
        offending field; on success every engine structure the payload
        canonicalises into has already been constructed once, so the
        job runner cannot hit a configuration error later.  Each kind
        owns its sections: a section that does not belong to the
        declared kind is rejected as inconsistent, not ignored.
        """
        values = read(cls, data)
        kind = values.pop("kind")
        required, optional = _KIND_SECTIONS[kind]
        for name in values:
            if name not in required and name not in optional:
                raise ValidationError(
                    f"does not apply to kind={kind.value!r}", path=name,
                    allowed=required + optional,
                )
        for name in required:
            if name not in values:
                raise ValidationError(
                    f"required for kind={kind.value!r}", path=name,
                )
        for name, value in values.items():
            # A section is optional by being absent, never by null.
            if value is None:
                raise ValidationError(
                    "must be a JSON object", path=name, value=None,
                )
        if kind is PayloadKind.CAMPAIGN:
            # Deferred import: repro.campaign.config imports this module.
            from repro.campaign.config import CampaignConfig

            campaign = CampaignConfig.from_dict(
                values["campaign"], path="campaign"
            )
            return cls(kind=kind, campaign=campaign,
                       execution=campaign.execution)
        for name in optional:
            if name in _DEFAULT_SECTIONS and name not in values:
                values[name] = _DEFAULT_SECTIONS[name]()
        return cls(kind=kind, **values)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe form (fingerprints derive from this).

        Campaign payloads have none: their canonical form is
        :meth:`result_identity`.
        """
        return dump(self)

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
            return len(self.sweep)
        if self.kind is PayloadKind.MONTECARLO:
            return self.montecarlo.trials
        if self.kind is PayloadKind.FAULTS:
            faults = self.faults
            return (
                len(faults.networks) * len(faults.fault_modes)
                * len(faults.fault_rates) * faults.trials
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


#: Kept here so a new PayloadKind member fails loudly until it is routed.
assert set(_KIND_SECTIONS) == set(PayloadKind)
