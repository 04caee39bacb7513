"""Declarative campaign files: versioned JSON/TOML study definitions.

The file format follows the 6tisch-simulator config shape
(SNIPPETS.md #3): a ``version`` stamp, an ``execution`` block with
``numCPUs`` / ``numRuns``, a ``settings`` block holding the ``regular``
(base) parameters plus ``combination`` sweeps, and ``post`` hooks::

    {
      "version": 0,
      "name": "fault-study",
      "execution": {"numCPUs": 2, "numRuns": 2},
      "settings": {
        "regular": {
          "kind": "faults",
          "faults": {"modes": ["stuck_mixed"], "rates": [0, 0.05],
                     "trials": 3, "seed": 7, "size": 8}
        },
        "combination": {"faults.size": [8, 16]}
      },
      "post": ["summary"]
    }

``combination`` maps dotted payload paths to value lists; the campaign
expands their cartesian product (key order as written — both the
strict JSON parser and TOML preserve it), overlays each combination on
``regular``, and runs every combination ``numRuns`` times with the
kind's seed advanced per run (``seed + run``).  Every expanded unit is
validated **upfront** through
:class:`~repro.service.schema.SimulationPayload` — the AsyncFlow
stance (SNIPPETS.md #2): a campaign the runner does not fully
understand must never start.  All rejections are path-addressed
:class:`~repro.errors.ValidationError`\\ s
(``settings.combination.faults.size[1]: must be an integer``).

JSON files are parsed with :func:`repro.jsonio.loads_strict` (duplicate
keys rejected with a path); TOML rides on :mod:`tomllib` where
available (Python 3.11+) and fails with a clear error elsewhere — TOML
rejects duplicate keys natively.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.config import Declared, declare
from repro.errors import ConfigError, ValidationError
from repro.jsonio import loads_strict
from repro.runtime.jobs import content_key
from repro.service.schema import ExecutionSpec, PayloadKind, SimulationPayload

__all__ = ["CampaignConfig", "CampaignUnit", "POST_HOOKS",
           "CAMPAIGN_FILE_VERSION", "CAMPAIGN_SCHEMA"]

#: The only accepted ``version`` value; bump on breaking format changes.
CAMPAIGN_FILE_VERSION = 0

#: Stamp folded into campaign fingerprints and stage cache keys.
CAMPAIGN_SCHEMA = "repro-campaign-v1"

#: Built-in post-processing hooks (see :mod:`repro.campaign.runner`).
POST_HOOKS = ("summary",)

#: Where each payload kind keeps its per-run seed; kinds missing here
#: are deterministic per run, so ``numRuns > 1`` is rejected for them.
_SEED_PATHS = {
    PayloadKind.MONTECARLO: ("montecarlo", "seed"),
    PayloadKind.FAULTS: ("faults", "seed"),
}


# ----------------------------------------------------------------------
# The file's blocks, declared (repro.config)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignExecution(ExecutionSpec):
    """The ``execution`` block: the payload's engine knobs under the
    6tisch ``numCPUs`` spelling, plus ``numRuns``."""

    jobs: int = declare(1, key="numCPUs")
    num_runs: int = declare(1, key="numRuns", minimum=1)

    def engine(self) -> ExecutionSpec:
        """The engine knobs alone, as every unit payload carries them."""
        return ExecutionSpec(**{
            spec.name: getattr(self, spec.name)
            for spec in fields(ExecutionSpec)
        })


@dataclass(frozen=True)
class CampaignSettings(Declared):
    """The ``settings`` block: the base payload and its sweeps."""

    regular: Dict[str, Any]
    combination: Dict[str, Any] = declare(factory=dict)

    def _check(self) -> None:
        if "execution" in self.regular:
            raise ValidationError(
                "campaign execution lives in the top-level 'execution' "
                "block, not inside settings.regular",
                path="regular.execution",
            )
        if self.regular.get("kind") == "campaign":
            raise ValidationError(
                "campaigns cannot nest campaigns",
                path="regular.kind", value="campaign",
            )
        for key, values in self.combination.items():
            where = f"combination.{key}"
            if not isinstance(key, str) or not key or any(
                not segment for segment in key.split(".")
            ):
                raise ValidationError(
                    "combination keys are dotted payload paths "
                    "(e.g. 'faults.size')", path=where, value=key,
                )
            if not isinstance(values, (list, tuple)) or not values:
                raise ValidationError(
                    "must be a non-empty list of candidate values",
                    path=where, value=values,
                )


@dataclass(frozen=True)
class CampaignFile(Declared):
    """A whole campaign file, before its units are expanded."""

    version: int
    name: str
    settings: CampaignSettings
    execution: CampaignExecution = declare(factory=CampaignExecution)
    post: Tuple[str, ...] = ()

    def _check(self) -> None:
        if self.version != CAMPAIGN_FILE_VERSION:
            raise ValidationError(
                "unsupported campaign file version", path="version",
                value=self.version, allowed=[CAMPAIGN_FILE_VERSION],
            )
        if not self.name.strip():
            raise ValidationError(
                "campaigns need a non-empty name", path="name",
                value=self.name,
            )
        for index, hook in enumerate(self.post):
            if hook not in POST_HOOKS:
                raise ValidationError(
                    "unknown post hook", path=f"post[{index}]", value=hook,
                    allowed=list(POST_HOOKS),
                )
            if hook in self.post[:index]:
                raise ValidationError(
                    "post hook listed twice", path=f"post[{index}]",
                    value=hook,
                )


@dataclass(frozen=True)
class CampaignUnit:
    """One expanded unit of work: a combination at one run index."""

    stage: str
    combo_index: int
    run: int
    combination: Mapping[str, Any]
    seed: Optional[int]
    payload: SimulationPayload


@dataclass(frozen=True)
class CampaignConfig:
    """A fully validated campaign: spec echo plus expanded units."""

    version: int
    name: str
    num_runs: int
    execution: ExecutionSpec
    regular: Mapping[str, Any]
    combination: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    post: Tuple[str, ...]
    units: Tuple[CampaignUnit, ...]

    # -- construction --------------------------------------------------
    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        """Load and validate a campaign file (``.json`` or ``.toml``)."""
        file_path = Path(path)
        try:
            text = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"cannot read campaign file {path!r}: {exc}"
            ) from exc
        if file_path.suffix.lower() == ".toml":
            data = _parse_toml(text, path)
        else:
            try:
                data = loads_strict(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"campaign file {path!r} is not valid JSON: {exc}"
                ) from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: Any, path: str = "") -> "CampaignConfig":
        """Validate a campaign document (the only entrance).

        ``path`` prefixes every error path (the service embeds campaign
        documents under its ``campaign`` payload section).
        """
        try:
            spec = CampaignFile.from_dict(data)
            execution = spec.execution.engine()
            combination = tuple(
                (key, tuple(values))
                for key, values in spec.settings.combination.items()
            )
            units = _expand_units(
                spec.settings.regular, combination,
                spec.execution.num_runs, execution,
            )
        except ValidationError as exc:
            raise exc.within(path) from None
        return cls(
            version=spec.version,
            name=spec.name.strip(),
            num_runs=spec.execution.num_runs,
            execution=execution,
            regular=spec.settings.regular,
            combination=combination,
            post=spec.post,
            units=units,
        )

    # -- canonical forms -----------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """Result-determining content only — engine knobs excluded.

        Two campaigns that differ solely in ``numCPUs`` / chunking /
        timeouts expand to identical units and must share a
        fingerprint (the engine's schedule-independence guarantee);
        the identity is therefore built from the expanded units'
        :meth:`~repro.service.schema.SimulationPayload.result_identity`.
        """
        return {
            "schema": CAMPAIGN_SCHEMA,
            "version": self.version,
            "name": self.name,
            "num_runs": self.num_runs,
            "post": list(self.post),
            "units": [
                {
                    "stage": unit.stage,
                    "combination": dict(unit.combination),
                    "run": unit.run,
                    "seed": unit.seed,
                    "payload": unit.payload.result_identity(),
                }
                for unit in self.units
            ],
        }

    def fingerprint(self) -> str:
        return content_key(CAMPAIGN_SCHEMA, self.identity())

    def total_work(self) -> int:
        """Engine jobs across all units (the progress denominator)."""
        return sum(unit.payload.total_work() for unit in self.units)

    def describe(self) -> str:
        return (
            f"campaign:{self.name} ({len(self.units)} units, "
            f"{self.total_work()} jobs)"
        )


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
def _parse_toml(text: str, path: str) -> Any:
    try:
        import tomllib
    except ImportError:  # Python < 3.11: no stdlib TOML, no new deps.
        raise ConfigError(
            f"cannot load {path!r}: TOML campaign files need Python "
            "3.11+ (stdlib tomllib); use the JSON form instead"
        ) from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(
            f"campaign file {path!r} is not valid TOML: {exc}"
        ) from None


# ----------------------------------------------------------------------
# Unit expansion
# ----------------------------------------------------------------------
def _deep_copy_json(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {key: _deep_copy_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_copy_json(item) for item in value]
    return value


def _set_path(
    doc: Dict[str, Any], dotted: str, value: Any, error_path: str
) -> None:
    """Overlay ``value`` at ``dotted`` (creating mappings as needed)."""
    segments = dotted.split(".")
    node = doc
    for segment in segments[:-1]:
        child = node.get(segment)
        if child is None:
            child = node[segment] = {}
        elif not isinstance(child, dict):
            raise ValidationError(
                f"path segment {segment!r} does not address an object "
                "in settings.regular", path=error_path, value=dotted,
            )
        node = child
    node[segments[-1]] = _deep_copy_json(value)


def _validate_unit(
    doc: Dict[str, Any], execution: ExecutionSpec
) -> SimulationPayload:
    """Validate one expanded unit document into a payload.

    Errors are re-addressed under ``settings.regular`` — the campaign
    file location the offending value (base or combination overlay)
    landed in.
    """
    merged = dict(doc)
    merged["execution"] = execution.to_dict()
    try:
        return SimulationPayload.from_dict(merged)
    except ValidationError as exc:
        raise exc.within("settings.regular") from None


def _seed_of(payload: SimulationPayload) -> Optional[int]:
    if payload.kind is PayloadKind.MONTECARLO:
        return payload.montecarlo.seed
    if payload.kind is PayloadKind.FAULTS:
        return payload.faults.seed
    return None


def _expand_units(
    regular: Dict[str, Any],
    combination: Tuple[Tuple[str, Tuple[Any, ...]], ...],
    num_runs: int,
    execution: ExecutionSpec,
) -> Tuple[CampaignUnit, ...]:
    keys = [key for key, _values in combination]
    value_lists = [values for _key, values in combination]
    combos = (
        list(itertools.product(*value_lists)) if combination else [()]
    )
    units: List[CampaignUnit] = []
    for combo_index, chosen in enumerate(combos):
        doc = _deep_copy_json(regular)
        overlay = dict(zip(keys, chosen))
        for key, value in overlay.items():
            _set_path(
                doc, key, value, f"settings.combination.{key}"
            )
        base_payload = _validate_unit(doc, execution)
        base_seed = _seed_of(base_payload)
        if num_runs > 1 and base_payload.kind not in _SEED_PATHS:
            raise ValidationError(
                f"kind {base_payload.kind.value!r} is deterministic per "
                "run (no seed to advance); numRuns must be 1",
                path="execution.numRuns", value=num_runs,
            )
        for run in range(num_runs):
            if num_runs == 1:
                payload, seed = base_payload, base_seed
            else:
                section, field_name = _SEED_PATHS[base_payload.kind]
                seed = base_seed + run
                run_doc = _deep_copy_json(doc)
                _set_path(
                    run_doc, f"{section}.{field_name}", seed,
                    "execution.numRuns",
                )
                payload = _validate_unit(run_doc, execution)
            units.append(CampaignUnit(
                stage=f"unit-{combo_index:03d}-run-{run}",
                combo_index=combo_index,
                run=run,
                combination=overlay,
                seed=seed,
                payload=payload,
            ))
    return tuple(units)
