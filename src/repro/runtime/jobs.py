"""Deterministic job identities for the simulation engine.

A *job* is one independent unit of sweep work (one design point, one
Monte-Carlo trial).  :class:`JobSpec` pairs the picklable payload a
worker consumes with a deterministic content-hash **key** computed from
a canonical serialization of the job's inputs.  Two jobs with the same
key are guaranteed to produce the same result, which is what makes the
on-disk cache (:mod:`repro.runtime.cache`) safe.

Keys fold in :data:`SCHEMA_VERSION`; bump it whenever the meaning of a
cached result changes (new metric, changed model equations) and every
stale cache entry invalidates itself automatically.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass
from typing import Any, Optional

#: Version stamp folded into every job key and cache row.  Bump on any
#: change to result semantics (summary fields, model equations, ...).
#: v2: canonical() float/dict-key fixes changed some serializations
#: (-0.0, non-finite floats, mixed-type dict keys), so v1 rows must not
#: be replayed against the new keys.
SCHEMA_VERSION = "runtime-v2"

#: SHA-256 of ``benchmarks/perf/expected/digests.json``, the pinned
#: output digests of every benchmark op.  Goldens that change mean
#: results changed, so a cached row may be stale: bump
#: :data:`SCHEMA_VERSION` and record the new hash here together.
GOLDENS_SHA256 = (
    "faa4ef42607352dc7da857d5081e0a5b464f7671ba76dc207f54ff37555554b2"
)

#: Leaf types :func:`canonical` returns unchanged (matched exactly).
_PLAIN_TYPES = (str, int, bool, type(None))


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-safe form with deterministic ordering.

    Handles the input vocabulary of the simulators: dataclasses (tagged
    with their class name so distinct types never collide), enums,
    tuples/lists, dicts (keys sorted), numbers, strings, booleans and
    ``None``.  Equal values must canonicalise equally: ``-0.0`` folds
    into ``0.0`` (they compare equal, but JSON spells them apart), and
    non-finite floats become tagged dicts — JSON has no literal for
    them, and a bare ``"nan"`` string would collide with a genuine
    string of the same spelling.
    """
    # Exact types only: an IntEnum or str-Enum must reach its branch.
    if type(value) in _PLAIN_TYPES:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            name: canonical(getattr(value, name))
            for name in sorted(f.name for f in dataclasses.fields(value))
        }
        fields["__type__"] = type(value).__name__
        return fields
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        # Sort by the *stringified* key so mixed-type keys (int + str)
        # cannot crash the comparison; insertion order never leaks in.
        return {
            key: item
            for key, item in sorted(
                (str(k), canonical(v)) for k, v in value.items()
            )
        }
    if isinstance(value, (tuple, list)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        if value == 0.0:
            return 0.0  # fold -0.0 (== 0.0) into one spelling
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    # numpy scalars and other number-likes reduce via item()/float().
    item = getattr(value, "item", None)
    if callable(item):
        return canonical(item())
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for a job key"
    )


#: The one encoder behind every canonical serialization: compact JSON
#: with sorted keys.  Encoding keeps no state between calls.  Apply it
#: only to :func:`canonical` output.
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical serialization: compact JSON with sorted keys."""
    return CANONICAL_ENCODER.encode(canonical(value))


def key_of_json(*encoded: str) -> str:
    """The job key framing over already-serialized parts.

    SHA-256 of :data:`SCHEMA_VERSION`, then each part's UTF-8 bytes
    behind a ``\\x00`` separator.  Each part must be the
    :func:`canonical_json` of a value; callers that derive many keys
    from one base (a sweep) serialize the parts themselves.
    """
    import hashlib  # loads OpenSSL; an uncached sweep derives no key

    # SCHEMA_VERSION is ASCII, so this is its bytes, then each part's
    # UTF-8 behind a NUL, hashed in one call.
    framed = "\x00".join((SCHEMA_VERSION, *encoded))
    return hashlib.sha256(framed.encode("utf-8")).hexdigest()


def content_key(*parts: Any) -> str:
    """SHA-256 content hash of ``parts`` plus :data:`SCHEMA_VERSION`.

    The parts are canonically serialized, so key stability only depends
    on the *values* — not on dict insertion order, tuple vs. list
    spelling, or enum identity.
    """
    encoded = [canonical_json(part) for part in parts]
    return key_of_json(*encoded)


def network_fingerprint(network: Any) -> str:
    """Short stable fingerprint of a network topology.

    Folds the name, network type and every layer's shape parameters, so
    any structural change yields a different cache key.
    """
    import hashlib

    return hashlib.sha256(
        canonical_json(network).encode("utf-8")
    ).hexdigest()[:16]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work for :func:`repro.runtime.pool.run_jobs`.

    Attributes
    ----------
    kind:
        Job family tag (e.g. ``"simulate-point"``); recorded in the
        cache so operators can attribute entries.
    payload:
        The picklable value handed to the worker function.
    key:
        Deterministic content hash (see :func:`content_key`); ``None``
        marks the job as uncacheable.  The sweep drivers derive keys
        only when a result cache is attached, since nothing else
        reads them.
    """

    kind: str
    payload: Any
    key: Optional[str] = None
