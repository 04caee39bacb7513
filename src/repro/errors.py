"""Exception hierarchy for the MNSIM reproduction.

All library-specific errors derive from :class:`MnsimError` so callers can
catch a single base class.  Each subclass corresponds to one stage of the
simulation flow:

* configuration parsing / validation -> :class:`ConfigError`
* field-addressed input validation -> :class:`ValidationError`
* technology lookup -> :class:`TechnologyError`
* mapping a network onto crossbars -> :class:`MappingError`
* circuit-level solving -> :class:`SolverError`
* design-space exploration -> :class:`ExplorationError`
* parallel job execution -> :class:`JobExecutionError`
* cooperative job cancellation -> :class:`JobCancelled`
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple


class MnsimError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(MnsimError, ValueError):
    """An invalid or inconsistent configuration value was supplied."""


#: Sentinel distinguishing "no offending value recorded" from ``None``
#: (which is itself a perfectly reportable offending value).
_UNSET = object()


class ValidationError(ConfigError):
    """A structured, field-addressed input-validation failure.

    Carries machine-readable context alongside the human message so the
    CLI and the HTTP service report malformed input identically:

    * ``path`` — dotted address of the offending field (e.g.
      ``"montecarlo.trials"`` or ``"config.crossbar_size"``);
    * ``value`` — the offending value as supplied (when recorded);
    * ``allowed`` — the accepted vocabulary, for enum-like fields.

    Subclasses :class:`ConfigError`, so every existing ``except
    ConfigError`` site (and the CLI's exit code 2) keeps working.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str = "",
        value: Any = _UNSET,
        allowed: Optional[Sequence[Any]] = None,
    ) -> None:
        self.message = message
        self.path = path
        self.value = None if value is _UNSET else value
        self.has_value = value is not _UNSET
        self.allowed: Optional[Tuple[Any, ...]] = (
            tuple(allowed) if allowed is not None else None
        )
        parts = [f"{path}: {message}" if path else message]
        if value is not _UNSET:
            parts.append(f"(got {value!r})")
        if self.allowed is not None:
            parts.append(f"(allowed: {list(self.allowed)})")
        super().__init__(" ".join(parts))

    def within(self, prefix: str) -> "ValidationError":
        """The same error addressed under the section path ``prefix``."""
        if not prefix:
            return self
        kwargs: Dict[str, Any] = {"allowed": self.allowed}
        if self.has_value:
            kwargs["value"] = self.value
        path = f"{prefix}.{self.path}" if self.path else prefix
        return ValidationError(self.message, path=path, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form used by the service's error responses."""
        out: Dict[str, Any] = {"message": str(self), "path": self.path}
        if self.has_value:
            out["value"] = _json_safe(self.value)
        if self.allowed is not None:
            out["allowed"] = [_json_safe(item) for item in self.allowed]
        return out


def _json_safe(value: Any) -> Any:
    """Best-effort reduction of an offending value for a JSON error."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


class TechnologyError(MnsimError, KeyError):
    """An unknown technology node, device, or module was requested."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable.
        return Exception.__str__(self)


class MappingError(MnsimError, ValueError):
    """A network layer cannot be mapped onto the configured hardware."""


class SolverError(MnsimError, RuntimeError):
    """The circuit-level solver failed to converge or was mis-specified."""


class ExplorationError(MnsimError, RuntimeError):
    """Design-space exploration found no design satisfying the constraints."""


class JobExecutionError(MnsimError, RuntimeError):
    """A simulation job failed (crash/timeout) after exhausting retries.

    Raised by :func:`repro.runtime.pool.run_jobs` with a summarized,
    traceback-free message so CLIs can report it cleanly.
    """


class JobCancelled(MnsimError, RuntimeError):
    """A run was cancelled cooperatively via its ``should_cancel`` hook.

    Raised by :func:`repro.runtime.pool.run_jobs` between jobs/chunks
    when the caller-supplied predicate turns true; partial results are
    discarded and nothing is written to the cache for pending jobs.
    """
