"""Base class and custom-module hook for circuit cost models."""

from __future__ import annotations

import abc

from repro.report import Performance


class CircuitModule(abc.ABC):
    """A circuit module with a behavior-level cost model.

    Subclasses capture their design parameters in ``__init__`` and derive
    all four metrics from the technology substrate in :meth:`performance`.
    ``performance()`` must be pure (idempotent, no state), so callers may
    cache its result freely.  A :class:`~repro.circuits.registry.
    ModuleRegistry` relies on this: it builds each distinct argument set
    once and runs ``performance()`` once per registry, sharing the
    module and its record across every bank and design point built on
    that registry.  Callers that need isolation pass a fresh registry.
    """

    #: Human-readable module kind, overridden by subclasses.
    kind: str = "module"

    @abc.abstractmethod
    def performance(self) -> Performance:
        """Return the module's area/energy/leakage/latency record."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r}>"


class CustomModule(CircuitModule):
    """A module whose costs are supplied directly by the user.

    This is the paper's cooperation interface (Sec. III.E.3-4): results from
    NVSim, a datasheet, or a publication (e.g. ISAAC's eDRAM buffer and
    S&H) can be dropped into any slot of the hierarchy by wrapping the
    published numbers in a :class:`CustomModule`.
    """

    kind = "custom"

    def __init__(self, name: str, performance: Performance) -> None:
        if not name:
            raise ValueError("custom module needs a non-empty name")
        self.name = name
        self._performance = performance

    def performance(self) -> Performance:
        """Return the user-supplied performance record verbatim."""
        return self._performance
