"""Module registry: the customization hook of Sec. III.E / Sec. IV.A.

The hierarchy builders (:mod:`repro.arch`) resolve every reference module
through a :class:`ModuleRegistry`.  Users customize a design by overriding
slots with their own factories or with fixed published numbers (a
:class:`~repro.circuits.base.CustomModule`), without changing the
simulation flow — exactly the red-dotted-line path of Fig. 3.

Slot names used by the reference design:

``crossbar``, ``row_decoder``, ``col_decoder``, ``dac``, ``read_circuit``,
``column_mux``, ``subtractor``, ``adder_tree``, ``shift_add``, ``neuron``,
``pooling``, ``pooling_buffer``, ``output_buffer``, ``input_interface``,
``output_interface``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Tuple, TypeVar

from repro.circuits.base import CircuitModule, CustomModule
from repro.errors import ConfigError
from repro.report import Performance

ModuleFactory = Callable[..., CircuitModule]
Piece = TypeVar("Piece")


class ModuleRegistry:
    """Maps hierarchy slot names to circuit-module factories.

    A factory receives the keyword arguments the hierarchy builder passes
    for that slot (documented on each builder) and returns a
    :class:`CircuitModule`.  Overriding a slot replaces the reference
    design for every place that slot is instantiated.

    Factories and ``performance()`` run once per distinct argument set
    per registry: a later :meth:`build` of the same slot, factory and
    kwargs returns the same module and its first record.  This relies
    on the purity contract of :class:`CircuitModule`; callers that need
    isolation pass a fresh registry.  The memo key holds the resolved
    factory, so overrides and removals apply from the next build.

    The hierarchy builders also keep the composite pieces a design
    sweep repeats here (:meth:`piece`): a computation unit with its
    COMPUTE record, and a bank's layer mapping, tail modules and
    merge/neuron pass records.  A piece key must hold every input the
    piece reads.  The configuration fields a sweep does not vary enter
    it as one small int (:meth:`token`); the arch builders add the
    swept values they read (crossbar size, wire node, effective
    parallelism, tile shape, layers).  Pieces hold modules built from
    the factories of their day, so :meth:`override`, :meth:`remove`
    and :meth:`restore` drop them all.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, ModuleFactory] = {}
        self._removed: set = set()
        self._built: Dict[tuple, CircuitModule] = {}
        self._pieces: Dict[Hashable, Any] = {}
        self._tokens: Dict[Hashable, int] = {}
        self._last_token: Tuple[Any, int] = (None, -1)

    def override(self, slot: str, factory: ModuleFactory) -> None:
        """Install ``factory`` for ``slot`` (replacing any previous one)."""
        if not callable(factory):
            raise ConfigError(f"factory for slot {slot!r} must be callable")
        self._removed.discard(slot)
        self._factories[slot] = factory
        self._pieces.clear()

    def override_fixed(self, slot: str, performance: Performance) -> None:
        """Pin ``slot`` to fixed published numbers (NVSim/ISAAC import)."""
        self.override(slot, lambda **_kwargs: CustomModule(slot, performance))

    def remove(self, slot: str) -> None:
        """Eliminate ``slot`` entirely (e.g. DAC-free designs [24], [30]).

        The builder will substitute a zero-cost module.
        """
        self._factories.pop(slot, None)
        self._removed.add(slot)
        self._pieces.clear()

    def restore(self, slot: str) -> None:
        """Undo an override or removal, restoring the reference design."""
        self._factories.pop(slot, None)
        self._removed.discard(slot)
        self._pieces.clear()

    def is_removed(self, slot: str) -> bool:
        """True if the slot was eliminated via :meth:`remove`."""
        return slot in self._removed

    def build(
        self, slot: str, default: ModuleFactory, **kwargs
    ) -> CircuitModule:
        """Instantiate ``slot`` using the override, removal, or ``default``."""
        if slot in self._removed:
            return CustomModule(f"{slot} (removed)", Performance())
        factory = self._factories.get(slot, default)
        key = (slot, factory, tuple(kwargs.items()))
        module = self._built.get(key)
        if module is None:
            module = self._built[key] = _evaluate_once(factory(**kwargs))
        return module

    def token(self, owner: Any, invariant: Callable[[Any], Hashable]) -> int:
        """A small int standing for ``invariant(owner)`` in piece keys.

        Equal invariants get one token for the registry's life.  The
        last owner's token is kept, so the banks of one accelerator,
        which share its configuration object, derive the token once.
        """
        last, token = self._last_token
        if owner is last:
            return token
        token = self._tokens.setdefault(invariant(owner), len(self._tokens))
        self._last_token = (owner, token)
        return token

    def piece(
        self, key: Hashable, make: Callable[..., Piece], *args: Any
    ) -> Piece:
        """The composite piece under ``key``: ``make(*args)`` on first use."""
        piece = self._pieces.get(key)
        if piece is None:
            piece = self._pieces[key] = make(*args)
        return piece

    def copy(self) -> "ModuleRegistry":
        """Shallow copy: factories shared, override sets and memos not."""
        clone = ModuleRegistry()
        clone._factories = dict(self._factories)
        clone._removed = set(self._removed)
        return clone


def _evaluate_once(module: CircuitModule) -> CircuitModule:
    """Make ``module.performance()`` return its first record thereafter."""
    evaluate = module.performance

    def performance() -> Performance:
        record = evaluate()
        module.performance = lambda: record
        return record

    try:
        module.performance = performance
    except AttributeError:  # frozen or slotted: built once, costed per call
        pass
    return module
