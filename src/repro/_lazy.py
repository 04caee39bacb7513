"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names by defining module, and
nothing is imported until a name is first read.  A cold process then
loads only the modules its command runs: ``import repro.cli`` no
longer pulls in every layer through the package ``__init__`` chain.
``from repro import SimConfig``, ``repro.SimConfig`` and ``import *``
all go through the package's ``__getattr__`` and keep working.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Dict, List, Sequence


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, Sequence[str]]
) -> List[str]:
    """Resolve ``table`` on first attribute access of a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    defining module to the names the package re-exports from it.
    Installs the module-level ``__getattr__`` and ``__dir__`` and
    returns the names, in table order, for the package's ``__all__``.
    A name is looked up in its defining module on every access, so the
    package holds no stale binding of a function rebound there (a name
    that shadows its own submodule, below, is bound once, as before).
    """
    origin = {
        name: module for module, names in table.items() for name in names
    }
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(module), name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    # A name exported from the submodule it names (``repro.nn.quantize``
    # the function, from ``repro.nn.quantize`` the module): importing
    # that submodule binds the module over the name, so re-bind the
    # export, as an eager ``from`` import right after it would.
    shadowed = {
        name for name, module in origin.items()
        if module == f"{package}.{name}"
    }
    if shadowed:
        class Package(ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = Package
    return list(origin)
