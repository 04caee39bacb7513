"""Whole-project semantic index: symbols, imports, call graph, taint.

The per-module rules (R1-R5) judge one :class:`~repro.analysis.core.
ModuleInfo` at a time, which is exactly why the PR 6 ``events_since``
bare-``Condition.wait`` bug and cross-module wall-clock leaks survived
review: the evidence for those bugs spans *methods* and *modules*.
This module builds the shared substrate the project-scoped rules
(R7-R9, ``needs_graph = True``) reason over:

* a **symbol table** per module — top-level functions, classes with
  their methods and base-class expressions, and nested functions
  (qualified ``module.outer.<locals>.inner``-free: plain dotted
  ``module.Class.method`` / ``module.func.nested``);
* **import resolution** restricted to the analyzed universe plus
  literal dotted names for external targets (``from http.server
  import ThreadingHTTPServer`` resolves the alias to
  ``http.server.ThreadingHTTPServer`` even though stdlib modules are
  never parsed);
* a **call graph**: for every function/method, each call site is kept
  with its dotted callee chain and — where the chain resolves inside
  the project — the target's qualified name.  Resolved forms:
  bare-name calls to module-level functions (defined here or
  imported), dotted calls through module aliases, ``self.method``
  calls (including methods inherited from project base classes), and
  class instantiations (edge to ``Class.__init__`` when one is
  defined, plus a ``kind="class"`` tag for lifecycle rules);
* hop-bounded **reachability** over call edges, forwards (callees)
  and backwards (callers) — the substrate of the R9 determinism-taint
  query ("does this wall-clock read meet a cache-key sink within 3
  hops?").

Deliberate resolution limits (documented in DESIGN.md S25): no data
flow through variables (``f = self.run; f()`` is unresolved), no
resolution through containers or higher-order callbacks
(``progress=progress`` creates no edge), and attribute calls on
non-``self`` objects resolve only when the receiver is an imported
module alias.  Unresolvable call sites keep their dotted chain so
rules can still match well-known names (``canonical``,
``fingerprint``) by suffix.

The index build is pure and cached by the core pass
(:func:`repro.analysis.core.analyze_paths` builds it once per run and
hands the same instance to every graph rule); ``build_seconds`` is
recorded for the CI wall-time guard.
"""

from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import ModuleInfo

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ProjectIndex",
    "build_index",
]


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``chain`` is the dotted callee (``("self", "_finish")``); ``target``
    is the project-qualified name it resolves to, or None.  ``kind`` is
    ``"class"`` when the target is a class (an instantiation).
    """

    node: ast.Call
    chain: Optional[Tuple[str, ...]]
    target: Optional[str] = None
    kind: str = "function"


@dataclass
class FunctionInfo:
    """A function or method in the project, with its call sites."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class qualname, if a method
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """A class definition: methods by name, base expressions resolved
    to project qualnames where possible, else kept as dotted text."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """The queryable whole-project index (see module docstring)."""

    def __init__(self, infos: Sequence[ModuleInfo]) -> None:
        start = time.perf_counter()
        self.modules: Dict[str, ModuleInfo] = {
            info.module: info for info in infos
        }
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: module -> local alias -> dotted target (project or external)
        self._aliases: Dict[str, Dict[str, str]] = {}
        for info in self.modules.values():
            self._collect_symbols(info)
        for info in self.modules.values():
            self._collect_aliases(info)
        for function in self.functions.values():
            self._collect_calls(function)
        self._callers: Dict[str, Set[str]] = {}
        for function in self.functions.values():
            for call in function.calls:
                if call.target in self.functions:
                    self._callers.setdefault(
                        call.target, set()
                    ).add(function.qualname)
        self.build_seconds = time.perf_counter() - start

    # -- construction --------------------------------------------------
    def _collect_symbols(self, info: ModuleInfo) -> None:
        def add_function(node: ast.AST, qualname: str,
                         cls: Optional[str]) -> None:
            self.functions[qualname] = FunctionInfo(
                qualname=qualname, module=info.module,
                name=node.name, node=node, cls=cls,
            )
            # Nested defs become their own nodes under a plain dotted
            # suffix; a bare-name call in the parent resolves to them.
            for child in node.body:
                self._walk_nested(child, qualname, cls)

        def add_class(node: ast.ClassDef, qualname: str) -> None:
            cls = ClassInfo(
                qualname=qualname, module=info.module,
                name=node.name, node=node,
            )
            self.classes[qualname] = cls
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    method_qualname = f"{qualname}.{child.name}"
                    cls.methods[child.name] = method_qualname
                    add_function(child, method_qualname, qualname)
                elif isinstance(child, ast.ClassDef):
                    add_class(child, f"{qualname}.{child.name}")

        def walk_top(nodes) -> None:
            for node in nodes:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    add_function(node, f"{info.module}.{node.name}", None)
                elif isinstance(node, ast.ClassDef):
                    add_class(node, f"{info.module}.{node.name}")
                elif isinstance(node, (ast.If, ast.Try, ast.With,
                                       ast.AsyncWith, ast.For,
                                       ast.AsyncFor, ast.While)):
                    # Version-compat defs live under module-level ifs.
                    walk_top(
                        child for child in ast.iter_child_nodes(node)
                        if isinstance(child, ast.stmt)
                    )

        walk_top(info.tree.body)

    def _walk_nested(self, node: ast.AST, parent: str,
                     cls: Optional[str]) -> None:
        """Register nested function definitions under ``parent.name``."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{parent}.{node.name}"
            self.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=self.functions[parent].module,
                name=node.name, node=node, cls=cls,
            )
            for child in node.body:
                self._walk_nested(child, qualname, cls)
            return
        # Do not descend into nested classes here (rare; methods of
        # function-local classes stay unindexed) but do walk compound
        # statements so defs inside if/try/with bodies register.
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.AsyncWith,
                             ast.For, ast.AsyncFor, ast.While)):
            for child in ast.iter_child_nodes(node):
                self._walk_nested(child, parent, cls)

    def _collect_aliases(self, info: ModuleInfo) -> None:
        aliases: Dict[str, str] = {}
        is_package = info.path.name == "__init__.py"
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``; dotted chains
                        # are resolved against the full target below.
                        aliases[alias.name.split(".")[0]] = (
                            alias.name.split(".")[0]
                        )
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(
                    info.module, node, is_package=is_package
                )
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    aliases[bound] = f"{base}.{alias.name}"
            elif isinstance(node, ast.Call) and is_package:
                aliases.update(_lazy_exports_table(node))
        self._aliases[info.module] = aliases

    @staticmethod
    def _resolve_from(module: str, node: ast.ImportFrom, *,
                      is_package: bool) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        # Level 1 from a package is the package itself; every other
        # level strips (level - is_package) trailing components.
        strip = node.level - (1 if is_package else 0)
        if strip >= len(parts):
            return None
        base_parts = parts[:len(parts) - strip] if strip else parts
        base = ".".join(base_parts)
        return f"{base}.{node.module}" if node.module else base

    def _collect_calls(self, function: FunctionInfo) -> None:
        aliases = self._aliases.get(function.module, {})

        def resolve(chain: Tuple[str, ...]) -> Tuple[Optional[str], str]:
            # self.method — resolve through the owning class (and its
            # project base classes, nearest first).
            if (len(chain) == 2 and chain[0] == "self"
                    and function.cls is not None):
                for cls_qualname in self.base_chain(function.cls):
                    cls = self.classes.get(cls_qualname)
                    if cls and chain[1] in cls.methods:
                        return cls.methods[chain[1]], "function"
                return None, "function"
            if len(chain) == 1:
                name = chain[0]
                nested = f"{function.qualname}.{name}"
                if nested in self.functions:  # a nested def of ours
                    return nested, "function"
                return self._resolve_symbol(
                    function.module, name, aliases
                )
            # Dotted: the longest alias/module prefix wins.
            head = chain[0]
            target = aliases.get(head)
            if target is None and head not in self.modules:
                return None, "function"
            dotted = ".".join((target or head, *chain[1:]))
            return self._resolve_dotted(dotted)

        skip: Set[ast.AST] = set()
        for child in ast.walk(function.node):
            if child is function.node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                skip.update(ast.walk(child))
        for child in ast.walk(function.node):
            if child in skip or not isinstance(child, ast.Call):
                continue
            chain = _dotted(child.func)
            target: Optional[str] = None
            kind = "function"
            if chain is not None:
                target, kind = resolve(chain)
            function.calls.append(CallSite(
                node=child, chain=chain, target=target, kind=kind,
            ))

    def _resolve_symbol(
        self, module: str, name: str, aliases: Dict[str, str],
    ) -> Tuple[Optional[str], str]:
        local = f"{module}.{name}"
        if local in self.functions:
            return local, "function"
        if local in self.classes:
            return local, "class"
        target = aliases.get(name)
        if target is None:
            return None, "function"
        return self._resolve_dotted(target)

    def _resolve_dotted(self, dotted: str) -> Tuple[Optional[str], str]:
        """A fully-dotted name to a project function/class qualname.

        Walks re-export chains one level (``from repro.x.y import f``
        inside ``repro/x/__init__.py`` makes ``repro.x.f`` an alias of
        ``repro.x.y.f``).
        """
        for _ in range(4):  # bounded re-export hops
            if dotted in self.functions:
                return dotted, "function"
            if dotted in self.classes:
                return dotted, "class"
            head, _, leaf = dotted.rpartition(".")
            if not head:
                return None, "function"
            alias = self._aliases.get(head, {}).get(leaf)
            if alias is None or alias == dotted:
                return None, "function"
            dotted = alias
        return None, "function"

    # -- queries -------------------------------------------------------
    def base_chain(self, cls_qualname: str) -> Iterator[str]:
        """The class and its transitive bases — project classes by
        qualname, external bases as their dotted import target."""
        seen: Set[str] = set()
        stack = [cls_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            yield current
            cls = self.classes.get(current)
            if cls is None:
                continue
            aliases = self._aliases.get(cls.module, {})
            for base in cls.node.bases:
                chain = _dotted(base)
                if chain is None:
                    continue
                if len(chain) == 1:
                    resolved, _ = self._resolve_symbol(
                        cls.module, chain[0], aliases
                    )
                    stack.append(resolved if resolved else
                                 aliases.get(chain[0], chain[0]))
                else:
                    head = aliases.get(chain[0], chain[0])
                    dotted = ".".join((head, *chain[1:]))
                    resolved, _ = self._resolve_dotted(dotted)
                    stack.append(resolved if resolved else dotted)

    def callees(self, qualname: str) -> Set[str]:
        function = self.functions.get(qualname)
        if function is None:
            return set()
        out: Set[str] = set()
        for call in function.calls:
            if call.target is None:
                continue
            if call.kind == "class":
                init = f"{call.target}.__init__"
                for base in self.base_chain(call.target):
                    candidate = f"{base}.__init__"
                    if candidate in self.functions:
                        init = candidate
                        break
                out.add(init)
            else:
                out.add(call.target)
        return {t for t in out if t in self.functions}

    def callers(self, qualname: str) -> Set[str]:
        return set(self._callers.get(qualname, ()))

    def reachable(
        self, qualname: str, *, max_hops: int, reverse: bool = False,
    ) -> Dict[str, int]:
        """Functions reachable within ``max_hops`` call edges, mapped
        to their hop distance (the start itself is distance 0)."""
        step = self.callers if reverse else self.callees
        distances: Dict[str, int] = {qualname: 0}
        frontier = [qualname]
        for hop in range(1, max_hops + 1):
            next_frontier: List[str] = []
            for current in frontier:
                for neighbour in step(current):
                    if neighbour not in distances:
                        distances[neighbour] = hop
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def functions_in(self, module: str) -> List[FunctionInfo]:
        return [f for f in self.functions.values() if f.module == module]

    def classes_in(self, module: str) -> List[ClassInfo]:
        return [c for c in self.classes.values() if c.module == module]


def _lazy_exports_table(call: ast.Call) -> Dict[str, str]:
    """Aliases a package declares through ``lazy_exports(globals(), {
    "repro.x.y": ["f", ...]})`` (:mod:`repro._lazy`): ``f`` is
    ``repro.x.y.f``, as if imported eagerly."""
    chain = _dotted(call.func)
    if not chain or chain[-1] != "lazy_exports" or len(call.args) != 2:
        return {}
    table = call.args[1]
    if not isinstance(table, ast.Dict):
        return {}
    aliases: Dict[str, str] = {}
    for key, names in zip(table.keys, table.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(names, (ast.List, ast.Tuple))):
            continue
        for name in names.elts:
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                aliases[name.value] = f"{key.value}.{name.value}"
    return aliases


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def build_index(infos: Sequence[ModuleInfo]) -> ProjectIndex:
    """Build the whole-project index over parsed modules."""
    return ProjectIndex(infos)
