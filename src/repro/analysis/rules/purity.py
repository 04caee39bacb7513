"""R2 — cache-key purity.

Job keys are content hashes of a canonical JSON serialization
(:func:`repro.runtime.jobs.canonical`).  The serializer raises on
unknown types at runtime, but only on the code path actually executed
— a lambda smuggled into a key expression in a rarely-hit branch is a
latent crash, and worse, anything whose ``repr``/identity leaks into a
key makes the key unstable across processes (the PR 1 bug family).

This rule inspects every call to the key-construction entry points
(``canonical``, ``canonical_json``, ``content_key``, ``key_of_json``,
``network_fingerprint``) and flags arguments that can never serialize
stably:

* ``lambda`` expressions and references to locally-defined functions;
* generator expressions (consumed once, identity-keyed);
* open file handles created inline via ``open(...)``.

Values should come from plain data: dataclass fields, numbers,
strings, tuples — the vocabulary ``canonical()`` documents.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.analysis.core import Finding, ModuleInfo, Rule, register
from repro.analysis.rules._ast_util import dotted_chain, walk_functions

_KEY_FNS = {"canonical", "canonical_json", "content_key", "key_of_json",
            "network_fingerprint"}


def _is_key_call(node: ast.Call) -> bool:
    chain = dotted_chain(node.func)
    return chain is not None and chain[-1] in _KEY_FNS


@register
class CacheKeyPurityRule(Rule):
    rule_id = "R2"
    name = "cache-purity"
    description = (
        "Arguments to canonical()/content_key() must be serializable "
        "data — no lambdas, function refs, generators, or open handles."
    )
    scope = ("repro",)

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        function_names: Set[str] = {
            fn.name for fn in walk_functions(info.tree)
        }
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not _is_key_call(node):
                continue
            arguments = [a.value if isinstance(a, ast.Starred) else a
                         for a in node.args]
            arguments += [kw.value for kw in node.keywords]
            for argument in arguments:
                yield from self._check_argument(info, argument,
                                                function_names)

    def _check_argument(
        self, info: ModuleInfo, argument: ast.AST, function_names: Set[str]
    ) -> Iterator[Finding]:
        for sub in ast.walk(argument):
            if isinstance(sub, ast.Lambda):
                yield info.finding(
                    self, sub,
                    "lambda passed into a cache-key expression; keys "
                    "must be built from serializable data, not code",
                )
            elif isinstance(sub, ast.GeneratorExp):
                yield info.finding(
                    self, sub,
                    "generator expression in a cache-key expression; "
                    "materialize it (tuple/list) so the key is stable "
                    "and re-hashable",
                )
            elif (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "open"):
                yield info.finding(
                    self, sub,
                    "open() handle in a cache-key expression; hash "
                    "the file's content or path string instead",
                )
            elif (isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in function_names):
                yield info.finding(
                    self, sub,
                    f"function reference {sub.id!r} in a cache-key "
                    "expression; pass the data it produces, not the "
                    "callable",
                )
