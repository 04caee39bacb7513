"""R9 — cross-module determinism taint (graph-backed R1 upgrade).

R1 flags wall-clock reads and unseeded-RNG draws, but only inside the
modules it scopes — a helper in an unscoped module that returns
``time.time()`` is invisible to it, and so is a scoped module calling
that helper (the call is just a name).  The result cache and the
content-addressed job ids only stay sound if *no path* from a
nondeterministic source reaches cache-key construction, which is a
property of the call graph, not of any single module.

The query: for every **source call site** (``time.time()`` /
``datetime.now()`` / global-RNG draw — the same vocabulary as R1) in
function ``F``, walk *up* the caller chain from ``F`` (the value
returns to its callers) and, from each ancestor ``H``, *down* into
``H``'s callees looking for a **sink** — a call to ``canonical()`` /
``canonical_json()`` / ``content_key()`` / ``fingerprint()``
(resolved to :mod:`repro.runtime.jobs` / payload methods where
possible, matched by name otherwise).  If the combined distance (hops
up + hops down, where a direct sink call in ``H`` is distance 0) is
within ``MAX_HOPS`` = 3, the source is *key-adjacent*: its value
plausibly flows into a fingerprint, and the finding reports the
mixing function and the hop count.

This is deliberately flow-insensitive: it proves adjacency, not a
concrete data path, so a function that reads the clock for a metadata
column *and* computes a content key would trip it even if the two
values never meet.  False negatives are equally explicit: taint does
not cross method calls on receiver *variables* (``cache.put(...)``
leaves ``ResultCache.put_many``'s wall-clock read unreachable from
engine code — the R1 baseline entry covers that site), does not cross
callback registrations or context-manager protocols, and a chain
longer than 3 hops is invisible.  The bound keeps the query both fast
and reviewable (DESIGN.md S25).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import Finding, Rule, register
from repro.analysis.rules._ast_util import call_chain
from repro.analysis.rules.determinism import (
    _DATETIME_FNS,
    _NP_LEGACY,
    _PY_RANDOM,
    _WALL_CLOCK,
)

#: Combined up+down call-graph distance a source may sit from a sink.
MAX_HOPS = 3

#: Cache-key sink callables, by suffix name.  ``fingerprint`` covers
#: SimulationPayload.fingerprint / CampaignConfig.fingerprint (job
#: ids); the jobs helpers cover every engine cache key.
_SINK_NAMES = {"canonical", "canonical_json", "content_key",
               "key_of_json", "fingerprint"}


def _source_calls(node: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """(call, description) for R1-vocabulary sources under ``node``,
    not descending into nested function definitions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))
        if not isinstance(child, ast.Call):
            continue
        chain = call_chain(child)
        if chain is None or len(chain) < 2:
            continue
        base, fn = chain[-2], chain[-1]
        if base == "time" and fn in _WALL_CLOCK:
            yield child, f"time.{fn}()"
        elif base in ("datetime", "date") and fn in _DATETIME_FNS:
            yield child, f"{base}.{fn}()"
        elif base == "random" and fn in _NP_LEGACY | _PY_RANDOM:
            yield child, f"{'.'.join(chain)}()"


@register
class DeterminismTaintRule(Rule):
    rule_id = "R9"
    name = "determinism-taint"
    description = (
        "Wall-clock/global-RNG sources must not be call-graph "
        "adjacent (<= 3 hops) to canonical()/content_key()/"
        "fingerprint() cache-key sinks, across module boundaries."
    )
    scope = ()  # project-wide: the whole point is seeing past R1 scope
    needs_graph = True

    def check_project(self, project) -> Iterator[Finding]:
        sink_distance = self._sink_distances(project)
        for qualname in sorted(project.functions):
            function = project.functions[qualname]
            info = project.modules.get(function.module)
            if info is None:
                continue
            sources = list(_source_calls(function.node))
            if not sources:
                continue
            hit = self._nearest_sink(project, qualname, sink_distance)
            if hit is None:
                continue
            mixer, sink_name, hops = hit
            for call, description in sources:
                yield info.finding(
                    self, call,
                    f"nondeterministic source {description} in "
                    f"{_short(qualname)} is call-graph adjacent to "
                    f"cache-key sink {sink_name}() via "
                    f"{_short(mixer)} ({hops} hop(s), max "
                    f"{MAX_HOPS}); results and cache keys must be "
                    "pure functions of the payload — pass timestamps "
                    "in explicitly or draw from an injected seeded "
                    "Generator",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _sink_distances(project) -> Dict[str, Tuple[int, str]]:
        """function qualname -> (downward hops to a sink call, sink
        name); 0 means the function's own body calls a sink."""
        direct: Dict[str, str] = {}
        for qualname, function in project.functions.items():
            for call in function.calls:
                name = None
                if call.target is not None:
                    leaf = call.target.rsplit(".", 1)[-1]
                    if leaf in _SINK_NAMES:
                        name = leaf
                if name is None and call.chain is not None:
                    if call.chain[-1] in _SINK_NAMES:
                        name = call.chain[-1]
                if name is not None:
                    direct[qualname] = name
                    break
        distances: Dict[str, Tuple[int, str]] = {
            qualname: (0, name) for qualname, name in direct.items()
        }
        frontier = list(direct)
        for hop in range(1, MAX_HOPS + 1):
            next_frontier: List[str] = []
            for qualname in frontier:
                _, name = distances[qualname]
                for caller in project.callers(qualname):
                    if caller not in distances:
                        distances[caller] = (hop, name)
                        next_frontier.append(caller)
            frontier = next_frontier
        return distances

    @staticmethod
    def _nearest_sink(
        project, start: str,
        sink_distance: Dict[str, Tuple[int, str]],
    ) -> Optional[Tuple[str, str, int]]:
        """(mixer, sink name, total hops) for the closest sink whose
        mixing ancestor is within MAX_HOPS of ``start``."""
        best: Optional[Tuple[str, str, int]] = None
        ancestors = project.reachable(
            start, max_hops=MAX_HOPS, reverse=True
        )
        for ancestor, up in ancestors.items():
            entry = sink_distance.get(ancestor)
            if entry is None:
                continue
            down, name = entry
            total = up + down
            if total > MAX_HOPS:
                continue
            if best is None or total < best[2]:
                best = (ancestor, name, total)
        return best


def _short(qualname: str) -> str:
    """Drop the shared ``repro.`` prefix for readable messages."""
    return qualname[6:] if qualname.startswith("repro.") else qualname
