"""Project-specific static analysis (``repro lint``).

An AST-based lint framework encoding the correctness invariants this
repo's subsystems rely on — determinism of cached/seeded paths,
cache-key purity, fork-safe module state, broad-except hygiene, and
units discipline — as machine-checked rules instead of tribal
knowledge.  See DESIGN.md S20 for the catalogue and the
rule-authoring / baseline workflow, and :mod:`repro.analysis.rules`
for the implementations.

Public surface:

* :func:`analyze_paths` / :func:`analyze_source` — run rules, get
  :class:`Finding` lists (what the pytest gate uses);
* :class:`Baseline` — the grandfather list CI subtracts;
* :func:`run_lint` — the ``repro lint`` subcommand body.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.analysis.baseline": [
        "DEFAULT_BASELINE_NAME",
        "Baseline",
        "fingerprint_findings",
    ],
    "repro.analysis.core": [
        "Finding",
        "ModuleInfo",
        "Rule",
        "all_rules",
        "analyze_paths",
        "analyze_source",
        "register",
    ],
    "repro.analysis.lint": ["run_lint"],
    "repro.analysis.report": ["render_json", "render_tree"],
})
