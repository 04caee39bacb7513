"""The ``repro lint`` entry point: analyze, subtract baseline, report.

Exit codes follow the CLI convention documented in
:func:`repro.cli.main`: ``0`` clean (modulo baseline), ``2`` new
findings (configuration-class failure — the code violates a project
invariant).  ``--update-baseline`` rewrites the baseline from the
current findings and always exits 0; hand-edit the justifications
afterwards, they survive later updates.  The flags are declared in
:mod:`repro.cli`, so building the parser never loads this package.
"""

from __future__ import annotations

import argparse
import logging
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.core import (
    all_rules,
    analyze_paths,
    iter_python_files,
)
from repro.analysis.report import render_json, render_tree

__all__ = ["run_lint"]

_log = logging.getLogger("repro.analysis")


def _select_rules(spec: Optional[str]):
    rules = all_rules()
    if not spec:
        return rules
    wanted = {part.strip().upper() for part in spec.split(",") if part}
    unknown = wanted - {rule.rule_id for rule in rules}
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
        )
    return [rule for rule in rules if rule.rule_id in wanted]


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` with parsed ``args``; returns exit code."""
    if getattr(args, "list_rules", False):
        for rule in all_rules():
            scope = ", ".join(rule.scope) if rule.scope else "all modules"
            print(f"{rule.rule_id} {rule.name}: {rule.description}")
            print(f"   scope: {scope}")
        return 0

    paths: Sequence[str] = args.paths
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        raise SystemExit(
            f"lint path(s) not found: {', '.join(missing)} "
            "(run from the repository root, or pass explicit paths)"
        )
    checked = len(list(iter_python_files(paths)))
    stats: dict = {}
    findings = analyze_paths(
        paths, rules=_select_rules(args.select),
        graph=getattr(args, "graph", True), stats=stats,
    )

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE_NAME).exists():
        baseline_path = DEFAULT_BASELINE_NAME

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        baseline = Baseline.load(target)
        baseline.update_from(findings)
        baseline.save(target)
        _log.info(
            "baseline %s updated: %d entr%s", target,
            len(baseline.entries),
            "y" if len(baseline.entries) == 1 else "ies",
        )
        return 0

    grandfathered: List = []
    if baseline_path and not args.no_baseline:
        baseline = Baseline.load(baseline_path)
        findings, grandfathered = baseline.split(findings)
        # Stale-entry hints only make sense when every rule ran: a
        # --select/--no-graph run simply didn't look for the others.
        full_run = not args.select and getattr(args, "graph", True)
        for stale in baseline.stale_fingerprints(
            findings + grandfathered
        ) if full_run else []:
            entry = baseline.entries[stale]
            _log.info(
                "baseline entry %s (%s in %s) is fixed — remove it",
                stale, entry["rule"], entry["module"],
            )

    if args.format == "json":
        print(render_json(
            findings, grandfathered=grandfathered,
            checked_files=checked, baseline_path=baseline_path,
            stats=stats,
        ))
    else:
        print(render_tree(
            findings, grandfathered=grandfathered,
            checked_files=checked, stats=stats,
        ))
    return 2 if findings else 0
