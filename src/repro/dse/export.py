"""Serialisation of design-space exploration results.

Exploration runs produce hundreds of :class:`~repro.dse.explorer.
DesignPoint` records; these helpers persist them for plotting and
post-processing outside the simulator:

* :func:`points_to_rows` — flat dict rows (one per design point);
* :func:`to_csv` / :func:`to_json` — file export.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.dse.explorer import DesignPoint
from repro.errors import ExplorationError

_SUMMARY_FIELDS = (
    "area",
    "energy_per_sample",
    "sample_latency",
    "compute_latency",
    "pipeline_cycle",
    "power",
    "worst_error_rate",
    "average_error_rate",
)

_POINT_FIELDS = ("crossbar_size", "parallelism_degree", "interconnect_tech")


def points_to_rows(points: Sequence[DesignPoint]) -> List[Dict[str, float]]:
    """Flatten design points into plain dict rows."""
    rows = []
    for point in points:
        row: Dict[str, float] = {
            field: getattr(point, field) for field in _POINT_FIELDS
        }
        for field in _SUMMARY_FIELDS:
            row[field] = getattr(point.summary, field)
        rows.append(row)
    return rows


def to_csv(points: Sequence[DesignPoint], path: Union[str, Path]) -> Path:
    """Write design points to a CSV file; returns the path."""
    if not points:
        raise ExplorationError("nothing to export")
    path = Path(path)
    rows = points_to_rows(points)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return path


def to_json(points: Sequence[DesignPoint], path: Union[str, Path]) -> Path:
    """Write design points to a JSON file; returns the path."""
    if not points:
        raise ExplorationError("nothing to export")
    path = Path(path)
    path.write_text(
        json.dumps(points_to_rows(points), indent=2), encoding="utf-8"
    )
    return path

