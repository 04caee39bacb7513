"""Percentiles and the parent-vs-change comparison rules.

``compare`` follows the choosing-metrics rules (sections 6.5 and 8):

* **improved** -- the change wins at least nine tenths of the pairs
  (ties count for neither side) and its median beats the parent's by
  more than the parent's own interquartile distance;
* **regressed** -- the change's median is worse than the parent's by
  more than the metric's bound;
* **unresolved** -- the run-to-run spread (interquartile distance over
  median, the larger side) is wider than the bound, and not every
  change run beats every parent run;
* **unchanged** -- otherwise.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = pct / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, pct: float) -> int:
    """Samples strictly above the rank :func:`percentile` reads."""
    return n - 1 - math.floor(pct / 100 * (n - 1)) if n else 0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


@dataclass
class Verdict:
    verdict: str
    parent: tuple  # (q1, median, q3)
    change: tuple
    delta: float  # change median vs parent, share of parent (signed)
    wins: int
    pairs: int


def compare_metric(parent: List[float], change: List[float], better: str,
                   bound: float) -> Verdict:
    """Apply the rules of this module to one (metric, workload) pair."""
    if len(parent) < 2 or len(change) < 2:
        raise ValueError("compare needs at least two runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    p = tuple(statistics.quantiles(parent, n=4))
    c = tuple(statistics.quantiles(change, n=4))
    delta = (c[1] - p[1]) / abs(p[1]) if p[1] else math.inf
    gain = sign * delta  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    if (wins >= 0.9 * len(pairs) and gain > 0
            and abs(c[1] - p[1]) > p[2] - p[0]):
        verdict = "improved"
    elif gain < -bound:
        verdict = "regressed"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return Verdict(verdict, p, c, delta, wins, len(pairs))
