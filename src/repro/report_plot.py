"""ASCII plotting: dependency-free renderings of the paper's figures.

The benchmark artefacts are plain-text files; these helpers turn the
figure data (error-rate curves, trade-off scatters) into ASCII charts
so `benchmarks/results/fig*.txt` actually *look like* the figures they
reproduce.

* :func:`line_plot` — multi-series X-Y chart with per-series markers;
* :func:`scatter_plot` — a single-series convenience wrapper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import MnsimError

_MARKERS = "ox+*#@%&"


class PlotError(MnsimError, ValueError):
    """Invalid plotting input."""


def _scale(value: float, low: float, high: float, cells: int) -> int:
    if high == low:
        return 0
    position = (value - low) / (high - low)
    return min(cells - 1, max(0, int(round(position * (cells - 1)))))


def line_plot(
    series: Dict[str, Sequence[Tuple[float, float]]],
    width: int = 64,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    logx: bool = False,
) -> str:
    """Render named point series on one ASCII grid.

    Each series gets a marker from ``o x + * ...``; the legend maps
    markers back to names.  ``logx`` plots log10 of the x values
    (crossbar-size sweeps are geometric).
    """
    if not series:
        raise PlotError("nothing to plot")
    if width < 16 or height < 6:
        raise PlotError("plot must be at least 16 x 6")

    points: List[Tuple[float, float, str]] = []
    for index, (name, values) in enumerate(series.items()):
        if not values:
            raise PlotError(f"series {name!r} is empty")
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in values:
            if logx:
                if x <= 0:
                    raise PlotError("logx needs positive x values")
                x = math.log10(x)
            points.append((float(x), float(y), marker))

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)

    grid = [[" "] * width for _ in range(height)]
    for x, y, marker in points:
        column = _scale(x, x_low, x_high, width)
        row = height - 1 - _scale(y, y_low, y_high, height)
        grid[row][column] = marker

    lines = []
    top_label = f"{y_high:.4g}"
    bottom_label = f"{y_low:.4g}"
    pad = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(pad)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(pad)
        else:
            prefix = " " * pad
        lines.append(f"{prefix} |{''.join(row)}|")
    x_left = f"{(10**x_low if logx else x_low):.4g}"
    x_right = f"{(10**x_high if logx else x_high):.4g}"
    axis = " " * pad + " +" + "-" * width + "+"
    lines.append(axis)
    gap = width - len(x_left) - len(x_right)
    lines.append(
        " " * (pad + 2) + x_left + " " * max(1, gap) + x_right
    )
    lines.append(f"{y_label} vs {x_label}" + ("  [log x]" if logx else ""))
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def scatter_plot(
    points: Sequence[Tuple[float, float]],
    name: str = "points",
    **kwargs,
) -> str:
    """Single-series convenience wrapper over :func:`line_plot`."""
    return line_plot({name: points}, **kwargs)

