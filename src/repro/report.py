"""Performance accounting: the quantities MNSIM reports and how they compose.

Every module in the library reduces to a :class:`Performance` record holding
the four metrics of the paper — **area**, **dynamic energy per operation**,
**leakage power**, and **worst-case latency** — plus helpers that implement
the paper's aggregation rule (Sec. IV.A): a higher level's performance is the
composition of its children, with latency combined *serially* along the
critical path and *in parallel* across replicated structures.

:class:`ReportNode` builds the hierarchical report tree that the examples
print, mirroring the Accelerator -> Bank -> Unit -> module structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

from repro.units import fmt_si


@dataclass(frozen=True)
class Performance:
    """Area / energy / leakage / latency of one module or subtree.

    Attributes
    ----------
    area:
        Silicon area in m^2.
    dynamic_energy:
        Dynamic energy in joules consumed by one operation (for the
        accelerator level: one input sample).
    leakage_power:
        Static power in watts.
    latency:
        Worst-case latency in seconds of one operation (Sec. IV.A).
    """

    area: float = 0.0
    dynamic_energy: float = 0.0
    leakage_power: float = 0.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        # One compound test on the hot path; the loop only names the field.
        if (
            self.area < 0 or self.dynamic_energy < 0
            or self.leakage_power < 0 or self.latency < 0
        ):
            for name in ("area", "dynamic_energy", "leakage_power", "latency"):
                if getattr(self, name) < 0:
                    raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def serial(self, other: "Performance") -> "Performance":
        """Compose with a module later on the same critical path.

        Areas, energies and leakage add; latencies add (cascade).
        """
        return Performance(
            area=self.area + other.area,
            dynamic_energy=self.dynamic_energy + other.dynamic_energy,
            leakage_power=self.leakage_power + other.leakage_power,
            latency=self.latency + other.latency,
        )

    def parallel(self, other: "Performance") -> "Performance":
        """Compose with a module operating concurrently.

        Areas, energies and leakage add; latency is the max (worst case).
        """
        return Performance(
            area=self.area + other.area,
            dynamic_energy=self.dynamic_energy + other.dynamic_energy,
            leakage_power=self.leakage_power + other.leakage_power,
            latency=max(self.latency, other.latency),
        )

    def replicate(self, count: int) -> "Performance":
        """``count`` concurrent copies of this module (same latency)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return Performance(
            area=self.area * count,
            dynamic_energy=self.dynamic_energy * count,
            leakage_power=self.leakage_power * count,
            latency=self.latency if count else 0.0,
        )

    def repeat(self, times: int) -> "Performance":
        """The same hardware used ``times`` sequential cycles.

        Area and leakage are unchanged; energy and latency multiply.
        """
        if times < 0:
            raise ValueError("times must be non-negative")
        return Performance(
            area=self.area,
            dynamic_energy=self.dynamic_energy * times,
            leakage_power=self.leakage_power,
            latency=self.latency * times,
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def total_energy(self, duration: Optional[float] = None) -> float:
        """Dynamic + leakage energy over ``duration`` (default: latency)."""
        if duration is None:
            duration = self.latency
        return self.dynamic_energy + self.leakage_power * duration

    @property
    def average_power(self) -> float:
        """Average power (W) over one operation; 0 if latency is 0."""
        if self.latency == 0:
            return self.leakage_power
        return self.total_energy() / self.latency

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (
            f"area={fmt_si(self.area, 'm^2')}, "
            f"energy={fmt_si(self.dynamic_energy, 'J')}, "
            f"leakage={fmt_si(self.leakage_power, 'W')}, "
            f"latency={fmt_si(self.latency, 's')}"
        )


@dataclass
class ReportNode:
    """A node of the hierarchical performance report.

    ``name`` identifies the module (e.g. ``"bank[2]/adder_tree"``);
    ``performance`` is the aggregate for this subtree; ``children`` hold
    sub-reports; ``notes`` carry free-form annotations (parallelism degree,
    crossbar count, ...).
    """

    name: str
    performance: Performance
    children: List["ReportNode"] = field(default_factory=list)
    notes: str = ""

    def add(self, child: "ReportNode") -> "ReportNode":
        """Append a child node and return it (builder convenience)."""
        self.children.append(child)
        return child

    def find(self, name: str) -> Optional["ReportNode"]:
        """Depth-first search for a node by exact name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def render(self, indent: int = 0, max_depth: Optional[int] = None) -> str:
        """Human-readable tree rendering of this report."""
        pad = "  " * indent
        note = f"  [{self.notes}]" if self.notes else ""
        lines = [f"{pad}{self.name}: {self.performance}{note}"]
        if max_depth is None or indent < max_depth:
            for child in self.children:
                lines.append(child.render(indent + 1, max_depth))
        return "\n".join(lines)


def format_run_metrics(data: Mapping[str, Any]) -> str:
    """Render an engine run summary as a table.

    ``data`` is a :func:`repro.runtime.pool.run_summary` mapping (the
    ``last_run.json`` format); used by ``repro runtime-stats`` and
    available to any report that wants to surface sweep cost.
    """
    rows = [
        ["execution mode", str(data.get("mode", "serial"))],
        ["worker processes", str(data.get("workers", 1))],
    ]
    for name, value in sorted(dict(data.get("counters", {})).items()):
        rows.append([name.replace("_", " "), str(value)])
    for name, seconds in sorted(dict(data.get("stages", {})).items()):
        rows.append([f"{name} time", fmt_si(float(seconds), "s")])
    rows.append(["total time", fmt_si(float(data.get("total_seconds", 0.0)), "s")])
    throughput = float(data.get("jobs_per_second", 0.0))
    if throughput:
        rows.append(["throughput", f"{throughput:,.1f} jobs/s"])
    return format_table(["runtime metric", "value"], rows)


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Render a simple aligned ASCII table (used by benches and examples)."""
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
    lines.extend(fmt.format(*(str(c) for c in row)) for row in rows)
    return "\n".join(lines)
