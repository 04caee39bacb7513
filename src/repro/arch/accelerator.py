"""Level-1 Accelerator (Sec. III.A, Fig. 1(b)).

The accelerator cascades one computation bank per neuromorphic layer
between an input and an output interface module.  Two latency views are
reported, following the paper:

* ``sample_latency`` — one sample traversing every bank in sequence
  (plus interface transfer), the fully-sequential worst case;
* ``pipeline_cycle`` — the slowest bank's pass latency, the cycle time
  of the pipelined multi-layer operation the case studies report
  ("latency per pipeline cycle", Table VI).

Accuracy is evaluated with the per-layer effective crossbar fill via
:class:`~repro.accuracy.model.AccuracyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.accuracy.model import AccuracyModel, LayerAccuracy
from repro.arch.bank import ComputationBank
from repro.circuits import IoInterfaceModule, ModuleRegistry
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.nn.networks import Network
from repro.report import Performance, ReportNode


@dataclass(frozen=True)
class AcceleratorSummary:
    """The metrics the paper's evaluation tables report.

    Attributes
    ----------
    area:
        Total silicon area (m^2).
    energy_per_sample:
        Dynamic energy per input sample (J).
    sample_latency:
        Sequential per-sample latency (s), bus interfaces included.
    compute_latency:
        Per-sample latency of the banks alone (the view the paper's
        case-study tables report).
    pipeline_cycle:
        Slowest bank's pass latency (s) — the pipelined cycle time.
    power:
        Average power over one sample (W), leakage included.
    worst_error_rate / average_error_rate:
        Final digital error rates from the accuracy model.
    """

    area: float
    energy_per_sample: float
    sample_latency: float
    compute_latency: float
    pipeline_cycle: float
    power: float
    worst_error_rate: float
    average_error_rate: float

    @property
    def relative_accuracy(self) -> float:
        """``1 - average_error_rate``."""
        return 1.0 - self.average_error_rate

    @property
    def energy_efficiency(self) -> float:
        """Samples per joule."""
        if self.energy_per_sample == 0:
            return float("inf")
        return 1.0 / self.energy_per_sample


class Accelerator:
    """A full memristor-based neuromorphic accelerator.

    Parameters
    ----------
    config:
        Design configuration; its ``network_type`` is overridden by the
        network's own type, and ``network_depth`` (if set) must match.
    network:
        The application (an ordered chain of weight-bearing layers).
    registry:
        Module registry shared by every bank (customization hook).
    """

    def __init__(
        self,
        config: SimConfig,
        network: Network,
        registry: Optional[ModuleRegistry] = None,
    ) -> None:
        if config.network_depth is not None and config.network_depth != network.depth:
            raise ConfigError(
                f"configured network_depth {config.network_depth} does not "
                f"match network depth {network.depth}"
            )
        self.config = config.replace(
            network_type=network.network_type,
            network_depth=network.depth,
        )
        self.network = network
        self.registry = registry if registry is not None else ModuleRegistry()

        self.banks: List[ComputationBank] = []
        layers = list(network.layers)
        for index, layer in enumerate(layers):
            next_layer = layers[index + 1] if index + 1 < len(layers) else None
            self.banks.append(
                ComputationBank(
                    self.config, layer, next_layer=next_layer,
                    registry=self.registry,
                )
            )

        cmos = self.config.cmos
        in_lines, out_lines = self.config.interface_number
        self.input_interface = self.registry.build(
            "input_interface", IoInterfaceModule, cmos=cmos,
            lines=in_lines, sample_values=network.input_values,
            bits=self.config.signal_bits,
        )
        self.output_interface = self.registry.build(
            "output_interface", IoInterfaceModule, cmos=cmos,
            lines=out_lines, sample_values=network.output_values,
            bits=self.config.signal_bits,
        )

    # ------------------------------------------------------------------
    @property
    def total_units(self) -> int:
        """Computation units across all banks."""
        return sum(bank.units for bank in self.banks)

    @property
    def total_crossbars(self) -> int:
        """Physical crossbars across all banks."""
        return sum(bank.crossbars for bank in self.banks)

    # ------------------------------------------------------------------
    def _walk(self) -> Tuple[Performance, Performance, float]:
        """Sample, compute-only and pipeline-cycle views in one walk.

        Each bank's pass is evaluated once and feeds all three views,
        composed in the same order as a separate walk per view, so the
        results are bit-identical to computing them independently.
        """
        compute = Performance()
        pass_latencies = []
        for bank in self.banks:
            one_pass = bank.pass_performance()
            passes = bank.layer.compute_passes
            compute = compute.serial(one_pass.repeat(passes))
            pass_latencies.append(one_pass.latency)
        sample = self.input_interface.performance().serial(compute)
        sample = sample.serial(self.output_interface.performance())
        return sample, compute, max(pass_latencies)

    def sample_performance(self) -> Performance:
        """One sample through interfaces and every bank, sequentially."""
        return self._walk()[0]

    def compute_sample_performance(self) -> Performance:
        """One sample through the banks only (no bus interfaces)."""
        return self._walk()[1]

    def pipeline_cycle_latency(self) -> float:
        """Cycle time of pipelined operation: the slowest bank pass."""
        return self._walk()[2]

    def write_performance(self) -> Performance:
        """One-time cost of loading all weights (WRITE of every bank)."""
        perf = Performance()
        for bank in self.banks:
            perf = perf.serial(bank.write_performance())
        return perf

    def accuracy(self) -> LayerAccuracy:
        """Propagated computing accuracy over the network's layers.

        Each layer's crossbars are modelled at their effective
        (possibly rectangular) fill: a layer narrower than the crossbar
        stresses fewer rows/columns.
        """
        model = AccuracyModel(self.config)
        layer_sizes = [
            (
                bank.mapping.typical_active_rows,
                bank.mapping.typical_active_cols,
            )
            for bank in self.banks
        ]
        return model.network_accuracy(layer_sizes=layer_sizes)

    # ------------------------------------------------------------------
    def summary(
        self, accuracy: Optional[LayerAccuracy] = None
    ) -> AcceleratorSummary:
        """The table-row view of this design point.

        ``accuracy`` lets callers share one computed
        :class:`~repro.accuracy.model.LayerAccuracy` across design
        points that are accuracy-equivalent — the paper's Sec. VII.C.1
        observation that digital parallelism does not affect crossbar
        computing accuracy, which the DSE explorer exploits to evaluate
        each shape-group's accuracy once.  Omitted, it is computed here
        (the historical behaviour).
        """
        sample, compute, cycle = self._walk()
        if accuracy is None:
            accuracy = self.accuracy()
        return AcceleratorSummary(
            area=sample.area,
            energy_per_sample=sample.dynamic_energy,
            sample_latency=sample.latency,
            compute_latency=compute.latency,
            pipeline_cycle=cycle,
            power=sample.average_power,
            worst_error_rate=accuracy.worst_error_rate,
            average_error_rate=accuracy.average_error_rate,
        )

    def report(self) -> ReportNode:
        """Full hierarchical report of one sample's processing."""
        node = ReportNode(
            name=f"accelerator[{self.network.name}]",
            performance=self.sample_performance(),
            notes=(
                f"{len(self.banks)} banks, {self.total_units} units, "
                f"{self.total_crossbars} crossbars"
            ),
        )
        node.add(
            ReportNode("input_interface", self.input_interface.performance())
        )
        for index, bank in enumerate(self.banks):
            node.add(bank.report(name=f"bank[{index}]"))
        node.add(
            ReportNode("output_interface",
                       self.output_interface.performance())
        )
        return node
