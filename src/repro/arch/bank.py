"""Level-2 Computation Bank (Sec. III.B, Fig. 1(c)).

A bank processes one neuromorphic layer: its computation units (one per
weight tile per bit slice), the adder tree merging the row-block partial
sums (Eq. 5), the shift-add merger reassembling bit slices, the pooling
module and pooling line buffer (CNN), the non-linear neuron module, and
the output buffer (register file for FC layers, Eq.-6 line buffers for
cascaded conv layers).

Cost accounting per *compute pass* (one matrix-vector operation over the
whole tiled matrix — a fully-connected layer runs one pass per sample, a
conv layer one pass per output spatial position):

* all units operate in parallel (latency = slowest unit);
* the merge/neuron path evaluates once per produced output value;
* pass latency is the worst-case cascade unit -> tree -> shift-add ->
  (pooling) -> neuron -> buffer (Sec. IV.A's worst-case rule).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.arch.mapping import LayerMapping
from repro.arch.unit import ComputationUnit, config_token, shared_unit
from repro.circuits import (
    AdderTreeModule,
    LineBufferModule,
    MaxPoolingModule,
    ModuleRegistry,
    RegisterFileModule,
    ShiftAddModule,
    neuron_for_network_type,
    output_line_buffer_length,
)
from repro.config import SimConfig
from repro.errors import MappingError
from repro.nn.layers import ConvLayer, LayerSpec
from repro.report import Performance, ReportNode


class _LayerPlan:
    """What one layer fixes in a bank, for one config token and size.

    The mapping and its tile shapes, the tail modules (adder tree,
    shift-add, neuron, pooling, pooling buffer, output buffer), and the
    merge and neuron pass records per lane count.  None of it reads the
    wire node or the parallelism degree, which only set the units and
    the lanes, so a sweep shares one plan across those axes.
    """

    def __init__(
        self,
        config: SimConfig,
        layer: LayerSpec,
        next_layer: Optional[LayerSpec],
        registry: ModuleRegistry,
    ) -> None:
        self.layer = layer
        self.mapping = mapping = LayerMapping.for_layer(layer, config)
        #: ``(rows, cols, units)`` per distinct tile shape.
        self.shapes = tuple(
            (shape.rows, shape.cols, shape.count * mapping.slices)
            for shape in mapping.block_shapes()
        )
        if not self.shapes:
            raise MappingError("layer mapped to zero units")

        cmos = config.cmos
        build = registry.build
        self.adder_tree = build(
            "adder_tree", AdderTreeModule, cmos=cmos,
            inputs=max(mapping.row_blocks, 1), bits=config.signal_bits,
        )
        self.shift_add = build(
            "shift_add", ShiftAddModule, cmos=cmos,
            slices=mapping.slices,
            slice_bits=config.device.precision_bits,
            input_bits=self.adder_tree.output_bits
            if isinstance(self.adder_tree, AdderTreeModule)
            else config.signal_bits,
        )
        self.neuron = build(
            "neuron", neuron_for_network_type,
            network_type=config.network_type, cmos=cmos,
            input_bits=config.signal_bits, output_bits=config.signal_bits,
        )

        self.pooling = None
        self.pooling_buffer = None
        if isinstance(layer, ConvLayer) and layer.pooling > 1:
            self.pooling = build(
                "pooling", MaxPoolingModule, cmos=cmos,
                window=layer.pooling, bits=config.signal_bits,
            )
            buffer_length = output_line_buffer_length(
                layer.conv_output_size, layer.pooling, layer.pooling
            )
            self.pooling_buffer = build(
                "pooling_buffer", LineBufferModule, cmos=cmos,
                length=buffer_length, bits=config.signal_bits,
                lanes=layer.out_channels,
            )

        if isinstance(layer, ConvLayer):
            if isinstance(next_layer, ConvLayer):
                length = output_line_buffer_length(
                    next_layer.input_size, next_layer.kernel,
                    next_layer.kernel,
                )
            else:
                # Final conv layer (or conv -> FC): hold one output row.
                length = layer.output_size
            self.output_buffer = build(
                "output_buffer", LineBufferModule, cmos=cmos,
                length=length, bits=config.signal_bits,
                lanes=layer.out_channels,
            )
        else:
            self.output_buffer = build(
                "output_buffer", RegisterFileModule, cmos=cmos,
                words=layer.output_values, bits=config.signal_bits,
            )
        self._passes: Dict[int, Tuple[Performance, Performance]] = {}

    def passes(self, lanes: int) -> Tuple[Performance, Performance]:
        """The merge and neuron pass records at ``lanes`` output lanes."""
        records = self._passes.get(lanes)
        if records is None:
            records = self._passes[lanes] = (
                self._merge_pass(lanes), self._neuron_pass(lanes),
            )
        return records

    def _merge_pass(self, lanes: int) -> Performance:
        outputs = self.mapping.out_features
        tree = self.adder_tree.performance()
        shift = self.shift_add.performance()
        lanes = max(lanes, 1)
        return Performance(
            area=tree.area * lanes + shift.area * lanes,
            dynamic_energy=(
                tree.dynamic_energy * outputs * self.mapping.slices
                + shift.dynamic_energy * outputs
            ),
            leakage_power=(tree.leakage_power + shift.leakage_power) * lanes,
            latency=tree.latency + shift.latency,
        )

    def _neuron_pass(self, lanes: int) -> Performance:
        outputs = self.mapping.out_features
        neuron = self.neuron.performance()
        lanes = max(min(lanes, outputs), 1)
        perf = Performance(
            area=neuron.area * lanes,
            dynamic_energy=neuron.dynamic_energy * outputs,
            leakage_power=neuron.leakage_power * lanes,
            latency=neuron.latency,
        )
        if self.pooling is not None:
            pool = self.pooling.performance()
            pool_buffer = self.pooling_buffer.performance()
            window = self.layer.pooling**2
            perf = Performance(
                area=perf.area + pool.area * lanes + pool_buffer.area,
                dynamic_energy=(
                    perf.dynamic_energy
                    + pool.dynamic_energy * outputs / window
                    + pool_buffer.dynamic_energy  # one shift per pass
                ),
                leakage_power=perf.leakage_power
                + pool.leakage_power * lanes
                + pool_buffer.leakage_power,
                latency=perf.latency + pool.latency + pool_buffer.latency,
            )
        out_buffer = self.output_buffer.performance()
        return Performance(
            area=perf.area + out_buffer.area,
            dynamic_energy=perf.dynamic_energy + out_buffer.dynamic_energy,
            leakage_power=perf.leakage_power + out_buffer.leakage_power,
            latency=perf.latency + out_buffer.latency,
        )


class ComputationBank:
    """The hardware of one neuromorphic layer.

    Parameters
    ----------
    config:
        Design configuration.
    layer:
        The layer spec this bank implements.
    next_layer:
        The following layer, if any — sizes the Eq.-6 output line
        buffers for cascaded conv layers.
    registry:
        Module registry for customization.  The bank takes its layer
        plan and its units from the registry's pieces, so banks on one
        registry share every piece their configs agree on.
    """

    def __init__(
        self,
        config: SimConfig,
        layer: LayerSpec,
        next_layer: Optional[LayerSpec] = None,
        registry: Optional[ModuleRegistry] = None,
    ) -> None:
        self.config = config
        self.layer = layer
        self.next_layer = next_layer
        self.registry = registry = (
            registry if registry is not None else ModuleRegistry()
        )
        plan = registry.piece(
            ("layer", config_token(config, registry), config.crossbar_size,
             layer, next_layer),
            _LayerPlan, config, layer, next_layer, registry,
        )
        self.mapping = mapping = plan.mapping

        # One representative unit per distinct tile shape; shape counts
        # keep the accounting exact without instantiating every tile.
        self._shaped_units: List[Tuple[ComputationUnit, int]] = [
            (shared_unit(config, rows, cols, registry), count)
            for rows, cols, count in plan.shapes
        ]

        # Parallel output lanes: each tile-column delivers p digitised
        # columns per read cycle.
        reference_unit = self._shaped_units[0][0]
        self.lanes = mapping.col_blocks * reference_unit.parallelism

        self.adder_tree = plan.adder_tree
        self.shift_add = plan.shift_add
        self.neuron = plan.neuron
        self.pooling = plan.pooling
        self.pooling_buffer = plan.pooling_buffer
        self.output_buffer = plan.output_buffer
        self._merge, self._neuron = plan.passes(self.lanes)

    # ------------------------------------------------------------------
    @property
    def units(self) -> int:
        """Computation units in this bank."""
        return self.mapping.units

    @property
    def crossbars(self) -> int:
        """Physical crossbars in this bank."""
        return self.mapping.crossbars

    # ------------------------------------------------------------------
    def synapse_pass_performance(self) -> Performance:
        """All units computing one pass concurrently (synapse sub-bank)."""
        area = energy = leakage = latency = 0.0
        for unit, count in self._shaped_units:
            perf = unit.compute_performance()
            area += perf.area * count
            energy += perf.dynamic_energy * count
            leakage += perf.leakage_power * count
            latency = max(latency, perf.latency)
        return Performance(
            area=area,
            dynamic_energy=energy,
            leakage_power=leakage,
            latency=latency,
        )

    def merge_pass_performance(self) -> Performance:
        """Adder tree + shift-add for one pass (neuron sub-bank, part 1).

        Hardware is replicated per lane; energy charges one tree
        evaluation per output per slice and one shift-add per output.
        """
        return self._merge

    def neuron_pass_performance(self) -> Performance:
        """Pooling (if any) + neuron + buffers for one pass."""
        return self._neuron

    # ------------------------------------------------------------------
    def pass_performance(self) -> Performance:
        """One compute pass: units -> merge -> pooling/neuron/buffer."""
        synapse = self.synapse_pass_performance()
        merge = self.merge_pass_performance()
        neuron = self.neuron_pass_performance()
        return synapse.serial(merge).serial(neuron)

    def sample_performance(self) -> Performance:
        """One full input sample: ``compute_passes`` sequential passes."""
        return self.pass_performance().repeat(self.layer.compute_passes)

    def write_performance(self) -> Performance:
        """Programming every unit of the bank once (weight loading)."""
        total = Performance()
        for unit, count in self._shaped_units:
            perf = unit.write_performance()
            total = Performance(
                area=total.area,
                dynamic_energy=total.dynamic_energy
                + perf.dynamic_energy * count,
                leakage_power=total.leakage_power,
                # Tiles share write drivers: program sequentially per
                # row block, in parallel across column blocks.
                latency=total.latency + perf.latency * math.ceil(
                    count / max(self.mapping.col_blocks, 1)
                ),
            )
        return total

    # ------------------------------------------------------------------
    def report(self, name: str = "bank") -> ReportNode:
        """Hierarchical report of one sample's processing."""
        node = ReportNode(
            name=name,
            performance=self.sample_performance(),
            notes=(
                f"{self.mapping.out_features}x{self.mapping.in_features} "
                f"weights, {self.units} units, {self.crossbars} crossbars, "
                f"{self.layer.compute_passes} passes"
            ),
        )
        node.add(
            ReportNode("synapse_sub_bank", self.synapse_pass_performance())
        )
        node.add(ReportNode("adder_tree+shift_add",
                            self.merge_pass_performance()))
        node.add(ReportNode("neuron+pooling+buffers",
                            self.neuron_pass_performance()))
        return node
