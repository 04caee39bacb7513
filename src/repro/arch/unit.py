"""Level-3 Computation Unit (Sec. III.C, Fig. 1(d)).

A unit holds ``weight_polarity`` crossbars storing one tile of one bit
slice, a computation-oriented row decoder (plus a memory-oriented column
decoder for WRITE), one DAC per active row, ``p`` read circuits shared
over the active columns through a mux, and — for the differential
signed-weight mapping — subtractors merging the two crossbars' outputs.

The COMPUTE operation of one unit:

1. DACs convert and drive all active rows in the same cycle (the
   decoder's select-all NOR path opens every transfer gate);
2. the crossbar(s) settle (analog matrix-vector multiplication), holding
   their operating current while the outputs are read;
3. ``ceil(active_cols / p)`` sequential read cycles digitise the
   columns; each cycle steps the mux, converts, and (signed mapping)
   subtracts the two polarities.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

from repro.circuits import (
    AdcModule,
    ColumnMuxModule,
    CrossbarModule,
    DacModule,
    DecoderModule,
    ModuleRegistry,
    SubtractorModule,
)
from repro.config import SimConfig
from repro.report import Performance, ReportNode
from repro.tech.cmos import REFERENCE_READ_FREQUENCY

#: The :class:`SimConfig` fields a design sweep leaves alone: all but
#: its three axes.  They enter a registry piece key as one token
#: (:func:`config_token`); the key names each swept value the piece
#: reads.
_UNSWEPT_FIELDS = tuple(
    name for name in SimConfig.__dataclass_fields__
    if name not in ("crossbar_size", "parallelism_degree",
                    "interconnect_tech")
)


def _unswept(config: SimConfig) -> Hashable:
    # With the types: 1 and True, or 8 and 8.0, are equal but not alike.
    values = tuple(getattr(config, name) for name in _UNSWEPT_FIELDS)
    return values + tuple(map(type, values))


def config_token(config: SimConfig, registry: ModuleRegistry) -> int:
    """``registry``'s token for the fields of ``config`` no sweep varies."""
    return registry.token(config, _unswept)


def shared_unit(
    config: SimConfig,
    active_rows: int,
    active_cols: int,
    registry: ModuleRegistry,
) -> ComputationUnit:
    """The registry's unit for one tile shape under ``config``.

    A unit reads the unswept fields, the crossbar size, the wire node
    and the degree only through the tile's effective parallelism, so
    configs equal in those share one unit (and its ``config`` is the
    first of them).
    """
    key = (
        "unit", config_token(config, registry), config.crossbar_size,
        config.interconnect_tech, config.effective_parallelism(active_cols),
        active_rows, active_cols,
    )
    return registry.piece(
        key, ComputationUnit, config, active_rows, active_cols, registry
    )


class ComputationUnit:
    """One computation unit of a bank.

    Parameters
    ----------
    config:
        The design configuration.
    active_rows, active_cols:
        The tile's used region (defaults: the full crossbar).
    registry:
        Module registry for customization; reference designs are used
        for any slot without an override.
    """

    def __init__(
        self,
        config: SimConfig,
        active_rows: Optional[int] = None,
        active_cols: Optional[int] = None,
        registry: Optional[ModuleRegistry] = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else ModuleRegistry()
        size = config.crossbar_size
        self.active_rows = size if active_rows is None else active_rows
        self.active_cols = size if active_cols is None else active_cols
        if not 0 < self.active_rows <= size or not 0 < self.active_cols <= size:
            raise ValueError("active region must fit in the crossbar")

        cmos = config.cmos
        device = config.device
        self.parallelism = config.effective_parallelism(self.active_cols)
        self.read_cycles = math.ceil(self.active_cols / self.parallelism)

        build = self.registry.build
        self.crossbar = build(
            "crossbar",
            CrossbarModule,
            device=device,
            cell_type=config.cell_type,
            rows=size,
            cols=size,
            wire=config.wire,
            active_rows=self.active_rows,
            active_cols=self.active_cols,
            cmos_leakage_per_gate=cmos.leakage_per_gate,
        )
        self.row_decoder = build(
            "row_decoder", DecoderModule, cmos=cmos, lines=size,
            computation_oriented=True,
        )
        self.col_decoder = build(
            "col_decoder", DecoderModule, cmos=cmos, lines=size,
            computation_oriented=False,
        )
        self.dac = build("dac", DacModule, cmos=cmos, bits=config.signal_bits)
        self.read_circuit = build(
            "read_circuit", AdcModule, cmos=cmos, bits=config.signal_bits,
            frequency=REFERENCE_READ_FREQUENCY,
        )
        self.column_mux = build(
            "column_mux", ColumnMuxModule, cmos=cmos,
            columns=self.active_cols, read_circuits=self.parallelism,
        )
        if config.weight_polarity == 2:
            self.subtractor = build(
                "subtractor", SubtractorModule, cmos=cmos,
                bits=config.signal_bits + 1,
            )
        else:
            self.subtractor = None
        self._compute: Optional[Performance] = None

    # ------------------------------------------------------------------
    @property
    def polarity(self) -> int:
        """Physical crossbars in the unit (1 or 2)."""
        return self.config.weight_polarity

    def area(self) -> float:
        """Total unit area in m^2."""
        return self.compute_performance().area

    # ------------------------------------------------------------------
    def compute_performance(self) -> Performance:
        """Cost of one COMPUTE operation (one matrix-vector multiply).

        Evaluated once per unit: its modules are pure (the
        :class:`~repro.circuits.base.CircuitModule` contract).
        """
        if self._compute is None:
            self._compute = self._evaluate_compute()
        return self._compute

    def _evaluate_compute(self) -> Performance:
        crossbar = self.crossbar.performance()
        row_decoder = self.row_decoder.performance()
        col_decoder = self.col_decoder.performance()
        dac = self.dac.performance()
        adc = self.read_circuit.performance()
        mux = self.column_mux.performance()

        polarity = self.polarity
        adc_count = self.parallelism * polarity
        conversions_per_adc = self.read_cycles

        # Latency: DAC drive (decoder switches concurrently), crossbar
        # settle, then the sequential read cycles; the subtractor adds
        # one stage after the final conversion.
        read_phase = conversions_per_adc * (mux.latency + adc.latency)
        latency = (
            max(dac.latency, row_decoder.latency)
            + crossbar.latency
            + read_phase
        )

        # The crossbars conduct for the whole settle + read window.
        crossbar_window = crossbar.latency + read_phase
        crossbar_energy = (
            self.crossbar.compute_power * crossbar_window * polarity
        )

        energy = (
            dac.dynamic_energy * self.active_rows
            + row_decoder.dynamic_energy
            + crossbar_energy
            + mux.dynamic_energy * conversions_per_adc * polarity
            + adc.dynamic_energy * conversions_per_adc * adc_count
        )
        area = (
            crossbar.area * polarity
            + row_decoder.area
            + col_decoder.area
            + dac.area * self.active_rows
            + adc.area * adc_count
            + mux.area * polarity
        )
        leakage = (
            crossbar.leakage_power * polarity
            + row_decoder.leakage_power
            + col_decoder.leakage_power
            + dac.leakage_power * self.active_rows
            + adc.leakage_power * adc_count
            + mux.leakage_power * polarity
        )
        if self.subtractor is not None:
            sub = self.subtractor.performance()
            latency += sub.latency
            energy += sub.dynamic_energy * self.active_cols
            area += sub.area * self.parallelism
            leakage += sub.leakage_power * self.parallelism
        return Performance(
            area=area,
            dynamic_energy=energy,
            leakage_power=leakage,
            latency=latency,
        )

    def write_performance(self) -> Performance:
        """Cost of programming the unit's active region (WRITE).

        Cells are written one at a time through both decoders; the two
        polarity planes double the cell count.
        """
        cells = self.active_rows * self.active_cols * self.polarity
        crossbar_write = self.crossbar.write_performance(
            self.active_rows * self.active_cols
        )
        row_decoder = self.row_decoder.performance()
        col_decoder = self.col_decoder.performance()
        decoder_energy = (
            (row_decoder.dynamic_energy + col_decoder.dynamic_energy) * cells
        )
        return Performance(
            area=self.compute_performance().area,
            dynamic_energy=(
                crossbar_write.dynamic_energy * self.polarity + decoder_energy
            ),
            leakage_power=crossbar_write.leakage_power * self.polarity,
            latency=crossbar_write.latency * self.polarity,
        )

    def read_performance(self) -> Performance:
        """Cost of a memory-mode READ of one cell."""
        read = self.crossbar.read_performance()
        row_decoder = self.row_decoder.performance()
        col_decoder = self.col_decoder.performance()
        adc = self.read_circuit.performance()
        return Performance(
            area=self.compute_performance().area,
            dynamic_energy=(
                read.dynamic_energy
                + row_decoder.dynamic_energy
                + col_decoder.dynamic_energy
                + adc.dynamic_energy
            ),
            leakage_power=read.leakage_power,
            latency=(
                max(row_decoder.latency, col_decoder.latency)
                + read.latency
                + adc.latency
            ),
        )

    # ------------------------------------------------------------------
    def report(self, name: str = "unit") -> ReportNode:
        """Hierarchical report of one COMPUTE operation."""
        node = ReportNode(
            name=name,
            performance=self.compute_performance(),
            notes=(
                f"{self.active_rows}x{self.active_cols} active, "
                f"p={self.parallelism}, cycles={self.read_cycles}, "
                f"polarity={self.polarity}"
            ),
        )
        node.add(ReportNode("crossbar", self.crossbar.performance()))
        node.add(ReportNode("row_decoder", self.row_decoder.performance()))
        node.add(ReportNode("dac", self.dac.performance()))
        node.add(ReportNode("read_circuit", self.read_circuit.performance()))
        node.add(ReportNode("column_mux", self.column_mux.performance()))
        if self.subtractor is not None:
            node.add(ReportNode("subtractor", self.subtractor.performance()))
        return node
