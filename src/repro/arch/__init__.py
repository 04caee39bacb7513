"""The three-level accelerator hierarchy (Sec. III of the paper).

* Level 3 — :class:`~repro.arch.unit.ComputationUnit`: crossbar(s) +
  decoder + input peripheral (DACs) + read circuits, with optional second
  crossbar and subtractors for signed weights and a configurable
  parallelism degree.
* Level 2 — :class:`~repro.arch.bank.ComputationBank`: the computation
  units of one neuromorphic layer, the adder tree, shift-add bit-slice
  merge, pooling module + pooling line buffer, neuron module, and output
  buffer.
* Level 1 — :class:`~repro.arch.accelerator.Accelerator`: cascaded banks
  plus the I/O interfaces.

:mod:`~repro.arch.mapping` splits a layer's weight matrix over crossbars
(block partitioning, polarity, bit slicing); :mod:`~repro.arch.isa`
provides the WRITE / READ / COMPUTE instruction set and controller.
"""

from repro.arch.mapping import LayerMapping
from repro.arch.unit import ComputationUnit
from repro.arch.bank import ComputationBank
from repro.arch.accelerator import Accelerator, AcceleratorSummary
from repro.arch.isa import Controller, Instruction, Opcode, assemble
from repro.arch.breakdown import Breakdown, accelerator_breakdown
from repro.arch.pipeline import InnerPipeline, PipelineStage, bank_inner_pipeline
from repro.arch.training import TrainingCost, TrainingCostModel
from repro.arch.floorplan import Floorplan, floorplan
from repro.arch.throughput import (
    StageRate,
    ThroughputReport,
    bus_lines_for_balance,
    throughput_report,
)
from repro.arch.reliability import ReliabilityReport, reliability_report
from repro.arch.programming import (
    ProgrammingCost,
    expected_pulses_per_cell,
    programming_cost,
)

__all__ = [
    "LayerMapping",
    "ComputationUnit",
    "ComputationBank",
    "Accelerator",
    "AcceleratorSummary",
    "Controller",
    "Instruction",
    "Opcode",
    "assemble",
    "Breakdown",
    "accelerator_breakdown",
    "InnerPipeline",
    "PipelineStage",
    "bank_inner_pipeline",
    "TrainingCost",
    "TrainingCostModel",
    "Floorplan",
    "floorplan",
    "ProgrammingCost",
    "expected_pulses_per_cell",
    "programming_cost",
    "StageRate",
    "ThroughputReport",
    "throughput_report",
    "bus_lines_for_balance",
    "ReliabilityReport",
    "reliability_report",
]
