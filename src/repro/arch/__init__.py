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

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.arch.mapping": ["LayerMapping"],
    "repro.arch.unit": ["ComputationUnit"],
    "repro.arch.bank": ["ComputationBank"],
    "repro.arch.accelerator": ["Accelerator", "AcceleratorSummary"],
    "repro.arch.isa": ["Controller", "Instruction", "Opcode", "assemble"],
    "repro.arch.breakdown": ["Breakdown", "accelerator_breakdown"],
    "repro.arch.pipeline": [
        "InnerPipeline",
        "PipelineStage",
        "bank_inner_pipeline",
    ],
    "repro.arch.training": ["TrainingCost", "TrainingCostModel"],
    "repro.arch.floorplan": ["Floorplan", "floorplan"],
    "repro.arch.throughput": [
        "StageRate",
        "ThroughputReport",
        "bus_lines_for_balance",
        "throughput_report",
    ],
    "repro.arch.reliability": ["ReliabilityReport", "reliability_report"],
    "repro.arch.programming": [
        "ProgrammingCost",
        "expected_pulses_per_cell",
        "programming_cost",
    ],
})
