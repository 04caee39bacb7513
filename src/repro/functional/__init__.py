"""Functional simulation: compute real outputs through the mapped design.

MNSIM proper is a performance/accuracy *estimator*; this package adds
the complementary functional view: given actual weights and inputs, run
the exact datapath the hierarchy models — fixed-point quantization,
polarity split, bit slicing onto device conductance levels, per-tile
matrix-vector products, shift-add and adder-tree merging, neuron
functions — and optionally inject the analog error the accuracy model
predicts (or measure it exactly with the circuit-level solver).

Three fidelity modes (:class:`~repro.functional.unit.AnalogMode`):

* ``IDEAL`` — integer-exact: validates the mapping algebra (the
  functional output must equal the fixed-point reference network);
* ``MODEL`` — per-tile analog deviation drawn from the behavior-level
  accuracy model's error band;
* ``SOLVER`` — each tile's deviation measured by solving the real
  resistor network (slow; small networks only).
"""

from repro.functional.crossbar import FunctionalCrossbar
from repro.functional.unit import AnalogMode, FunctionalUnit
from repro.functional.bank import FunctionalBank
from repro.functional.accelerator import FunctionalAccelerator
from repro.functional.faults import (
    FaultPoint,
    fault_study,
    inject_stuck_faults,
)

__all__ = [
    "FunctionalCrossbar",
    "AnalogMode",
    "FunctionalUnit",
    "FunctionalBank",
    "FunctionalAccelerator",
    "FaultPoint",
    "fault_study",
    "inject_stuck_faults",
]
