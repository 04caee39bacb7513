"""Behavior-level computing-accuracy model (Sec. VI of the paper).

The model replaces the circuit-level solve of ``2MN`` nonlinear Kirchhoff
equations with three approximations:

1. **Decouple the nonlinearity** — find the operating point with ideal
   (ohmic) resistances, then re-evaluate each cell at that voltage
   (:func:`~repro.accuracy.interconnect.cell_operating_voltage` /
   ``R_act``).
2. **Resistance-only interconnect** — Eq. 9-11 collapse the crossbar into a
   column divider with an ``(M+N)r`` wire term
   (:func:`~repro.accuracy.interconnect.analog_error_rate`).
3. **Average / worst case only** — Eq. 12-14 convert the analog deviation
   into digital read error rates (:mod:`~repro.accuracy.quantization`),
   Eq. 15 propagates them layer by layer
   (:mod:`~repro.accuracy.propagation`), and Eq. 16 adds device variation
   (:mod:`~repro.accuracy.variation`).

:class:`~repro.accuracy.model.AccuracyModel` is the high-level entry point
used by the hierarchy and the design-space explorer. The solver-backed
:mod:`~repro.accuracy.fitting` and :mod:`~repro.accuracy.montecarlo` are
not re-exported: they load scipy, which the model itself never needs.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.accuracy.interconnect": [
        "DEFAULT_SENSE_RESISTANCE",
        "analog_error_rate",
        "cell_operating_voltage",
        "output_voltage_actual",
        "output_voltage_ideal",
        "voltage_deviation",
    ],
    "repro.accuracy.quantization": [
        "avg_digital_deviation",
        "avg_error_rate",
        "max_digital_deviation",
        "max_error_rate",
    ],
    "repro.accuracy.propagation": ["combine_error_rates", "propagate_layers"],
    "repro.accuracy.variation": [
        "sample_resistances",
        "variation_error_bounds",
    ],
    "repro.accuracy.model": ["AccuracyModel", "LayerAccuracy"],
    "repro.accuracy.sensitivity": [
        "SensitivityReport",
        "sensitivity_analysis",
        "sensitivity_sweep",
    ],
})
