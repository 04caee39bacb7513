"""Layer-by-layer error propagation (Eq. 15 of the paper).

If the previous layer's digital output carries a relative error rate
``delta_prev`` and the current layer's crossbar computation adds a rate
``eps_cur``, the analog result of the current layer is bounded by::

    (1 - delta)(1 - eps) V_idl  <=  V_act  <=  (1 + delta)(1 + eps) V_idl

so the combined analog deviation rate is ``(1 + delta)(1 + eps) - 1``.
That combined rate is pushed through the quantization model (Eq. 12-14)
to get the layer's digital error rate, which in turn feeds the next
layer.  MNSIM evaluates the whole accelerator this way.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.accuracy.quantization import avg_error_rate, max_error_rate


def combine_error_rates(delta_prev: float, eps_current: float) -> float:
    """Combined analog deviation per Eq. 15: ``(1+d)(1+e) - 1``."""
    delta_prev = abs(float(delta_prev))
    eps_current = abs(float(eps_current))
    return (1.0 + delta_prev) * (1.0 + eps_current) - 1.0


def propagate_layers(
    layer_epsilons: Iterable[float],
    k: int,
    case: str = "worst",
) -> List[float]:
    """Digital error rate after each layer for a cascade of crossbars.

    Parameters
    ----------
    layer_epsilons:
        The analog computing error rate of each layer's crossbars
        (signed or unsigned; magnitudes are used).
    k:
        Read-circuit quantization levels (``2**signal_bits``).
    case:
        ``"worst"`` applies Eq. 13 per layer, ``"average"`` Eq. 14.

    Returns
    -------
    list of float
        The digital error rate delta after layer 1, 2, ... N.
    """
    if case == "worst":
        to_digital = max_error_rate
    elif case == "average":
        to_digital = avg_error_rate
    else:
        raise ValueError(f"case must be 'worst' or 'average', got {case!r}")

    deltas: List[float] = []
    delta = 0.0
    for eps in layer_epsilons:
        combined = combine_error_rates(delta, eps)
        delta = to_digital(k, combined)
        deltas.append(delta)
    return deltas

