"""The machine's current speed, and timings normalised by it.

The shared 2-vCPU box this benchmark was calibrated on changes speed by
up to a third within minutes: neighbours on the host slow the guest,
the guest sees no steal time, and CPU time slows with wall time.
Medians of 20 s runs taken minutes apart differ by far more than any
bound worth gating on.

So every run samples the machine's *slowness* between its ops: the time
of a fixed pure-Python loop and of a fixed sparse LU factorization
(the two kinds of work this simulator does), each relative to its time
on the reference box, combined as a geometric mean (1.0 at the usual
speed, 1.3 when 30% slower).  Each op's time is divided by the
geometric mean of the samples taken just before and just after it, so
it reads as what it would have been at the reference speed.  Per-op
scaling follows speed changes inside a run; on the reference box it
cut the spread of per-class medians over 20 s windows from 6-9% to
2-3% in a quiet hour, and from 22-37% to 3-9% in a contended one.  It
cannot follow changes inside one long op, and under heavy contention
the behaviour-level model slows somewhat more than the samples do, so
contended runs still read a few percent slow.  The sampled work is the
harness's own, so no change to ``src/`` can move it.  Raw values stay
in the ``--out`` file.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional

#: Median times of the two sampled workloads on the reference box
#: (2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17).  They set only
#: the scale of normalised values.
REFERENCE_PY_S = 0.003
REFERENCE_LU_S = 0.005

#: Least time between two samples; a sample takes ~8 ms.
INTERVAL_S = 0.2

#: Units that scale with the speed: times down, rates up.
TIME_UNITS = {"s", "ms", "s/op", "ms/job"}
RATE_UNITS = {"1/s", "points/s", "vectors/s"}

_system = None


def _python_work(n: int) -> int:
    table: dict = {}
    total = 0
    for i in range(n):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += (i * i) % 7
    return total + len(table)


def _lu_system():
    """The fixed sparse system, built and exercised on first use so that
    imports and first-call costs stay out of every sample."""
    global _system
    if _system is None:
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        n = 50  # a 2500-node 2-D grid Laplacian, about a 35x35 crossbar
        line = sp.diags([-1.0, 2.05, -1.0], [-1, 0, 1], shape=(n, n))
        grid = sp.kron(sp.eye(n), line) + sp.kron(line, sp.eye(n))
        _system = (grid.tocsc(), np.ones(n * n), spla.splu)
        for _ in range(3):
            _python_work(25_000)
            _system[2](_system[0]).solve(_system[1])
    return _system


def measure() -> float:
    """The machine's slowness now (1.0 at the reference speed)."""
    matrix, rhs, splu = _lu_system()
    start = time.perf_counter()
    _python_work(25_000)
    middle = time.perf_counter()
    splu(matrix).solve(rhs)
    end = time.perf_counter()
    return math.sqrt((middle - start) / REFERENCE_PY_S
                     * (end - middle) / REFERENCE_LU_S)


class Sampler:
    """Slowness samples taken between ops, at most every INTERVAL_S.

    ``source`` takes one sample.  A process that runs the measured ops
    itself passes one that asks its parent, the run.py process, to
    sample, because a sample taken right after an op in the same process
    reads that op's cache and heap state, which a change under test
    could move.
    """

    def __init__(self, source: Callable[[], float] = measure) -> None:
        self.source = source
        self.samples: List[float] = []
        self.seconds = 0.0  # time spent sampling
        self._last = float("-inf")

    def take(self) -> int:
        """Sample now; returns the sample's index."""
        start = time.perf_counter()
        self.samples.append(self.source())
        self._last = time.perf_counter()
        self.seconds += self._last - start
        return len(self.samples) - 1

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def factor(self, before: int, after: Optional[int] = None) -> float:
        """Scale for work done between samples ``before`` and ``after``
        (default: the next sample, or none if there is none)."""
        after = before + 1 if after is None else after
        after = min(after, len(self.samples) - 1)
        return 1.0 / math.sqrt(self.samples[before] * self.samples[after])


def normalise(value: float, unit: str, factor: float) -> float:
    """Scale a measured value by a speed factor (see the module doc)."""
    if unit in TIME_UNITS:
        return value * factor
    if unit in RATE_UNITS:
        return value / factor
    return value
