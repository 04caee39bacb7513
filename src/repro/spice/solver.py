"""Modified-nodal-analysis solver for the full crossbar network.

The network modelled here is exactly the one the paper's Sec. VI derives
its behavior-level shortcut from: ``M x N`` memristor cells, ``2MN``
interconnect segments of resistance ``r`` (one wordline and one bitline
segment per cell), and ``N`` sense resistors ``R_s`` to ground.  Input
voltage sources drive the wordlines through the first wire segment.

Unknowns are the ``2MN`` internal node voltages (the input/output node of
every cell).  The memristor nonlinearity is handled by a damped
fixed-point iteration that re-evaluates each cell's effective conductance
at its present operating voltage — the "slow, exact" path that MNSIM's
analytic model is validated against and benchmarked for speed-up
(Tables II/III, Fig. 5).

Performance architecture (see DESIGN.md S3):

* **One-time structural assembly.**  The sparsity pattern of the MNA
  matrix depends only on the crossbar shape ``(M, N)``, never on the
  resistance values.  :class:`_CrossbarStructure` precomputes the COO
  index arrays and the COO→CSC dedup/permutation maps once per shape
  (cached module-wide), so every subsequent assembly is a handful of
  numpy array operations — no Python loops, no index recomputation.
* **Vectorized nonlinear update.**  Each fixed-point iteration evaluates
  :meth:`~repro.tech.memristor.MemristorModel.actual_resistance` on the
  whole ``(M, N)`` cell-voltage grid at once.
* **One matrix per solve.**  A solve builds its ``csc_matrix`` once;
  later fixed-point iterations refill its values in place with the same
  gather and sums, skipping scipy's constructor and ``check_format``.
* **Resident work memory.**  When this module loads, glibc's malloc
  mmap/trim thresholds are raised once (``mallopt``), so SuperLU's
  freed work arrays are reused instead of being faulted back in by
  every ``splu`` (DESIGN.md S38).
* **Factorization reuse.**  Each assembled matrix is LU-factorized once
  (``scipy.sparse.linalg.splu``) and back-substituted for however many
  right-hand sides need it: :meth:`CrossbarNetwork.solve_many` solves a
  whole batch of input vectors against a single factorization in the
  linear regime.
* **One solve path.**  Every member of :func:`solve_batch` (and of a
  nonlinear :meth:`CrossbarNetwork.solve_many`) runs the point-wise
  solve's own assembly and fixed point, one member after another, so
  a batched result is bit-identical to :meth:`CrossbarNetwork.solve`
  by construction (DESIGN.md S22).

``benchmarks/test_spice_solver_perf.py`` tracks the measured speedups in
``BENCH_spice.json`` at the repo root.

Observability (DESIGN.md S18): with :func:`repro.obs.enable` on, every
solve opens ``solver.solve`` / ``solver.solve_many`` /
``solver.solve_batch`` spans (a batch member's ``solver.solve`` nests
in its batch span) with nested ``solver.assemble`` /
``solver.factorize`` / ``solver.refine`` child spans (a factorize span
records its ``minor_faults``), and structural-assembly cache hits,
factorizations, refinement accepts and refactorize-on-stall events are
counted on ``repro_solver_events_total``.  Per-iteration residual
deltas are attached to the solve span only under
``repro.obs.enable(debug=True)``.
All hooks are no-ops by default — the disabled span is a cached
singleton costing ~0.1 us, held under 2% of even the smallest
benchmarked assembly.

Pickle-safety contract: :class:`CrossbarNetwork`, :class:`CrossbarSolution`
and every solver input (arrays, :class:`~repro.tech.memristor.
MemristorModel`) must stay picklable — :mod:`repro.runtime` ships them to
``ProcessPoolExecutor`` workers for parallel Monte-Carlo sampling.  Keep
state in plain attributes; no lambdas, local classes, or open handles.
(The cached structure is deliberately *not* pickled: workers rebuild it
once per shape on first use.)
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from repro.errors import SolverError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.tech.memristor import MemristorModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.faults
    # imports this module through its campaign runner)
    from repro.faults.models import FaultMask


def _count_solver_event(event: str, amount: int = 1) -> None:
    """Bump ``repro_solver_events_total{event=...}`` when obs is on.

    Gated on the trace switch so a disabled run pays a single global
    load per call — the solver sits on the hottest loop in the repo.
    """
    if _obs_trace.enabled():
        _obs_metrics.counter(
            "repro_solver_events_total",
            "Crossbar-solver events (assembly cache, factorize, refine)",
        ).inc(amount, event=event)

# Wire resistances below this are clamped to keep the MNA matrix
# well-conditioned (an exactly-zero r would short nodes together).
_MIN_WIRE_RESISTANCE = 1e-6

_DEFAULT_TOLERANCE = 1e-10
_DEFAULT_MAX_ITERATIONS = 60
_DAMPING = 0.7

# Iterative-refinement knobs for the frozen-LU nonlinear path: each
# fixed-point iteration perturbs the matrix only slightly (damped
# conductance updates on entries small against the wire conductances),
# so refinement against the first iteration's LU contracts by orders of
# magnitude per step until it hits the rounding floor of the system's
# conditioning.  A step is accepted at the target tolerance or at
# stagnation below the acceptance ceiling; anything worse refactorizes.
_REFINE_TOLERANCE = 1e-12
_REFINE_ACCEPT = 2e-12
_MAX_REFINE_STEPS = 30

# glibc malloc thresholds for every process that loads the solver
# (DESIGN.md S38).  SuperLU allocates and frees its work arrays on every
# ``splu``; at glibc's defaults the freed heap top is handed back to the
# kernel and faulted in again by the next factorization (~1 100-1 500
# minor faults per 64x64 ``splu``).  Arrays below the mmap threshold
# come from the heap, and the heap top is trimmed only above the trim
# threshold, so the work memory stays resident and is reused.  16/32 MB
# is the smallest pair that leaves no fault on 16x16-64x64 crossbars.
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, glibc malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 16 << 20
_TRIM_THRESHOLD_BYTES = 32 << 20


def _keep_work_memory_resident() -> None:
    """Set the malloc thresholds (a silent no-op without ``mallopt``).

    Called once, when this module loads, so before the first
    factorization of any process: fork-started workers inherit the
    setting and spawned ones import this module.  ``GLIBC_TUNABLES``
    cannot do this, because glibc reads it only at process start.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no mallopt here
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_work_memory_resident()


def _minor_faults() -> int:
    """This process's minor page faults so far (``ru_minflt``)."""
    return _resource.getrusage(_resource.RUSAGE_SELF).ru_minflt


class _CrossbarStructure:
    """Precomputed sparsity pattern of the ``(M, N)`` MNA system.

    Everything here depends only on the crossbar *shape*, so one instance
    serves every :class:`CrossbarNetwork` of that shape — Monte-Carlo
    trials, wire-resistance sweeps and nonlinear iterations all reuse it.

    The COO entry layout is fixed: first ``4MN`` cell-stamp entries
    (``+g, +g, -g, -g`` per cell, blocked so the per-iteration values
    vector is one ``concatenate`` of conductance views), then the
    constant wire/sense/input entries whose values depend only on
    ``r`` / ``R_s``.  ``order``/``starts``/``indices``/``indptr`` map the
    raw COO entries onto a duplicate-summed CSC matrix via
    ``np.add.reduceat`` — the assembly hot path is pure numpy.
    """

    def __init__(self, rows: int, cols: int) -> None:
        m, n = rows, cols
        num_nodes = 2 * m * n
        wl = np.arange(m * n, dtype=np.int64).reshape(m, n)
        bl = wl + m * n

        wf = wl.ravel()
        bf = bl.ravel()
        # Cell stamps: 4 blocks of MN entries (diag, diag, off, off).
        cell_rows = np.concatenate((wf, bf, wf, bf))
        cell_cols = np.concatenate((wf, bf, bf, wf))
        # Wordline segments (i, j) -- (i, j+1): 4 entries each.
        wa, wb = wl[:, :-1].ravel(), wl[:, 1:].ravel()
        # Bitline segments (i, j) -- (i+1, j): 4 entries each.
        ba, bb = bl[:-1, :].ravel(), bl[1:, :].ravel()
        seg_a = np.concatenate((wa, ba))
        seg_b = np.concatenate((wb, bb))
        seg_rows = np.concatenate((seg_a, seg_b, seg_a, seg_b))
        seg_cols = np.concatenate((seg_a, seg_b, seg_b, seg_a))
        # Input-source and sense-resistor diagonal stamps.
        input_nodes = wl[:, 0]
        output_nodes = bl[-1, :]

        rows_idx = np.concatenate(
            (cell_rows, seg_rows, input_nodes, output_nodes)
        )
        cols_idx = np.concatenate(
            (cell_cols, seg_cols, input_nodes, output_nodes)
        )

        self.rows = m
        self.cols = n
        self.num_nodes = num_nodes
        self.input_nodes = input_nodes
        self.output_nodes = output_nodes
        # Signs of the 4 segment blocks (+g, +g, -g, -g per segment).
        self._segment_signs = np.repeat(
            np.array([1.0, 1.0, -1.0, -1.0]), seg_a.size
        )

        # COO -> CSC with duplicate summation, precomputed: sort entries
        # by (col, row), group duplicates, and remember the maps.
        order = np.lexsort((rows_idx, cols_idx))
        sorted_rows = rows_idx[order]
        sorted_cols = cols_idx[order]
        boundary = np.empty(order.size, dtype=bool)
        boundary[0] = True
        np.logical_or(
            sorted_rows[1:] != sorted_rows[:-1],
            sorted_cols[1:] != sorted_cols[:-1],
            out=boundary[1:],
        )
        self.order = order
        self.starts = np.flatnonzero(boundary)
        self.csc_indices = sorted_rows[self.starts].astype(np.int32)
        self.csc_indptr = np.searchsorted(
            sorted_cols[self.starts], np.arange(num_nodes + 1)
        ).astype(np.int32)

    # ------------------------------------------------------------------
    def constant_values(
        self, wire_conductance: float, sense_conductance: float
    ) -> np.ndarray:
        """COO values of the resistance-independent tail entries."""
        return np.concatenate((
            self._segment_signs * wire_conductance,
            np.full(self.rows, wire_conductance),
            np.full(self.cols, sense_conductance),
        ))

    def wire_values(
        self,
        wl_segment_g: np.ndarray,
        bl_segment_g: np.ndarray,
        input_g: np.ndarray,
        sense_g: np.ndarray,
    ) -> np.ndarray:
        """COO tail values with *per-branch* conductances.

        The fault path uses this to drop (``g = 0``) or short whole
        word-/bit-lines without touching the sparsity structure: a
        dropped branch simply contributes nothing to the summed stamps.
        ``wl_segment_g`` is the row-major ``(rows, cols-1)`` wordline
        segment grid flattened; ``bl_segment_g`` the ``(rows-1, cols)``
        bitline one.
        """
        segments = np.concatenate((
            np.asarray(wl_segment_g, dtype=float).ravel(),
            np.asarray(bl_segment_g, dtype=float).ravel(),
        ))
        return np.concatenate((
            np.tile(segments, 4) * self._segment_signs,
            np.asarray(input_g, dtype=float),
            np.asarray(sense_g, dtype=float),
        ))

    def matrix(
        self,
        cell_conductances: np.ndarray,
        constant_tail: np.ndarray,
        out: Optional[sp.csc_matrix] = None,
    ) -> sp.csc_matrix:
        """Assemble the fixed-sparsity CSC conductance matrix.

        With ``out`` (a matrix this method built for the same shape) the
        new values are written into ``out.data`` in place and ``out`` is
        returned: same gather, same sums, no new matrix.
        """
        g = cell_conductances.ravel()
        values = np.concatenate((g, g, -g, -g, constant_tail))
        if out is not None:
            np.add.reduceat(values[self.order], self.starts, out=out.data)
            return out
        data = np.add.reduceat(values[self.order], self.starts)
        return sp.csc_matrix(
            (data, self.csc_indices, self.csc_indptr),
            shape=(self.num_nodes, self.num_nodes),
        )


_STRUCTURE_CACHE: Dict[Tuple[int, int], _CrossbarStructure] = {}


def clear_structure_cache() -> int:
    """Drop the shared per-shape structure cache; returns entries freed.

    The cache is pure memoization — a structure depends only on the
    crossbar shape, so fork-inherited entries are *correct* — but it
    retains the largest sparsity pattern ever assembled.  Long-lived
    pool workers sweeping many shapes, and memory-sensitive tests, use
    this as the reset hook (fork-safety convention, DESIGN.md S20).
    """
    freed = len(_STRUCTURE_CACHE)
    _STRUCTURE_CACHE.clear()
    return freed


def _structure_for(rows: int, cols: int) -> _CrossbarStructure:
    """The shared, lazily-built structure for an ``(M, N)`` crossbar."""
    key = (rows, cols)
    structure = _STRUCTURE_CACHE.get(key)
    if structure is None:
        _count_solver_event("structure_build")
        with _obs_trace.span("solver.build_structure", rows=rows, cols=cols):
            structure = _STRUCTURE_CACHE[key] = _CrossbarStructure(
                rows, cols
            )
    else:
        _count_solver_event("structure_cache_hit")
    return structure


@dataclass
class CrossbarSolution:
    """Result of one circuit-level crossbar solve.

    Attributes
    ----------
    output_voltages:
        Voltage across each column's sense resistor, shape ``(N,)``.
    cell_voltages:
        Voltage across each memristor cell, shape ``(M, N)``.
    cell_currents:
        Current through each cell, shape ``(M, N)``.
    input_currents:
        Current delivered by each input source, shape ``(M,)``.
    total_power:
        Total power delivered by the sources, watts.
    iterations:
        Nonlinear fixed-point iterations performed (1 for ideal devices).
    converged:
        Whether the nonlinear iteration met the tolerance.
    """

    output_voltages: np.ndarray
    cell_voltages: np.ndarray
    cell_currents: np.ndarray
    input_currents: np.ndarray
    total_power: float
    iterations: int
    converged: bool


@dataclass
class CrossbarSolutionBatch:
    """Results of a batched solve: one leading ``K`` axis per field.

    Produced by :meth:`CrossbarNetwork.solve_many` and
    :func:`solve_batch`.  Indexing with ``batch[k]`` recovers the
    ``k``-th :class:`CrossbarSolution`; the stacked arrays support
    vectorized post-processing of whole sweeps.

    ``failed`` is only populated by ``solve_batch(...,
    on_singular="mark")``: a true entry marks a member whose system was
    singular (or produced non-finite voltages) — its result arrays are
    NaN and ``converged`` is false.  It stays ``None`` on paths that
    raise instead of marking.
    """

    output_voltages: np.ndarray  # (K, N)
    cell_voltages: np.ndarray  # (K, M, N)
    cell_currents: np.ndarray  # (K, M, N)
    input_currents: np.ndarray  # (K, M)
    total_power: np.ndarray  # (K,)
    iterations: np.ndarray  # (K,) int
    converged: np.ndarray  # (K,) bool
    failed: Optional[np.ndarray] = None  # (K,) bool, solve_batch only

    def __len__(self) -> int:
        return self.output_voltages.shape[0]

    def __getitem__(self, k: int) -> CrossbarSolution:
        return CrossbarSolution(
            output_voltages=self.output_voltages[k],
            cell_voltages=self.cell_voltages[k],
            cell_currents=self.cell_currents[k],
            input_currents=self.input_currents[k],
            total_power=float(self.total_power[k]),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
        )


class CrossbarNetwork:
    """The resistor network of one crossbar, ready to solve.

    Parameters
    ----------
    resistances:
        Programmed (ideal, ohmic) cell resistances, shape ``(M, N)``.
    wire_resistance:
        Per-segment interconnect resistance ``r`` in ohms.
    sense_resistance:
        Sense resistor ``R_s`` per column in ohms.
    device:
        Optional memristor model supplying the nonlinear V-I curve; if
        ``None`` the cells are ideal ohmic resistors.
    fault_mask:
        Optional :class:`repro.faults.models.FaultMask`.  Stuck cells
        rewrite their stamp values to the device's ``r_min``/``r_max``
        (grid min/max without a device), open cells and open lines drop
        their branches from the MNA system, shorted lines collapse to
        the minimum wire resistance, and drift overlays multiply the
        programmed grid.  A mask that leaves nodes floating produces a
        singular system, surfaced as :class:`~repro.errors.SolverError`.
    """

    def __init__(
        self,
        resistances: np.ndarray,
        wire_resistance: float,
        sense_resistance: float,
        device: Optional[MemristorModel] = None,
        fault_mask: Optional["FaultMask"] = None,
    ) -> None:
        resistances = np.asarray(resistances, dtype=float)
        if resistances.ndim != 2:
            raise SolverError("resistances must be a 2-D (M x N) array")
        if np.any(resistances <= 0):
            raise SolverError("all cell resistances must be positive")
        if sense_resistance <= 0:
            raise SolverError("sense_resistance must be positive")
        if wire_resistance < 0:
            raise SolverError("wire_resistance must be non-negative")
        self.programmed_resistances = resistances
        self.rows, self.cols = resistances.shape
        self.wire_resistance = max(wire_resistance, _MIN_WIRE_RESISTANCE)
        self.sense_resistance = sense_resistance
        self.device = device
        self.fault_mask = fault_mask
        self._cell_gain: Optional[np.ndarray] = None
        if fault_mask is not None:
            if (fault_mask.rows, fault_mask.cols) != resistances.shape:
                raise SolverError(
                    f"fault mask shape ({fault_mask.rows}, "
                    f"{fault_mask.cols}) does not match the "
                    f"{self.rows}x{self.cols} crossbar"
                )
            r_on = device.r_min if device is not None else float(
                resistances.min()
            )
            r_off = device.r_max if device is not None else float(
                resistances.max()
            )
            resistances = fault_mask.apply_to_resistances(
                resistances, r_on, r_off
            )
            self._cell_gain = fault_mask.cell_conductance_gain()
            _count_solver_event("fault_mask_applied")
        self.resistances = resistances
        self._constant_tail: Optional[np.ndarray] = None

    # The per-shape structure and the constant COO tail are derived
    # state; keep them out of pickles (workers rebuild on first use).
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_constant_tail"] = None
        return state

    # ------------------------------------------------------------------
    # Node numbering: wordline node of cell (i, j) -> i*N + j
    #                 bitline  node of cell (i, j) -> M*N + i*N + j
    # ------------------------------------------------------------------
    def _wl(self, i: int, j: int) -> int:
        return i * self.cols + j

    def _bl(self, i: int, j: int) -> int:
        return self.rows * self.cols + i * self.cols + j

    @property
    def num_nodes(self) -> int:
        """Internal unknown node count (2MN, per Sec. VI)."""
        return 2 * self.rows * self.cols

    @property
    def structure(self) -> _CrossbarStructure:
        """The (shared, cached) sparsity structure for this shape."""
        return _structure_for(self.rows, self.cols)

    # ------------------------------------------------------------------
    def _base_conductances(self) -> np.ndarray:
        """Programmed cell conductances with open-cell branches dropped."""
        conductances = 1.0 / self.resistances
        if self._cell_gain is not None:
            conductances = conductances * self._cell_gain
        return conductances

    def _wire_tail(self) -> np.ndarray:
        """The (cached) constant COO tail, honouring any line faults."""
        if self._constant_tail is not None:
            return self._constant_tail
        structure = self.structure
        g_wire = 1.0 / self.wire_resistance
        g_sense = 1.0 / self.sense_resistance
        mask = self.fault_mask
        if mask is None or not mask.has_line_faults:
            self._constant_tail = structure.constant_values(g_wire, g_sense)
            return self._constant_tail
        g_short = 1.0 / _MIN_WIRE_RESISTANCE
        wl_seg = np.full((self.rows, max(self.cols - 1, 0)), g_wire)
        bl_seg = np.full((max(self.rows - 1, 0), self.cols), g_wire)
        sense_g = np.full(self.cols, g_sense)
        for i in mask.short_wordlines:
            wl_seg[i, :] = g_short
        for j in mask.short_bitlines:
            bl_seg[:, j] = g_short
        for i in mask.open_wordlines:
            wl_seg[i, :] = 0.0
        for j in mask.open_bitlines:
            bl_seg[:, j] = 0.0
        self._constant_tail = structure.wire_values(
            wl_seg, bl_seg, self._input_conductances(), sense_g
        )
        return self._constant_tail

    def _input_conductances(self) -> np.ndarray:
        """Per-row source-branch conductance (zero on open wordlines)."""
        g_wire = np.full(self.rows, 1.0 / self.wire_resistance)
        if self.fault_mask is not None:
            for i in self.fault_mask.open_wordlines:
                g_wire[i] = 0.0
        return g_wire

    def _matrix(
        self,
        cell_conductances: np.ndarray,
        out: Optional[sp.csc_matrix] = None,
    ) -> sp.csc_matrix:
        """The CSC conductance matrix at the given cell conductances.

        ``out`` is refilled in place (:meth:`_CrossbarStructure.matrix`).
        """
        structure = self.structure
        tail = self._wire_tail()
        with _obs_trace.span("solver.assemble"):
            return structure.matrix(cell_conductances, tail, out)

    def _rhs(self, inputs: np.ndarray) -> np.ndarray:
        """RHS vector(s): source currents into the first WL segments.

        ``inputs`` of shape ``(M,)`` gives a ``(2MN,)`` vector; a batch
        of shape ``(K, M)`` gives a ``(2MN, K)`` column-per-vector RHS.
        An open wordline's source branch is dropped, so its row drives
        no current regardless of the input value.
        """
        g_input = self._input_conductances()
        nodes = self.structure.input_nodes
        if inputs.ndim == 1:
            rhs = np.zeros(self.num_nodes)
            rhs[nodes] = g_input * inputs
        else:
            rhs = np.zeros((self.num_nodes, inputs.shape[0]))
            rhs[nodes, :] = g_input[:, np.newaxis] * inputs.T
        return rhs

    def _factorize(self, matrix: sp.csc_matrix) -> spla.SuperLU:
        """LU-factorize the MNA matrix, surfacing singularity clearly.

        The MNA system is a symmetric M-matrix, so SuperLU's symmetric
        mode with an AT+A ordering beats the default COLAMD here.
        """
        _count_solver_event("factorize")
        try:
            with _obs_trace.span(
                "solver.factorize", nodes=self.num_nodes
            ) as factorize_span:
                faults = (
                    _minor_faults()
                    if _resource is not None and _obs_trace.enabled()
                    else None
                )
                lu = spla.splu(
                    matrix,
                    permc_spec="MMD_AT_PLUS_A",
                    options={"SymmetricMode": True},
                )
                if faults is not None:
                    factorize_span.set(minor_faults=_minor_faults() - faults)
                return lu
        except RuntimeError as exc:
            raise SolverError(
                f"singular MNA system ({self.rows}x{self.cols} crossbar, "
                f"wire_resistance={self.wire_resistance:g} ohm, "
                f"sense_resistance={self.sense_resistance:g} ohm): {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _is_nonlinear(self) -> bool:
        return self.device is not None and not np.isinf(
            getattr(self.device, "nonlinearity_v0", np.inf)
        )

    def solve(
        self,
        inputs: np.ndarray,
        tolerance: float = _DEFAULT_TOLERANCE,
        max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    ) -> CrossbarSolution:
        """Solve the network for the given input voltage vector.

        Runs the linear MNA solve, then (for nonlinear devices) iterates:
        evaluate the cell-voltage grid, update every cell's effective
        conductance ``I(V)/V`` from the sinh characteristic in one array
        operation, and re-solve, with damping, until node voltages stop
        moving.

        Raises
        ------
        SolverError
            On malformed inputs or a singular system.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            raise SolverError(
                f"inputs must have shape ({self.rows},), got {inputs.shape}"
            )

        voltages, conductances, iterations, converged = self._solve_nodes(
            inputs, tolerance, max_iterations
        )
        if _obs_trace.enabled():
            _count_solver_event("pointwise_solve")
            _count_solver_event("fixed_point_iterations", iterations)
        return self._package(voltages, conductances, inputs, iterations,
                             converged)

    def _solve_nodes(
        self,
        inputs: np.ndarray,
        tolerance: float,
        max_iterations: int,
    ) -> Tuple[np.ndarray, np.ndarray, int, bool]:
        """Fixed-point node solve; returns (V, G, iterations, converged).

        The RHS depends only on ``inputs``, so it is built once.  So is
        the CSC matrix: later iterations refill its values in place,
        which is safe because ``splu`` copies the matrix into its own
        L/U storage.  The system is LU-factorized on the first iteration
        only; later iterations perturb the matrix slightly (damped
        conductance updates), so their solves run as iterative
        refinement against the frozen factorization — a couple of
        matvec/back-substitution steps instead of a fresh ``splu``.  If
        refinement ever stalls, the solver transparently refactorizes at
        the current matrix.
        """
        conductances = self._base_conductances()
        rhs = self._rhs(inputs)
        voltages = None
        converged = True
        iterations = 0
        nonlinear = self._is_nonlinear()

        max_rounds = max_iterations if nonlinear else 1
        previous = None
        matrix = None
        lu = None
        debug = _obs_trace.debug_enabled()
        residuals = [] if debug else None
        with _obs_trace.span(
            "solver.solve", rows=self.rows, cols=self.cols,
            nonlinear=nonlinear,
        ) as solve_span:
            # Read after the loop (returned iteration count) — a B007
            # blind spot.
            for iterations in range(1, max_rounds + 1):  # noqa: B007
                matrix = self._matrix(conductances, matrix)
                if lu is None:
                    lu = self._factorize(matrix)
                    voltages = lu.solve(rhs)
                else:
                    with _obs_trace.span("solver.refine"):
                        voltages = _refined_solve(lu, matrix, rhs, voltages)
                    if voltages is None:
                        # Refinement stalled against the frozen LU:
                        # refactorize at the current operating point.
                        _count_solver_event("refactorize_on_stall")
                        lu = self._factorize(matrix)
                        voltages = lu.solve(rhs)
                    else:
                        _count_solver_event("refine_accept")
                if np.any(~np.isfinite(voltages)):
                    raise SolverError(
                        "solver produced non-finite node voltages"
                    )

                if not nonlinear:
                    break

                v_cell = self._cell_voltages(voltages)
                new_cond = 1.0 / self.device.actual_resistance(
                    self.resistances, v_cell
                )
                if self._cell_gain is not None:
                    new_cond = new_cond * self._cell_gain
                conductances = (
                    _DAMPING * new_cond + (1.0 - _DAMPING) * conductances
                )

                if previous is not None:
                    delta = float(np.max(np.abs(voltages - previous)))
                    if debug:
                        residuals.append(delta)
                    if delta < tolerance:
                        break
                previous = voltages
            else:  # pragma: no cover - pathological devices only
                converged = False
            solve_span.set(iterations=iterations, converged=converged)
            if debug:
                solve_span.set(residuals=residuals)
        return voltages, conductances, iterations, converged

    def solve_many(
        self,
        inputs: np.ndarray,
        tolerance: float = _DEFAULT_TOLERANCE,
        max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    ) -> CrossbarSolutionBatch:
        """Solve a batch of ``K`` input vectors, shape ``(K, M)``.

        In the linear regime (no device, or an ideal ohmic one) the
        conductance matrix is independent of the inputs, so the system
        is assembled and LU-factorized **once** and all ``K`` right-hand
        sides are back-substituted against the same factorization —
        the dominant cost of a solve is paid once per batch instead of
        once per vector.  SuperLU solves the K columns with other BLAS
        calls than K single solves, so these results equal
        :meth:`solve` to ~1e-16 relative, bit for bit only on some BLAS
        kernels (AVX-512 yes, OpenBLAS's Haswell and Zen no).

        Nonlinear devices shift every cell's operating point with the
        inputs, so each vector keeps its own (exact) fixed-point
        iteration; the batch runs through :func:`solve_batch`, whose
        per-member loop makes each result bit-identical to
        :meth:`solve`.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SolverError(
                f"batched inputs must have shape (K, {self.rows}), "
                f"got {inputs.shape}"
            )
        k = inputs.shape[0]
        if k == 0:
            raise SolverError("batched solve needs at least one vector")

        with _obs_trace.span(
            "solver.solve_many", rows=self.rows, cols=self.cols,
            batch=k,
        ):
            if self._is_nonlinear():
                return solve_batch(
                    [self] * k, inputs, tolerance, max_iterations
                )
            conductances = self._base_conductances()
            matrix = self._matrix(conductances)
            rhs = self._rhs(inputs)
            voltages = self._factorize(matrix).solve(rhs)
            if np.any(~np.isfinite(voltages)):
                raise SolverError("solver produced non-finite node voltages")
            iterations = np.ones(k, dtype=np.int64)
            _count_batched_solve(iterations)
            return self._package_batch(
                voltages, conductances, inputs,
                iterations, np.ones(k, dtype=bool),
            )

    # ------------------------------------------------------------------
    def _cell_voltages(self, voltages: np.ndarray) -> np.ndarray:
        m, n = self.rows, self.cols
        wl = voltages[: m * n].reshape(m, n)
        bl = voltages[m * n:].reshape(m, n)
        return wl - bl

    def _package(
        self,
        voltages: np.ndarray,
        conductances: np.ndarray,
        inputs: np.ndarray,
        iterations: int,
        converged: bool,
    ) -> CrossbarSolution:
        structure = self.structure
        v_cell = self._cell_voltages(voltages)
        i_cell = v_cell * conductances
        v_out = voltages[structure.output_nodes]
        g_input = self._input_conductances()
        i_in = (inputs - voltages[structure.input_nodes]) * g_input
        total_power = float(np.dot(inputs, i_in))
        return CrossbarSolution(
            output_voltages=np.asarray(v_out, dtype=float),
            cell_voltages=v_cell,
            cell_currents=i_cell,
            input_currents=np.asarray(i_in, dtype=float),
            total_power=total_power,
            iterations=iterations,
            converged=converged,
        )

    def _package_batch(
        self,
        voltages: np.ndarray,  # (2MN, K)
        conductances: np.ndarray,  # (M, N), shared across the batch
        inputs: np.ndarray,  # (K, M)
        iterations: np.ndarray,
        converged: np.ndarray,
    ) -> CrossbarSolutionBatch:
        m, n = self.rows, self.cols
        k = inputs.shape[0]
        structure = self.structure
        wl = voltages[: m * n, :].T.reshape(k, m, n)
        bl = voltages[m * n:, :].T.reshape(k, m, n)
        v_cell = wl - bl
        i_cell = v_cell * conductances
        v_out = voltages[structure.output_nodes, :].T
        g_input = self._input_conductances()
        i_in = (inputs - voltages[structure.input_nodes, :].T) * g_input
        total_power = np.einsum("km,km->k", inputs, i_in)
        return CrossbarSolutionBatch(
            output_voltages=v_out,
            cell_voltages=v_cell,
            cell_currents=i_cell,
            input_currents=i_in,
            total_power=total_power,
            iterations=iterations,
            converged=converged,
        )


# ----------------------------------------------------------------------
# Batched solving (DESIGN.md S22)
# ----------------------------------------------------------------------
#: Histogram buckets for ``repro_solver_batch_size`` (members per call).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _count_batched_solve(iterations: np.ndarray) -> None:
    """Record one batched call on the obs metrics (when on).

    ``iterations`` holds one fixed-point count per member, so the call
    adds its size to ``repro_solver_batched_solves_total`` and the
    members' iterations to the ``fixed_point_iterations`` event.
    """
    if _obs_trace.enabled():
        batch = len(iterations)
        _obs_metrics.histogram(
            "repro_solver_batch_size",
            "Members per batched solve call",
            buckets=_BATCH_SIZE_BUCKETS,
        ).observe(float(batch))
        _obs_metrics.counter(
            "repro_solver_batched_solves_total",
            "Crossbar solves executed through the batched path",
        ).inc(batch)
        _count_solver_event(
            "fixed_point_iterations", int(np.sum(iterations))
        )


def solve_batch(
    networks: Sequence[CrossbarNetwork],
    inputs: np.ndarray,
    tolerance: float = _DEFAULT_TOLERANCE,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    *,
    on_singular: str = "raise",
) -> CrossbarSolutionBatch:
    """Solve ``B`` same-shape crossbars, one input vector each.

    One member loop for every device: each member runs the same
    assembly, factorization and (for nonlinear devices) fixed point as
    :meth:`CrossbarNetwork.solve`, so every member is bit-identical to
    its point-wise solve.  The fault layer relies on that for
    schedule-independent reproducibility, and it is why batching never
    changes a cache key.  Stacking the members' assembly into one
    sweep, or their nonlinear rounds into one loop, measured at parity
    or slower than this loop and was deleted (DESIGN.md S22).

    Parameters
    ----------
    networks:
        The batch members.  All must share one shape and one device
        model; wire/sense parameters and fault masks may differ freely
        per member.
    inputs:
        Input voltage vectors, shape ``(B, M)`` — row ``b`` drives
        ``networks[b]``.
    tolerance / max_iterations:
        Fixed-point knobs, as in :meth:`CrossbarNetwork.solve`.
    on_singular:
        ``"raise"`` (default) surfaces the first singular member as
        :class:`~repro.errors.SolverError`, like the point-wise path.
        ``"mark"`` records the member in the result's ``failed`` array
        (NaN outputs, ``converged=False``) and keeps solving the rest —
        the fault-campaign contract, where a singular mask is a valid
        *failed trial*, not an error.
    """
    networks = list(networks)
    if not networks:
        raise SolverError("solve_batch needs at least one network")
    if on_singular not in ("raise", "mark"):
        raise SolverError(
            f"on_singular must be 'raise' or 'mark', got {on_singular!r}"
        )
    first = networks[0]
    for net in networks:
        if (net.rows, net.cols) != (first.rows, first.cols):
            raise SolverError(
                "solve_batch members must share one shape; got "
                f"{net.rows}x{net.cols} and {first.rows}x{first.cols}"
            )
        if not (net.device is first.device or net.device == first.device):
            raise SolverError(
                "solve_batch members must share one device model"
            )
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (len(networks), first.rows):
        raise SolverError(
            f"batched inputs must have shape ({len(networks)}, "
            f"{first.rows}), got {inputs.shape}"
        )
    batch, m, n = len(networks), first.rows, first.cols
    result = CrossbarSolutionBatch(
        output_voltages=np.full((batch, n), np.nan),
        cell_voltages=np.full((batch, m, n), np.nan),
        cell_currents=np.full((batch, m, n), np.nan),
        input_currents=np.full((batch, m), np.nan),
        total_power=np.full(batch, np.nan),
        iterations=np.zeros(batch, dtype=np.int64),
        converged=np.zeros(batch, dtype=bool),
        failed=np.zeros(batch, dtype=bool) if on_singular == "mark"
        else None,
    )
    with _obs_trace.span(
        "solver.solve_batch", rows=m, cols=n, batch=batch,
        nonlinear=first._is_nonlinear(),
    ):
        for index, net in enumerate(networks):
            try:
                voltages, conductances, iterations, converged = (
                    net._solve_nodes(inputs[index], tolerance,
                                     max_iterations)
                )
            except SolverError:
                if result.failed is None:
                    raise
                result.failed[index] = True
                continue
            solution = net._package(
                voltages, conductances, inputs[index], iterations,
                converged,
            )
            result.output_voltages[index] = solution.output_voltages
            result.cell_voltages[index] = solution.cell_voltages
            result.cell_currents[index] = solution.cell_currents
            result.input_currents[index] = solution.input_currents
            result.total_power[index] = solution.total_power
            result.iterations[index] = iterations
            result.converged[index] = converged
        _count_batched_solve(result.iterations)
    return result


def _refined_solve(
    lu: spla.SuperLU,
    matrix: sp.csc_matrix,
    rhs: np.ndarray,
    guess: np.ndarray,
) -> Optional[np.ndarray]:
    """Solve ``matrix @ x = rhs`` by iterative refinement against ``lu``.

    ``lu`` is the factorization of a nearby matrix (the previous
    nonlinear iterate) and ``guess`` the previous solution; each step
    applies the correction ``lu.solve(rhs - matrix @ x)``.  Accepts at
    :data:`_REFINE_TOLERANCE` (relative), or — since rounding noise
    floors the correction near ``eps * cond`` — at stagnation if the
    correction is already below :data:`_REFINE_ACCEPT`.  Returns
    ``None`` when neither holds within :data:`_MAX_REFINE_STEPS`; the
    caller then refactorizes.
    """
    x = guess
    previous_norm = np.inf
    for _ in range(_MAX_REFINE_STEPS):
        correction = lu.solve(rhs - matrix @ x)
        if not np.all(np.isfinite(correction)):
            return None
        x = x + correction
        norm = float(np.max(np.abs(correction)))
        scale = float(np.max(np.abs(x))) or 1.0
        if norm <= _REFINE_TOLERANCE * scale:
            return x
        if norm >= 0.5 * previous_norm:  # hit the rounding floor
            return x if norm <= _REFINE_ACCEPT * scale else None
        previous_norm = norm
    return None


def ideal_output_voltages(
    resistances: np.ndarray,
    inputs: np.ndarray,
    sense_resistance: float,
) -> np.ndarray:
    """Ideal (r = 0, ohmic) column outputs per Eq. 1/Eq. 2 of the paper.

    For column ``k``: ``v_out = sum_j g_jk v_j / (g_s + sum_j g_jk)``,
    the exact solution of each column divider with zero wire resistance.
    ``inputs`` may be one vector ``(M,)`` or a batch ``(K, M)`` (the
    result then has a matching leading axis).
    """
    resistances = np.asarray(resistances, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if resistances.ndim != 2 or inputs.shape[-1] != resistances.shape[0]:
        raise SolverError("shape mismatch between resistances and inputs")
    conductances = 1.0 / resistances
    g_sense = 1.0 / sense_resistance
    numerator = inputs @ conductances
    denominator = g_sense + conductances.sum(axis=0)
    return numerator / denominator
