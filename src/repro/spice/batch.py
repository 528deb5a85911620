"""Batched ensemble Newton: many independent DC points as one tensor.

Monte-Carlo populations and source sweeps solve the *same* circuit
topology at many independent points -- only per-device parameters (a
mismatch draw) or a source value (a sweep point) differ.  The serial
path pays one full Python Newton loop per point; this module solves the
whole population as one stacked system instead:

* a :class:`LaneSpec` describes one population member ("lane") as a
  perturbation of the base circuit -- per-device VT/beta deltas, scaled
  resistors, overridden source values -- without mutating anything;
* :class:`BatchAssembler` runs the compile-once
  :class:`~repro.spice.assembly.CircuitAssembler` kernels over ``(B,
  N)`` lane rows with per-lane overlays: the MOS/diode banks are
  evaluated over ``(B, n_devices)`` voltage arrays in one numpy call
  and scattered into a ``(B, N, N)`` stacked Jacobian;
* :func:`batch_newton` runs damped Newton on all lanes at once -- one
  ``np.linalg.solve`` on the stacked Jacobian per iteration (LAPACK's
  batched path) -- with per-lane damping, convergence and stall
  detection.  Converged lanes freeze and leave the active set, so the
  work per iteration shrinks as the population converges;
* :func:`batch_operating_point` orchestrates the whole solve: stacked
  Newton, then the stacked pseudo-transient rung for the lanes Newton
  lost, each lane from the start a serial solve would use.  A lane both
  phases lose fails with their stage reports as its forensic
  :class:`~repro.spice.strategies.SolverDiagnostics`.

The per-lane Newton math mirrors the serial kernel exactly (same
damping rule, same update-norm convergence criterion via
:func:`~repro.spice.strategies.step_converged`, same stall window), so
a lane's trajectory matches its serial solve to LAPACK rounding --
population summaries agree with the serial backend far inside 1e-9
relative tolerance.

Circuits that resolve to the sparse backend
(:meth:`~repro.spice.netlist.CompiledCircuit.solver_backend`) swap the
dense ``(B, N, N)`` tensor for a shared-pattern sparse path: every lane
of an ensemble has the *same* sparsity structure, so the symbolic work
(triplet dedup, CSC ``indices``/``indptr``, the COLAMD column ordering)
is computed **once** per campaign and each Newton iteration only
refactors per-active-lane numeric data rows ``(B, nnz)`` over it.  That
is what makes thousand-unknown mismatch campaigns (the 32-bit adder,
the transistor-level ADC slices) feasible as ensembles instead of
one-lane-at-a-time serial solves.

:class:`BatchedOpMetric` and :class:`BatchedTranMetric` package the
pattern for the analysis layer: one spec object is both a plain
callable (the serial path: build, perturb, solve, measure) and the
vectorizable description the batched backend of
:class:`~repro.analysis.montecarlo.MonteCarlo` consumes.  That backend
and the batched :func:`~repro.spice.dc.dc_sweep` reach the engine
through :func:`run_lanes`, which turns a population of lanes into one
ordered outcome per lane.
"""

from __future__ import annotations

import dataclasses
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .. import telemetry
from ..errors import AnalysisError, ConvergenceError, NetlistError, evaluate
from .elements import CurrentSource, Resistor, VoltageSource
from .sparse import SparseSystem
from .strategies import (STALL_WINDOW, NewtonOptions, SolverDiagnostics,
                         StageReport, ladder_failure,
                         pseudo_transient_lanes, step_converged)
from .assembly import CircuitAssembler, LazyDeviceOps, _two_terminal
from .dc import _nan_point, _package, operating_point
from .results import TranResult
from .transient import (TransientOptions, _Stepper, _check_options,
                        transient)
from .waveforms import dc_wave

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import Circuit, CompiledCircuit
    from .results import OpResult

#: Stage name of the stacked Newton phase in :class:`SolverDiagnostics`.
BATCHED_STAGE = "batched-newton"

#: Stage name of the batched pseudo-transient continuation phase.
BATCHED_PSEUDO_TRANSIENT_STAGE = "batched-pseudo-transient"


@dataclass(frozen=True, eq=False)
class LaneSpec:
    """One population member, described as a perturbation of the base
    circuit.

    All fields are optional; an empty ``LaneSpec()`` is the unperturbed
    base circuit.

    Attributes:
        vt_delta: Additive VT shift per MOS element [V], in
            ``circuit.mos_elements()`` order (length ``n_mos``).
        beta_scale: Multiplicative current-factor error per MOS element,
            same order/length.
        resistor_scale: ``(name, factor)`` pairs scaling named
            resistors.
        source_values: ``(name, value)`` pairs overriding the DC value
            of named independent sources.
        label: Free-form tag for diagnostics (seed, sweep value).
    """

    vt_delta: np.ndarray | None = None
    beta_scale: np.ndarray | None = None
    resistor_scale: tuple[tuple[str, float], ...] = ()
    source_values: tuple[tuple[str, float], ...] = ()
    label: str = ""

    @classmethod
    def mismatch(cls, vt_delta, beta_scale=None,
                 label: str = "") -> "LaneSpec":
        """Lane from per-device mismatch arrays (bank order)."""
        return cls(vt_delta=np.asarray(vt_delta, dtype=float),
                   beta_scale=(None if beta_scale is None
                               else np.asarray(beta_scale, dtype=float)),
                   label=label)

    @classmethod
    def source(cls, name: str, value: float,
               label: str = "") -> "LaneSpec":
        """Lane overriding one independent source's DC value."""
        return cls(source_values=((name, float(value)),), label=label)


def _expand_bank_arrays(lane: LaneSpec, n_top: int, n_bank: int,
                        circuit_name: str) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a lane's mismatch arrays to full-bank ``(n_bank,)``
    shape: top-level-length arrays land on the bank's head (top-level
    elements lead the bank), full-bank arrays pass through, anything
    else is a spec error."""
    vt = np.zeros(n_bank)
    beta = np.ones(n_bank)
    for label, arr, out in (("vt_delta", lane.vt_delta, vt),
                            ("beta_scale", lane.beta_scale, beta)):
        if arr is None:
            continue
        arr = np.asarray(arr, dtype=float)
        if arr.size == n_bank:
            out[:] = arr
        elif arr.size == n_top:
            out[:n_top] = arr
        else:
            raise AnalysisError(
                f"lane {lane.label!r}: {label} has {arr.size} entries "
                f"for {n_top} top-level / {n_bank} total MOS devices "
                f"of {circuit_name!r} (bank order)")
    return vt, beta


def apply_lane(circuit: "Circuit", lane: LaneSpec) -> Callable[[], None]:
    """Mutate ``circuit`` into the lane's perturbed twin; return an undo.

    This is the *serial* realization of a :class:`LaneSpec` -- the
    pilot, the transient engine's serial reruns and the serial paths of
    the spec objects go through it, so batched and serial evaluations
    perturb the circuit identically.

    Resistor and source values are written first and the compiled
    assembler synced to them; a mismatch lane then becomes a
    :meth:`~repro.devices.mosfet.MosBank.overlay` on that assembler's
    device bank, the same ``vt + delta`` / ``i_spec * scale`` arrays a
    :class:`BatchAssembler` lane evaluates.  The order matters: a value
    written after the overlay would make the next solve's ``sync()``
    rebuild the bank and drop it.  Mismatch arrays address the
    top-level ``circuit.mos_elements()`` (the bank's head) or, on
    hierarchical circuits, the *full device bank* (top-level elements
    followed by every subcircuit instance's devices, in the order
    ``compiled.assembler._mos_names`` lists).  The undo restores the
    original bank and values.
    """
    undos = []
    for name, factor in lane.resistor_scale:
        element = circuit.element(name)
        if not isinstance(element, Resistor):
            raise AnalysisError(f"{name!r} is not a resistor")
        saved = element.resistance

        def _restore_r(element=element, saved=saved):
            element.resistance = saved
        undos.append(_restore_r)
        element.resistance = saved * factor
    for name, value in lane.source_values:
        element = circuit.element(name)
        if not isinstance(element, (VoltageSource, CurrentSource)):
            raise AnalysisError(f"{name!r} is not an independent source")
        saved = element.waveform

        def _restore_s(element=element, saved=saved):
            element.waveform = saved
        undos.append(_restore_s)
        element.waveform = dc_wave(float(value))
    if lane.vt_delta is not None or lane.beta_scale is not None:
        asm = circuit.compile().prepare()
        bank = asm._mos_bank
        vt, beta = _expand_bank_arrays(
            lane, len(circuit.mos_elements()),
            0 if bank is None else bank.n_devices, circuit.name)
        if bank is not None:
            asm._mos_bank = bank.overlay(bank.vt + vt, bank.i_spec * beta)

            def _restore_bank():
                asm._mos_bank = bank
            undos.append(_restore_bank)

    def undo_all() -> None:
        for undo in reversed(undos):
            undo()
    return undo_all


class BatchAssembler(CircuitAssembler):
    """Stacked ``(A, N)`` assembly over one compiled circuit.

    The stamping kernels are the serial assembler's: they take a stack
    of lane rows as they take one vector.  This class adds only the
    per-lane parameter overlays, through the hooks the kernels call --
    VT / beta arrays of shape ``(B, n_mos)`` (:meth:`_lane_bank`),
    per-lane source values (:meth:`_source_terms`) and per-lane delta
    conductances of scaled resistors (:meth:`_stamp_overlays`).
    :meth:`assemble_batch` then assembles any subset of lanes (the
    batched Newton loop's shrinking active set) in one pass of numpy
    calls.

    Construction builds no arrays: it syncs the compiled circuit's own
    assembler and takes over its arrays and scatter patterns (so both
    share the patterns' stacked index forms), then derives the lane
    overlays from them.  A :meth:`sync` that rebuilds rebuilds this
    assembler's arrays alone, and its lane overlays with them.
    """

    def __init__(self, compiled: "CompiledCircuit",
                 lanes: Sequence[LaneSpec]) -> None:
        # The synced arrays and patterns of the compiled circuit's own
        # assembler become this one's: no build pass runs here.
        vars(self).update(vars(compiled.prepare()))
        self.lanes = list(lanes)
        self.batch = len(self.lanes)
        if self.batch == 0:
            raise AnalysisError("empty lane list")
        #: Whether the stacked Newton loop solves lanes through the
        #: shared-pattern sparse backend (set by :meth:`enable_sparse`).
        self.use_sparse = False
        self._batch_sparse_system: SparseSystem | None = None
        self._build_lane_overlays()

    def sync(self) -> bool:
        """:meth:`CircuitAssembler.sync`, rebuilding the lane overlays
        whenever the arrays they derive from were rebuilt."""
        rebuilt = super().sync()
        if rebuilt:
            self._build_lane_overlays()
        return rebuilt

    # -- lane overlays --------------------------------------------------

    def _build_lane_overlays(self) -> None:
        """Per-lane VT / I_spec rows, resistor delta conductances and
        source overrides, from the current arrays; drops the kept MOS
        overlay (see :meth:`_lane_bank`)."""
        self._overlay: tuple | None = None
        n_mos = len(self._mos)
        n_bank = len(self._mos_all)
        vt_rows, beta_rows = [], []
        any_mos = False
        for lane in self.lanes:
            # Lanes may address the top-level elements (head of the
            # bank, instance tail untouched) or the full device bank --
            # the hierarchical-mismatch contract apply_lane shares.
            vt, beta = _expand_bank_arrays(
                lane, n_mos, n_bank, self.compiled.circuit.name)
            any_mos |= (lane.vt_delta is not None
                        or lane.beta_scale is not None)
            vt_rows.append(vt)
            beta_rows.append(beta)
        self._mos_vt_b = None
        self._mos_ispec_b = None
        if any_mos and self._mos_bank is not None:
            bank = self._mos_bank
            self._mos_vt_b = bank.vt[None, :] + np.vstack(vt_rows)
            self._mos_ispec_b = bank.i_spec[None, :] * np.vstack(beta_rows)

        # Resistor overlays: one column per resistor any lane scales.
        over_names: list[str] = []
        for lane in self.lanes:
            for name, _factor in lane.resistor_scale:
                if name not in over_names:
                    over_names.append(name)
        self._rov_dg = None
        if over_names:
            by_name = {r.name: r for r in self._resistors}
            elements = []
            for name in over_names:
                if name not in by_name:
                    raise AnalysisError(
                        f"{name!r} is not a resistor of "
                        f"{self.compiled.circuit.name!r}")
                elements.append(by_name[name])
            self._rov_gather, self._rov_current, self._rov_jacobian = \
                _two_terminal(
                    np.array([e._idx[0] for e in elements], dtype=np.intp),
                    np.array([e._idx[1] for e in elements], dtype=np.intp),
                    self.size)
            dg = np.zeros((self.batch, len(elements)))
            base_g = np.array([1.0 / e.resistance for e in elements])
            for li, lane in enumerate(self.lanes):
                for name, factor in lane.resistor_scale:
                    k = over_names.index(name)
                    if factor <= 0.0:
                        raise AnalysisError(
                            f"lane {lane.label!r}: resistor scale for "
                            f"{name!r} must be positive, got {factor}")
                    dg[li, k] = base_g[k] / factor - base_g[k]
            self._rov_dg = dg

        # Source overrides: per lane, the residual terms of the value
        # replacing a source's waveform, and where they go.  Names
        # resolve against the top-level sources only, so a template
        # source that happens to share a top-level source's name is
        # never overridden.
        top = {id(e) for e in (*self._vsources, *self._isources)}
        position = {e.name: k for k, e in enumerate(self._sources)
                    if id(e) in top}
        scatter = self._src_scatter
        self._src_override = None
        if any(lane.source_values for lane in self.lanes):
            terms = np.zeros((self.batch, scatter.sign.size))
            overridden = np.zeros(terms.shape, dtype=bool)
            for li, lane in enumerate(self.lanes):
                for name, value in lane.source_values:
                    if name not in position:
                        raise AnalysisError(
                            f"{name!r} is not an independent source of "
                            f"{self.compiled.circuit.name!r}")
                    cols = scatter.sel.idx == position[name]
                    terms[li, cols] = scatter.sign[cols] * float(value)
                    overridden[li, cols] = True
            self._src_override = (terms, overridden)

    def _lane_bank(self, lanes):
        """A bank view whose VT / I_spec are the selected lanes'.

        The bank math is pure elementwise numpy, so swapping the (n,)
        parameter arrays for (A, n) slices broadcasts the evaluation
        over the lane axis with zero duplicated model code.
        ``MosBank.overlay`` rebuilds the bank's derived packed
        constants along the way.

        The overlay of the last lane set is kept: a one-entry cache
        keyed by the lane indices with their dtype and shape, so the
        scalar lane a :class:`LazyDeviceOps` takes (an ``(n,)`` bank)
        and a one-element lane array (a ``(1, n)`` bank) never share it.
        It pays when consecutive stacked rounds repeat a lane set -- the
        lockstep transient's steps over an unchanged active set, or a
        Newton loop whose active set holds -- and saves the copy and
        the tile of ``MosBank.overlay`` (12 µs on the 16-lane latch).
        A :meth:`sync` that rebuilds the bank drops it.
        """
        if self._mos_vt_b is None:
            return self._mos_bank
        lanes = np.asarray(lanes)
        key = (lanes.dtype.str, lanes.shape, lanes.tobytes())
        if self._overlay is None or self._overlay[0] != key:
            self._overlay = (key, self._mos_bank.overlay(
                self._mos_vt_b[lanes], self._mos_ispec_b[lanes]))
        return self._overlay[1]

    def _source_terms(self, time, lanes):
        """The waveform terms at ``time``, replaced per lane where the
        lane overrides a source."""
        terms = super()._source_terms(time, lanes)
        if self._src_override is None:
            return terms
        override, overridden = self._src_override
        return np.where(overridden[lanes], override[lanes], terms)

    def _stamp_overlays(self, target, segments, res_flat, xg, lanes,
                        rows) -> None:
        """Per-lane resistor-overlay delta conductances."""
        if self._rov_dg is None:
            return
        dg = self._rov_dg[lanes]
        va, vb = xg[self._rov_gather.rows(rows)]
        self._rov_current.add(res_flat, dg * (va - vb), rows)
        self._put(target, segments, "rov", self._rov_jacobian,
                  self._rov_jacobian.terms(dg, rows), rows)

    # -- stacked entry points -------------------------------------------

    def assemble_batch(self, jac: np.ndarray, res: np.ndarray,
                       X: np.ndarray, lane_idx: np.ndarray,
                       time: float | None = None) -> None:
        """Overwrite ``jac`` (A, N, N) / ``res`` (A, N) with the full
        static system of lanes ``lane_idx`` at solutions ``X`` (A, N)."""
        self._stamp_static(jac, res, X, lane_idx, time, None)

    def assemble_batch_sparse(self, vals: np.ndarray, res: np.ndarray,
                              X: np.ndarray, lane_idx: np.ndarray,
                              time: float | None = None) -> None:
        """Sparse twin of :meth:`assemble_batch`: overwrite ``vals``
        (A, n_triplets) / ``res`` (A, N) with per-lane triplet values
        over the shared pattern of :meth:`sparse_batch_system`."""
        self._stamp_static(vals, res, X, lane_idx, time,
                           self.sparse_batch_system().segment_slices)

    # -- shared-pattern sparse path --------------------------------------

    def enable_sparse(self) -> None:
        """Switch the stacked Newton loop to the shared-pattern sparse
        backend.  The symbolic structure (triplet dedup, CSC
        ``indices``/``indptr``) is built once here, or borrowed from the
        compiled circuit's assembler (:meth:`sparse_batch_system`); the
        first factorization on it computes the COLAMD column ordering.
        Every lane's numeric refactorization in every Newton iteration
        reuses both through :meth:`SparseSystem.factorize`: SuperLU
        column by column into the pattern's one column-permuted
        container, refilled in place -- each still runs SuperLU's
        elimination-tree and numeric phases."""
        self.use_sparse = True
        self.sparse_batch_system()

    def sparse_batch_system(self) -> SparseSystem:
        """The ensemble's shared triplet->CSC scatter (built once).

        Lanes of an ensemble differ only in *values* (device overlays,
        source overrides, resistor-scale deltas), never in structure,
        so one symbolic build serves all B lanes.  Ensembles that scale
        resistors get one extra ``rov`` segment appended to the serial
        segment sequence -- the per-lane delta conductances land on
        entries the ``lin`` segment already owns, so the pattern (and
        its factorization structure) is lane-independent either way.
        """
        if self._batch_sparse_system is None:
            if self._rov_dg is None:
                # Identical pattern to the serial assembler's (both are
                # derived from the same compiled structure), so borrow
                # its cached system: pilot solves, serial reruns and
                # repeated ensembles over one compile all share a
                # single structure and column ordering.
                self._batch_sparse_system = \
                    self.compiled.assembler.sparse_system()
            else:
                flat = self._rov_jacobian.at.idx
                segments = self._sparse_segments()
                segments["rov"] = (flat // self.size, flat % self.size)
                self._batch_sparse_system = SparseSystem(self.size,
                                                         segments)
        return self._batch_sparse_system


# -- batched Newton kernel ------------------------------------------------


@dataclass
class BatchDiagnostics:
    """What the batched solve did for one population.

    Attributes:
        circuit: Circuit name.
        batch: Population size B.
        iterations: Stacked Newton iterations run across both batched
            phases (shared clock).
        active_history: Lanes still active entering each stacked
            iteration -- the convergence-masking decay curve (phase 1
            then the pseudo-transient steps).
        n_converged_batched: Lanes plain batched Newton converged
            directly.
        n_converged_pseudo_transient: Lanes the batched
            pseudo-transient continuation rescued.
        n_failed: Lanes without a solution: both stacked phases lost
            them, or a phase "converged" them to a non-finite vector.
        wall_time: Seconds spent in the whole batched solve.
    """

    circuit: str
    batch: int
    iterations: int = 0
    active_history: list[int] = field(default_factory=list)
    n_converged_batched: int = 0
    n_converged_pseudo_transient: int = 0
    n_failed: int = 0
    wall_time: float = 0.0

    def describe(self) -> str:
        decay = " -> ".join(str(n) for n in self.active_history[:12])
        if len(self.active_history) > 12:
            decay += " -> ..."
        return (f"batched solve of {self.circuit!r}: B={self.batch}, "
                f"{self.n_converged_batched} converged directly + "
                f"{self.n_converged_pseudo_transient} via pseudo-transient "
                f"in {self.iterations} stacked iterations "
                f"(active {decay}), {self.n_failed} failed "
                f"({self.wall_time * 1e3:.1f} ms)")


@dataclass
class _BatchNewtonOutcome:
    converged: np.ndarray            # (B,) bool, scoped to entry lanes
    iterations: np.ndarray           # (B,) int, iterations this call
    reasons: dict[int, str]          # lane -> why it left the batch loop
    n_iterations: int


def _newton_rounds(assembler: BatchAssembler, X: np.ndarray,
                   lanes_idx: np.ndarray, options: NewtonOptions,
                   active_history: list[int],
                   time: float | None = None,
                   extra=None) -> _BatchNewtonOutcome:
    """One batched damped-Newton solve over ``lanes_idx``, in place.

    The per-lane math mirrors the serial kernel exactly: same damping
    rule, same update-norm convergence criterion
    (:func:`~repro.spice.strategies.step_converged`), same stall window
    -- applied with per-lane state.  Converged lanes freeze (their rows
    stop being assembled and solved, shrinking the stacked system each
    iteration); lanes with non-finite updates or a stalled trajectory
    are kicked out with their serial-identical failure reason.
    ``active_history`` accumulates the active-lane count entering each
    iteration (the masking decay curve for diagnostics).

    ``time`` is the source-waveform timestamp (None: DC).  ``extra``,
    when given, stamps additional per-lane contributions after the
    static assembly and before the ``options.gmin`` shunt -- the serial
    kernel's ``extra_stamp`` slot, which the batched transient engine
    fills with the stacked charge companions and the pseudo-transient
    phase with the per-lane anchors; it is called as
    ``extra(jac_or_vals, res, X_active, active_idx)``.  Every
    iteration factors every active lane's freshly assembled Jacobian.
    """
    compiled = assembler.compiled
    B, N = X.shape
    n_nodes = len(compiled.node_index)
    gmin = options.gmin
    diag = np.arange(n_nodes)
    use_sparse = assembler.use_sparse
    system = assembler.sparse_batch_system() if use_sparse else None
    diag_slice = system.segment_slices["diag"] if use_sparse else None
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    stall_checkpoint = np.full(B, np.inf)
    stall_residual = np.full(B, np.inf)
    reasons: dict[int, str] = {}
    active = np.asarray(lanes_idx, dtype=np.intp).copy()
    tspan = telemetry.current_span() if telemetry.is_enabled() else None
    deadline = options.deadline
    iteration = 0
    for iteration in range(1, options.max_iterations + 1):
        n_active = active.size
        if n_active == 0:
            iteration -= 1
            break
        if deadline is not None and _time.perf_counter() >= deadline:
            # Wall-clock budget exhausted mid-population: the serial
            # kernel raises stage="wall-clock" here; the batched loop
            # instead kicks every still-active lane out with that
            # reason (converged lanes keep their solutions) so the
            # caller's diagnostics carry the partial outcome.
            iteration -= 1
            for lane in active:
                reasons[int(lane)] = (
                    f"wall-clock budget exhausted after "
                    f"{int(iterations[lane])} batched Newton iterations "
                    f"in {compiled.circuit.name} [stage wall-clock]")
            if tspan is not None:
                tspan.event("batch-deadline", n_active=n_active,
                            iteration=iteration)
            active = active[:0]
            break
        active_history.append(n_active)
        res = np.empty((n_active, N))
        Xa = X[active]
        if use_sparse:
            vals = np.empty((n_active, system.n_triplets))
            assembler.assemble_batch_sparse(vals, res, Xa, active,
                                            time=time)
            if extra is not None:
                extra(vals, res, Xa, active)
            if gmin > 0.0:
                vals[:, diag_slice] += gmin
                res[:, :n_nodes] += gmin * Xa[:, :n_nodes]
        else:
            jac = np.empty((n_active, N, N))
            assembler.assemble_batch(jac, res, Xa, active, time=time)
            if extra is not None:
                extra(jac, res, Xa, active)
            if gmin > 0.0:
                jac[:, diag, diag] += gmin
                res[:, :n_nodes] += gmin * Xa[:, :n_nodes]
        if tspan is not None:
            tspan.inc("jacobian_factorizations", n_active)
            if use_sparse:
                tspan.inc("sparse_factorizations", n_active)
        # Per-lane residual norms feed the stall detector (mirroring
        # the serial kernel); only window boundaries read them.
        res_norm = None
        if iteration == 1 or iteration % STALL_WINDOW == 0:
            res_norm = np.abs(res).max(axis=1)
        dX = (_solve_stacked_sparse(system, vals, res) if use_sparse
              else _solve_stacked(jac, res))
        finite = np.all(np.isfinite(dX), axis=1)
        if not finite.all():
            for lane in active[~finite]:
                reasons[int(lane)] = ("non-finite Newton update in "
                                      f"{compiled.circuit.name}")
                iterations[lane] = iteration
            active = active[finite]
            dX = dX[finite]
            if res_norm is not None:
                res_norm = res_norm[finite]
            if active.size == 0:
                if tspan is not None:
                    tspan.event("batch-iter", i=iteration, n_active=0)
                continue
        v_updates = (np.abs(dX[:, :n_nodes]) if n_nodes
                     else np.zeros((active.size, 1)))
        biggest = (v_updates.max(axis=1) if v_updates.shape[1]
                   else np.zeros(active.size))
        scale = np.where(biggest <= options.max_step, 1.0,
                         options.max_step / np.maximum(biggest, 1e-300))
        X[active] += scale[:, None] * dX
        iterations[active] = iteration
        step_norm = biggest * scale
        if iteration == 1:
            # Arm the stall detector from the opening update norm and
            # residual -- mirrors the serial kernel so both paths kick
            # out a stalled lane after one window, not two.
            stall_checkpoint[active] = step_norm
            stall_residual[active] = res_norm
        v_max = (np.abs(X[active][:, :n_nodes]).max(axis=1) if n_nodes
                 else np.zeros(active.size))
        conv = step_converged(step_norm, v_max, options) & (scale == 1.0)
        if tspan is not None:
            tspan.event("batch-iter", i=iteration,
                        n_active=int(active.size),
                        n_converged=int(conv.sum()),
                        max_step_norm=float(step_norm.max(initial=0.0)))
        keep = ~conv
        converged[active[conv]] = True
        if iteration % STALL_WINDOW == 0:
            stalled = (step_norm > 0.5 * stall_checkpoint[active]) \
                & (res_norm > 0.5 * stall_residual[active])
            stalled &= keep
            for lane, norm, rnorm in zip(active[stalled],
                                         step_norm[stalled],
                                         res_norm[stalled]):
                reasons[int(lane)] = (
                    f"Newton stalled after {iteration} iterations in "
                    f"{compiled.circuit.name} (neither the update norm "
                    f"{norm:.3e} nor the residual {rnorm:.3e} halved "
                    f"over the last {STALL_WINDOW} iterations)")
            keep &= ~stalled
            stall_checkpoint[active] = step_norm
            stall_residual[active] = res_norm
        active = active[keep]
    for lane in active:
        reasons[int(lane)] = (
            f"Newton failed after {options.max_iterations} iterations "
            f"in {compiled.circuit.name}")
        iterations[lane] = iteration
    return _BatchNewtonOutcome(converged=converged,
                               iterations=iterations, reasons=reasons,
                               n_iterations=iteration)


def batch_newton(assembler: BatchAssembler, X: np.ndarray,
                 options: NewtonOptions,
                 active_history: list[int] | None = None,
                 ) -> _BatchNewtonOutcome:
    """Plain damped Newton over all lanes at once (in place on ``X``)."""
    return _newton_rounds(assembler, X, np.arange(X.shape[0]), options,
                          [] if active_history is None else active_history)


def batch_pseudo_transient(assembler: BatchAssembler, X: np.ndarray,
                           lanes_idx: np.ndarray, options: NewtonOptions,
                           active_history: list[int],
                           ) -> _BatchNewtonOutcome:
    """Stacked pseudo-transient continuation over ``lanes_idx``, in place.

    Runs :func:`~repro.spice.strategies.pseudo_transient_lanes` -- the
    schedule the serial rung runs for one lane -- with every round's
    per-lane Newton solves stacked in one :func:`_newton_rounds` call.
    Each lane's anchor conductance goes on the node diagonal
    (``jac[:, diag, diag]`` dense, the ``"diag"`` segment sparse) and
    pulls toward its last accepted state; a lane in its polish solve
    carries ``g == 0``, which leaves its rows untouched.
    """
    n_nodes = len(assembler.compiled.node_index)
    nodes = np.arange(n_nodes)
    diag = ((slice(None),
             assembler.sparse_batch_system().segment_slices["diag"])
            if assembler.use_sparse else (slice(None), nodes, nodes))
    rounds = 0

    def solve(active, g, anchor):
        nonlocal rounds

        def stamp_anchors(target, res, Xa, idx):
            g_lane = g[idx][:, None]
            target[diag] += g_lane
            res[:, :n_nodes] += g_lane * (Xa[:, :n_nodes]
                                          - anchor[idx, :n_nodes])

        outcome = _newton_rounds(assembler, X, active, options,
                                 active_history, extra=stamp_anchors)
        rounds += outcome.n_iterations
        return (outcome.converged[active], outcome.iterations[active],
                outcome.reasons)

    converged, iterations, reasons = pseudo_transient_lanes(
        X, lanes_idx, options, solve)
    return _BatchNewtonOutcome(converged, iterations, reasons, rounds)


def _solve_stacked(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Solve every lane's system; singular lanes degrade to lstsq
    instead of poisoning the whole stacked call."""
    try:
        return np.linalg.solve(jac, -res[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dX = np.empty_like(res)
        for k in range(jac.shape[0]):
            try:
                dX[k] = np.linalg.solve(jac[k], -res[k])
            except np.linalg.LinAlgError:
                dX[k], *_ = np.linalg.lstsq(jac[k], -res[k], rcond=None)
        return dX


def _solve_stacked_sparse(system: SparseSystem, vals: np.ndarray,
                          res: np.ndarray) -> np.ndarray:
    """Per-lane sparse solves over the shared symbolic pattern.

    Each lane's CSC data row is numerically refactorized through
    :meth:`SparseSystem.factorize` (shared structure, column ordering
    computed once per pattern).  Exactly-singular and non-finite lanes
    degrade to dense least squares; a NaN-parameter lane produces a NaN
    row that flows into the caller's non-finite kick-out, so the lane
    fails with a diagnosed error.
    """
    data = system.batch_data(vals)
    dX = np.empty_like(res)
    for k in range(res.shape[0]):
        handle = system.factorize(data[k])
        if handle is not None:
            dX[k] = handle.solve(-res[k])
            continue
        try:
            dX[k], *_ = np.linalg.lstsq(
                system.matrix_from_data(data[k]).toarray(), -res[k],
                rcond=None)
        except np.linalg.LinAlgError:
            dX[k] = np.nan
    return dX


# -- orchestration --------------------------------------------------------


@dataclass
class BatchOpResult:
    """Per-lane operating points of one batched solve.

    Attributes:
        points: One :class:`~repro.spice.results.OpResult` per lane, in
            lane order (NaN placeholders for lanes that failed every
            rung, recorded under ``on_error="skip"``).
        failures: ``(lane index, error)`` per failed lane; the stored
            :class:`~repro.errors.ConvergenceError` carries the full
            ladder diagnostics.
        diagnostics: The population-level :class:`BatchDiagnostics`.
    """

    points: list
    failures: list[tuple[int, ConvergenceError]]
    diagnostics: BatchDiagnostics

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def batch_operating_point(circuit: "Circuit",
                          lanes: Sequence[LaneSpec],
                          options: NewtonOptions | None = None,
                          on_error: str = "raise",
                          x0: np.ndarray | None = None,
                          ) -> BatchOpResult:
    """Solve one DC operating point per lane, stacked.

    Every lane starts where a cold serial
    :func:`~repro.spice.dc.operating_point` of its perturbed twin
    would (:meth:`~repro.spice.netlist.Circuit.initial_guess` with the
    lane's source overrides), or from ``x0``.  Stacked Newton runs
    first; the lanes it loses restart from their starts in the stacked
    pseudo-transient rung -- the two rungs of the serial ladder, with
    the serial kernel's math per lane.  A lane both phases lose, or
    whose converged vector is non-finite, fails with a
    :class:`~repro.errors.ConvergenceError` whose diagnostics are its
    stacked stage reports; its stage is the last phase's name, or
    ``"wall-clock"`` once ``options.max_wall_time`` has run out.

    A circuit whose :attr:`~repro.spice.netlist.Circuit.matrix_backend`
    resolves to the sparse backend runs the stacked Newton loop over one
    shared sparsity pattern and column ordering with per-lane numeric
    refactorization, instead of dense ``(B, N, N)`` tensors.

    ``on_error="raise"`` propagates the first failed lane's
    :class:`~repro.errors.ConvergenceError`; ``"skip"`` records NaN
    placeholder points and keeps going.
    """
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    options = options or NewtonOptions()
    lanes = list(lanes)
    with telemetry.span("batch-operating-point", circuit=circuit.name,
                        batch=len(lanes)) as tspan:
        return _batch_op(circuit, lanes, options, on_error, x0, tspan)


def pilot_solution(circuit: "Circuit", lane: LaneSpec,
                   options: NewtonOptions | None) -> np.ndarray | None:
    """Warm start for a batched solve: ``lane`` through the serial
    ladder.

    Population members are small perturbations of one circuit, so one
    member's operating point puts the whole stack in the converged
    basin: every lane then converges in a few stacked Newton iterations
    (the mismatch lanes of the transistor-level adder, say), and a
    circuit that only the pseudo-transient rung solves cold still runs
    as a stacked ensemble.  The lane is applied, solved by
    :func:`~repro.spice.dc.operating_point` on the circuit's own
    backend (the one the batch will run on) and undone.

    Returns the solution, recording a ``pilot-warm-start`` event on the
    current span, or None after a ``pilot-failed-flat-start`` event
    when the ladder fails: the batch then starts cold, each lane from
    its own initial guess, and the pilot lane gets a second chance
    inside it.
    """
    tspan = telemetry.current_span()
    undo = apply_lane(circuit, lane)
    try:
        x0 = operating_point(circuit, options).x
    except ConvergenceError as error:
        tspan.event("pilot-failed-flat-start", lane=lane.label,
                    why=str(error))
        return None
    finally:
        undo()
    tspan.event("pilot-warm-start", lane=lane.label)
    return x0


def run_lanes(circuit: "Circuit", lanes: Sequence[LaneSpec],
              measure: Callable[[object], object], *,
              t_stop: float | None = None, options=None) -> list[tuple]:
    """One outcome per lane, in lane order, from one stacked solve.

    The batched producer of the population outcome stream (the process
    pool's twin is :func:`~repro.analysis.parallel.run_items`): one
    :func:`batch_operating_point` -- or, with ``t_stop`` set, one
    :func:`batch_transient` to ``t_stop`` -- solves every lane under
    ``on_error="skip"``.  ``options`` are the call's
    :class:`NewtonOptions` or :class:`TransientOptions` accordingly.
    A DC population of more than one lane first solves lane 0 through
    :func:`pilot_solution` and starts every lane from it.

    A lane that failed every rung yields ``("error",
    ConvergenceError)``; every other lane yields
    ``evaluate(measure, point)`` (see :func:`~repro.errors.evaluate`).
    No lanes, no solve.
    """
    if not lanes:
        return []
    if t_stop is None:
        x0 = (pilot_solution(circuit, lanes[0], options)
              if len(lanes) > 1 else None)
        batch = batch_operating_point(circuit, lanes, options=options,
                                      on_error="skip", x0=x0)
        solved = batch.points
    else:
        batch = batch_transient(circuit, lanes, t_stop, options,
                                on_error="skip")
        solved = batch.results
    failed = dict(batch.failures)
    return [("error", failed[k]) if k in failed else evaluate(measure, point)
            for k, point in enumerate(solved)]


def _batch_op(circuit: "Circuit", lanes: list[LaneSpec],
              options: NewtonOptions, on_error: str,
              x0: np.ndarray | None, tspan) -> BatchOpResult:
    start = _time.perf_counter()
    if options.max_wall_time is not None and options.deadline is None:
        # One absolute deadline covers both stacked phases, mirroring
        # the serial wall-clock semantics.
        options = dataclasses.replace(
            options, deadline=start + options.max_wall_time)
    compiled = circuit.compile()
    assembler = BatchAssembler(compiled, lanes)
    if compiled.solver_backend() == "sparse":
        assembler.enable_sparse()
        tspan.annotate(matrix_backend="sparse")
    if x0 is None:
        # Each lane starts where its serial twin (apply_lane, then
        # operating_point) would: a lane overriding a grounded source
        # starts its node on the overriding value.
        guess = circuit.initial_guess(compiled)
        starts = np.array([
            circuit.initial_guess(compiled, lane.source_values)
            if lane.source_values else guess for lane in lanes])
    else:
        guess = np.asarray(x0, dtype=float)
        if guess.shape != (compiled.size,):
            raise NetlistError(
                f"warm-start vector has wrong size {guess.shape}, "
                f"expected ({compiled.size},)")
        starts = np.broadcast_to(guess, (len(lanes), compiled.size))
    X = starts.copy()
    tspan.inc("batch_lanes", len(lanes))
    active_history: list[int] = []
    # Phase 1: plain batched Newton, the ladder's Newton rung.
    phase1 = batch_newton(assembler, X, options, active_history)
    phases = [(BATCHED_STAGE, phase1)]
    # Phase 2: stacked pseudo-transient for the lanes plain Newton lost
    # -- restarted from each lane's start, exactly like the serial
    # ladder's second rung.
    pending1 = np.nonzero(~phase1.converged)[0]
    if pending1.size:
        X[pending1] = starts[pending1]
        phases.append((BATCHED_PSEUDO_TRANSIENT_STAGE, batch_pseudo_transient(
            assembler, X, pending1, options, active_history)))
    converged = np.zeros(len(lanes), dtype=bool)
    points: list = [None] * len(lanes)
    failures: list[tuple[int, ConvergenceError]] = []
    for lane_index in range(len(lanes)):
        # The stacked stages the lane went through, as serial-style
        # stage reports, up to the one that converged it.
        stages = []
        for name, outcome in phases:
            stages.append(StageReport(
                strategy=name, converged=bool(outcome.converged[lane_index]),
                iterations=int(outcome.iterations[lane_index]),
                wall_time=0.0, detail=outcome.reasons.get(lane_index, "")))
            if stages[-1].converged:
                break
        if stages[-1].converged and not np.all(np.isfinite(X[lane_index])):
            # A lane is never *packaged* with NaN/inf in its solution
            # vector, whatever the convergence bookkeeping says.
            stages[-1] = dataclasses.replace(
                stages[-1], converged=False,
                detail="non-finite solution vector after batched "
                       "convergence")
            tspan.event("lane-nonfinite", lane=lane_index)
        lane_diag = SolverDiagnostics(
            circuit=circuit.name, stages=stages,
            total_iterations=sum(s.iterations for s in stages))
        if stages[-1].converged:
            converged[lane_index] = True
            lane_diag.rescued_by = stages[-1].strategy
            result = _package(compiled, X[lane_index],
                              lane_diag.total_iterations, lane_diag)
            result.device_ops = LazyDeviceOps(assembler, result.x,
                                              lane_index)
            points[lane_index] = result
            continue
        lane_diag.wall_time = _time.perf_counter() - start
        error = ladder_failure(lane_diag, options)
        failures.append((lane_index, error))
        points[lane_index] = _nan_point(compiled, lane_diag)
        tspan.event("lane-failed", lane=lane_index,
                    label=lanes[lane_index].label, why=str(error))
    diagnostics = BatchDiagnostics(
        circuit=circuit.name, batch=len(lanes),
        iterations=sum(outcome.n_iterations for _, outcome in phases),
        active_history=active_history,
        n_converged_batched=int((converged & phase1.converged).sum()),
        n_converged_pseudo_transient=int(
            (converged & ~phase1.converged).sum()),
        n_failed=len(failures),
        wall_time=_time.perf_counter() - start)
    tspan.annotate(n_converged_batched=diagnostics.n_converged_batched,
                   n_converged_pseudo_transient=(
                       diagnostics.n_converged_pseudo_transient),
                   n_failed=diagnostics.n_failed,
                   iterations=diagnostics.iterations)
    if failures and on_error == "raise":
        raise failures[0][1]
    return BatchOpResult(points=points, failures=failures,
                         diagnostics=diagnostics)


# -- analysis-layer specs -------------------------------------------------


def _measure_lane(circuit: "Circuit", lane: LaneSpec, measure, solve,
                  *args, **kwargs) -> dict[str, float]:
    """The serial call of a spec: ``measure`` of ``solve(circuit, *args,
    **kwargs)`` with ``lane`` applied, as floats; the lane is undone
    afterwards, exceptions included."""
    undo = apply_lane(circuit, lane)
    try:
        result = solve(circuit, *args, **kwargs)
        return {name: float(value) for name, value in measure(result).items()}
    finally:
        undo()


@dataclass(frozen=True)
class BatchedOpMetric:
    """A Monte-Carlo metric whose evaluation is one DC operating point.

    The spec is *both* the serial metric function -- calling it with a
    seed builds a fresh circuit, applies the drawn lane perturbation,
    solves serially and measures -- and the vectorizable description
    :class:`~repro.analysis.montecarlo.MonteCarlo` consumes under
    ``backend="batched"``.  Both paths share :func:`apply_lane` /
    ``draw``, so they see bit-identical perturbations.

    Attributes:
        build: Zero-argument factory for a fresh base circuit.
        draw: ``(seed, circuit) -> LaneSpec``; must be a pure function
            of the seed (same seed, same draw -- the batched and serial
            backends both rely on it).
        measure: ``OpResult -> {metric: value}``.
        options: Solver options shared by both paths.
    """

    build: Callable[[], "Circuit"]
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[["OpResult"], Mapping[str, float]]
    options: NewtonOptions | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        circuit = self.build()
        return _measure_lane(circuit, self.draw(seed, circuit),
                             self.measure, operating_point, self.options)

    def plan(self) -> "PlannedOpMetric":
        """Materialize the spec into a reusable, shippable plan.

        Builds the base circuit and compiles it **once**; the returned
        :class:`PlannedOpMetric` carries the compiled circuit along, so
        every later evaluation -- in this process or in a pool worker
        that unpickled the plan -- reuses the assembler instead of
        rebuilding and recompiling per seed.  This is what makes
        ``compile_cache_misses == 1`` across a whole parallel
        Monte-Carlo fleet.
        """
        circuit = self.build()
        circuit.compile()
        return PlannedOpMetric(circuit=circuit, draw=self.draw,
                               measure=self.measure, options=self.options)


@dataclass(frozen=True)
class PlannedOpMetric:
    """A :class:`BatchedOpMetric` with its circuit built and compiled.

    Evaluation applies the seed's lane to the *shared* prebuilt circuit
    and undoes it afterwards -- :func:`apply_lane`'s undo contract
    restores the circuit exactly, and every solve cold-starts from the
    circuit's initial guess, so per-seed results are bit-identical to the
    fresh-build :class:`BatchedOpMetric` path.  The plan pickles whole
    (compiled assembler included), so a process-pool Monte-Carlo ships
    it with its tasks and the fleet still compiles only once.
    """

    circuit: "Circuit"
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[["OpResult"], Mapping[str, float]]
    options: NewtonOptions | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        return _measure_lane(self.circuit, self.draw(seed, self.circuit),
                             self.measure, operating_point, self.options)


# -- batched transient ----------------------------------------------------


#: Attributed rejections a lane may take on the lockstep grid; one more
#: and it leaves the grid for a serial rerun.
LANE_REJECTION_BUDGET = 24


@dataclass
class BatchTranDiagnostics:
    """Population-level record of one lockstep transient run.

    Attributes:
        circuit: Circuit name.
        batch: Number of lanes the run started with.
        steps_accepted: Shared time points committed by the lockstep
            grid (every surviving lane holds exactly this many samples
            past t = 0).
        steps_rejected: Shared-grid attempts that shrank the step, all
            causes and lanes pooled.
        newton_iterations: Total stacked Newton iterations over
            converged lanes of every attempt.
        lane_rejections: ``(B,)`` rejections *attributed* to each lane
            (the lanes whose Newton failure or LTE estimate forced the
            shared shrink) -- the kick-out budget counts these.
        lanes_lockstep: Lanes the shared grid carried to the end: they
            entered it, never left it and were not stopped by a
            run-level abort.
        fallback_lanes: ``(lane index, reason)`` per lane that left the
            lockstep grid for a serial rerun.  A lane whose initial DC
            point failed never entered the grid; it shows only in
            ``n_failed`` (and the result's ``failures``).
        n_failed: Lanes without a result: the initial DC point, the
            serial rerun or the whole run failed.
        dt_smallest: Smallest shared step committed [s].
        wall_time: Whole-run wall time [s].
    """

    circuit: str
    batch: int
    steps_accepted: int = 0
    steps_rejected: int = 0
    newton_iterations: int = 0
    lane_rejections: np.ndarray | None = None
    lanes_lockstep: int = 0
    fallback_lanes: list[tuple[int, str]] = field(default_factory=list)
    n_failed: int = 0
    dt_smallest: float = float("inf")
    wall_time: float = 0.0

    def describe(self) -> str:
        text = (f"{self.circuit}: {self.lanes_lockstep}/{self.batch} "
                f"lanes in lockstep, {self.steps_accepted} shared steps "
                f"accepted, {self.steps_rejected} rejected")
        if self.fallback_lanes:
            text += f", {len(self.fallback_lanes)} serial fallbacks"
        if self.n_failed:
            text += f", {self.n_failed} failed"
        return text


@dataclass
class BatchTranResult:
    """Per-lane transient waveforms of one batched run.

    Attributes:
        results: One :class:`~repro.spice.results.TranResult` per lane
            in lane order (None for failed lanes, recorded under
            ``on_error="skip"``).  Lockstep lanes share one time axis;
            lanes rerun serially carry their own adaptive grid.
        failures: ``(lane index, error)`` per failed lane.
        diagnostics: The population-level :class:`BatchTranDiagnostics`.
    """

    results: list
    failures: list[tuple[int, ConvergenceError]]
    diagnostics: BatchTranDiagnostics

    @property
    def n_failed(self) -> int:
        return len(self.failures)


def batch_transient(circuit: "Circuit", lanes: Sequence[LaneSpec],
                    t_stop: float,
                    options: TransientOptions | None = None,
                    on_error: str = "raise") -> BatchTranResult:
    """Integrate every lane from t = 0 to ``t_stop`` in lockstep.

    All lanes advance on one shared adaptive grid, driven by the same
    step controller as the serial :func:`~repro.spice.transient.transient`:
    per attempted step there is a single stacked damped-Newton solve over
    ``(B, N, N)`` dense or ``(B, nnz)`` shared-pattern sparse rows (the
    trapezoidal / BE charge companions stamped per lane through the
    kernel's ``extra`` slot), then one LTE estimate *per lane*, reduced
    to a shared verdict by the min-rule: any lane over tolerance rejects
    the step for everyone, and the accepted-growth factor is the most
    conservative lane's ask.

    The initial DC points come from one stacked
    :func:`batch_operating_point`; a lane that fails it never enters the
    grid and carries that failure record.  A lane that fails Newton
    with the step floored at ``dt_min``, or accumulates more than
    :data:`LANE_REJECTION_BUDGET` attributed rejections, leaves the
    grid and reruns through the serial
    :func:`~repro.spice.transient.transient` with its perturbation
    applied.

    ``on_error="raise"`` propagates the first failed lane's error;
    ``"skip"`` records None results and keeps going.  Telemetry: the
    run counts ``batch_transient_steps`` (one per accepted shared
    step) and ``batch_transient_lane_rejections`` (one per attributed
    lane rejection) under its ``batch-transient`` span.
    """
    options = options or TransientOptions()
    _check_options(t_stop, options)
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    lanes = list(lanes)
    with telemetry.span("batch-transient", circuit=circuit.name,
                        batch=len(lanes), t_stop=t_stop,
                        method=options.method) as tspan:
        stepper = _LockstepStepper(circuit, lanes, t_stop, options, tspan,
                                   LANE_REJECTION_BUDGET)
        return stepper.integrate(on_error)


class _LockstepStepper(_Stepper):
    """Lockstep lanes through the stacked Newton kernel; a lane that
    leaves the grid reruns through the serial
    :func:`~repro.spice.transient.transient`."""

    LABEL = "batched transient"
    ACCEPTED = "batch_transient_steps"
    REJECTED = "batch_transient_lane_rejections"
    REJECTED_BY_CAUSE = None
    REJECTED_EVENT = "batch-step-rejected"

    def __init__(self, circuit: "Circuit", specs: list[LaneSpec],
                 t_stop: float, options: TransientOptions, tspan,
                 lane_budget: int | None) -> None:
        super().__init__(circuit, t_stop, options, tspan,
                         [None] * len(specs), lane_budget)
        self.specs = specs
        self.assembler = BatchAssembler(self.compiled, specs)
        self.segment_slices = None
        if self.compiled.solver_backend() == "sparse":
            self.assembler.enable_sparse()
            tspan.annotate(matrix_backend="sparse")
            self.segment_slices = \
                self.assembler.sparse_batch_system().segment_slices
        self.failures: list[tuple[int, ConvergenceError]] = []
        self.diag = BatchTranDiagnostics(circuit=circuit.name,
                                         batch=len(specs))

    def solve(self, X, t_new, c0, rhs):
        lanes = np.asarray(self.lanes, dtype=np.intp)
        # The kernel addresses lanes by index: scatter the lane rows
        # into population-sized arrays.
        X_all = np.zeros((len(self.specs), X.shape[1]))
        X_all[lanes] = X
        rhs_all = np.zeros((len(self.specs), rhs.shape[1]))
        rhs_all[lanes] = rhs
        assembler = self.assembler
        segment_slices = self.segment_slices

        def dynamic_stamp(target, res, Xa, lane_idx):
            assembler.stamp_charges_batch(target, res, Xa, c0,
                                          rhs_all[lane_idx],
                                          segment_slices=segment_slices)

        outcome = _newton_rounds(assembler, X_all, lanes,
                                 self.newton_options, [], time=t_new,
                                 extra=dynamic_stamp)
        X_new = X_all[lanes]
        ok = (outcome.converged[lanes]
              & np.all(np.isfinite(X_new), axis=1))
        failed = {int(r): outcome.reasons.get(
                      int(lanes[r]), "Newton failed on the shared grid")
                  for r in np.nonzero(~ok)[0]}
        return X_new, outcome.iterations[lanes], failed

    def charges(self, X):
        return self.assembler.charge_vector(X)

    def leave(self, lane, reason, t):
        tspan = self.tspan
        spec = self.specs[lane]
        self.diag.fallback_lanes.append((lane, reason))
        tspan.inc("batch_lane_fallbacks")
        tspan.event("lane-fallback", lane=lane, label=spec.label,
                    why=reason)
        options = self.options
        if self.deadline is not None:
            options = dataclasses.replace(options, max_wall_time=max(
                self.deadline - _time.perf_counter(), 0.0))
        undo = apply_lane(self.circuit, spec)
        try:
            self.results[lane] = transient(self.circuit, self.t_stop,
                                           options)
        except ConvergenceError as error:
            self.failures.append((lane, error))
            tspan.event("lane-failed", lane=lane, label=spec.label,
                        why=str(error))
        finally:
            undo()

    def diagnostics(self) -> BatchTranDiagnostics:
        diag = self.diag
        diag.steps_accepted = self.steps_accepted
        diag.steps_rejected = self.steps_rejected
        diag.dt_smallest = self.dt_smallest
        diag.newton_iterations = sum(log.newton_iterations
                                     for log in self.logs)
        diag.lane_rejections = np.array(
            [log.steps_rejected for log in self.logs], dtype=int)
        diag.lanes_lockstep = len(self.lanes)
        diag.n_failed = len(self.failures)
        return diag

    def integrate(self, on_error: str) -> BatchTranResult:
        # Initial DC point per lane, stacked; a lane that fails every DC
        # rung never enters the grid (serial transient would have
        # raised before its first step too) and is no serial fallback.
        dc = batch_operating_point(self.circuit, self.specs,
                                   options=self.newton_options,
                                   on_error="skip")
        self.failures.extend(dc.failures)
        if on_error == "raise" and self.failures:
            raise self.failures[0][1]
        lanes = [k for k, point in enumerate(dc.points)
                 if point.x is not None]
        try:
            if lanes:
                self.run(np.array([dc.points[k].x for k in lanes]), lanes)
        except ConvergenceError as aborted:
            # A run-level budget (rejections, wall clock) ran out.
            if on_error == "raise":
                raise
            self.failures.extend((lane, aborted) for lane in self.lanes)
            self.lanes = []

        diag = self.diagnostics()
        diag.wall_time = _time.perf_counter() - self.start
        fallback_serial_steps = sum(
            self.results[k].telemetry.steps_accepted
            for k, _reason in diag.fallback_lanes
            if self.results[k] is not None)
        self.tspan.annotate(
            steps_accepted=diag.steps_accepted,
            steps_rejected=diag.steps_rejected,
            lanes_lockstep=diag.lanes_lockstep,
            lane_rejections=int(diag.lane_rejections.sum()),
            n_fallback=len(diag.fallback_lanes),
            n_failed=diag.n_failed,
            fallback_serial_steps=int(fallback_serial_steps),
            lane_samples=sum(len(r.time) - 1
                             for r in self.results if r is not None))
        if self.failures and on_error == "raise":
            raise self.failures[0][1]
        return BatchTranResult(results=self.results,
                               failures=self.failures, diagnostics=diag)


@dataclass(frozen=True)
class BatchedTranMetric:
    """A Monte-Carlo metric whose evaluation is one transient run.

    The transient twin of :class:`BatchedOpMetric`: calling the spec
    with a seed is the serial path (build a fresh circuit, apply the
    drawn lane, run the serial :func:`~repro.spice.transient.transient`,
    measure the waveform), and the same spec is the vectorizable
    description :class:`~repro.analysis.montecarlo.MonteCarlo` runs as
    **one** lockstep :func:`batch_transient` campaign under
    ``backend="batched"``.  Both paths share ``draw`` /
    :func:`apply_lane`, so they see bit-identical perturbations.

    Attributes:
        build: Zero-argument factory for a fresh base circuit.
        draw: ``(seed, circuit) -> LaneSpec``; a pure function of the
            seed.
        measure: ``TranResult -> {metric: value}`` over the waveforms.
        t_stop: Integration stop time [s].
        options: Transient options shared by both paths (on a fixed
            grid -- ``dt_initial == dt_min == dt_max`` -- the two
            backends walk the identical time axis).
    """

    build: Callable[[], "Circuit"]
    draw: Callable[[int, "Circuit"], LaneSpec]
    measure: Callable[[TranResult], Mapping[str, float]]
    t_stop: float = 0.0
    options: TransientOptions | None = None

    def __call__(self, seed: int) -> dict[str, float]:
        circuit = self.build()
        return _measure_lane(circuit, self.draw(seed, circuit),
                             self.measure, transient, self.t_stop,
                             self.options)
