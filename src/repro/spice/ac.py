"""Small-signal AC analysis.

The circuit is linearised at its DC operating point: the static Jacobian
G comes from each element's ``stamp_ac`` (independent sources zeroed,
their topology kept), the susceptance matrix C from the derivatives of
the charge terms.  For each frequency the complex system

    (G + j 2 pi f C) v = b

is solved, where b carries the ``ac_mag`` excitations of the independent
sources.

The default backend stacks all frequencies of a chunk into one
``(F, N, N)`` complex tensor -- constant ``G`` broadcast plus a
per-frequency ``jωC`` axis -- and hands the whole stack to a single
``np.linalg.solve`` (the batched-LAPACK idiom of
:mod:`repro.spice.batch`).  Chunk sizes are capped so the F·N² scratch
tensor stays inside a fixed memory budget regardless of grid length.

On long grids the stacked backend first tries an even cheaper route:
one complex QZ decomposition ``C = Q S Zᴴ``, ``G = Q T Zᴴ`` turns
every frequency into a back-substitution on the *triangular* matrix
``T + jω S``, which vectorizes across the whole grid (N numpy steps
total instead of F LAPACK calls).  The result is residual-verified and
any failure -- singular diagonal, loss of accuracy -- falls back to
the chunked direct solve.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import qz as _qz

from .. import telemetry
from ..errors import AnalysisError
from .dc import NewtonOptions, operating_point
from .elements import CurrentSource, Stamper, VoltageSource
from .netlist import Circuit
from .results import AcResult, OpResult

#: Memory budget for one stacked-solve chunk: the (F, N, N) complex128
#: tensor is capped at this many bytes, so a 10k-point sweep of a large
#: circuit never materialises the full frequency axis at once.
_AC_CHUNK_BYTES = 16 << 20


def _chunk_length(size: int) -> int:
    """Frequencies per stacked chunk under the memory budget."""
    return max(1, _AC_CHUNK_BYTES // (16 * size * size))


def ac_analysis(circuit: Circuit, frequencies: Sequence[float],
                op: OpResult | None = None,
                options: NewtonOptions | None = None) -> AcResult:
    """Frequency response of ``circuit`` over ``frequencies`` [Hz].

    Exactly the sources constructed with a non-zero ``ac_mag`` excite the
    circuit.  Returns complex node voltages normalised to the excitation.
    """
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0:
        raise AnalysisError("AC frequencies must be positive and non-empty")
    if np.any(np.isnan(freqs)):
        raise AnalysisError("AC frequencies must not contain NaN")
    if np.any(freqs <= 0.0):
        raise AnalysisError("AC frequencies must be positive and non-empty")
    if np.unique(freqs).size != freqs.size:
        raise AnalysisError(
            "AC frequency grid contains duplicate points; deduplicate "
            "the grid (duplicates silently skew any response-derived "
            "metric such as bandwidth interpolation)")

    with telemetry.span("ac", circuit=circuit.name,
                        n_frequencies=int(freqs.size)) as tspan:
        compiled, g_matrix, c_matrix, b = _ac_system(circuit, op, options)
        solutions = _solve_stacked(g_matrix, c_matrix, b,
                                   2.0 * np.pi * freqs, tspan)
    responses = {name: solutions[:, index].copy()
                 for name, index in compiled.node_index.items()}
    return AcResult(frequencies=freqs, voltages=responses)


def _ac_system(circuit: Circuit, op: OpResult | None,
               options: NewtonOptions | None):
    """``(compiled, G, C, b)`` of the small-signal system
    ``(G + jωC) v = b`` linearised at ``op`` (solved when None)."""
    if op is None:
        op = operating_point(circuit, options)
    if op.x is None:
        raise AnalysisError("operating point lacks a raw solution vector")
    compiled = circuit.compile()
    x_op = op.x

    # Static small-signal matrix.
    st = Stamper(compiled.size)
    for element in circuit.elements:
        element.stamp_ac(st, x_op)
    g_matrix = st.jac.copy()

    # Susceptance matrix from charge-term derivatives: one vectorized
    # scatter when every element uses the stock charge API, otherwise
    # the generic per-term loop.
    assembler = compiled.prepare()
    if assembler.charges_vectorized:
        c_matrix = assembler.susceptance_matrix(x_op)
    else:
        c_matrix = np.zeros((compiled.size, compiled.size))
        for term in compiled.charge_terms(x_op):
            for col, dqdv in term.derivs:
                if col < 0:
                    continue
                if term.pos >= 0:
                    c_matrix[term.pos, col] += dqdv
                if term.neg >= 0:
                    c_matrix[term.neg, col] -= dqdv

    # Excitation vector.
    b = np.zeros(compiled.size, dtype=complex)
    excited = False
    for element in circuit.elements:
        if isinstance(element, VoltageSource) and element.ac_mag:
            (row,) = compiled.aux_index[element.name]
            b[row] += element.ac_mag
            excited = True
        elif isinstance(element, CurrentSource) and element.ac_mag:
            # Sign audit: the DC residual of a CurrentSource adds
            # +value at node_pos (current *pulled out of* the positive
            # node); at the solution G x = -residual-sources, so the
            # matching RHS entry of the linear AC system is -ac_mag at
            # node_pos / +ac_mag at node_neg.  An ac excitation
            # injected *into* a node therefore uses the same
            # ("0", node) orientation as its DC counterpart, and the
            # f->0 AC limit equals the DC small-signal response
            # (regression-tested in tests/unit/spice/test_ac.py).
            p = compiled.index_of(element.nodes[0])
            n = compiled.index_of(element.nodes[1])
            if p >= 0:
                b[p] -= element.ac_mag
            if n >= 0:
                b[n] += element.ac_mag
            excited = True
    if not excited:
        raise AnalysisError(
            "no AC excitation: give some source a non-zero ac_mag")
    return compiled, g_matrix, c_matrix, b


#: Minimum grid length before the QZ triangular sweep pays for its
#: one-off decomposition; shorter grids go straight to the chunked
#: direct solve.
_QZ_MIN_FREQUENCIES = 16

#: Residual acceptance bound of the QZ sweep, relative to the
#: excitation magnitude.  Orthogonal transforms keep the sweep at
#: direct-solve accuracy (~1e-15 relative), so tripping this bound
#: means something is genuinely wrong and the direct path takes over.
_QZ_RESIDUAL_RTOL = 1.0e-8


def _solve_stacked(g_matrix: np.ndarray, c_matrix: np.ndarray,
                   b: np.ndarray, omegas: np.ndarray,
                   tspan) -> np.ndarray:
    """Solve ``(G + jωC) v = b`` for every ω along a stacked axis.

    Long grids take the QZ triangular sweep; short grids and
    residual-check failures take the chunked direct tensor solve.
    Either way the telemetry counter advances by the number of
    frequencies handled, so the per-run total still equals one
    ``jacobian_factorization`` per frequency.
    """
    if omegas.size >= _QZ_MIN_FREQUENCIES:
        solutions = _solve_qz_sweep(g_matrix, c_matrix, b, omegas)
        if solutions is not None:
            tspan.inc("jacobian_factorizations", int(omegas.size))
            tspan.inc("ac_qz_sweeps")
            return solutions
    return _solve_stacked_direct(g_matrix, c_matrix, b, omegas, tspan)


def _solve_qz_sweep(g_matrix: np.ndarray, c_matrix: np.ndarray,
                    b: np.ndarray, omegas: np.ndarray
                    ) -> np.ndarray | None:
    """All-frequency solve through one generalized Schur form.

    The complex QZ decomposition ``C = Q S Zᴴ``, ``G = Q T Zᴴ``
    (orthogonal ``Q``, ``Z``; upper-triangular ``S``, ``T``) rewrites
    the system as ``(T + jω S) u = Qᴴ b`` with ``v = Z u`` -- a
    *triangular* solve per frequency, back-substituted for the whole
    grid at once in N vectorized steps.  Returns None when the sweep
    cannot be trusted (decomposition failure, singular diagonal,
    residual above bound); the caller then falls back to the direct
    chunked path.
    """
    size = b.size
    try:
        s_tri, t_tri, q_mat, z_mat = _qz(c_matrix, g_matrix,
                                         output="complex")
    except (ValueError, np.linalg.LinAlgError):
        return None
    y = q_mat.conj().T @ b
    u = np.empty((omegas.size, size), dtype=complex)
    diag = (t_tri.diagonal()[None, :]
            + 1j * omegas[:, None] * s_tri.diagonal()[None, :])
    if np.any(diag == 0.0):
        return None  # singular at some frequency: let LAPACK diagnose
    for k in range(size - 1, -1, -1):
        acc = np.full(omegas.size, y[k], dtype=complex)
        if k < size - 1:
            acc -= u[:, k + 1:] @ t_tri[k, k + 1:]
            acc -= 1j * omegas * (u[:, k + 1:] @ s_tri[k, k + 1:])
        u[:, k] = acc / diag[:, k]
    solutions = u @ z_mat.T
    # Cheap full-grid residual audit: two (F,N)x(N,N) matmuls.
    residual = (solutions @ g_matrix.T
                + 1j * omegas[:, None] * (solutions @ c_matrix.T)
                - b[None, :])
    scale = float(np.abs(b).max())
    if not np.all(np.isfinite(solutions)) or \
            float(np.abs(residual).max()) > _QZ_RESIDUAL_RTOL * scale:
        return None
    return solutions


def _solve_stacked_direct(g_matrix: np.ndarray, c_matrix: np.ndarray,
                          b: np.ndarray, omegas: np.ndarray,
                          tspan) -> np.ndarray:
    """Chunk-batched direct solve of the ``(F, N, N)`` tensor."""
    size = b.size
    solutions = np.empty((omegas.size, size), dtype=complex)
    chunk = _chunk_length(size)
    for start in range(0, omegas.size, chunk):
        w = omegas[start:start + chunk]
        # In-place real/imag assembly: G broadcast along the frequency
        # axis, ωC written straight into the imaginary plane (the
        # naive `G + 1j*w*C` spends more on temporaries than LAPACK
        # does on the solve at these matrix sizes).
        stack = np.empty((w.size, size, size), dtype=complex)
        stack.real[...] = g_matrix
        np.multiply(w[:, None, None], c_matrix, out=stack.imag)
        tspan.inc("jacobian_factorizations", int(w.size))
        # RHS as (F, N, 1) column vectors: numpy's batched solve treats
        # a 2-D b as one matrix of right-hand sides, not a stack.
        rhs = np.broadcast_to(b[None, :, None], (w.size, size, 1))
        try:
            solutions[start:start + chunk] = np.linalg.solve(
                stack, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular frequency poisons the whole batch: redo the
            # chunk point-by-point so only the defective rows go
            # through the least-squares rescue.
            for k, omega in enumerate(w):
                matrix = g_matrix + 1j * omega * c_matrix
                try:
                    solutions[start + k] = np.linalg.solve(matrix, b)
                except np.linalg.LinAlgError:
                    solutions[start + k], *_ = np.linalg.lstsq(
                        matrix, b, rcond=None)
    return solutions
