"""Sparse twin of the dense MNA assembly scatter.

The dense hot path (:mod:`repro.spice.assembly`) stamps every
contribution through precomputed *flat* indices into the raveled
``(size, size)`` Jacobian.  This module provides the same idea one
level up: every contribution becomes a **COO triplet slot** assigned at
build time, and each Newton iteration only writes a flat values vector
-- the matrix itself is materialised as ``scipy.sparse`` CSC through a
precomputed triplet->nonzero scatter (``np.bincount`` over slot
indices, which also reproduces the dense path's left-to-right
accumulation order, so the assembled entries agree *bit for bit* with
the dense scatter).

The expensive symbolic work -- triplet deduplication, the CSC
``indptr``/``indices`` structure, the per-segment slot maps -- is done
once per compiled circuit and shared by every factorization.  SuperLU's
column ordering (COLAMD) depends only on that fixed structure, so it
too is computed -- and counted as ``sparse_symbolic_factorizations`` --
once per pattern: :meth:`SparseSystem.factorize` keeps the ordering of
its first factorization and factors every later matrix with its columns
pre-permuted and ordering disabled, refilling one column-permuted CSC
container of the pattern in place.  Every factorization runs SuperLU
column by column (:data:`SUPERLU_RELAX`, :data:`SUPERLU_PANEL_SIZE`):
MNA Jacobians of STSCL netlists fill in almost nothing, so relaxed
supernodes and multi-column panels cost more than they save.  Each
call still runs SuperLU's elimination-tree and numeric phases; only
the column ordering is skipped, and only an exact pivot tie may
resolve differently from a per-call COLAMD run (solutions agree to
~1e-12 relative).  Numeric factors are never reused: every Newton
iteration factors the Jacobian it just assembled.

Backend selection lives in
:meth:`~repro.spice.netlist.CompiledCircuit.solver_backend`, which
reads :attr:`~repro.spice.netlist.Circuit.matrix_backend` at every
solve: ``"sparse"`` forces it, ``"dense"`` forbids it, and the default
``"auto"`` switches at :data:`SPARSE_AUTO_THRESHOLD` unknowns -- around
where one dense LAPACK factorization starts losing to SuperLU on
MNA-sparsity matrices.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError

#: Unknown count at and above which ``matrix_backend="auto"`` picks the
#: sparse backend.  Set from the dense-vs-sparse crossover measured by
#: the ``sparse_adder_chain`` bench case (see BENCH_perf.json): dense
#: LAPACK keeps winning through a few hundred unknowns on MNA-sparsity
#: matrices, sparse wins decisively by ~1000.
SPARSE_AUTO_THRESHOLD = 500

#: SuperLU's supernode relaxation and panel size for every
#: factorization: one column at a time.  The 16-bit adder's factors hold
#: about 5,400 nonzeros against the matrix's 4,500, so there are no
#: supernodes worth grouping; SuperLU's defaults (relaxed supernodes,
#: multi-column panels) pick the same pivots, store the same fill up to
#: a few entries that cancel to exactly zero in one update order and
#: not the other (at most 6 of about 5,500 per factorization of a cold
#: 16-bit adder solve), and take about twice as long (0.49–0.76 against
#: 0.24–0.39 ms a factorization on the 588-unknown 16-bit adder,
#: 0.81–0.87 against 0.39–0.47 ms on the 1164-unknown 32-bit one;
#: docs/architecture.md, "Ordering once").
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 1


def _splu(matrix, **options):
    """``scipy.sparse.linalg.splu``: every SuperLU factorization goes
    through this binding.  The import costs about 1 µs a call once
    scipy.sparse is loaded, against a 0.2 ms factorization."""
    from scipy.sparse.linalg import splu
    return splu(matrix, **options)


class SparseSystem:
    """Precomputed triplet->CSC scatter for one assembler's patterns.

    ``segments`` maps a segment name to ``(rows, cols)`` index arrays
    (ground entries must already be masked out).  Segment *order* is
    contractual: the values vector is the concatenation of the segments
    in insertion order, and per-nonzero summation happens in that
    order, mirroring the dense path's accumulation sequence.  The
    system also keeps the pattern's column ordering once
    :meth:`factorize` has computed it.
    """

    def __init__(self, size: int,
                 segments: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        self.size = size
        self.segment_slices: dict[str, slice] = {}
        rows_parts, cols_parts = [], []
        offset = 0
        for name, (rows, cols) in segments.items():
            rows = np.asarray(rows, dtype=np.intp)
            cols = np.asarray(cols, dtype=np.intp)
            if rows.size and (rows.min() < 0 or cols.min() < 0):
                raise ValueError(
                    f"segment {name!r} carries unmasked ground entries")
            self.segment_slices[name] = slice(offset, offset + rows.size)
            offset += rows.size
            rows_parts.append(rows)
            cols_parts.append(cols)
        self.n_triplets = offset
        all_rows = (np.concatenate(rows_parts) if rows_parts
                    else np.zeros(0, dtype=np.intp))
        all_cols = (np.concatenate(cols_parts) if cols_parts
                    else np.zeros(0, dtype=np.intp))
        # Canonical CSC ordering: column-major, rows ascending within a
        # column.  ``slot`` maps each triplet to its deduplicated
        # nonzero; bincount over it performs the scatter-add.
        order = np.lexsort((all_rows, all_cols))
        sorted_rows = all_rows[order]
        sorted_cols = all_cols[order]
        if order.size:
            new_entry = np.empty(order.size, dtype=bool)
            new_entry[0] = True
            np.logical_or(sorted_rows[1:] != sorted_rows[:-1],
                          sorted_cols[1:] != sorted_cols[:-1],
                          out=new_entry[1:])
            slot_sorted = np.cumsum(new_entry) - 1
        else:
            new_entry = np.zeros(0, dtype=bool)
            slot_sorted = np.zeros(0, dtype=np.intp)
        self.slot = np.empty(order.size, dtype=np.intp)
        self.slot[order] = slot_sorted
        self.nnz = int(slot_sorted[-1]) + 1 if order.size else 0
        # One-entry cache of the stacked-scatter flat index (lane k's
        # triplets land at ``k * nnz + slot``), keyed by the lane count
        # of the last :meth:`batch_data` call -- the batched Newton
        # loop's active set is stable for long runs of iterations, so
        # the rebuild is amortised away.  Per-call state: not pickled.
        self._flat_slot: tuple[int, np.ndarray] | None = None
        unique_rows = sorted_rows[new_entry]
        unique_cols = sorted_cols[new_entry]
        self.indices = unique_rows.astype(np.int32)
        counts = np.bincount(unique_cols, minlength=size)
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        # The pattern's column ordering, set by the first successful
        # factorization: ``col_order`` (column ``j`` of the permuted
        # matrix is column ``col_order[j]`` of A), the permuted CSC
        # structure, and the gather map taking a data row onto it.
        # Integer arrays only -- the system rides inside pickled plans.
        self.col_order: np.ndarray | None = None
        self._perm_gather: np.ndarray | None = None
        self._perm_indices: np.ndarray | None = None
        self._perm_indptr: np.ndarray | None = None
        # The column-permuted CSC matrix every later factorization
        # refills in place (built on first use; not pickled).
        self._permuted = None

    def __getstate__(self) -> dict:
        """The structure and its ordering, without per-call state."""
        state = self.__dict__.copy()
        state["_flat_slot"] = None
        state["_permuted"] = None
        return state

    def nonzeros(self, values: np.ndarray) -> np.ndarray:
        """CSC data row from a full triplet-values vector.

        ``bincount`` accumulates duplicate triplets in input order --
        the same left-to-right association as the dense ``+=`` scatter.
        """
        return np.bincount(self.slot, weights=values, minlength=self.nnz)

    def matrix(self, values: np.ndarray):
        """CSC matrix from a full triplet-values vector."""
        return self.matrix_from_data(self.nonzeros(values))

    def matrix_from_data(self, data: np.ndarray):
        """CSC matrix over the shared ``indices``/``indptr`` structure
        from one precomputed nonzero-data row (no copies: every lane of
        a batched ensemble shares the symbolic arrays)."""
        from scipy.sparse import csc_matrix

        return csc_matrix((data, self.indices, self.indptr),
                          shape=(self.size, self.size))

    def batch_data(self, values_b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Stacked ``(B, nnz)`` CSC data rows from ``(B, n_triplets)``
        stacked triplet values.

        Each row replays the exact per-lane :meth:`matrix` scatter
        (bincount over the shared slot map, summing duplicates in
        segment order), so a lane's data row is bit-identical to what a
        serial assembly of that lane would produce -- but all lanes
        scatter through **one** flattened bincount over per-lane offset
        slots instead of a per-lane python loop.  ``out``, when given,
        receives the result in place.
        """
        values_b = np.asarray(values_b)
        B = values_b.shape[0]
        if self.nnz == 0:
            return (np.empty((B, 0)) if out is None else out)
        if self._flat_slot is None or self._flat_slot[0] != B:
            flat = (np.arange(B, dtype=np.intp)[:, None] * self.nnz
                    + self.slot[None, :]).ravel()
            self._flat_slot = (B, flat)
        data = np.bincount(self._flat_slot[1],
                           weights=values_b.ravel(),
                           minlength=B * self.nnz).reshape(B, self.nnz)
        if out is not None:
            np.copyto(out, data)
            return out
        return data

    def factorize(self, data: np.ndarray):
        """SuperLU-factor the pattern's matrix with nonzeros ``data``;
        None when it is singular or non-finite (the caller then falls
        back to dense least squares, mirroring the dense backend's
        degraded path).

        Every call runs SuperLU column by column (relax
        :data:`SUPERLU_RELAX`, panel size :data:`SUPERLU_PANEL_SIZE`)
        through the module's ``_splu`` binding.  The first
        factorization runs COLAMD and its handle is returned as is; its
        column ordering (``perm_c``) is kept and counted as the
        pattern's one ``sparse_symbolic_factorizations``.  Every later
        call gathers ``data`` into the pattern's column-permuted CSC
        matrix -- one container, refilled in place; SuperLU copies what
        it factors, so earlier handles stay valid -- factors it with
        ordering disabled and returns a handle whose ``solve``
        un-permutes the result.  Column order and fill are those of a
        per-call COLAMD run; only an exact pivot tie may resolve
        differently (scipy factors ordering-free matrices in symmetric
        mode), so solutions agree with per-call COLAMD to ~1e-12
        relative.  Every call is one numeric factorization, counted as
        ``sparse_numeric_refactorizations``.
        """
        if not np.all(np.isfinite(data)):
            return None
        if telemetry.is_enabled():
            telemetry.current_span().inc("sparse_numeric_refactorizations")
        try:
            if self.col_order is None:
                lu = _splu(self.matrix_from_data(data), permc_spec="COLAMD",
                           relax=SUPERLU_RELAX,
                           panel_size=SUPERLU_PANEL_SIZE)
                self._keep_ordering(np.argsort(lu.perm_c))
                return lu
            permuted = self._permuted
            if permuted is None:
                from scipy.sparse import csc_matrix

                permuted = self._permuted = csc_matrix(
                    (data[self._perm_gather], self._perm_indices,
                     self._perm_indptr), shape=(self.size, self.size))
            else:
                np.take(data, self._perm_gather, out=permuted.data)
            lu = _splu(permuted, permc_spec="NATURAL", relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL_SIZE)
        except RuntimeError:  # exactly singular
            return None
        return _ColumnPermutedLU(lu, self.col_order)

    def _keep_ordering(self, col_order: np.ndarray) -> None:
        """Store ``col_order`` and the permuted structure it implies."""
        starts = self.indptr[col_order]
        lengths = self.indptr[col_order + 1] - starts
        indptr = np.zeros(self.size + 1, dtype=np.int32)
        np.cumsum(lengths, out=indptr[1:])
        gather = (np.repeat(starts - indptr[:-1], lengths)
                  + np.arange(self.nnz))
        self.col_order = col_order
        self._perm_gather = gather
        self._perm_indices = self.indices[gather]
        self._perm_indptr = indptr
        if telemetry.is_enabled():
            telemetry.current_span().inc("sparse_symbolic_factorizations")


class _ColumnPermutedLU:
    """SuperLU factors of ``A[:, q]`` presented as a solver of ``A``:
    ``A[:, q] y = b`` means ``x[q] = y`` solves ``A x = b``."""

    __slots__ = ("_lu", "_q")

    def __init__(self, lu, q: np.ndarray) -> None:
        self._lu = lu
        self._q = q

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._lu.solve(rhs)
        x = np.empty_like(y)
        x[self._q] = y
        return x


class SparseStamper:
    """Sparse counterpart of :class:`~repro.spice.elements.Stamper`.

    The residual stays a dense vector; the Jacobian is the triplet
    values vector of a :class:`SparseSystem`, which
    :meth:`~repro.spice.assembly.CircuitAssembler.assemble` overwrites
    segment by segment.
    """

    def __init__(self, system: SparseSystem) -> None:
        self.system = system
        self.size = system.size
        self.res = np.zeros(system.size)
        self.vals = np.zeros(system.n_triplets)
        self._diag = system.segment_slices["diag"]

    def add_diagonal(self, g, n_nodes: int) -> None:
        """Add ``g`` (scalar or per-node array) to the node-row diagonal
        -- the gmin shunt / pseudo-transient anchor stamp."""
        diag = self._diag
        if diag.stop - diag.start != n_nodes:  # pragma: no cover - guard
            raise ConvergenceError(
                f"diagonal segment holds {diag.stop - diag.start} slots, "
                f"caller expected {n_nodes}")
        self.vals[diag] += g

    def matrix(self):
        """The assembled CSC Jacobian at the current values."""
        return self.system.matrix(self.vals)


def coo_to_csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
               size: int):
    """CSR matrix from COO triplets (duplicates summed) -- used for the
    constant linear part's residual matvec."""
    from scipy.sparse import coo_matrix

    return coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
