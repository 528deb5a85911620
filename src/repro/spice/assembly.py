"""Vectorized MNA assembly: constant linear part + array-valued restamp.

A :class:`CircuitAssembler` is built once per :class:`CompiledCircuit`
and replaces the per-element Python stamping loop on the Newton hot
path.  It splits the system into

* a **constant linear part** -- resistors, controlled sources and the
  incidence/branch topology of independent sources -- accumulated into
  one dense matrix ``G_const`` at build time, so each Newton iteration
  contributes it with a single ``copyto`` + matvec;
* a **per-iteration source RHS** -- the waveform values of independent
  sources (evaluated in Python: waveforms are user callables, but there
  are few sources), memoized per timestamp for one solve;
* a **vectorized nonlinear restamp** -- every MOS transistor and diode
  of the circuit is grouped into a :class:`~repro.devices.mosfet.MosBank`
  / :class:`~repro.devices.diode.DiodeBank` and evaluated with one
  array-valued model call per iteration, scattered into the Jacobian
  through precomputed flat index arrays;
* a **fallback list** -- any element type the assembler does not know
  (user subclasses of :class:`~repro.spice.elements.Element`) keeps the
  classic per-element ``stamp`` call, so extensibility is preserved.

The assembler also owns the vectorized *charge* system used by the
transient engine: linear capacitors contribute a constant scatter
pattern scaled by the integration coefficient, diode depletion charges
are evaluated through the bank.

Every stamping kernel is lane-polymorphic.  It takes one solution
vector ``x`` of shape ``(N,)`` or a stack of lane rows ``X`` of shape
``(A, N)``, and fills the matching dense Jacobian (``(N, N)`` or ``(A,
N, N)``) or sparse triplet values (``(n_triplets,)`` or ``(A,
n_triplets)``).  Each scatter pattern is stored for one row and offset
into every row of a raveled stack on demand (:class:`_Index`), so a
stack costs one gather and one ``np.add.at`` per pattern, as a vector
does.  The serial solvers pass ``(N,)`` vectors, which keeps the device
banks on their fastest inputs.  The batched assembler
(:class:`~repro.spice.batch.BatchAssembler`) adds only its per-lane
overlays, through three hooks the kernels call: :meth:`_lane_bank`,
:meth:`_source_terms` and :meth:`_stamp_overlays`.

Because element *values* (a resistance aged by
:class:`~repro.faults.models.ResistorDrift`, a device swapped by
:class:`~repro.faults.models.VtOutlier`) may be mutated without going
through :class:`~repro.spice.netlist.Circuit`, the assembler keeps a
value signature and :meth:`sync` rebuilds the cached arrays whenever it
changed.  ``sync`` runs once per solve, not once per Newton iteration.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..devices.diode import DiodeBank
from ..devices.mosfet import MosBank, MosOperatingPoint
from .elements import (
    Capacitor,
    CurrentSource,
    DiodeElement,
    Element,
    MosElement,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from .sparse import SparseStamper, SparseSystem, coo_to_csr
from .subckt import Instance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import CompiledCircuit


class _InstanceGroup:
    """All instances of one subcircuit, with their local->global LUTs
    stacked into a ``(K, cell_size + 1)`` matrix so cell scatter
    patterns tile across instances with one fancy-index (the trailing
    sentinel column maps local ground ``-1`` to global ``-1``)."""

    __slots__ = ("plan", "instances", "lut_matrix")

    def __init__(self, plan, instances: list[Instance]) -> None:
        self.plan = plan
        self.instances = instances
        self.lut_matrix = np.stack([inst.lut for inst in instances])


class _Index:
    """An index array into one row of ``stride`` entries.

    :meth:`rows` returns it unchanged for a single vector, or offset into
    each row of a raveled ``(rows, stride)`` stack, with shape
    ``idx.shape[:-1] + (rows, n)``.  The stacked form is cached per row
    count, because the batched Newton loop keeps its active set for long
    runs of iterations.
    """

    __slots__ = ("idx", "stride", "_stacked")

    def __init__(self, idx, stride: int) -> None:
        self.idx = np.asarray(idx, dtype=np.intp)
        self.stride = stride
        self._stacked: dict[int, np.ndarray] = {}

    def rows(self, rows: int | None) -> np.ndarray:
        if rows is None:
            return self.idx
        flat = self._stacked.get(rows)
        if flat is None:
            offsets = np.arange(rows, dtype=np.intp)[:, None] * self.stride
            flat = self.idx[..., None, :] + offsets
            self._stacked[rows] = flat
        return flat


class _Scatter:
    """A scatter pattern: entry ``k`` adds ``sign[k] * values[sel[k]]``
    at position ``at[k]`` of a raveled target row, where ``values``
    holds one entry per device."""

    __slots__ = ("at", "sel", "sign")

    def __init__(self, at, at_stride: int, sel, sel_stride: int,
                 sign) -> None:
        self.at = _Index(at, at_stride)
        self.sel = _Index(sel, sel_stride)
        self.sign = np.asarray(sign, dtype=float)

    def terms(self, values: np.ndarray, rows: int | None) -> np.ndarray:
        """The signed entries for per-device ``values``: ``(n,)`` values
        give ``(m,)`` terms, lane rows ``(rows, n)`` give ``(rows, m)``.
        Multiplying by ±1 is exact, so a term equals the value or its
        negation bit for bit."""
        if values.ndim == 1:
            return values[self.sel.idx] * self.sign
        return values.ravel()[self.sel.rows(rows)] * self.sign

    def add_terms(self, target: np.ndarray, terms: np.ndarray,
                  rows: int | None) -> None:
        """Accumulate signed ``terms`` into the raveled ``target``;
        ``(m,)`` terms are shared by every row.  ``np.add.at`` sums
        duplicate positions in pattern order."""
        at = self.at.rows(rows)
        if terms.shape != at.shape:
            # Broadcast explicitly: np.add.at (numpy 2.4) misreads
            # ``(m,)`` values against a ``(rows, m)`` index.
            terms = np.broadcast_to(terms, at.shape)
        np.add.at(target, at, terms)

    def add(self, target: np.ndarray, values: np.ndarray,
            rows: int | None) -> None:
        """Accumulate the terms of per-device ``values``."""
        self.add_terms(target, self.terms(values, rows), rows)


def _current_scatter(terminals, signs, size: int) -> _Scatter:
    """Device currents into the residual: ``signs[t] * i`` at terminal
    row ``terminals[t]``, terminal by terminal; ground rows dropped."""
    n = len(terminals[0])
    rows = np.concatenate(terminals).astype(np.intp)
    sel = np.tile(np.arange(n, dtype=np.intp), len(terminals))
    sign = np.repeat(np.asarray(signs, dtype=float), n)
    keep = rows >= 0
    return _Scatter(rows[keep], size, sel[keep], n, sign[keep])


def _jacobian_scatter(rows, cols, blocks, signs, n_values: int,
                      size: int) -> _Scatter:
    """Jacobian entries ``(rows[k][j], cols[k][j])`` of device ``j``,
    taking ``signs[k]`` times block ``blocks[k]`` of the packed
    per-device values; entries in a ground row or column dropped."""
    n = len(rows[0])
    r = np.concatenate(rows).astype(np.intp)
    c = np.concatenate(cols).astype(np.intp)
    sel = np.concatenate([block * n + np.arange(n, dtype=np.intp)
                          for block in blocks])
    sign = np.repeat(np.asarray(signs, dtype=float), n)
    keep = (r >= 0) & (c >= 0)
    return _Scatter(r[keep] * size + c[keep], size * size, sel[keep],
                    n_values, sign[keep])


def _gather(terminals, size: int) -> _Index:
    """Terminal voltages of every device, one terminal per leading row,
    from a grounded row (ground ``-1`` reads the row's trailing 0)."""
    idx = np.asarray(terminals, dtype=np.intp)
    return _Index(np.where(idx < 0, size, idx), size + 1)


def _two_terminal(a, c, size: int) -> tuple[_Index, _Scatter, _Scatter]:
    """Patterns of devices between node arrays ``a`` and ``c``: the
    voltage gather, the current scatter (``+i`` into ``a``, ``-i``
    into ``c``) and the conductance scatter (``[g, -g; -g, g]``)."""
    return (_gather((a, c), size),
            _current_scatter((a, c), (1.0, -1.0), size),
            _jacobian_scatter((a, a, c, c), (a, c, a, c), (0, 0, 0, 0),
                              (1.0, -1.0, -1.0, 1.0), len(a), size))


def _target(st) -> tuple[np.ndarray, dict | None]:
    """A stamper's Jacobian target: ``(jac, None)`` for a dense
    :class:`~repro.spice.elements.Stamper`, ``(triplet values, segment
    slices)`` for a :class:`~repro.spice.sparse.SparseStamper`."""
    if isinstance(st, SparseStamper):
        return st.vals, st.system.segment_slices
    return st.jac, None


class LazyDeviceOps(Mapping):
    """``device_ops`` mapping materialized on first access.

    Most solutions are only read for node voltages; deferring the
    per-transistor operating-point extraction keeps it off the hot path
    while looking exactly like the dict it replaces.  ``lane`` selects a
    batched assembler's per-lane parameter overlay.
    """

    def __init__(self, assembler: "CircuitAssembler", x: np.ndarray,
                 lane: int | None = None) -> None:
        self._assembler = assembler
        self._x = x
        self._lane = lane
        self._data: dict | None = None

    def _materialize(self) -> dict:
        if self._data is None:
            self._data = self._assembler.device_ops(self._x, self._lane)
        return self._data

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __repr__(self) -> str:
        return repr(self._materialize())


class CircuitAssembler:
    """Compile-once stamping engine for one :class:`CompiledCircuit`."""

    def __init__(self, compiled: "CompiledCircuit") -> None:
        self.compiled = compiled
        self.size = compiled.size
        self._signature: tuple | None = None
        self._sparse_system: SparseSystem | None = None
        self._partition()
        self.sync()

    # -- structure ------------------------------------------------------

    def _partition(self) -> None:
        """Split elements by type; structure is fixed for the lifetime
        of the compiled circuit (structural edits recompile)."""
        self._resistors: list[Resistor] = []
        self._vsources: list[VoltageSource] = []
        self._isources: list[CurrentSource] = []
        self._vcvs: list[Vcvs] = []
        self._vccs: list[Vccs] = []
        self._capacitors: list[Capacitor] = []
        self._diodes: list[DiodeElement] = []
        self._mos: list[MosElement] = []
        self._instances: list[Instance] = []
        self._fallback: list = []
        for element in self.compiled.circuit.elements:
            if isinstance(element, Resistor):
                self._resistors.append(element)
            elif isinstance(element, VoltageSource):
                self._vsources.append(element)
            elif isinstance(element, CurrentSource):
                self._isources.append(element)
            elif isinstance(element, Vcvs):
                self._vcvs.append(element)
            elif isinstance(element, Vccs):
                self._vccs.append(element)
            elif isinstance(element, Capacitor):
                self._capacitors.append(element)
            elif isinstance(element, DiodeElement):
                self._diodes.append(element)
            elif isinstance(element, MosElement):
                self._mos.append(element)
            elif isinstance(element, Instance):
                self._instances.append(element)
            else:
                self._fallback.append(element)
        # Instances of the same subcircuit share one compiled cell plan;
        # grouping them lets every build pass tile the cell's index
        # arrays across all K placements with vectorized arithmetic.
        by_cell: dict[int, list[Instance]] = {}
        cell_order: list[Instance] = []
        for inst in self._instances:
            key = id(inst.subcircuit)
            if key not in by_cell:
                by_cell[key] = []
                cell_order.append(inst)
            by_cell[key].append(inst)
        self._instance_groups = [
            _InstanceGroup(inst.subcircuit.plan(), by_cell[id(inst.subcircuit)])
            for inst in cell_order]

    def _value_signature(self) -> tuple:
        """Every mutable value baked into the cached arrays."""
        return (
            tuple(r.resistance for r in self._resistors),
            tuple(e.gain for e in self._vcvs),
            tuple(e.gm for e in self._vccs),
            tuple(c.capacitance for c in self._capacitors),
            tuple((id(m.device), m.device.vt_shift, m.device.beta_factor,
                   m.device.w, m.device.l, m.device.m, m.temperature)
                  for m in self._mos),
            tuple((id(d.diode), d.diode.area, d.temperature)
                  for d in self._diodes),
            # Template element values ride along so a mutation inside a
            # cell (a swapped device model, an aged resistor) rebuilds
            # the parent arrays too.
            tuple(grp.plan.assembler._value_signature()
                  for grp in self._instance_groups),
        )

    def sync(self) -> bool:
        """Rebuild the cached arrays when element values changed.

        Returns True when a rebuild happened.  Cheap when nothing
        changed: one pass collecting plain attribute reads.  Either way
        the per-timestamp source values are forgotten: a waveform may
        have been swapped since the last solve, and waveforms are
        callables no signature can compare.
        """
        self._src_cache: tuple | None = None
        signature = self._value_signature()
        if signature == self._signature:
            return False
        self._signature = signature
        self._build_linear()
        self._build_mos()
        self._build_diodes()
        self._build_charges()
        return True

    # -- build passes ---------------------------------------------------

    def _build_linear(self) -> None:
        size = self.size
        g = np.zeros((size, size))
        # Triplet twin of the dense accumulation: the sparse backend
        # replays exactly this contribution sequence through bincount,
        # which is what makes its assembled entries bit-identical.
        lin_rows: list[int] = []
        lin_cols: list[int] = []
        lin_vals: list[float] = []

        def add(row: int, col: int, value: float) -> None:
            if row >= 0 and col >= 0:
                g[row, col] += value
                lin_rows.append(row)
                lin_cols.append(col)
                lin_vals.append(value)

        for r in self._resistors:
            a, b = r._idx
            cond = 1.0 / r.resistance
            add(a, a, cond)
            add(a, b, -cond)
            add(b, a, -cond)
            add(b, b, cond)
        for e in self._vsources:
            p, n = e._idx
            (br,) = e._aux
            add(p, br, 1.0)
            add(n, br, -1.0)
            add(br, p, 1.0)
            add(br, n, -1.0)
        for e in self._vcvs:
            p, n, cp, cn = e._idx
            (br,) = e._aux
            add(p, br, 1.0)
            add(n, br, -1.0)
            add(br, p, 1.0)
            add(br, n, -1.0)
            add(br, cp, -e.gain)
            add(br, cn, e.gain)
        for e in self._vccs:
            p, n, cp, cn = e._idx
            add(p, cp, e.gm)
            add(p, cn, -e.gm)
            add(n, cp, -e.gm)
            add(n, cn, e.gm)
        self._g_const = g
        rows_parts = [np.asarray(lin_rows, dtype=np.intp)]
        cols_parts = [np.asarray(lin_cols, dtype=np.intp)]
        vals_parts = [np.asarray(lin_vals, dtype=float)]
        # Instance expansion: tile each cell's linear triplets through
        # the stacked LUTs.  Ports bound to parent ground introduce new
        # ground entries (local index >= 0, global -1), so the mapped
        # triplets are re-masked; ports tied to one parent net create
        # duplicate coordinates, which both the dense ``np.add.at`` and
        # the sparse bincount replay accumulate identically.
        for grp in self._instance_groups:
            t_asm = grp.plan.assembler
            t_asm.sync()
            if not t_asm._lin_rows.size:
                continue
            rows_g = grp.lut_matrix[:, t_asm._lin_rows]
            cols_g = grp.lut_matrix[:, t_asm._lin_cols]
            vals_g = np.broadcast_to(t_asm._lin_vals, rows_g.shape)
            mask = (rows_g >= 0) & (cols_g >= 0)
            r, c, v = rows_g[mask], cols_g[mask], vals_g[mask]
            np.add.at(g, (r, c), v)
            rows_parts.append(r)
            cols_parts.append(c)
            vals_parts.append(v)
        self._lin_rows = np.concatenate(rows_parts)
        self._lin_cols = np.concatenate(cols_parts)
        self._lin_vals = np.concatenate(vals_parts)
        self._lin_csr = None  # rebuilt lazily after value syncs
        # Independent sources: the voltage sources, top-level first and
        # then every instance's template sources, then the current
        # sources in the same order.
        vsources: list[VoltageSource] = list(self._vsources)
        isources: list[CurrentSource] = list(self._isources)
        vsrc_rows = [e._aux[0] for e in self._vsources]
        isrc_nodes = [e._idx for e in self._isources]
        for grp in self._instance_groups:
            plan = grp.plan
            if not (plan.vsrc_elements or plan.isrc_elements):
                continue
            for inst in grp.instances:
                vsources.extend(plan.vsrc_elements)
                vsrc_rows.extend(int(r) for r in inst.lut[plan.vsrc_rows])
                isources.extend(plan.isrc_elements)
                isrc_nodes.extend(
                    (int(p), int(n)) for p, n in inst.lut[plan.isrc_nodes])
        self._sources: list = [*vsources, *isources]
        # One residual term per voltage-source branch row (``-v``) and
        # per non-ground current-source terminal (``+i`` at p, ``-i``
        # at n), in the order a per-source loop subtracts and adds them.
        rows = list(vsrc_rows)
        sel = list(range(len(vsources)))
        sign = [-1.0] * len(vsources)
        for k, (p, n) in enumerate(isrc_nodes, start=len(vsources)):
            for node, direction in ((p, 1.0), (n, -1.0)):
                if node >= 0:
                    rows.append(node)
                    sel.append(k)
                    sign.append(direction)
        self._src_scatter = _Scatter(rows, size, sel, len(self._sources),
                                     sign)

    def _build_mos(self) -> None:
        mos = list(self._mos)
        names = [m.name for m in mos]
        idx_parts = []
        if mos:
            idx_parts.append(np.array([m._idx for m in mos],
                                      dtype=np.intp).reshape(-1, 4))
        for grp in self._instance_groups:
            plan = grp.plan
            if not plan.mos_elements:
                continue
            # Instance-major blocks: (K, n_cell_mos, 4) -> rows, matching
            # the repeated element list below.
            idx_parts.append(
                grp.lut_matrix[:, plan.mos_idx].reshape(-1, 4))
            mos.extend(plan.mos_elements * len(grp.instances))
            names.extend(f"{inst.name}.{m.name}"
                         for inst in grp.instances
                         for m in plan.mos_elements)
        self._mos_all = mos
        self._mos_names = names
        self._mos_bank = None
        if not mos:
            return
        self._mos_bank = MosBank([m.device for m in mos],
                                 [m.temperature for m in mos])
        d, g, s, b = np.vstack(idx_parts).T
        self._mos_gather = _gather((d, g, s, b), self.size)
        self._mos_current = _current_scatter((d, s), (1.0, -1.0),
                                             self.size)
        # Rows (d, s) x cols (d, g, s, b) over the packed partials
        # [p_d | p_g | p_s | p_b], the source-row block negated -- the
        # exact entries of MosElement.stamp.
        self._mos_jacobian = _jacobian_scatter(
            (d, d, d, d, s, s, s, s), (d, g, s, b) * 2, (0, 1, 2, 3) * 2,
            (1.0,) * 4 + (-1.0,) * 4, 4 * len(mos), self.size)

    def _build_diodes(self) -> None:
        diodes = list(self._diodes)
        idx_parts = []
        if diodes:
            idx_parts.append(np.array([d._idx for d in diodes],
                                      dtype=np.intp).reshape(-1, 2))
        for grp in self._instance_groups:
            plan = grp.plan
            if not plan.diode_elements:
                continue
            idx_parts.append(
                grp.lut_matrix[:, plan.diode_idx].reshape(-1, 2))
            diodes.extend(plan.diode_elements * len(grp.instances))
        self._diode_bank = None
        if not diodes:
            return
        self._diode_bank = DiodeBank([d.diode for d in diodes],
                                     [d.temperature for d in diodes])
        a, c = np.vstack(idx_parts).T
        self._diode_gather, self._diode_current, self._diode_jacobian = \
            _two_terminal(a, c, self.size)

    def _build_charges(self) -> None:
        """Vectorized charge system (transient companion models).

        Term order matches ``CompiledCircuit.charge_terms``: element
        insertion order, one term per capacitor / diode.  An unknown
        element subclass overriding ``charge_terms`` cannot be
        vectorized blindly; its presence disables this fast path
        (``charges_vectorized`` False) and the transient engine falls
        back to the per-element API.
        """
        self.charges_vectorized = all(
            type(e).charge_terms is Element.charge_terms
            for e in self._fallback)
        slot = 0
        cap_slots, cap_pos, cap_neg, cap_c = [], [], [], []
        dio_slots = []
        # Diode slots must end up aligned with the *bank* order (top
        # diodes, then group by group, instance by instance), which the
        # insertion-order walk below does not follow when instances
        # interleave with top-level diodes -- so instance chunks are
        # collected aside and concatenated in bank order afterwards.
        inst_dio_chunks: dict[int, np.ndarray] = {}
        for element in self.compiled.circuit.elements:
            if isinstance(element, Capacitor):
                a, b = element._idx
                cap_slots.append(slot)
                cap_pos.append(a)
                cap_neg.append(b)
                cap_c.append(element.capacitance)
                slot += 1
            elif isinstance(element, DiodeElement):
                dio_slots.append(slot)
                slot += 1
            elif isinstance(element, Instance):
                plan = element.subcircuit.plan()
                lut = element.lut
                if plan.cap_offsets.size:
                    cap_slots.extend(
                        int(s) for s in slot + plan.cap_offsets)
                    cap_pos.extend(int(i) for i in lut[plan.cap_pos])
                    cap_neg.extend(int(i) for i in lut[plan.cap_neg])
                    cap_c.extend(plan.assembler._cap_c)
                if plan.dio_offsets.size:
                    inst_dio_chunks[id(element)] = slot + plan.dio_offsets
                slot += plan.n_charge_terms
        self.n_charge_terms = slot
        self._cap_slots = _Index(cap_slots, slot)
        self._cap_c = np.array(cap_c, dtype=float)
        self._cap_gather, self._cap_current, self._cap_jacobian = \
            _two_terminal(np.array(cap_pos, dtype=np.intp),
                          np.array(cap_neg, dtype=np.intp), self.size)
        self._cap_jac_terms = self._cap_jacobian.terms(self._cap_c, None)
        dio_parts = [np.array(dio_slots, dtype=np.intp)]
        for grp in self._instance_groups:
            for inst in grp.instances:
                chunk = inst_dio_chunks.get(id(inst))
                if chunk is not None:
                    dio_parts.append(chunk)
        self._dio_slots = _Index(np.concatenate(dio_parts), slot)

    # -- sparse twin ----------------------------------------------------

    @property
    def sparse_eligible(self) -> bool:
        """Whether every element of the circuit stamps through a known
        scatter pattern.  Foreign :class:`Element` subclasses stamp
        imperatively through the dense ``add_j`` API, which has no
        triplet twin, so their presence pins the circuit to the dense
        backend."""
        return not self._fallback

    def _sparse_segments(self) -> dict:
        """The triplet segment patterns of :meth:`sparse_system`, as a
        fresh (ordered) dict -- the batched assembler extends it with
        per-lane overlay segments before building its own system."""
        size = self.size
        empty = np.zeros(0, dtype=np.intp)

        def pattern(scatter: _Scatter | None):
            if scatter is None:
                return empty, empty
            return scatter.at.idx // size, scatter.at.idx % size

        diode_pat = pattern(self._diode_jacobian
                            if self._diode_bank is not None else None)
        n_nodes = len(self.compiled.node_index)
        diag = np.arange(n_nodes)
        return {
            "lin": (self._lin_rows, self._lin_cols),
            "mos": pattern(self._mos_jacobian
                           if self._mos_bank is not None else None),
            "dio": diode_pat,
            "cap": pattern(self._cap_jacobian),
            "diocap": diode_pat,
            "diag": (diag, diag),
        }

    def sparse_system(self) -> SparseSystem:
        """The circuit's triplet->CSC scatter (built once, cached).

        Segment order is contractual -- ``lin, mos, dio, cap, diocap,
        diag`` is exactly the dense path's accumulation sequence
        (G_const copy, MOS scatter, diode scatter, charge companions,
        gmin/anchor diagonal), which together with bincount's
        sequential summation makes the assembled entries bit-identical
        to the dense Jacobian.
        """
        if self._sparse_system is None:
            self._sparse_system = SparseSystem(self.size,
                                               self._sparse_segments())
        return self._sparse_system

    # -- lane hooks -----------------------------------------------------
    #
    # The kernels read per-lane parameters only through these; the
    # batched assembler overrides them with its lane overlays.  ``lanes``
    # is None for a single vector, else the lane index of every row.

    def _lane_bank(self, lanes) -> MosBank:
        """The MOS bank to evaluate for ``lanes``."""
        return self._mos_bank

    def _source_terms(self, time: float | None, lanes) -> np.ndarray:
        """The residual terms of the independent sources at ``time``
        (see ``_src_scatter``): ``(m,)`` shared by all rows, or ``(rows,
        m)``.

        Memoized per timestamp: the Newton iterations of one attempt
        share ``time``.  The cache lives for one solve -- :meth:`sync`,
        which every solve runs through ``CompiledCircuit.prepare``,
        starts it empty, so a waveform replaced between two solves is
        always read anew.
        """
        cache = self._src_cache
        if cache is None or cache[0] != time:
            values = np.array([e.value_at(time) for e in self._sources],
                              dtype=float)
            cache = (time, self._src_scatter.terms(values, None))
            self._src_cache = cache
        return cache[1]

    def _stamp_overlays(self, target, segments, res_flat, xg, lanes,
                        rows) -> None:
        """Per-lane contributions stamped after the device banks."""

    # -- kernels --------------------------------------------------------

    def _grounded(self, X: np.ndarray) -> np.ndarray:
        """``X`` -- ``(N,)`` or ``(A, N)`` -- raveled row by row, each
        row followed by a 0: gather index ``N`` of a row (ground) reads
        0 in every lane."""
        xg = np.zeros(X.shape[:-1] + (self.size + 1,))
        xg[..., :-1] = X
        return xg.ravel()

    @staticmethod
    def _put(target: np.ndarray, segments: dict | None, segment: str,
             scatter: _Scatter, terms: np.ndarray,
             rows: int | None) -> None:
        """Jacobian ``terms`` of one pattern: accumulated into the dense
        Jacobian, or written over their ``segment`` of the sparse
        triplet values (zeroed by the static stamp)."""
        if segments is None:
            scatter.add_terms(target.ravel(), terms, rows)
        else:
            target[..., segments[segment]] = terms

    def _count_bank_evals(self) -> None:
        if telemetry.is_enabled():
            span = telemetry.current_span()
            if self._mos_bank is not None:
                span.inc("device_bank_evals")
            if self._diode_bank is not None:
                span.inc("device_bank_evals")

    def _stamp_static(self, target: np.ndarray, res: np.ndarray,
                      X: np.ndarray, lanes, time: float | None,
                      segments: dict | None) -> None:
        """Overwrite ``target``/``res`` with the static system at ``X``.

        ``X`` is one vector ``(N,)`` (``lanes`` None) or lane rows ``(A,
        N)`` of lanes ``lanes``.  Dense mode (``segments`` None):
        ``target`` is the Jacobian, ``(N, N)`` or ``(A, N, N)``.  Sparse
        mode: ``target`` holds the triplet values of a pattern and
        ``segments`` its segment slices; the linear part's residual goes
        through one cached CSR matvec.  ``target`` and ``res`` must be
        C-contiguous.  Per row, every contribution lands in the order of
        a per-element stamping loop, so a lane row is bit-identical to
        the vector assembly of that lane.
        """
        rows = None if X.ndim == 1 else X.shape[0]
        if segments is None:
            np.copyto(target, self._g_const)
            np.dot(X, self._g_const.T, out=res)
        else:
            if self._lin_csr is None:
                self._lin_csr = coo_to_csr(self._lin_rows, self._lin_cols,
                                           self._lin_vals, self.size)
            target.fill(0.0)
            target[..., segments["lin"]] = self._lin_vals
            res[...] = self._lin_csr.dot(X.T).T
        res_flat = res.ravel()
        self._src_scatter.add_terms(res_flat,
                                    self._source_terms(time, lanes), rows)
        self._count_bank_evals()
        xg = self._grounded(X)
        if self._mos_bank is not None:
            vd, vg, vs, vb = xg[self._mos_gather.rows(rows)]
            r = self._lane_bank(lanes).evaluate(vd, vg, vs, vb)
            self._mos_current.add(res_flat, r.ids, rows)
            partials = np.concatenate((r.p_d, r.p_g, r.p_s, r.p_b), axis=-1)
            self._put(target, segments, "mos", self._mos_jacobian,
                      self._mos_jacobian.terms(partials, rows), rows)
        if self._diode_bank is not None:
            va, vc = xg[self._diode_gather.rows(rows)]
            current, conductance = self._diode_bank.current(va - vc)
            self._diode_current.add(res_flat, current, rows)
            self._put(target, segments, "dio", self._diode_jacobian,
                      self._diode_jacobian.terms(conductance, rows), rows)
        self._stamp_overlays(target, segments, res_flat, xg, lanes, rows)

    def _stamp_companions(self, target: np.ndarray, res: np.ndarray,
                          X: np.ndarray, c0: float, rhs: np.ndarray,
                          segments: dict | None) -> None:
        """Add the companion currents ``i = c0 q(x) + rhs`` and their
        conductances ``c0 dq/dv`` for every charge term, on top of a
        static stamp with the same ``target``/``segments``.  ``rhs`` is
        ``(n_charge_terms,)`` or per lane row ``(A, n_charge_terms)``:
        each lane carries its own charge history."""
        rows = None if X.ndim == 1 else X.shape[0]
        xg = self._grounded(X)
        res_flat = res.ravel()
        rhs_flat = rhs.ravel()
        if self._cap_slots.idx.size:
            vpos, vneg = xg[self._cap_gather.rows(rows)]
            i = (c0 * (self._cap_c * (vpos - vneg))
                 + rhs_flat[self._cap_slots.rows(rows)])
            self._cap_current.add(res_flat, i, rows)
            self._put(target, segments, "cap", self._cap_jacobian,
                      c0 * self._cap_jac_terms, rows)
        if self._dio_slots.idx.size:
            va, vc = xg[self._diode_gather.rows(rows)]
            v_ak = va - vc
            i = (c0 * self._diode_bank.charge(v_ak)
                 + rhs_flat[self._dio_slots.rows(rows)])
            self._diode_current.add(res_flat, i, rows)
            self._put(target, segments, "diocap", self._diode_jacobian,
                      self._diode_jacobian.terms(
                          c0 * self._diode_bank.capacitance(v_ak), rows),
                      rows)

    # -- entry points ---------------------------------------------------
    #
    # benchmarks/e2e/layers.py times assembly through the public entry
    # points of this class and of BatchAssembler, looked up in each
    # class body; none calls another, so each call counts once.

    def assemble(self, st, x: np.ndarray, time: float | None) -> None:
        """Overwrite stamper ``st`` with the full static system at the
        vector ``x`` -- a dense :class:`~repro.spice.elements.Stamper`
        or a :class:`~repro.spice.sparse.SparseStamper` -- then stamp
        the elements the assembler does not know, one by one."""
        target, segments = _target(st)
        self._stamp_static(target, st.res, x, None, time, segments)
        for element in self._fallback:
            element.stamp(st, x, time)

    def stamp_charges(self, st, x: np.ndarray, c0: float,
                      rhs: np.ndarray) -> None:
        """Add the charge companions at the vector ``x`` to stamper
        ``st``, after :meth:`assemble` (see :meth:`_stamp_companions`)."""
        target, segments = _target(st)
        self._stamp_companions(target, st.res, x, c0, rhs, segments)

    def stamp_charges_batch(self, target: np.ndarray, res: np.ndarray,
                            X: np.ndarray, c0: float, rhs: np.ndarray,
                            segment_slices: dict | None = None) -> None:
        """Add the charge companions of every lane row of ``X`` (A, N)
        with per-lane histories ``rhs`` (A, n_charge_terms): into the
        stacked (A, N, N) Jacobian ``target``, or -- with
        ``segment_slices`` -- into the (A, n_triplets) values of the
        stacked sparse assembly."""
        self._stamp_companions(target, res, X, c0, rhs, segment_slices)

    # -- queries --------------------------------------------------------

    def device_ops(self, x: np.ndarray,
                   lane: int | None = None) -> dict[str, MosOperatingPoint]:
        """MOS element name -> operating point at the vector ``x``, via
        one bank call (under lane ``lane``'s parameter overlay on a
        batched assembler)."""
        if self._mos_bank is None:
            return {}
        vd, vg, vs, vb = self._grounded(x)[self._mos_gather.idx]
        points = self._lane_bank(lane).operating_points(vd, vg, vs, vb)
        return dict(zip(self._mos_names, points))

    def charge_vector(self, X: np.ndarray) -> np.ndarray:
        """All dynamic charges in canonical term order: ``(N,)`` ->
        ``(n_charge_terms,)``, lane rows ``(A, N)`` -> ``(A,
        n_charge_terms)``.  Charge parameters are lane-independent
        (:class:`~repro.spice.batch.LaneSpec` perturbs VT/beta,
        resistors and sources only)."""
        q = np.zeros(X.shape[:-1] + (self.n_charge_terms,))
        rows = None if X.ndim == 1 else X.shape[0]
        xg = self._grounded(X)
        q_flat = q.ravel()
        if self._cap_slots.idx.size:
            vpos, vneg = xg[self._cap_gather.rows(rows)]
            q_flat[self._cap_slots.rows(rows)] = self._cap_c * (vpos - vneg)
        if self._dio_slots.idx.size:
            va, vc = xg[self._diode_gather.rows(rows)]
            q_flat[self._dio_slots.rows(rows)] = \
                self._diode_bank.charge(va - vc)
        return q

    def susceptance_matrix(self, x: np.ndarray) -> np.ndarray:
        """Dense small-signal C matrix (dq/dv of every charge term) at
        ``x`` -- the ``jωC`` part of the AC system, assembled by the
        same scatter patterns as the charge companions (``c0 = 1``).

        Only valid when :attr:`charges_vectorized` is set; the AC
        engine falls back to the per-term ``charge_terms`` loop
        otherwise.
        """
        c_matrix = np.zeros((self.size, self.size))
        c_flat = c_matrix.ravel()
        if self._cap_slots.idx.size:
            self._cap_jacobian.add_terms(c_flat, self._cap_jac_terms, None)
        if self._dio_slots.idx.size:
            va, vc = self._grounded(x)[self._diode_gather.idx]
            self._diode_jacobian.add(
                c_flat, self._diode_bank.capacitance(va - vc), None)
        return c_matrix
