"""Hierarchical subcircuit compilation: compile a cell once,
instantiate it N times with index offsets.

A :class:`Subcircuit` wraps a *template* :class:`~.netlist.Circuit`
(built with the ordinary ``add_*`` API) plus an ordered port list.  The
template is compiled exactly once -- its MNA local index space, its
vectorized assembler (linear triplets, MOS/diode banks, charge system)
and its structural classification (which nets each template element
touches, sources or conductively joins) are all shared by every
instance.  An :class:`Instance` is then a single
:class:`~.elements.Element` in the parent circuit carrying only a
local->global index LUT; the parent's
:class:`~.assembly.CircuitAssembler` expands instance groups into its
own flat scatter arrays with numpy index arithmetic, and structural
validation maps the cell's classification onto each instance's nets,
so a 32-bit adder bit-slice chain costs one cell compile plus
O(instances) work to assemble and to validate instead of O(chain)
per-element Python work -- the way litex composes an SoC from one
parameterized core compiled once.

Naming: an instance's internal nets appear in the parent as
``"<instance>.<net>"``; ports take whatever parent nets the
instantiation binds them to (including ground).  Template nodesets are
replayed onto the mapped nets by
:meth:`~.netlist.Circuit.add_instance`.

Deliberate scope limits (documented in docs/architecture.md):

* one level of hierarchy -- a template may not itself contain
  instances;
* instances of one subcircuit share the template's element values --
  sweeps and fault/Monte-Carlo overlays address top-level elements
  only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import NetlistError
from .elements import (
    Capacitor,
    CurrentSource,
    DiodeElement,
    Element,
    GROUND_INDEX,
    VoltageSource,
)
from .validate import cell_structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import Circuit


class CellPlan:
    """The compile-once artifact of a :class:`Subcircuit`.

    Everything here lives in the *template-local* index space: unknowns
    ``0..size-1`` (nodes first, then aux branch rows, exactly as the
    template compiled), with ground represented by ``-1`` so that a
    fancy-index through an instance LUT whose last entry is ``-1`` maps
    it straight back to global ground.
    """

    def __init__(self, subcircuit: "Subcircuit") -> None:
        template = subcircuit.template
        compiled = template.compile(validate=False)
        assembler = compiled.assembler
        self.subcircuit = subcircuit
        self.compiled = compiled
        self.assembler = assembler
        self.size = compiled.size
        self.n_nodes = len(compiled.node_index)
        self.n_aux = self.size - self.n_nodes
        ports = subcircuit.ports
        self.internal_nodes: tuple[str, ...] = tuple(
            n for n in template.node_names if n not in ports)
        # Local ids of Instance.nodes order: ports first, then internals.
        self.node_local_ids = np.array(
            [compiled.node_index[p] for p in ports]
            + [compiled.node_index[n] for n in self.internal_nodes],
            dtype=np.intp)
        # Per-type local index arrays (ground already -1 from binding).
        mos = assembler._mos
        self.mos_elements = list(mos)
        self.mos_idx = (np.array([m._idx for m in mos], dtype=np.intp)
                        .reshape(-1, 4))
        diodes = assembler._diodes
        self.diode_elements = list(diodes)
        self.diode_idx = (np.array([d._idx for d in diodes], dtype=np.intp)
                          .reshape(-1, 2))
        self.vsrc_elements = list(assembler._vsources)
        self.vsrc_rows = np.array(
            [e._aux[0] for e in self.vsrc_elements], dtype=np.intp)
        self.isrc_elements = list(assembler._isources)
        self.isrc_nodes = (np.array([e._idx for e in self.isrc_elements],
                                    dtype=np.intp).reshape(-1, 2))
        # Charge-term layout in template insertion order: slot offsets
        # let the parent assembler allot each instance a contiguous
        # charge-slot block without re-walking the template.
        cap_offsets, dio_offsets = [], []
        cap_pos, cap_neg = [], []
        offset = 0
        for element in template.elements:
            if isinstance(element, Capacitor):
                cap_offsets.append(offset)
                cap_pos.append(element._idx[0])
                cap_neg.append(element._idx[1])
                offset += 1
            elif isinstance(element, DiodeElement):
                dio_offsets.append(offset)
                offset += 1
        self.n_charge_terms = offset
        self.cap_offsets = np.array(cap_offsets, dtype=np.intp)
        self.cap_pos = np.array(cap_pos, dtype=np.intp)
        self.cap_neg = np.array(cap_neg, dtype=np.intp)
        self.dio_offsets = np.array(dio_offsets, dtype=np.intp)
        #: The template's structural classification, which validation
        #: maps onto each instance's nets instead of walking its
        #: elements.
        self.structure = cell_structure(template.elements,
                                        ports + self.internal_nodes)


class Subcircuit:
    """A reusable cell: a template circuit plus an ordered port list."""

    def __init__(self, name: str, template: "Circuit",
                 ports: Sequence[str]) -> None:
        from .netlist import is_ground
        self.name = name
        self.template = template
        self.ports = tuple(ports)
        if len(set(self.ports)) != len(self.ports):
            raise NetlistError(f"subcircuit {name!r}: duplicate ports")
        known = set(template.node_names)
        for port in self.ports:
            if is_ground(port):
                raise NetlistError(
                    f"subcircuit {name!r}: ground cannot be a port (it "
                    f"is global)")
            if port not in known:
                raise NetlistError(
                    f"subcircuit {name!r}: port {port!r} is not a node "
                    f"of template {template.name!r}")
        for element in template.elements:
            if isinstance(element, Instance):
                raise NetlistError(
                    f"subcircuit {name!r}: nested instances are not "
                    f"supported (flatten {element.name!r} first)")
        self._plan: CellPlan | None = None

    def plan(self) -> CellPlan:
        """The compile-once cell plan (built lazily, cached)."""
        if self._plan is None:
            self._plan = CellPlan(self)
        return self._plan


class Instance(Element):
    """One placement of a :class:`Subcircuit` in a parent circuit.

    Its MNA nodes are the parent nets bound to the ports followed by
    the namespaced internal nets; its aux rows mirror the template's.
    Binding builds :attr:`lut`, the local->global index map the parent
    assembler tiles cell scatter patterns through (last entry is
    ground, so local ``-1`` indexes map to global ``-1``).
    """

    def __init__(self, name: str, subcircuit: Subcircuit,
                 ports: Mapping[str, str]) -> None:
        plan = subcircuit.plan()
        missing = [p for p in subcircuit.ports if p not in ports]
        extra = [p for p in ports if p not in subcircuit.ports]
        if missing or extra:
            raise NetlistError(
                f"instance {name!r} of {subcircuit.name!r}: port map "
                f"mismatch (missing {missing}, unknown {extra})")
        self.subcircuit = subcircuit
        self.port_map = dict(ports)
        self.n_aux = plan.n_aux
        nodes = tuple(ports[p] for p in subcircuit.ports) + tuple(
            f"{name}.{n}" for n in plan.internal_nodes)
        super().__init__(name, nodes)
        self.lut: np.ndarray | None = None

    def map_net(self, net: str) -> str:
        """Parent-circuit name of template net ``net``."""
        from .netlist import is_ground
        if is_ground(net):
            return "0"
        mapped = self.port_map.get(net)
        return mapped if mapped is not None else f"{self.name}.{net}"

    def bind(self, node_indices: tuple[int, ...],
             aux_indices: tuple[int, ...]) -> None:
        super().bind(node_indices, aux_indices)
        plan = self.subcircuit.plan()
        lut = np.empty(plan.size + 1, dtype=np.intp)
        lut[plan.node_local_ids] = node_indices
        lut[plan.n_nodes:plan.size] = aux_indices
        lut[plan.size] = GROUND_INDEX
        self.lut = lut

    def waveform_sources(self) -> list[VoltageSource | CurrentSource]:
        """The template's independent sources (for breakpoint
        collection by the transient engine)."""
        plan = self.subcircuit.plan()
        return [*plan.vsrc_elements, *plan.isrc_elements]
