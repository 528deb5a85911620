"""Circuit (netlist) builder and MNA compilation.

A :class:`Circuit` is an ordered collection of named elements over named
nodes.  ``"0"`` and ``"gnd"`` (any case) are the ground reference.
Compiling assigns each non-ground node a row in the MNA system and each
voltage-defined element its auxiliary branch row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..constants import T_NOMINAL
from ..devices.diode import Diode
from ..devices.mosfet import Mosfet
from ..errors import NetlistError
from .elements import (
    Capacitor,
    CurrentSource,
    DiodeElement,
    Element,
    GROUND_INDEX,
    MosElement,
    Resistor,
    Stamper,
    Vccs,
    Vcvs,
    VoltageSource,
)
from .sparse import SPARSE_AUTO_THRESHOLD, SparseStamper
from .waveforms import Waveform

#: Names treated as the ground reference.
GROUND_NAMES = frozenset({"0", "gnd"})

#: The element types :class:`~repro.spice.assembly.CircuitAssembler`
#: stamps (with subcircuit instances); :meth:`Circuit.compile` refuses
#: any other.
STAMPED_TYPES = (Resistor, Capacitor, VoltageSource, CurrentSource, Vcvs,
                 Vccs, DiodeElement, MosElement)


def is_ground(node: str) -> bool:
    """True when ``node`` names the ground reference."""
    return node.lower() in GROUND_NAMES


@dataclass
class CompiledCircuit:
    """A circuit with MNA indices assigned.

    Attributes:
        circuit: The source circuit.
        node_index: Map of non-ground node name -> MNA row.
        aux_index: Map of element name -> tuple of auxiliary rows.
        branch_index: Map of top-level :class:`VoltageSource` /
            :class:`Vcvs` name -> its branch-current row (a subcircuit
            instance's auxiliary rows are internal and not listed).
        size: Total number of unknowns.
    """

    circuit: "Circuit"
    node_index: dict[str, int]
    aux_index: dict[str, tuple[int, ...]]
    branch_index: dict[str, int]
    size: int

    def __post_init__(self) -> None:
        self._assembler = None

    def solver_backend(self) -> str:
        """``"dense"`` or ``"sparse"`` -- the linear-algebra backend the
        Newton kernel uses for this compiled circuit, read from
        :attr:`Circuit.matrix_backend` on every call, so a setting
        changed after a compile applies from the next solve.
        ``"auto"`` picks sparse when the system has at least
        :data:`~repro.spice.sparse.SPARSE_AUTO_THRESHOLD` unknowns.
        """
        requested = self.circuit.matrix_backend
        if requested != "auto":
            return requested
        return "sparse" if self.size >= SPARSE_AUTO_THRESHOLD else "dense"

    def new_stamper(self):
        """A fresh stamper of the backend-appropriate type."""
        if self.solver_backend() == "sparse":
            return SparseStamper(self.assembler.sparse_system())
        return Stamper(self.size)

    def index_of(self, node: str) -> int:
        """MNA row of ``node`` (ground gives -1)."""
        if is_ground(node):
            return GROUND_INDEX
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}") from None

    @property
    def assembler(self):
        """The vectorized stamping engine (built lazily, reused)."""
        if self._assembler is None:
            from .assembly import CircuitAssembler
            self._assembler = CircuitAssembler(self)
        return self._assembler

    def prepare(self):
        """Sync the assembler with any element-value mutations.

        Called once per solve (not per Newton iteration) by the DC
        ladder, the transient engine and the AC engine, so value edits
        that bypass :class:`Circuit` -- an aged resistance, a swapped
        device model, a replaced source waveform -- are picked up
        without a recompile.
        """
        assembler = self.assembler
        assembler.sync()
        return assembler


class Circuit:
    """A netlist under construction.

    Example -- a resistive divider::

        ckt = Circuit("divider")
        ckt.add_vsource("V1", "in", "0", 1.0)
        ckt.add_resistor("R1", "in", "mid", 10e3)
        ckt.add_resistor("R2", "mid", "0", 10e3)
    """

    #: Valid :attr:`matrix_backend` values.
    MATRIX_BACKENDS = ("auto", "dense", "sparse")

    def __init__(self, name: str = "circuit",
                 temperature: float = T_NOMINAL,
                 matrix_backend: str = "auto") -> None:
        self.name = name
        self.temperature = temperature
        self.matrix_backend = matrix_backend
        self.elements: list[Element] = []
        self._names: set[str] = set()
        self._node_order: list[str] = []
        self._node_set: set[str] = set()
        #: Initial-guess hints for DC convergence (SPICE .nodeset).
        self.nodesets: dict[str, float] = {}
        self._compiled: CompiledCircuit | None = None
        #: Number of times a fresh compilation was performed (a cached
        #: ``compile()`` hit does not count).  Exposed for tests and
        #: benchmarks of the compile cache.
        self.compile_count = 0
        #: Default for :meth:`compile`'s structural validation.  Leave
        #: on; circuits that are *deliberately* degenerate (singular-
        #: matrix robustness tests) can opt out per instance.
        self.validate_on_compile = True

    @property
    def matrix_backend(self) -> str:
        """The linear-algebra backend request, one of
        :attr:`MATRIX_BACKENDS`, resolved at every solve by
        :meth:`CompiledCircuit.solver_backend`.  Validated when set, at
        construction and on assignment alike."""
        return self._matrix_backend

    @matrix_backend.setter
    def matrix_backend(self, value: str) -> None:
        if value not in self.MATRIX_BACKENDS:
            raise NetlistError(
                f"matrix_backend must be one of {self.MATRIX_BACKENDS}, "
                f"got {value!r}")
        self._matrix_backend = value

    # -- construction ---------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached compilation.

        Called automatically on every structural mutation (adding an
        element, introducing a node).  Element *value* mutations (an
        aged resistance, a swapped device) do not need it -- the
        assembler re-syncs values at the start of every solve -- but
        calling it is always safe.
        """
        self._compiled = None

    def _register(self, element: Element) -> Element:
        if element.name in self._names:
            raise NetlistError(
                f"duplicate element name {element.name!r} in {self.name}")
        self._names.add(element.name)
        for node in element.nodes:
            self._touch_node(node)
        self.elements.append(element)
        self.invalidate()
        return element

    def _touch_node(self, node: str) -> None:
        if not node:
            raise NetlistError("empty node name")
        if is_ground(node):
            return
        if node not in self._node_set:
            self._node_set.add(node)
            self._node_order.append(node)
            self.invalidate()

    def add_resistor(self, name: str, node_a: str, node_b: str,
                     resistance: float) -> Resistor:
        """Add an ideal resistor."""
        return self._register(Resistor(name, node_a, node_b, resistance))

    def add_capacitor(self, name: str, node_a: str, node_b: str,
                      capacitance: float) -> Capacitor:
        """Add an ideal capacitor."""
        return self._register(Capacitor(name, node_a, node_b, capacitance))

    def add_vsource(self, name: str, node_pos: str, node_neg: str,
                    waveform: Waveform | float,
                    ac_mag: float = 0.0) -> VoltageSource:
        """Add an independent voltage source."""
        return self._register(
            VoltageSource(name, node_pos, node_neg, waveform, ac_mag))

    def add_isource(self, name: str, node_pos: str, node_neg: str,
                    waveform: Waveform | float,
                    ac_mag: float = 0.0) -> CurrentSource:
        """Add an independent current source (see
        :class:`~repro.spice.elements.CurrentSource` for the direction
        convention)."""
        return self._register(
            CurrentSource(name, node_pos, node_neg, waveform, ac_mag))

    def add_vcvs(self, name: str, node_pos: str, node_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float) -> Vcvs:
        """Add a voltage-controlled voltage source."""
        return self._register(
            Vcvs(name, node_pos, node_neg, ctrl_pos, ctrl_neg, gain))

    def add_vccs(self, name: str, node_pos: str, node_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gm: float) -> Vccs:
        """Add a voltage-controlled current source."""
        return self._register(
            Vccs(name, node_pos, node_neg, ctrl_pos, ctrl_neg, gm))

    def add_diode(self, name: str, anode: str, cathode: str,
                  diode: Diode) -> DiodeElement:
        """Add a junction diode (exponential I-V plus depletion charge)."""
        return self._register(
            DiodeElement(name, anode, cathode, diode, self.temperature))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   bulk: str, device: Mosfet,
                   with_caps: bool = True) -> MosElement:
        """Add an EKV MOS transistor.

        When ``with_caps`` is true (the default), the lumped terminal
        capacitances of the device model are added as companion
        :class:`Capacitor` elements named ``<name>.c<pair>`` so transient
        and AC analyses see realistic dynamics.
        """
        element = self._register(
            MosElement(name, drain, gate, source, bulk, device,
                       self.temperature))
        if with_caps:
            terminal = {"d": drain, "g": gate, "s": source, "b": bulk}
            for (t_a, t_b), cap in device.capacitances().items():
                node_a, node_b = terminal[t_a], terminal[t_b]
                if node_a == node_b or cap <= 0.0:
                    continue
                self._register(Capacitor(
                    f"{name}.c{t_a}{t_b}", node_a, node_b, cap))
        return element

    def add_instance(self, name: str, subcircuit, ports: dict):
        """Instantiate a :class:`~repro.spice.subckt.Subcircuit`.

        ``ports`` maps each template port name to a parent net (ground
        allowed).  The instance's internal nets appear in this circuit
        as ``"<name>.<net>"``; template nodesets are replayed onto the
        mapped nets (without overriding hints already set here).  The
        cell compiles once -- every further instantiation reuses its
        plan and only tiles index arrays.
        """
        from .subckt import Instance
        instance = self._register(Instance(name, subcircuit, ports))
        for net, voltage in subcircuit.template.nodesets.items():
            mapped = instance.map_net(net)
            if not is_ground(mapped):
                self.nodesets.setdefault(mapped, voltage)
        return instance

    def nodeset(self, node: str, voltage: float) -> None:
        """Hint the DC solver with an initial guess for ``node``."""
        self._touch_node(node)
        if not is_ground(node):
            self.nodesets[node] = voltage

    # -- queries ---------------------------------------------------------

    @property
    def node_names(self) -> list[str]:
        """Non-ground nodes in insertion order."""
        return list(self._node_order)

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        for candidate in self.elements:
            if candidate.name == name:
                return candidate
        raise NetlistError(f"no element named {name!r} in {self.name}")

    def mos_elements(self) -> list[MosElement]:
        """All MOS transistor elements, in insertion order."""
        return [e for e in self.elements if isinstance(e, MosElement)]

    # -- compilation -----------------------------------------------------

    def compile(self, validate: bool | None = None) -> CompiledCircuit:
        """Assign MNA indices and bind them into the elements.

        The result is cached on the circuit: repeated calls (every
        sweep point, every transient run) return the same
        :class:`CompiledCircuit` -- and therefore the same vectorized
        assembler -- until a structural mutation invalidates it.

        A fresh compilation first refuses, with
        :class:`~repro.errors.NetlistError` naming the type, any element
        whose type is not in :data:`STAMPED_TYPES` or a subcircuit
        instance.  It then runs the structural validator
        (:func:`repro.spice.validate.validate_structure`): floating
        nets, sense-only (gate-only) nets and rail-disconnected
        subgraphs raise :class:`~repro.errors.NetlistError` naming the
        offending nets instead of surfacing later as a bare LAPACK
        singular-matrix error mid-Newton.  ``validate=False`` skips the
        check (deliberately degenerate test circuits); ``None`` follows
        :attr:`validate_on_compile`.
        """
        if self._compiled is not None:
            if telemetry.is_enabled():
                telemetry.current_span().inc("compile_cache_hits")
            return self._compiled
        if not self.elements:
            raise NetlistError(f"circuit {self.name!r} has no elements")
        from .subckt import Instance
        foreign = sorted({type(e).__name__ for e in self.elements
                          if not isinstance(e, (*STAMPED_TYPES, Instance))})
        if foreign:
            raise NetlistError(
                f"circuit {self.name!r}: the assembler cannot stamp "
                f"element type(s) {', '.join(foreign)}")
        if validate if validate is not None else self.validate_on_compile:
            from .validate import validate_structure
            validate_structure(self)
        if telemetry.is_enabled():
            telemetry.current_span().inc("compile_cache_misses")
        node_index = {name: i for i, name in enumerate(self._node_order)}
        next_row = len(self._node_order)
        aux_index: dict[str, tuple[int, ...]] = {}
        branch_index: dict[str, int] = {}
        for element in self.elements:
            aux = tuple(range(next_row, next_row + element.n_aux))
            next_row += element.n_aux
            aux_index[element.name] = aux
            if isinstance(element, (VoltageSource, Vcvs)):
                branch_index[element.name] = aux[0]
            indices = tuple(
                GROUND_INDEX if is_ground(n) else node_index[n]
                for n in element.nodes)
            element.bind(indices, aux)
        self._compiled = CompiledCircuit(circuit=self,
                                         node_index=node_index,
                                         aux_index=aux_index,
                                         branch_index=branch_index,
                                         size=next_row)
        self.compile_count += 1
        return self._compiled

    def initial_guess(self, compiled: CompiledCircuit,
                      source_values: tuple[tuple[str, float], ...] = (),
                      ) -> np.ndarray:
        """The start vector of a cold DC solve.

        Each node that a top-level independent :class:`VoltageSource`
        ties to ground starts at that source's t = 0 value (negated when
        the positive terminal is the grounded one); every other node and
        every auxiliary current starts at zero.  Nodesets are applied
        last, so an explicit hint wins over a source.  ``source_values``
        (``(name, value)`` pairs, as in
        :attr:`~repro.spice.batch.LaneSpec.source_values`) stand in for
        the named sources' waveforms, so a batched lane that overrides a
        source starts where its serial twin does.

        The source start is what lets damped Newton finish: from 0 V a
        grounded source row asks its node for the full supply step, a
        nearly floating internal node is asked for far more, and the
        global ``max_step`` damping scales the whole update down until
        no source row is ever met.
        """
        x0 = np.zeros(compiled.size)
        overrides = dict(source_values)
        for element in self.elements:
            if not isinstance(element, VoltageSource):
                continue
            value = overrides.get(element.name, element.value_at(None))
            pos, neg = element.nodes
            if is_ground(neg) and not is_ground(pos):
                x0[compiled.node_index[pos]] = value
            elif is_ground(pos) and not is_ground(neg):
                x0[compiled.node_index[neg]] = -value
        for node, voltage in self.nodesets.items():
            x0[compiled.node_index[node]] = voltage
        return x0
