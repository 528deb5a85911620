"""MNA circuit elements: named values on named nodes.

An element holds its values (a resistance, a waveform, a device model)
and, once compiled, its MNA row and column indices.  It stamps nothing
itself: :class:`~repro.spice.assembly.CircuitAssembler` turns each
element type into a scatter pattern over the nonlinear system
``f(x) = 0``, whose unknowns are the node voltages plus one auxiliary
branch current per voltage-defined element.  The residual convention
is:

* ``f[node]`` accumulates the total current *leaving* the node;
* ``f[aux]`` holds the element's branch (voltage) equation.

Capacitors and diode junctions also carry a charge ``q(x)``: the
transient engine differentiates it with its integration formula and the
AC engine stamps ``dq/dv`` into the susceptance matrix.
"""

from __future__ import annotations

import numpy as np

from ..devices.diode import Diode
from ..devices.mosfet import Mosfet
from ..errors import NetlistError
from .waveforms import Waveform, dc_wave

#: Index used for the ground node (never stamped).
GROUND_INDEX = -1


class Stamper:
    """A dense Jacobian + residual under assembly."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.jac = np.zeros((size, size))
        self.res = np.zeros(size)
        self._diag: np.ndarray | None = None

    def add_diagonal(self, g, n_nodes: int) -> None:
        """Add ``g`` (scalar or per-node array) to the first ``n_nodes``
        diagonal entries -- the gmin shunt / pseudo-transient anchor
        stamp, shared with the sparse stamper so solver code stays
        backend-agnostic."""
        diag = self._diag
        if diag is None or diag.size != n_nodes:
            diag = self._diag = np.arange(n_nodes)
        self.jac[diag, diag] += g


class Element:
    """Base class of the circuit elements.  Only the types
    :class:`~repro.spice.assembly.CircuitAssembler` knows can be
    compiled; :meth:`~repro.spice.netlist.Circuit.compile` refuses any
    other."""

    n_aux = 0

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        self.name = name
        self.nodes = nodes
        self._idx: tuple[int, ...] = ()
        self._aux: tuple[int, ...] = ()

    def bind(self, node_indices: tuple[int, ...],
             aux_indices: tuple[int, ...]) -> None:
        """Attach MNA row/column indices (called by the compiler)."""
        if len(node_indices) != len(self.nodes):
            raise NetlistError(
                f"{self.name}: expected {len(self.nodes)} node indices")
        if len(aux_indices) != self.n_aux:
            raise NetlistError(
                f"{self.name}: expected {self.n_aux} aux indices")
        self._idx = node_indices
        self._aux = aux_indices


class Resistor(Element):
    """Ideal linear resistor."""

    def __init__(self, name: str, node_a: str, node_b: str,
                 resistance: float) -> None:
        super().__init__(name, (node_a, node_b))
        if resistance <= 0.0:
            raise NetlistError(f"{name}: resistance must be positive, "
                               f"got {resistance}")
        self.resistance = resistance


class Capacitor(Element):
    """Ideal linear capacitor (open in DC, charge term in transient/AC)."""

    def __init__(self, name: str, node_a: str, node_b: str,
                 capacitance: float) -> None:
        super().__init__(name, (node_a, node_b))
        if capacitance < 0.0:
            raise NetlistError(f"{name}: capacitance must be >= 0, "
                               f"got {capacitance}")
        self.capacitance = capacitance


class VoltageSource(Element):
    """Independent voltage source with an auxiliary branch current.

    The reported branch current flows from the positive node *through the
    source* to the negative node; a battery driving a load therefore
    reports a negative current.
    """

    n_aux = 1

    def __init__(self, name: str, node_pos: str, node_neg: str,
                 waveform: Waveform | float, ac_mag: float = 0.0) -> None:
        super().__init__(name, (node_pos, node_neg))
        if not isinstance(waveform, Waveform):
            waveform = dc_wave(float(waveform))
        self.waveform = waveform
        self.ac_mag = ac_mag

    def value_at(self, time: float | None) -> float:
        return self.waveform(0.0 if time is None else time)


class CurrentSource(Element):
    """Independent current source.

    A positive value drives current from ``node_pos`` through the source
    into ``node_neg``: it *pulls* current out of the positive node.  A
    tail sink of I_SS from node "tail" is ``CurrentSource("tail", "0",
    i_ss)``; injecting into a node is ``CurrentSource("0", node, i)``.
    """

    def __init__(self, name: str, node_pos: str, node_neg: str,
                 waveform: Waveform | float, ac_mag: float = 0.0) -> None:
        super().__init__(name, (node_pos, node_neg))
        if not isinstance(waveform, Waveform):
            waveform = dc_wave(float(waveform))
        self.waveform = waveform
        self.ac_mag = ac_mag

    def value_at(self, time: float | None) -> float:
        return self.waveform(0.0 if time is None else time)


class Vcvs(Element):
    """Voltage-controlled voltage source E: v(p,n) = gain * v(cp,cn).

    With a large gain this doubles as the ideal op-amp used inside
    replica-bias loops.
    """

    n_aux = 1

    def __init__(self, name: str, node_pos: str, node_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float) -> None:
        super().__init__(name, (node_pos, node_neg, ctrl_pos, ctrl_neg))
        self.gain = gain


class Vccs(Element):
    """Voltage-controlled current source G: i(p->n) = gm * v(cp,cn)."""

    def __init__(self, name: str, node_pos: str, node_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gm: float) -> None:
        super().__init__(name, (node_pos, node_neg, ctrl_pos, ctrl_neg))
        self.gm = gm


class DiodeElement(Element):
    """Junction diode with exponential current and depletion charge."""

    def __init__(self, name: str, anode: str, cathode: str,
                 diode: Diode, temperature: float) -> None:
        super().__init__(name, (anode, cathode))
        self.diode = diode
        self.temperature = temperature


class MosElement(Element):
    """Four-terminal EKV MOS transistor (static channel current).

    Terminal capacitances are added as separate :class:`Capacitor`
    elements by :meth:`repro.spice.netlist.Circuit.add_mosfet` so the
    transient and AC engines treat them uniformly.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 bulk: str, device: Mosfet, temperature: float) -> None:
        super().__init__(name, (drain, gate, source, bulk))
        self.device = device
        self.temperature = temperature
