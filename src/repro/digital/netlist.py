"""Gate-level netlist over STSCL library cells.

A :class:`GateNetlist` is a set of named nets driven by primary inputs
or by gate outputs.  Because STSCL is differential, every connection may
be *inverted for free* -- a :class:`Pin` carries the polarity flag, and
the free ``INV`` cell is never actually instantiated.

Pipelined cells (``*_PIPE``, latch-merged per paper Sec. III-B) register
their output each clock: they are the sequential cut points for both
simulation and timing analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import NetlistError
from ..stscl.library import CellKind, StsclCell, cell as lookup_cell

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx


@dataclass(frozen=True)
class Pin:
    """A connection to a net, with free differential inversion."""

    net: str
    inverted: bool = False

    def read(self, values: dict[str, bool]) -> bool:
        """The logical value seen through this pin."""
        value = values[self.net]
        return (not value) if self.inverted else value


@dataclass(frozen=True)
class Gate:
    """One instantiated cell."""

    name: str
    cell: StsclCell
    inputs: tuple[Pin, ...]
    output: str

    @property
    def is_sequential(self) -> bool:
        """True when the gate registers its output at the clock edge."""
        return (self.cell.pipelined
                or self.cell.kind in (CellKind.LATCH, CellKind.FLIPFLOP))

    def evaluate(self, values: dict[str, bool]) -> bool:
        """Combinational function of the cell at current net values."""
        return self.cell.evaluate([pin.read(values) for pin in self.inputs])


class GateNetlist:
    """A named collection of gates, primary inputs and primary outputs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._gates: dict[str, Gate] = {}
        self._driver: dict[str, str] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []

    # -- construction -----------------------------------------------------

    def add_input(self, net: str) -> str:
        """Declare a primary-input net."""
        if net in self._driver or net in self.primary_inputs:
            raise NetlistError(f"net {net!r} already driven")
        self.primary_inputs.append(net)
        return net

    def add_gate(self, name: str, cell: StsclCell | str,
                 inputs: list[Pin | str | tuple[str, bool]],
                 output: str) -> Gate:
        """Instantiate a cell.

        ``inputs`` entries may be plain net names, ``(net, inverted)``
        tuples, or :class:`Pin` objects.
        """
        if name in self._gates:
            raise NetlistError(f"duplicate gate name {name!r}")
        if output in self._driver or output in self.primary_inputs:
            raise NetlistError(f"net {output!r} already driven")
        if isinstance(cell, str):
            cell = lookup_cell(cell)
        pins = []
        for item in inputs:
            if isinstance(item, Pin):
                pins.append(item)
            elif isinstance(item, tuple):
                pins.append(Pin(net=item[0], inverted=bool(item[1])))
            else:
                pins.append(Pin(net=item))
        if len(pins) != cell.n_inputs:
            raise NetlistError(
                f"{name}: cell {cell.name} needs {cell.n_inputs} inputs, "
                f"got {len(pins)}")
        gate = Gate(name=name, cell=cell, inputs=tuple(pins), output=output)
        self._gates[name] = gate
        self._driver[output] = name
        return gate

    def mark_output(self, net: str) -> None:
        """Declare a primary-output net (must be driven)."""
        if net not in self._driver and net not in self.primary_inputs:
            raise NetlistError(f"cannot mark undriven net {net!r} as output")
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)

    # -- queries ------------------------------------------------------------

    @property
    def gates(self) -> list[Gate]:
        return list(self._gates.values())

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    def driver_of(self, net: str) -> Gate | None:
        """The gate driving ``net`` (None for primary inputs)."""
        name = self._driver.get(net)
        return self._gates[name] if name is not None else None

    def validate(self) -> None:
        """Check structural sanity: every pin driven, no combinational
        loops (loops through sequential cells are fine)."""
        import networkx as nx

        for gate in self.gates:
            for pin in gate.inputs:
                if (pin.net not in self._driver
                        and pin.net not in self.primary_inputs):
                    raise NetlistError(
                        f"{gate.name}: input net {pin.net!r} undriven")
        graph = self.combinational_graph()
        if not nx.is_directed_acyclic_graph(graph):
            cycle = nx.find_cycle(graph)
            raise NetlistError(f"combinational loop: {cycle}")

    def combinational_graph(self) -> nx.DiGraph:
        """Gate dependency graph with sequential outputs cut.

        Nodes are gate names; an edge u -> v means combinational gate v
        reads the output of gate u *and* u is combinational (a
        sequential u supplies registered state, not a timing arc into
        the same cycle).
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._gates)
        for gate in self.gates:
            for pin in gate.inputs:
                driver = self.driver_of(pin.net)
                if driver is not None and not driver.is_sequential:
                    graph.add_edge(driver.name, gate.name)
        return graph

    def full_graph(self) -> nx.DiGraph:
        """Gate dependency graph including sequential arcs."""
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self._gates)
        for gate in self.gates:
            for pin in gate.inputs:
                driver = self.driver_of(pin.net)
                if driver is not None:
                    graph.add_edge(driver.name, gate.name)
        return graph

    # -- cost accounting ------------------------------------------------------

    def tail_count(self) -> int:
        """Total tail-current branches = the power unit of the design.

        This is the paper's "196 STSCL gates" metric for the encoder:
        free inversions cost nothing, a flip-flop costs two.
        """
        return sum(g.cell.tails for g in self.gates)

    def gate_count(self) -> int:
        """Number of instantiated (non-free) cells."""
        return sum(1 for g in self.gates if g.cell.tails > 0)

    def cell_histogram(self) -> dict[str, int]:
        """Instance count per cell type."""
        histogram: dict[str, int] = {}
        for gate in self.gates:
            histogram[gate.cell.name] = histogram.get(gate.cell.name, 0) + 1
        return histogram

    def sequential_gates(self) -> list[Gate]:
        return [g for g in self.gates if g.is_sequential]

    def logic_depth(self) -> int:
        """Longest register-to-register (or port-to-register)
        combinational path length in gates.

        Zero means every cell output is registered -- the fully
        pipelined ideal of Sec. III-B, where the effective N_L of
        Eq. (1) is one (the register's own evaluation).
        """
        import networkx as nx

        graph = self.combinational_graph()
        combinational = [g.name for g in self.gates if not g.is_sequential]
        if not combinational:
            return 0
        sub = graph.subgraph(combinational)
        return int(nx.dag_longest_path_length(sub)) + 1 if sub else 1
