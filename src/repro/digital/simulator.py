"""Functional simulation of gate netlists.

:class:`CycleSimulator` gives synchronous, cycle-accurate semantics
where every sequential (latch-merged) cell updates once per clock from
the values of the *previous* cycle -- exactly the evaluate / hold
behaviour of the Fig. 8 pipelined cells.  Timing is static:
:func:`~repro.digital.sta.analyze_timing` walks the same graph with the
STSCL delay law.
"""

from __future__ import annotations

from ..errors import AnalysisError
from .netlist import GateNetlist


class CycleSimulator:
    """Synchronous simulation with one evaluation per clock cycle."""

    def __init__(self, netlist: GateNetlist) -> None:
        import networkx as nx

        netlist.validate()
        self.netlist = netlist
        graph = netlist.combinational_graph()
        order = list(nx.topological_sort(graph))
        self._comb_order = [netlist.gate(name) for name in order
                            if not netlist.gate(name).is_sequential]
        self._sequential = netlist.sequential_gates()
        self._state: dict[str, bool] = {}
        self.reset()

    def reset(self, value: bool = False) -> None:
        """Set every register output to ``value``."""
        self._state = {g.output: value for g in self._sequential}

    def step(self, inputs: dict[str, bool]) -> dict[str, bool]:
        """Advance one clock; returns the net values *after* the edge.

        ``inputs`` must cover every primary input.
        """
        missing = [n for n in self.netlist.primary_inputs if n not in inputs]
        if missing:
            raise AnalysisError(f"missing input values for {missing}")
        values: dict[str, bool] = {n: bool(inputs[n])
                                   for n in self.netlist.primary_inputs}
        values.update(self._state)
        for gate in self._comb_order:
            values[gate.output] = gate.evaluate(values)
        # All registers update simultaneously from pre-edge values.
        new_state = {g.output: g.evaluate(values) for g in self._sequential}
        self._state = new_state
        values.update(new_state)
        return values

    def run(self, input_stream: list[dict[str, bool]]) -> list[dict[str, bool]]:
        """Apply a sequence of input vectors; returns per-cycle values."""
        return [self.step(vector) for vector in input_stream]

    def latency(self) -> int:
        """Pipeline latency in cycles: registers on the longest
        input-to-output register chain."""
        import networkx as nx

        graph = self.netlist.full_graph()
        weights = {g.name: (1 if g.is_sequential else 0)
                   for g in self.netlist.gates}
        best: dict[str, int] = {}
        for name in nx.topological_sort(graph):
            incoming = [best[p] for p in graph.predecessors(name)]
            best[name] = max(incoming, default=0) + weights[name]
        return max(best.values(), default=0)
