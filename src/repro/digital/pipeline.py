"""Automatic pipeline balancing (the paper's Sec. III-B technique).

Given a feed-forward netlist of (mostly latch-merged) cells, the
balancer assigns every net a pipeline stage and inserts shared
``BUF_PIPE`` alignment registers wherever a gate would otherwise mix
data from different cycles.  The result is a systolic design whose
register-to-register logic depth is one cell -- the condition under
which Eq. (1) applies with N_L = 1.

Alignment registers are *shared*: two gates needing the same net
delayed by the same amount reuse one chain, which keeps the tail-current
count (and hence power) honest.
"""

from __future__ import annotations

from ..errors import NetlistError
from ..stscl.library import cell as lookup_cell
from .netlist import GateNetlist, Pin


def net_stages(netlist: GateNetlist) -> dict[str, int]:
    """Pipeline stage of every net: inputs are stage 0, each sequential
    cell adds one, combinational cells stay in their input stage
    (taking the max over inputs when they differ)."""
    import networkx as nx

    netlist.validate()
    graph = netlist.full_graph()
    if not nx.is_directed_acyclic_graph(graph):
        raise NetlistError("pipeline balancing needs a feed-forward netlist")
    stages: dict[str, int] = {net: 0 for net in netlist.primary_inputs}
    for name in nx.topological_sort(graph):
        gate = netlist.gate(name)
        depth = max((stages[p.net] for p in gate.inputs), default=0)
        stages[gate.output] = depth + (1 if gate.is_sequential else 0)
    return stages


def balance_pipeline(netlist: GateNetlist,
                     register_outputs: bool = True) -> GateNetlist:
    """Return a stage-aligned copy of ``netlist``.

    Every gate's inputs are brought to a common stage with shared
    ``BUF_PIPE`` chains; with ``register_outputs`` the primary outputs
    are additionally aligned to one common (deepest) stage so the whole
    word emerges in the same cycle.
    """
    import networkx as nx

    stages = net_stages(netlist)
    balanced = GateNetlist(f"{netlist.name}_balanced")
    for net in netlist.primary_inputs:
        balanced.add_input(net)

    delay_cache: dict[tuple[str, int], str] = {}
    counter = [0]

    def delayed(net: str, cycles: int) -> str:
        """Net carrying ``net`` delayed by ``cycles`` registers."""
        if cycles <= 0:
            return net
        key = (net, cycles)
        if key in delay_cache:
            return delay_cache[key]
        previous = delayed(net, cycles - 1)
        counter[0] += 1
        out = f"{net}__d{cycles}"
        balanced.add_gate(f"align{counter[0]}_{net}_{cycles}", "BUF_PIPE",
                          [previous], out)
        delay_cache[key] = out
        return out

    graph = netlist.full_graph()
    out_stage: dict[str, int] = dict(stages)
    for name in nx.topological_sort(graph):
        gate = netlist.gate(name)
        if not gate.inputs:
            balanced.add_gate(name, gate.cell, [], gate.output)
            continue
        target = max(out_stage[p.net] for p in gate.inputs)
        pins = []
        for pin in gate.inputs:
            net = delayed(pin.net, target - out_stage[pin.net])
            pins.append(Pin(net=net, inverted=pin.inverted))
        balanced.add_gate(name, gate.cell, pins, gate.output)
        out_stage[gate.output] = target + (1 if gate.is_sequential else 0)

    if register_outputs and netlist.primary_outputs:
        deepest = max(out_stage[net] for net in netlist.primary_outputs)
        for net in netlist.primary_outputs:
            aligned = delayed(net, deepest - out_stage[net])
            balanced.mark_output(aligned)
    else:
        for net in netlist.primary_outputs:
            balanced.mark_output(net)
    balanced.validate()
    return balanced
