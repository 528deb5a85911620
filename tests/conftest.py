"""Shared fixtures.

Expensive objects (ADC chips, encoder netlists) are session-scoped:
they are immutable by convention (methods return tuned *copies*), so
sharing them across tests is safe and keeps the suite fast.
"""

from __future__ import annotations

import pytest

from repro.adc import FaiAdc
from repro.digital.encoder import EncoderSpec, build_fai_encoder
from repro.spice import Circuit
from repro.stscl import StsclGateDesign, delay_chain_circuit
from repro.stscl.adder import adder_chain_circuit

#: Fixed starts for the adder cell's source-coupled nodes that keep a
#: cold solve out of the Newton rung: steering-tree nodes at 0.15 V per
#: level, tails and latch sources at 0.1 V.  From these, damped Newton
#: stalls and the ladder needs pseudo-transient continuation.
LADDER_HARD_HINTS = {
    **{f"{tree}_{node}": volts for tree in ("xs", "mc")
       for node, volts in (("tail", 0.1), ("b0", 0.15), ("b10", 0.15),
                           ("b2", 0.30), ("b6", 0.30), ("b12", 0.30),
                           ("b16", 0.30))},
    **{f"{latch}_{node}": 0.1 for latch in ("sl", "kl")
       for node in ("tail", "ns", "nh")},
}


@pytest.fixture(scope="session")
def default_design() -> StsclGateDesign:
    """The repo-standard STSCL gate at 1 nA."""
    return StsclGateDesign.default(i_ss=1e-9)


@pytest.fixture(scope="session")
def ladder_hard_adder():
    """``adder_chain_circuit`` with every bit slice's source-coupled
    nodes started at :data:`LADDER_HARD_HINTS`, for tests that need a
    cold adder solve to walk both rungs of the ladder."""
    def build(*args, **kwargs):
        circuit, ports = adder_chain_circuit(*args, **kwargs)
        for node in list(circuit.nodesets):
            hint = LADDER_HARD_HINTS.get(node.partition(".")[2])
            if hint is not None:
                circuit.nodeset(node, hint)
        return circuit, ports
    return build


def fixed_hint_start(circuit: Circuit, design: StsclGateDesign,
                     vdd: float) -> Circuit:
    """Re-start an inverter or buffer chain from the fixed hints its
    generator used before the logic-value start: every output pair at
    logic 1 (``outp`` at V_DD, ``outn`` at V_DD - V_SW) whatever the
    input, and every tail at 0.1 V."""
    for node in list(circuit.nodesets):
        if node.endswith("outp"):
            circuit.nodeset(node, vdd)
        elif node.endswith("outn"):
            circuit.nodeset(node, vdd - design.v_sw)
        elif node.endswith("tail"):
            circuit.nodeset(node, 0.1)
    return circuit


def ladder_hard_delay_chain() -> Circuit:
    """gate_char's 3-stage delay testbench at 316 pA, V_DD 0.4 V, from
    :func:`fixed_hint_start`.  Its input starts at logic 0, so every
    stage starts in the wrong state: plain Newton stalls, and
    pseudo-transient continuation converges it only by backing its
    step off (the decade step g = 1e-9 -> 1e-10 stalls)."""
    design = StsclGateDesign.default(10.0 ** -9.5)
    return fixed_hint_start(delay_chain_circuit(design, 0.4), design, 0.4)


@pytest.fixture(scope="session")
def ideal_adc() -> FaiAdc:
    """Error-free converter."""
    return FaiAdc(ideal=True, seed=0)


@pytest.fixture(scope="session")
def chip_adc() -> FaiAdc:
    """One mismatched chip (seed 1); the same chip in every test."""
    return FaiAdc(ideal=False, seed=1)


@pytest.fixture(scope="session")
def encoder_netlist():
    """The standard pipelined encoder netlist."""
    return build_fai_encoder(EncoderSpec())
