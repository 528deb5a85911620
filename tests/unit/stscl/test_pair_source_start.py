"""Source-coupled nodes start where a model puts them.

A pair device carrying the full I_SS with its gate at V_DD and its bulk
at ground has its source at (V_DD - V_GS)/n
(:func:`~repro.stscl.netlist_gen.pair_source_voltage`).  The steering
trees, the adder cell's latches and the stand-alone latch start their
tails and internal nodes there.  The adder chain then starts every
bit slice where that slice, solved alone at the bit's input pattern,
puts its nodes, so a cold solve of the transistor-level adder
converges in a few Newton iterations across tail current, supply,
width and latching.
"""

import itertools

import numpy as np
import pytest

from repro.spice import operating_point, pulse_wave
from repro.stscl import StsclGateDesign
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import (pair_source_voltage,
                                     stscl_inverter_circuit,
                                     stscl_latch_circuit)

CURRENTS = (1e-10, 1e-9, 1e-8)
SUPPLIES = (0.4, 0.5)
ADDER_GRID = list(itertools.product((1, 4, 16), CURRENTS, SUPPLIES,
                                    (True, False)))


def _decode(op, ports, width: int) -> int:
    bits = [f"s{i}" for i in range(width)] + ["cout"]
    return sum(1 << k for k, name in enumerate(bits)
               if op.vdiff(*ports[name]) > 0)


def _adder(width: int, i_ss: float, vdd: float, with_latches: bool,
           with_dwell: bool = False):
    """A cold adder chain with operands drawn per grid point, computing
    a + b + 1."""
    rng = np.random.default_rng([width, int(i_ss * 1e12), int(vdd * 10),
                                 with_latches])
    a, b = (int(v) for v in rng.integers(0, 1 << width, size=2))
    circuit, ports = adder_chain_circuit(
        StsclGateDesign.default(i_ss), vdd, width=width, a=a, b=b,
        carry_in=True, with_latches=with_latches, with_dwell=with_dwell)
    return circuit, ports, a + b + 1


@pytest.mark.parametrize("width,i_ss,vdd,with_latches", ADDER_GRID)
def test_cold_adder_converges_in_the_newton_rung(width, i_ss, vdd,
                                                 with_latches):
    """A cold ladder solve of the adder needs no pseudo-transient rung,
    takes at most 4 Newton iterations and decodes a + b + 1."""
    circuit, ports, expected = _adder(width, i_ss, vdd, with_latches)
    op = operating_point(circuit)
    assert op.diagnostics.rescued_by == "newton"
    assert op.iterations <= 4
    assert _decode(op, ports, width) == expected


@pytest.mark.parametrize("width,i_ss,vdd,with_latches", ADDER_GRID)
def test_cell_starts_lie_near_the_chain_solution(width, i_ss, vdd,
                                                 with_latches):
    """Every internal net of every bit slice starts within 10 mV of
    where the whole chain solves: a slice solved alone at its own input
    pattern is a close model of the slice inside the chain."""
    circuit, _, _ = _adder(width, i_ss, vdd, with_latches)
    op = operating_point(circuit)
    starts = {node: volts for node, volts in circuit.nodesets.items()
              if node.startswith("fa")}
    internal = circuit.element("fa0").subcircuit.plan().internal_nodes
    assert len(starts) == width * len(internal)
    worst = max(abs(volts - op.voltage(node))
                for node, volts in starts.items())
    assert worst <= 0.010, worst


@pytest.mark.parametrize("width", (2, 8, 16))
def test_latched_dwell_adder_converges_in_the_newton_rung(width):
    """With D_Well clamps on every output, latched chains also converge
    cold in at most 4 Newton iterations, at every current and supply."""
    for i_ss, vdd in itertools.product(CURRENTS, SUPPLIES):
        circuit, ports, expected = _adder(width, i_ss, vdd, True,
                                          with_dwell=True)
        op = operating_point(circuit)
        assert op.diagnostics.rescued_by == "newton", (i_ss, vdd)
        assert op.iterations <= 4, (i_ss, vdd)
        assert _decode(op, ports, width) == expected, (i_ss, vdd)


def _gate_char_latch(design: StsclGateDesign, vdd: float):
    """gate_char's D-latch: data and clock pulses over 10 t_d, both low
    at t = 0, so a cold solve finds it holding."""
    t_d = design.delay()
    high, low = vdd, vdd - design.v_sw

    def pulse(v0, v1, delay, width, period):
        return pulse_wave(v0, v1, delay=delay, rise=t_d / 5.0,
                          fall=t_d / 5.0, width=width, period=period)
    return stscl_latch_circuit(
        design, vdd,
        pulse(low, high, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(high, low, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(low, high, t_d, 2 * t_d, 4 * t_d),
        pulse(high, low, t_d, 2 * t_d, 4 * t_d))[0]


@pytest.mark.parametrize("vdd", (0.4, 0.5, 1.0))
@pytest.mark.parametrize("i_ss", np.logspace(-10, -8, 9))
def test_cold_latch_holds_the_named_state(i_ss, vdd):
    """From ``tail``, ``ns`` and ``nh`` at the pair source voltage, the
    holding latch converges in the Newton rung in at most 10 iterations
    and lands in the hold state its output nodesets name, outp - outn
    = +V_SW to 5 %, at every supply and current of gate_char."""
    design = StsclGateDesign.default(float(i_ss))
    op = operating_point(_gate_char_latch(design, vdd))
    assert op.diagnostics.rescued_by == "newton"
    assert op.iterations <= 10
    assert op.vdiff("outp", "outn") == pytest.approx(design.v_sw,
                                                     rel=0.05)


@pytest.mark.parametrize("vdd", SUPPLIES)
@pytest.mark.parametrize("i_ss", np.logspace(-10, -8, 5))
def test_inverter_tail_solves_near_the_pair_source_voltage(i_ss, vdd):
    """The solved tail of a driven inverter -- the whole I_SS through
    the device whose gate sits at V_DD -- lies within 25 mV of the
    weak-inversion estimate from 100 pA to 10 nA."""
    design = StsclGateDesign.default(i_ss)
    circuit, _ = stscl_inverter_circuit(design, vdd)
    tail = operating_point(circuit).voltage("tail")
    assert tail == pytest.approx(pair_source_voltage(design, vdd),
                                 abs=0.025)
