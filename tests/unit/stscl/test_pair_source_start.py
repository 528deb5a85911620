"""Source-coupled nodes start where the EKV model puts them.

A pair device carrying the full I_SS with its gate at V_DD and its bulk
at ground has its source at (V_DD - V_GS)/n
(:func:`~repro.stscl.netlist_gen.pair_source_voltage`).  The steering
trees and the adder's latches start their tails and internal nodes
there, so a cold solve of the transistor-level adder converges in the
Newton rung across tail current, supply, width and latching.
"""

import itertools

import numpy as np
import pytest

from repro.spice import operating_point
from repro.stscl import StsclGateDesign
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import (pair_source_voltage,
                                     stscl_inverter_circuit)

CURRENTS = (1e-10, 1e-9, 1e-8)
SUPPLIES = (0.4, 0.5)


def _decode(op, ports, width: int) -> int:
    bits = [f"s{i}" for i in range(width)] + ["cout"]
    return sum(1 << k for k, name in enumerate(bits)
               if op.vdiff(*ports[name]) > 0)


@pytest.mark.parametrize("width,i_ss,vdd,with_latches", list(
    itertools.product((1, 4), CURRENTS, SUPPLIES, (True, False))))
def test_cold_adder_converges_in_the_newton_rung(width, i_ss, vdd,
                                                 with_latches):
    """A cold ladder solve of the adder needs no pseudo-transient rung
    and decodes a + b + 1 (operands drawn per grid point)."""
    rng = np.random.default_rng([width, int(i_ss * 1e12), int(vdd * 10),
                                 with_latches])
    a, b = (int(v) for v in rng.integers(0, 1 << width, size=2))
    circuit, ports = adder_chain_circuit(
        StsclGateDesign.default(i_ss), vdd, width=width, a=a, b=b,
        carry_in=True, with_latches=with_latches)
    op = operating_point(circuit)
    assert op.diagnostics.rescued_by == "newton"
    assert op.iterations <= 16
    assert _decode(op, ports, width) == a + b + 1


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
