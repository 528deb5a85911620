"""The inverter and buffer chain start at their input's logic value.

Both generators start each output pair at the logic value of the
input's t = 0 level (buffers do not invert, so every stage of a chain
takes the input's polarity) and each tail at
:func:`~repro.stscl.netlist_gen.pair_source_voltage`.  From there a
cold solve takes the Newton rung in a handful of iterations at every
supply and tail current of gate_char, and lands on the solution the
fixed hints of ``tests.conftest.fixed_hint_start`` reach, often only
through pseudo-transient continuation.
"""

import itertools

import numpy as np
import pytest

from repro.spice import operating_point
from repro.stscl import StsclGateDesign, delay_chain_circuit
from repro.stscl.netlist_gen import (pair_source_voltage,
                                     stscl_buffer_chain_circuit,
                                     stscl_inverter_circuit)
from tests.conftest import fixed_hint_start, ladder_hard_delay_chain

SUPPLIES = (0.4, 0.5, 1.0)
#: gate_char's tail currents, 100 pA .. 10 nA.
CURRENTS = np.logspace(-10.0, -8.0, 9)


def _drive(design: StsclGateDesign, vdd: float,
           high: bool) -> tuple[float, float]:
    """The (in_p, in_n) levels of logic 1 or 0."""
    levels = (vdd, vdd - design.v_sw)
    return levels if high else levels[::-1]


def _chain(n_stages: int):
    def build(design, vdd, in_p, in_n):
        return stscl_buffer_chain_circuit(design, vdd, n_stages,
                                          in_p, in_n)[0]
    return build


BUILDERS = {
    "inverter": lambda design, vdd, in_p, in_n: stscl_inverter_circuit(
        design, vdd, in_p, in_n)[0],
    **{f"chain-{n}": _chain(n) for n in (1, 2, 3, 4)},
}


@pytest.mark.parametrize("high", [True, False], ids=["in-high", "in-low"])
@pytest.mark.parametrize("name", BUILDERS)
def test_cold_solve_takes_the_newton_rung(name, high):
    """At V_DD 0.4/0.5/1.0 V and all nine currents, a cold operating
    point converges in the Newton rung in at most 6 iterations, within
    1e-12 V of the solve from the fixed hints."""
    build = BUILDERS[name]
    for vdd, i_ss in itertools.product(SUPPLIES, CURRENTS):
        design = StsclGateDesign.default(float(i_ss))
        drive = _drive(design, vdd, high)
        op = operating_point(build(design, vdd, *drive))
        assert op.diagnostics.rescued_by == "newton", (vdd, i_ss)
        assert op.iterations <= 6, (vdd, i_ss)
        reference = operating_point(fixed_hint_start(
            build(design, vdd, *drive), design, vdd))
        worst = max(abs(op.voltage(node) - reference.voltage(node))
                    for node in op.voltages)
        assert worst <= 1e-12, (vdd, i_ss)


@pytest.mark.parametrize("high", [True, False], ids=["in-high", "in-low"])
def test_every_stage_starts_at_the_input_logic_value(default_design, high):
    vdd = 0.4
    out_p, out_n = _drive(default_design, vdd, high)
    circuit = _chain(3)(default_design, vdd, out_p, out_n)
    tail = pair_source_voltage(default_design, vdd)
    for k in (1, 2, 3):
        assert circuit.nodesets[f"s{k}_outp"] == out_p
        assert circuit.nodesets[f"s{k}_outn"] == out_n
        assert circuit.nodesets[f"s{k}_tail"] == tail


def test_a_tied_input_starts_at_logic_one(default_design):
    vdd = 0.4
    circuit, _ = stscl_inverter_circuit(default_design, vdd, 0.3, 0.3)
    assert circuit.nodesets["outp"] == vdd
    assert circuit.nodesets["outn"] == vdd - default_design.v_sw


def test_ladder_hard_chain_keeps_the_fixed_start():
    """``ladder_hard_delay_chain`` starts from exactly the vector the
    chain generator produced from its fixed hints: the sources' t = 0
    values (input at logic 0), every output pair at logic 1, every tail
    at 0.1 V and every other unknown at zero."""
    design = StsclGateDesign.default(10.0 ** -9.5)
    vdd = 0.4
    circuit = ladder_hard_delay_chain()
    compiled = circuit.compile()
    expected = np.zeros(compiled.size)
    index = compiled.node_index
    reference = delay_chain_circuit(design, vdd)
    for source in ("vvdd", "vvbp", "vinp", "vinn"):
        element = reference.element(source)
        expected[index[element.nodes[0]]] = element.value_at(0.0)
    for k in (1, 2, 3):
        expected[index[f"s{k}_outp"]] = vdd
        expected[index[f"s{k}_outn"]] = vdd - design.v_sw
        expected[index[f"s{k}_tail"]] = 0.1
    assert expected[index["s0_outp"]] < expected[index["s0_outn"]]
    assert np.array_equal(circuit.initial_guess(compiled), expected)
