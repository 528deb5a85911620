"""The one MNA stamp against its own residual.

:class:`~repro.spice.assembly.CircuitAssembler` writes the residual
``f(x)`` and the Jacobian ``J(x)`` of every analysis.  Each assembled
Jacobian must equal the central differences of the assembled residual,
``(f(x + h e_j) - f(x - h e_j)) / 2h`` with ``h = 1e-6``, to 1e-6 of
each row's largest entry.  The check runs on dense and sparse
stampers, at DC and with the transient charge companions stamped at a
timestamp, on gate characterization's D-latch, its 8-stage buffer
chain with dwell diodes and a 2-bit adder built from subcircuit
instances, each at its operating point.  AC's small-signal G is the
same Jacobian at the operating point and passes the same check.
"""

import functools

import numpy as np
import pytest

from repro.spice import operating_point, pulse_wave
from repro.spice.ac import _ac_system
from repro.spice.elements import Stamper
from repro.spice.sparse import SparseStamper
from repro.stscl import StsclGateDesign
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import (stscl_buffer_chain_circuit,
                                     stscl_inverter_circuit,
                                     stscl_latch_circuit)

DESIGN = StsclGateDesign.default(1e-9)
VDD = 0.4
T_D = DESIGN.delay()
#: Central-difference step, on every unknown.
H = 1e-6
#: Largest allowed difference, relative to its row's largest entry.
BOUND = 1e-6
#: The transient timestamp: on a rising clock edge of the latch.
T_EDGE = 1.1 * T_D
#: Trapezoidal companion coefficient for a t_d / 20 step.
C0 = 2.0 / (T_D / 20.0)


def _latch():
    """Gate characterization's clocked D-latch, driven by data and
    clock pulses."""
    high, low = VDD, VDD - DESIGN.v_sw
    edge = T_D / 5.0

    def pulse(v0, v1, delay, width, period):
        return pulse_wave(v0, v1, delay=delay, rise=edge, fall=edge,
                          width=width, period=period)
    circuit, _ = stscl_latch_circuit(
        DESIGN, VDD,
        pulse(low, high, 2 * T_D, 4 * T_D, 8 * T_D),
        pulse(high, low, 2 * T_D, 4 * T_D, 8 * T_D),
        pulse(low, high, T_D, 2 * T_D, 4 * T_D),
        pulse(high, low, T_D, 2 * T_D, 4 * T_D))
    return circuit


def _chain():
    """Gate characterization's 8-stage buffer chain with dwell diodes."""
    circuit, _ = stscl_buffer_chain_circuit(
        DESIGN, VDD, 8, VDD, VDD - DESIGN.v_sw, with_dwell=True)
    return circuit


def _adder():
    circuit, _ = adder_chain_circuit(DESIGN, VDD, width=2, a=1, b=2,
                                     carry_in=True)
    return circuit


BUILDERS = {"latch": _latch, "chain": _chain, "adder": _adder}


@functools.lru_cache(maxsize=None)
def _solved(name: str):
    """The circuit, its synced assembler and its operating point."""
    circuit = BUILDERS[name]()
    x = operating_point(circuit).x
    return circuit, circuit.compile().prepare(), x


def _system(assembler, sparse: bool, x: np.ndarray, time, rhs):
    """The assembled (dense Jacobian, residual) at ``x``, with the
    charge companions of history ``rhs`` unless it is None."""
    st = (SparseStamper(assembler.sparse_system()) if sparse
          else Stamper(assembler.size))
    assembler.assemble(st, x, time)
    if rhs is not None:
        assembler.stamp_charges(st, x, C0, rhs)
    return (st.matrix().toarray() if sparse else st.jac), st.res


def _central_differences(assembler, sparse: bool, x: np.ndarray, time,
                         rhs) -> np.ndarray:
    columns = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = H
        up = _system(assembler, sparse, x + step, time, rhs)[1]
        down = _system(assembler, sparse, x - step, time, rhs)[1]
        columns.append((up - down) / (2.0 * H))
    return np.column_stack(columns)


def _worst_row_error(jac: np.ndarray, differences: np.ndarray) -> float:
    scale = np.abs(jac).max(axis=1)
    assert np.all(scale > 0.0)
    return float((np.abs(differences - jac).max(axis=1) / scale).max())


@pytest.mark.parametrize("companions", [False, True],
                         ids=["dc", "transient"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("name", list(BUILDERS))
def test_assembled_jacobian_is_the_residuals_derivative(name, sparse,
                                                        companions):
    _, assembler, x = _solved(name)
    time, rhs = None, None
    if companions:
        # Trapezoidal history of a step that ends at x: fixed while x
        # moves, so the differences see c0 q(x) alone.
        time, rhs = T_EDGE, -C0 * assembler.charge_vector(x)
    jac, _ = _system(assembler, sparse, x, time, rhs)
    differences = _central_differences(assembler, sparse, x, time, rhs)
    assert _worst_row_error(jac, differences) <= BOUND


def test_ac_g_is_the_residuals_derivative_at_the_operating_point():
    circuit, _ = stscl_inverter_circuit(DESIGN, VDD)
    circuit.element("vinp").ac_mag = 1.0
    op = operating_point(circuit)
    compiled, g_matrix, _, _ = _ac_system(circuit, op, None)
    differences = _central_differences(compiled.assembler, False, op.x,
                                       None, None)
    assert _worst_row_error(g_matrix, differences) <= BOUND
