"""Rung isolation: a rescued operating point equals an unconstrained one.

Every Newton iteration factors the Jacobian it just assembled, so no
factorization survives from one ladder rung, or one pseudo-transient
continuation step, into the next.  What the pseudo-transient rung hands
back must then be the same answer plain Newton reaches when it is
simply given enough iterations.
"""

import pytest

from repro.devices.diode import Diode, DiodeParameters
from repro.spice import Circuit, NewtonOptions
from repro.spice.strategies import newton_solve, pseudo_transient

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

def hard_diode() -> Circuit:
    """8 V into a diode through 10 ohms: a 27-iteration Newton walk.

    A nodeset holds the source node's start at 0 V (nodesets win over
    the source start), so Newton must walk it up to 8 V."""
    circuit = Circuit("hard_diode")
    circuit.add_vsource("V1", "in", "0", 8.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    circuit.nodeset("in", 0.0)
    return circuit


def solve_rung(rung, options: NewtonOptions):
    """``rung`` alone on a fresh :func:`hard_diode`, from its initial
    guess; returns the node voltages."""
    circuit = hard_diode()
    compiled = circuit.compile()
    x, _ = rung(compiled, circuit.initial_guess(compiled), None, options)
    return x[:len(compiled.node_index)]


class TestRungIsolation:
    def test_rescued_solution_matches_an_unconstrained_solve(self):
        """The pseudo-transient rung's answer (80 iterations per solve)
        must equal plain Newton given a generous budget."""
        reference = solve_rung(newton_solve,
                               NewtonOptions(max_iterations=400))
        rescued = solve_rung(pseudo_transient,
                             NewtonOptions(max_iterations=80))
        assert rescued == pytest.approx(reference, abs=1e-9)
