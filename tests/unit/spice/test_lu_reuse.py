"""Rung isolation: a rescued operating point equals an unconstrained one.

Every Newton iteration factors the Jacobian it just assembled, so no
factorization survives from one strategy rung, or one pseudo-transient
continuation step, into the next.  What the ladder hands back must then
be the same answer plain Newton reaches when it is simply given enough
iterations.
"""

import pytest

from repro.devices.diode import Diode, DiodeParameters
from repro.spice import (
    Circuit,
    NewtonOptions,
    NewtonStrategy,
    PseudoTransientStrategy,
    operating_point,
)

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Enough for the easy points, far too little for the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


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


class TestRungIsolation:
    def test_rescued_solution_matches_an_unconstrained_solve(self):
        """The rescued answer must equal plain Newton given a generous
        budget."""
        reference = operating_point(
            hard_diode(), NewtonOptions(max_iterations=400),
            strategies=(NewtonStrategy(),))
        rescued = operating_point(hard_diode(), TIGHT, strategies=(
            NewtonStrategy(), PseudoTransientStrategy(max_iterations=80)))
        assert rescued.diagnostics.rescued_by == "pseudo-transient"
        for node, value in reference.voltages.items():
            assert rescued.voltages[node] == pytest.approx(value,
                                                           abs=1e-9)
