"""Unit tests for the compile-once cache of :class:`Circuit`.

The MNA engine compiles a circuit exactly once per structure: sweeps,
transients and repeated operating points reuse the cached
:class:`CompiledCircuit` (and its vectorized assembler), while any
structural mutation -- adding an element, introducing a node --
invalidates it.  Element *value* mutations don't recompile at all; the
assembler re-syncs its arrays at the start of the next solve.
"""

import numpy as np
import pytest

from repro.faults import BridgedNodes, ResistorDrift
from repro.spice import Circuit, dc_sweep, operating_point
from repro.spice.waveforms import dc_wave


def diode_divider() -> Circuit:
    """A divider with one nonlinear element so solves iterate."""
    from repro.devices import Diode, NWELL_DIODE_180

    circuit = Circuit("cache-probe")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    circuit.add_diode("D1", "mid", "0", Diode(NWELL_DIODE_180))
    return circuit


class TestCompileCache:
    def test_repeated_compile_builds_once(self):
        circuit = diode_divider()
        compiled = circuit.compile()
        assert circuit.compile() is compiled
        assert circuit.compile_count == 1

    def test_sweep_compiles_once(self):
        """A warm-started sweep must reuse one compilation for every
        point -- recompiling per point was the old hot-path bug."""
        circuit = diode_divider()
        sweep = dc_sweep(circuit, "V1", np.linspace(0.0, 1.0, 7))
        assert len(sweep.points) == 7
        assert circuit.compile_count == 1

    def test_sweep_with_skipped_point_still_compiles_once(self):
        """The NaN placeholder of a skipped point also goes through
        ``circuit.compile()`` -- it must hit the cache, not rebuild."""
        from repro.spice import NewtonOptions

        # One Newton iteration per solve fails every rung at every
        # point (at 0 V the start would already be the solution).
        circuit = diode_divider()
        sweep = dc_sweep(circuit, "V1", [0.25, 0.5, 1.0],
                         options=NewtonOptions(max_iterations=1),
                         on_error="skip")
        assert len(sweep.failures) == 3
        assert all(p.x is None for p in sweep.points)
        assert circuit.compile_count == 1

    def test_operating_points_share_the_compilation(self):
        circuit = diode_divider()
        operating_point(circuit)
        operating_point(circuit)
        assert circuit.compile_count == 1

    def test_adding_an_element_invalidates(self):
        circuit = diode_divider()
        first = circuit.compile()
        circuit.add_resistor("R3", "mid", "0", 5e3)
        second = circuit.compile()
        assert second is not first
        assert circuit.compile_count == 2
        # The new element is actually part of the compiled system.
        assert "R3" in second.aux_index or circuit.element("R3")

    def test_fault_netlist_edit_invalidates(self):
        """A structural fault (bridging two nodes adds a resistor) must
        drop the cache so the faulted solve sees the bridge."""
        circuit = diode_divider()
        healthy = operating_point(circuit).voltage("mid")
        assert circuit.compile_count == 1
        BridgedNodes("mid", "0", resistance=1.0).apply(circuit)
        assert circuit.compile_count == 1  # invalidated, not yet rebuilt
        bridged = operating_point(circuit).voltage("mid")
        assert circuit.compile_count == 2
        assert bridged == pytest.approx(0.0, abs=1e-3)
        assert healthy > 0.1

    def test_value_mutation_needs_no_recompile(self):
        """ResistorDrift mutates a resistance in place; the assembler's
        value sync must pick it up without a second compilation."""
        circuit = diode_divider()
        healthy = operating_point(circuit).voltage("mid")
        ResistorDrift("R2", 3.0).apply(circuit)
        drifted = operating_point(circuit).voltage("mid")
        assert circuit.compile_count == 1
        assert drifted > healthy

    def test_nodeset_on_new_node_invalidates(self):
        circuit = diode_divider()
        circuit.compile()
        circuit.nodeset("aux_node", 0.3)
        circuit.add_resistor("R4", "aux_node", "0", 1e6)
        second = circuit.compile()
        assert "aux_node" in second.node_index
        assert circuit.compile_count == 2

    def test_invalidate_is_idempotent(self):
        circuit = diode_divider()
        circuit.compile()
        circuit.invalidate()
        circuit.invalidate()
        circuit.compile()
        assert circuit.compile_count == 2
