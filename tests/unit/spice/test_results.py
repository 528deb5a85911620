"""Unit tests for the analysis result containers."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice.results import (AcResult, OpResult, SolutionView,
                                 TranResult)


class TestOpResult:
    def test_ground_reads_zero(self):
        op = OpResult(voltages={"a": 1.0}, branch_currents={})
        assert op.voltage("0") == 0.0
        assert op.voltage("gnd") == 0.0

    def test_unknown_node_raises(self):
        op = OpResult(voltages={"a": 1.0}, branch_currents={})
        with pytest.raises(AnalysisError):
            op.voltage("b")

    def test_vdiff_against_ground(self):
        op = OpResult(voltages={"a": 0.7}, branch_currents={})
        assert op.vdiff("a", "0") == pytest.approx(0.7)

    def test_missing_branch_current(self):
        op = OpResult(voltages={}, branch_currents={"V1": -1e-6})
        assert op.current("V1") == -1e-6
        with pytest.raises(AnalysisError):
            op.current("V2")


class TestNodeVoltages:
    """A solved point's ``voltages`` is a read-only view of its own
    solution vector, built on access rather than per result."""

    def _solved(self):
        from repro.spice import Circuit, operating_point

        circuit = Circuit("divider")
        circuit.add_vsource("v1", "in", "0", 1.0)
        circuit.add_resistor("r1", "in", "mid", 1e3)
        circuit.add_resistor("r2", "mid", "0", 3e3)
        return circuit.compile(), operating_point(circuit)

    def test_reads_the_solution_bit_for_bit(self):
        compiled, op = self._solved()
        assert isinstance(op.voltages, SolutionView)
        expected = {name: float(op.x[row])
                    for name, row in compiled.node_index.items()}
        assert dict(op.voltages) == expected
        assert op.voltages == expected
        assert list(op.voltages) == list(compiled.node_index)
        assert len(op.voltages) == 2 and "mid" in op.voltages
        assert "nope" not in op.voltages
        assert type(op.voltages["mid"]) is float
        assert op.voltages["mid"] == pytest.approx(0.75)
        assert repr(op.voltages) == repr(expected)

    def test_is_read_only(self):
        _, op = self._solved()
        with pytest.raises(TypeError):
            op.voltages["mid"] = 0.0

    def test_pickles_with_its_result(self):
        import pickle

        _, op = self._solved()
        clone = pickle.loads(pickle.dumps(op))
        assert isinstance(clone.voltages, SolutionView)
        assert clone.voltages == op.voltages
        assert clone.voltages._x is clone.x

    def test_nan_placeholder_covers_every_node(self):
        from repro.spice.dc import _nan_point

        compiled, _ = self._solved()
        point = _nan_point(compiled)
        assert point.x is None and not point.converged
        assert list(point.voltages) == list(compiled.node_index)
        assert all(np.isnan(v) for v in point.voltages.values())


class TestBranchCurrents:
    """A solved point's ``branch_currents`` is the same read-only view
    of ``x``, over the top-level voltage sources and VCVSs only."""

    def _cell_circuit(self):
        """A cell holding its own 0.3 V source behind 1 kohm, driven at
        1 V from the top level, next to a top-level VCVS."""
        from repro.spice import Circuit
        from repro.spice.subckt import Subcircuit

        template = Circuit("cell")
        template.add_vsource("vb", "b", "0", 0.3)
        template.add_resistor("r1", "a", "b", 1e3)
        circuit = Circuit("top")
        circuit.add_vsource("v1", "in", "0", 1.0)
        circuit.add_instance("x1", Subcircuit("cell", template, ["a"]),
                             {"a": "in"})
        circuit.add_vcvs("e1", "out", "0", "in", "0", 2.0)
        circuit.add_resistor("rl", "out", "0", 1e3)
        return circuit

    def test_instances_carry_no_branch_current(self):
        from repro.spice import operating_point

        circuit = self._cell_circuit()
        op = operating_point(circuit)
        compiled = circuit.compile()
        assert isinstance(op.branch_currents, SolutionView)
        assert list(op.branch_currents) == ["v1", "e1"]
        assert op.branch_currents == {
            name: float(op.x[compiled.aux_index[name][0]])
            for name in ("v1", "e1")}
        assert op.current("v1") == pytest.approx(-0.7e-3)
        # The cell's own source is internal to x1, not x1's current.
        with pytest.raises(AnalysisError):
            op.current("x1")
        with pytest.raises(TypeError):
            op.branch_currents["v1"] = 0.0

    def test_nan_placeholder_covers_every_branch(self):
        from repro.spice.dc import _nan_point

        point = _nan_point(self._cell_circuit().compile())
        assert list(point.branch_currents) == ["v1", "e1"]
        assert all(np.isnan(i) for i in point.branch_currents.values())

    def test_pickles_with_its_result(self):
        import pickle

        from repro.spice import operating_point

        op = operating_point(self._cell_circuit())
        clone = pickle.loads(pickle.dumps(op))
        assert isinstance(clone.branch_currents, SolutionView)
        assert clone.branch_currents == op.branch_currents
        assert clone.branch_currents._x is clone.x


class TestAcResult:
    def _single_pole(self, f_pole=1e3, points=101):
        freqs = np.logspace(0, 6, points)
        response = 1.0 / (1.0 + 1j * freqs / f_pole)
        return AcResult(frequencies=freqs, voltages={"out": response})

    def test_magnitude_db(self):
        result = self._single_pole()
        mags = result.magnitude_db("out")
        assert mags[0] == pytest.approx(0.0, abs=0.01)
        assert mags[-1] < -55.0

    def test_bandwidth_interpolation(self):
        result = self._single_pole(f_pole=1e3)
        assert result.bandwidth_3db("out") == pytest.approx(1e3,
                                                            rel=0.02)

    def test_bandwidth_beyond_sweep(self):
        freqs = np.logspace(0, 1, 11)
        flat = AcResult(frequencies=freqs,
                        voltages={"out": np.ones(11, dtype=complex)})
        assert flat.bandwidth_3db("out") == pytest.approx(freqs[-1])

    def test_phase_unwrapped(self):
        result = self._single_pole()
        phases = result.phase_deg("out")
        assert phases[0] == pytest.approx(0.0, abs=1.0)
        assert phases[-1] == pytest.approx(-90.0, abs=1.0)

    def test_unknown_node(self):
        result = self._single_pole()
        with pytest.raises(AnalysisError):
            result.transfer("ghost")


class TestTranResult:
    def _ramp(self):
        t = np.linspace(0.0, 1.0, 101)
        return TranResult(time=t, voltages={"x": t.copy(),
                                            "y": 1.0 - t})

    def test_value_at_interpolates(self):
        result = self._ramp()
        assert result.value_at("x", 0.505) == pytest.approx(0.505,
                                                            abs=1e-6)

    def test_vdiff(self):
        result = self._ramp()
        diff = result.vdiff("x", "y")
        assert diff[0] == pytest.approx(-1.0)
        assert diff[-1] == pytest.approx(1.0)

    def test_ground_waveform_zero(self):
        result = self._ramp()
        assert np.all(result.voltage("0") == 0.0)

    def test_crossing_times_both_edges(self):
        t = np.linspace(0.0, 2.0 * np.pi, 401)
        result = TranResult(time=t, voltages={"s": np.sin(t)})
        ups = result.crossing_times("s", 0.0, rising=True)
        downs = result.crossing_times("s", 0.0, rising=False)
        both = result.crossing_times("s", 0.0)
        assert downs.size >= 1
        assert both.size == ups.size + downs.size
        assert downs[0] == pytest.approx(np.pi, abs=0.02)

    def test_crossing_level_offset(self):
        t = np.linspace(0.0, 1.0, 101)
        result = TranResult(time=t, voltages={"r": t.copy()})
        crossings = result.crossing_times("r", 0.25, rising=True)
        assert crossings.size == 1
        assert crossings[0] == pytest.approx(0.25, abs=1e-6)

    def test_unknown_node(self):
        with pytest.raises(AnalysisError):
            self._ramp().voltage("ghost")
