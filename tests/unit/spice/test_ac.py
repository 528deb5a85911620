"""Unit tests for small-signal AC analysis."""

import math

import numpy as np
import pytest

from repro.devices import Mosfet, nmos_180
from repro.errors import AnalysisError
from repro.spice import Circuit, ac_analysis
from repro.spice.ac import _ac_system


def ac_loop_oracle(circuit, frequencies, op=None):
    """Reference AC response: the small-signal system ``ac_analysis``
    assembles, solved one dense ``(G + jωC) v = b`` per frequency.
    Returns ``{node: complex response}``."""
    compiled, g_matrix, c_matrix, b = _ac_system(circuit, op, None)
    omegas = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    solutions = np.empty((omegas.size, b.size), dtype=complex)
    for k, omega in enumerate(omegas):
        matrix = g_matrix + 1j * omega * c_matrix
        try:
            solutions[k] = np.linalg.solve(matrix, b)
        except np.linalg.LinAlgError:
            solutions[k], *_ = np.linalg.lstsq(matrix, b, rcond=None)
    return {name: solutions[:, index]
            for name, index in compiled.node_index.items()}


def rc_lowpass(r=1e6, c=1e-12):
    ckt = Circuit()
    ckt.add_vsource("V1", "in", "0", 0.0, ac_mag=1.0)
    ckt.add_resistor("R1", "in", "out", r)
    ckt.add_capacitor("C1", "out", "0", c)
    return ckt


class TestRcPole:
    def test_bandwidth(self):
        ckt = rc_lowpass()
        result = ac_analysis(ckt, np.logspace(3, 8, 101))
        f_pole = 1.0 / (2.0 * math.pi * 1e6 * 1e-12)
        assert result.bandwidth_3db("out") == pytest.approx(f_pole,
                                                            rel=0.02)

    def test_dc_gain_unity(self):
        ckt = rc_lowpass()
        result = ac_analysis(ckt, [1.0e2])
        assert abs(result.transfer("out")[0]) == pytest.approx(1.0,
                                                               rel=1e-4)

    def test_rolloff_20db_per_decade(self):
        ckt = rc_lowpass()
        result = ac_analysis(ckt, [1e7, 1e8])
        mags = result.magnitude_db("out")
        assert mags[0] - mags[1] == pytest.approx(20.0, abs=0.5)

    def test_phase_approaches_minus_90(self):
        ckt = rc_lowpass()
        result = ac_analysis(ckt, [1e9])
        assert result.phase_deg("out")[0] == pytest.approx(-90.0, abs=2.0)


class TestValidation:
    def test_needs_excitation(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 1.0)  # no ac_mag
        ckt.add_resistor("R1", "in", "0", 1e3)
        with pytest.raises(AnalysisError):
            ac_analysis(ckt, [1e3])

    def test_rejects_bad_frequencies(self):
        with pytest.raises(AnalysisError):
            ac_analysis(rc_lowpass(), [])
        with pytest.raises(AnalysisError):
            ac_analysis(rc_lowpass(), [-1.0])


class TestCommonSourceAmp:
    def test_gain_matches_gm_times_rl(self):
        """AC gain of a common-source stage must equal gm*RL from the
        device operating point -- links the AC engine to the model."""
        ckt = Circuit()
        ckt.add_vsource("VDD", "vdd", "0", 1.2)
        ckt.add_vsource("VG", "g", "0", 0.35, ac_mag=1.0)
        ckt.add_resistor("RL", "vdd", "d", 10e6)
        device = Mosfet(nmos_180(), w=2e-6, l=1e-6)
        ckt.add_mosfet("M1", "d", "g", "0", "0", device, with_caps=False)
        from repro.spice import operating_point
        op = operating_point(ckt)
        mos_op = op.device_ops["M1"]
        expected = mos_op.gm * (1.0 / (1.0 / 10e6 + mos_op.gds))
        result = ac_analysis(ckt, [10.0], op=op)
        assert abs(result.transfer("d")[0]) == pytest.approx(expected,
                                                             rel=1e-3)

    def test_current_source_excitation(self):
        ckt = Circuit()
        ckt.add_isource("I1", "0", "out", 0.0, ac_mag=1e-6)
        ckt.add_resistor("R1", "out", "0", 1e5)
        result = ac_analysis(ckt, [1e3])
        assert abs(result.transfer("out")[0]) == pytest.approx(0.1,
                                                               rel=1e-6)


class TestCurrentSourceSignConvention:
    """Audit of the AC RHS sign for current-source excitation.

    The DC residual convention adds ``+value`` at ``node_pos`` (current
    pulled *out* of the positive node), so the small-signal RHS must
    carry ``-ac_mag`` at the positive node.  An ``add_isource("I1",
    "0", "out", ...)`` therefore injects current *into* ``out`` and the
    response across a grounded impedance is ``+I * Z`` -- positive real
    at DC, phase rolling to -90 degrees through an RC pole.
    """

    R, C = 1e5, 1e-9  # pole at ~1.59 kHz

    def tank(self):
        ckt = Circuit()
        ckt.add_isource("I1", "0", "out", 0.0, ac_mag=1e-6)
        ckt.add_resistor("R1", "out", "0", self.R)
        ckt.add_capacitor("C1", "out", "0", self.C)
        return ckt

    def test_matches_parallel_rc_transfer_function(self):
        freqs = np.logspace(1, 6, 41)
        result = ac_analysis(self.tank(), freqs)
        measured = result.transfer("out")
        expected = 1e-6 * self.R / (
            1.0 + 2j * math.pi * freqs * self.R * self.C)
        assert np.allclose(measured, expected, rtol=1e-9)

    def test_dc_limit_is_positive_i_times_r(self):
        """f -> 0 limit: +I*R with zero phase, matching the DC
        small-signal response (an injected current raises the node)."""
        f_probe = 1e-2  # omega*R*C ~ 6e-6: deep below the pole
        result = ac_analysis(self.tank(), [f_probe])
        v = result.transfer("out")[0]
        assert v.real == pytest.approx(1e-6 * self.R, rel=1e-6)
        assert abs(v.imag) < 1e-5 * abs(v.real)

    def test_pole_frequency_minus_3db_minus_45deg(self):
        f_pole = 1.0 / (2.0 * math.pi * self.R * self.C)
        result = ac_analysis(self.tank(), [f_pole])
        v = result.transfer("out")[0]
        assert abs(v) == pytest.approx(1e-6 * self.R / math.sqrt(2.0),
                                       rel=1e-6)
        assert math.degrees(math.atan2(v.imag, v.real)) == pytest.approx(
            -45.0, abs=0.01)

    def test_reversed_terminals_flip_the_sign(self):
        ckt = Circuit()
        ckt.add_isource("I1", "out", "0", 0.0, ac_mag=1e-6)
        ckt.add_resistor("R1", "out", "0", self.R)
        result = ac_analysis(ckt, [1.0])
        assert result.transfer("out")[0].real == pytest.approx(
            -1e-6 * self.R, rel=1e-6)


class TestFrequencyGridValidation:
    def test_rejects_nan_frequency(self):
        with pytest.raises(AnalysisError, match="NaN"):
            ac_analysis(rc_lowpass(), [1e3, float("nan"), 1e5])

    def test_rejects_duplicate_frequencies(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            ac_analysis(rc_lowpass(), [1e3, 1e4, 1e3])

    def test_zero_frequency_rejected(self):
        with pytest.raises(AnalysisError, match="positive"):
            ac_analysis(rc_lowpass(), [0.0, 1e3])


class TestStackedBackendEquivalence:
    """The stacked-frequency solve is a linear-algebra rearrangement of
    the per-frequency loop oracle; both must agree to solver round-off."""

    def _grids(self):
        # Wide enough to engage the QZ sweep (>= 16 points) and a short
        # grid that exercises the direct stacked path.
        return (np.logspace(2, 9, 64), np.logspace(3, 6, 7))

    def test_rc_transfer_matches_loop(self):
        for freqs in self._grids():
            stacked = ac_analysis(rc_lowpass(), freqs)
            loop = ac_loop_oracle(rc_lowpass(), freqs)
            assert np.allclose(stacked.transfer("out"), loop["out"],
                               rtol=1e-9, atol=1e-15)

    def test_stscl_inverter_matches_loop(self):
        from repro.stscl.gate_model import StsclGateDesign
        from repro.stscl.netlist_gen import stscl_inverter_circuit

        design = StsclGateDesign.default(1e-9)
        vdd = 0.4
        circuit, ports = stscl_inverter_circuit(
            design, vdd, vdd, vdd - design.v_sw)
        circuit.element("vinp").ac_mag = 1.0
        freqs = np.logspace(2, 8, 31)
        stacked = ac_analysis(circuit, freqs)
        loop = ac_loop_oracle(circuit, freqs)
        out_p, out_n = next(iter(ports.outputs.values()))
        for node in (out_p, out_n):
            assert np.allclose(stacked.transfer(node), loop[node],
                               rtol=1e-8, atol=1e-15)
