"""Unit tests pinning the device calibration by QA extraction.

The extraction a PDK's device QA runs -- constant-current threshold,
subthreshold swing, on/off ratio, gm/I_D -- is written here against
``Mosfet.evaluate``, so the calibration in ``devices/parameters.py``
stays auditable against the 0.18 um targets the rest of the repo
assumes.
"""

import math

import numpy as np
import pytest

from repro.constants import T_NOMINAL, thermal_voltage
from repro.devices import Mosfet, nmos_180, nmos_180_hvt, pmos_180


def transfer_curve(device, vd, vg_stop, points, temperature=T_NOMINAL):
    """(V_G, I_D) at fixed V_D, source and bulk grounded."""
    v_gate = np.linspace(0.0, vg_stop, points)
    return v_gate, np.array([
        device.evaluate(vd=vd, vg=float(v), vs=0.0, vb=0.0,
                        temperature=temperature).ids for v in v_gate])


def threshold(device, temperature=T_NOMINAL):
    """Constant-current V_T: the V_G at which I_D reaches 100 nA * W/L
    at V_D = 50 mV, interpolated in log current."""
    criterion = 1e-7 * device.w / device.l
    v_gate, currents = transfer_curve(device, 0.05, 1.4, 281, temperature)
    k = int(np.nonzero(currents >= criterion)[0][0])
    frac = ((math.log(criterion) - math.log(currents[k - 1]))
            / (math.log(currents[k]) - math.log(currents[k - 1])))
    return float(v_gate[k - 1] + frac * (v_gate[k] - v_gate[k - 1]))


def swing(device, temperature=T_NOMINAL):
    """Subthreshold swing [mV/decade] of the steepest region."""
    v_gate, currents = transfer_curve(device, 0.6, 0.5, 201, temperature)
    mask = currents > 1e-14
    slopes = (np.diff(np.log10(currents[mask]))
              / np.diff(v_gate[mask]))
    return float(1e3 / slopes.max())


def on_off(device, vdd=1.0):
    """I_on(V_G = V_D = V_DD) / I_off(V_G = 0, V_D = V_DD)."""
    on = device.evaluate(vd=vdd, vg=vdd, vs=0.0, vb=0.0).ids
    off = device.evaluate(vd=vdd, vg=0.0, vs=0.0, vb=0.0).ids
    return on / off


@pytest.fixture(scope="module")
def nmos():
    return Mosfet(nmos_180(), w=1e-6, l=1e-6)


class TestCurves:
    def test_transfer_monotone(self, nmos):
        _vg, currents = transfer_curve(nmos, 0.6, 1.2, 121)
        assert np.all(np.diff(currents) > 0.0)

    def test_output_curve_saturates(self, nmos):
        v_drain = np.linspace(0.0, 1.2, 61)
        currents = np.array([
            nmos.evaluate(vd=float(v), vg=0.4, vs=0.0, vb=0.0).ids
            for v in v_drain])
        # Past ~5 U_T the current flattens: the last 20 % of the sweep
        # changes by only the CLM slope.
        tail = currents[v_drain > 0.9]
        assert np.ptp(tail) < 0.05 * tail.mean()


class TestExtraction:
    def test_vt_matches_model_parameter(self, nmos):
        """Constant-current VT lands near the model's VT0 (the methods
        differ by a few tens of mV by construction)."""
        assert threshold(nmos) == pytest.approx(nmos.params.vt0, abs=0.08)

    def test_hvt_flavour_extracts_higher(self):
        standard = Mosfet(nmos_180(), w=1e-6, l=1e-6)
        hvt = Mosfet(nmos_180_hvt(), w=1e-6, l=1e-6)
        assert threshold(hvt) > threshold(standard) + 0.1

    def test_swing_near_ideal(self, nmos):
        """S = n U_T ln10 ~ 78 mV/dec for n = 1.3 at 300 K."""
        ut = thermal_voltage(T_NOMINAL)
        ideal = 1e3 * nmos.params.n * ut * np.log(10.0)
        assert swing(nmos) == pytest.approx(ideal, rel=0.05)

    def test_swing_degrades_with_temperature(self, nmos):
        assert swing(nmos, 400.0) > 1.3 * swing(nmos, 250.0)

    def test_on_off_ratio_large(self, nmos):
        """A low-leakage 0.18 um device: > 10^6 at 1 V."""
        assert on_off(nmos) > 1e6

    def test_pmos_also_characterizes(self):
        pmos = Mosfet(pmos_180(), w=2e-6, l=1e-6)
        # PMOS curves need flipped terminals; check the NMOS-like ratio
        # in the normalised frame.
        on = abs(pmos.evaluate(0.0, 0.0, 1.0, 1.0).ids)
        off = abs(pmos.evaluate(0.0, 1.0, 1.0, 1.0).ids)
        assert on / off > 1e6


class TestFullReport:
    def test_report_fields_consistent(self, nmos):
        assert 0.3 < threshold(nmos) < 0.6
        assert 70.0 < swing(nmos) < 95.0
        assert on_off(nmos) > 1e6
        # gm/ID in deep weak inversion sits at the ideal 1/(n UT)
        # ~ 29.7 /V.
        op = nmos.evaluate(vd=0.6, vg=0.15, vs=0.0, vb=0.0)
        assert op.gm / op.ids == pytest.approx(29.7, rel=0.1)
