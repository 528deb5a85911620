"""Unit tests for the EKV core equations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.devices import Mosfet, nmos_180
from repro.devices.ekv import (
    gate_voltage_for_current,
    interp_f,
    interp_f_derivative,
    saturation_voltage,
    transconductance_efficiency,
    weak_inversion_current,
)


class TestInterpolationFunction:
    def test_weak_inversion_asymptote(self):
        # F(v) -> exp(v) for v << 0; the next-order term is exp(3v/2),
        # so the relative error is ~exp(v/2).
        for v in (-18.0, -25.0, -35.0):
            assert interp_f(v) == pytest.approx(math.exp(v), rel=1e-3)

    def test_strong_inversion_asymptote(self):
        # F(v) -> (v/2)^2 for v >> 0
        for v in (40.0, 100.0):
            assert interp_f(v) == pytest.approx((v / 2.0) ** 2, rel=0.1)

    def test_accepts_arrays(self):
        v = np.array([-5.0, 0.0, 5.0])
        out = interp_f(v)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0.0)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_positive_everywhere(self, v):
        assert interp_f(v) > 0.0

    @given(st.floats(min_value=-100.0, max_value=100.0),
           st.floats(min_value=1e-3, max_value=5.0))
    def test_strictly_monotonic(self, v, dv):
        assert interp_f(v + dv) > interp_f(v)

    @given(st.floats(min_value=-80.0, max_value=80.0))
    def test_derivative_matches_numeric(self, v):
        h = 1e-5
        numeric = (interp_f(v + h) - interp_f(v - h)) / (2.0 * h)
        assert interp_f_derivative(v) == pytest.approx(
            numeric, rel=1e-4, abs=1e-30)

    def test_no_overflow_at_extremes(self):
        assert np.isfinite(interp_f(1000.0))
        assert interp_f(-1000.0) >= 0.0


class TestNormalizedCurrents:
    """The forward/reverse currents ``Mosfet.evaluate`` reports."""

    def test_saturation_forward_dominates(self):
        op = Mosfet(nmos_180(), w=1e-6, l=1e-6).evaluate(
            vd=0.5, vg=0.6, vs=0.0, vb=0.0)
        assert op.i_f > 100.0 * op.i_r

    def test_symmetric_at_equal_terminals(self):
        op = Mosfet(nmos_180(), w=1e-6, l=1e-6).evaluate(
            vd=0.1, vg=0.5, vs=0.1, vb=0.0)
        assert op.i_f == pytest.approx(op.i_r)


class TestWeakInversionCurrent:
    def test_exponential_slope(self):
        ut, n = 0.026, 1.3
        i1 = weak_inversion_current(1e-6, 0.2, 0.0, 0.5, 0.45, n, ut)
        i2 = weak_inversion_current(1e-6, 0.2 + n * ut * math.log(10.0),
                                    0.0, 0.5, 0.45, n, ut)
        assert i2 / i1 == pytest.approx(10.0, rel=1e-6)

    def test_zero_at_vds_zero(self):
        i = weak_inversion_current(1e-6, 0.3, 0.1, 0.1, 0.45, 1.3, 0.026)
        assert i == pytest.approx(0.0, abs=1e-30)

    def test_gate_voltage_inversion_roundtrip(self):
        ut, n, vt0, i_spec = 0.026, 1.3, 0.45, 1e-6
        vg = gate_voltage_for_current(1e-9, i_spec, vt0, n, ut)
        i_back = weak_inversion_current(i_spec, vg, 0.0, 10 * ut * 40,
                                        vt0, n, ut)
        assert i_back == pytest.approx(1e-9, rel=1e-3)

    def test_gate_voltage_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gate_voltage_for_current(-1e-9, 1e-6, 0.45, 1.3, 0.026)
        with pytest.raises(ValueError):
            gate_voltage_for_current(1e-9, 0.0, 0.45, 1.3, 0.026)


class TestSaturationVoltage:
    def test_weak_inversion_floor(self):
        # ~4 U_T independent of current in deep weak inversion
        ut = 0.026
        assert saturation_voltage(1e-4, ut) == pytest.approx(4.0 * ut,
                                                             rel=0.01)

    def test_increases_with_ic(self):
        ut = 0.026
        assert saturation_voltage(100.0, ut) > saturation_voltage(1.0, ut)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            saturation_voltage(-1.0, 0.026)


class TestGmOverId:
    def test_weak_inversion_peak(self):
        n, ut = 1.3, 0.026
        assert transconductance_efficiency(1e-6, n, ut) == pytest.approx(
            1.0 / (n * ut), rel=0.01)

    def test_monotone_decreasing_in_ic(self):
        n, ut = 1.3, 0.026
        values = transconductance_efficiency(
            np.array([0.01, 0.1, 1.0, 10.0, 100.0]), n, ut)
        assert np.all(np.diff(values) < 0.0)
