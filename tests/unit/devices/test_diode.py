"""Unit tests for the junction diode model (evaluated by DiodeBank)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import T_NOMINAL
from repro.devices.diode import (Diode, DiodeBank, DiodeParameters,
                                 NWELL_DIODE_180)
from repro.errors import ModelError


def bank(area: float = 1.0) -> DiodeBank:
    return DiodeBank([Diode(NWELL_DIODE_180, area=area)], [T_NOMINAL])


def current(v: float, area: float = 1.0) -> tuple[float, float]:
    i, g = bank(area).current(np.array([v]))
    return float(i[0]), float(g[0])


def capacitance(v: float) -> float:
    return float(bank().capacitance(np.array([v]))[0])


def charge(v: float) -> float:
    return float(bank().charge(np.array([v]))[0])


class TestParameters:
    def test_rejects_bad_saturation_current(self):
        with pytest.raises(ModelError):
            DiodeParameters(name="bad", i_s=0.0)

    def test_rejects_bad_ideality(self):
        with pytest.raises(ModelError):
            DiodeParameters(name="bad", n=0.5)


class TestCurrent:
    def test_forward_exponential(self):
        i1, _ = current(0.5)
        i2, _ = current(0.56)  # ~ one decade at n~1.0
        assert i2 / i1 > 5.0

    def test_reverse_saturates(self):
        i_rev, _ = current(-0.5)
        assert -1e-12 < i_rev < 0.0

    def test_conductance_matches_numeric(self):
        h = 1e-7
        for v in (-0.3, 0.0, 0.3, 0.55):
            i_up, _ = current(v + h)
            i_dn, _ = current(v - h)
            numeric = (i_up - i_dn) / (2.0 * h)
            _, g = current(v)
            assert g == pytest.approx(numeric, rel=1e-3, abs=1e-18)

    def test_area_scales_current(self):
        i_small, _ = current(0.5, area=1.0)
        i_big, _ = current(0.5, area=3.0)
        assert i_big == pytest.approx(3.0 * i_small, rel=1e-6)


class TestChargeAndCapacitance:
    def test_capacitance_positive_reverse_bias(self):
        assert capacitance(-1.0) > 0.0

    def test_capacitance_grows_toward_forward(self):
        assert capacitance(0.2) > capacitance(-0.5)

    def test_zero_bias_equals_cj0(self):
        assert capacitance(0.0) == pytest.approx(NWELL_DIODE_180.cj0)

    @given(st.floats(min_value=-2.0, max_value=0.6))
    @settings(max_examples=40, deadline=None)
    def test_charge_derivative_is_capacitance(self, v):
        """q(v) and C(v) must be analytically consistent, or transient
        charge conservation breaks."""
        h = 1e-6
        numeric = (charge(v + h) - charge(v - h)) / (2.0 * h)
        assert capacitance(v) == pytest.approx(numeric, rel=1e-3,
                                               abs=1e-20)

    def test_charge_continuous_at_knee(self):
        knee = 0.5 * NWELL_DIODE_180.vj
        below = charge(knee - 1e-9)
        above = charge(knee + 1e-9)
        assert above == pytest.approx(below, rel=1e-6)
