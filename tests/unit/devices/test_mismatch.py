"""Unit tests for the Pelgrom mismatch model."""

import numpy as np
import pytest

from repro.constants import thermal_voltage
from repro.devices.mismatch import PELGROM_180NM
from repro.errors import ModelError


class TestSigmaLaws:
    def test_pelgrom_area_scaling(self):
        model = PELGROM_180NM
        small = model.sigma_vt(1e-6, 1e-6)
        big = model.sigma_vt(2e-6, 2e-6)
        assert big == pytest.approx(small / 2.0)

    def test_known_value(self):
        # A_VT = 4 mV*um over a 1 um^2 device -> 4 mV.
        assert PELGROM_180NM.sigma_vt(1e-6, 1e-6) == pytest.approx(4e-3)

    def test_pair_offset_is_sqrt2(self):
        model = PELGROM_180NM
        assert model.sigma_pair_offset(1e-6, 1e-6) == pytest.approx(
            np.sqrt(2.0) * model.sigma_vt(1e-6, 1e-6))

    def test_mirror_gain_includes_vt_term(self):
        model = PELGROM_180NM
        ut = thermal_voltage()
        sigma = model.sigma_mirror_gain(1e-6, 1e-6, 1.3, ut)
        # VT term alone: sqrt(2)*4mV/(1.3*26mV) ~ 17 %
        assert sigma > 0.15

    def test_rejects_bad_geometry(self):
        with pytest.raises(ModelError):
            PELGROM_180NM.sigma_vt(0.0, 1e-6)
