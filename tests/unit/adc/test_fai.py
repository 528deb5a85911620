"""Unit tests for the assembled FAI ADC."""

import numpy as np
import pytest

from repro.adc import FaiAdc
from repro.adc.fai import AdcBiasPoint, NOMINAL_BIAS_80K
from repro.errors import ModelError


class TestIdealConversion:
    def test_every_code_centre_exact(self, ideal_adc):
        cfg = ideal_adc.config
        voltages = np.array([cfg.code_to_voltage(c) for c in range(256)])
        codes = ideal_adc.convert_batch(voltages)
        assert np.array_equal(codes, np.arange(256))

    def test_scalar_matches_batch(self, ideal_adc):
        """A one-sample conversion is that sample's code in a batch."""
        cfg = ideal_adc.config
        voltages = np.array([cfg.code_to_voltage(code)
                             for code in (0, 1, 31, 32, 128, 255)])
        batch = ideal_adc.convert_batch(voltages)
        for v, code in zip(voltages, batch):
            assert ideal_adc.convert_batch(np.array([v]))[0] == code

    def test_monotonic_in_range(self, ideal_adc):
        cfg = ideal_adc.config
        ramp = np.linspace(cfg.v_low, cfg.v_high, 4096)
        codes = ideal_adc.convert_batch(ramp)
        assert np.all(np.diff(codes) >= 0)

    def test_ideal_has_no_noise(self, ideal_adc):
        assert ideal_adc.noise_rms == 0.0


class TestBiasScaling:
    def test_codes_invariant_under_bias_scaling(self, chip_adc):
        """The single-knob property: retuning the bias leaves the
        static transfer function untouched (same chip, same codes)."""
        cfg = chip_adc.config
        voltages = np.linspace(cfg.v_low, cfg.v_high, 300)
        slow = chip_adc.scaled(0.01)
        assert np.array_equal(chip_adc.convert_batch(voltages),
                              slow.convert_batch(voltages))

    def test_power_scales_linearly(self, chip_adc):
        p_full = chip_adc.analog_power()
        p_tenth = chip_adc.scaled(0.1).analog_power()
        assert p_tenth == pytest.approx(p_full / 10.0, rel=0.02)

    def test_bias_point_scaling(self):
        bias = NOMINAL_BIAS_80K.scaled(0.5)
        assert bias.i_unit == pytest.approx(NOMINAL_BIAS_80K.i_unit / 2)
        with pytest.raises(ModelError):
            NOMINAL_BIAS_80K.scaled(0.0)

    def test_max_sample_rate_scales_linearly(self, chip_adc):
        full = chip_adc.max_sample_rate()
        slow = chip_adc.scaled(0.01).max_sample_rate()
        assert full == pytest.approx(100.0 * slow, rel=1e-6)

    def test_nominal_bias_covers_80ksps_with_margin(self, chip_adc):
        """The 80 kS/s design point must not sit at the edge of any
        settling constraint."""
        assert chip_adc.max_sample_rate() > 2.0 * 80e3

    def test_branch_current_keys(self, chip_adc):
        branches = chip_adc.analog_branch_currents()
        assert set(branches) == {"fine_path", "coarse_comparators",
                                 "ladder", "sample_hold"}
        assert all(v > 0 for v in branches.values())


class TestChipBehaviour:
    def test_same_seed_same_codes(self):
        cfg_voltages = np.linspace(0.25, 0.75, 200)
        a = FaiAdc(seed=9)
        b = FaiAdc(seed=9)
        assert np.array_equal(a.convert_batch(cfg_voltages),
                              b.convert_batch(cfg_voltages))

    def test_different_seeds_differ(self):
        voltages = np.linspace(0.2, 0.8, 2000)
        a = FaiAdc(seed=9)
        b = FaiAdc(seed=10)
        assert not np.array_equal(a.convert_batch(voltages),
                                  b.convert_batch(voltages))

    def test_noisy_conversion_differs_from_clean(self, chip_adc):
        v = np.full(500, 0.5 + chip_adc.config.lsb * 0.5)
        clean = chip_adc.convert_batch(v)
        noisy = chip_adc.convert_batch(v, noisy=True)
        assert np.unique(clean).size == 1
        assert np.unique(noisy).size > 1

    def test_sample_and_convert_pipeline(self, ideal_adc):
        import math
        cfg = ideal_adc.config
        mid = 0.5 * (cfg.v_low + cfg.v_high)
        wave = lambda t: mid + 0.2 * math.sin(2.0 * math.pi * 1e3 * t)
        t = np.arange(64) / 80e3
        codes = ideal_adc.sample_and_convert(wave, t)
        assert codes.shape == (64,)
        assert codes.min() >= 0 and codes.max() <= 255
        assert codes.std() > 10  # the sine actually modulates the code
