"""Unit tests for the mixed-signal platform front end."""

import math

import numpy as np
import pytest

from repro.errors import DesignError
from repro.platform_msys import MixedSignalPlatform


@pytest.fixture(scope="module")
def platform():
    return MixedSignalPlatform.build(seed=7)


class TestSetSampleRate:
    def test_report_fields(self, platform):
        report = platform.set_sample_rate(8e3)
        op = report.operating_point
        assert op.f_sample == 8e3
        assert op.total_power > 0.0
        assert report.encoder_f_max >= 8e3
        assert 0.2 < report.vdd_min_digital < 0.6

    def test_describe_readable(self, platform):
        text = platform.set_sample_rate(8e3).describe()
        assert "total power" in text
        assert "S/s" in text

    def test_power_scales_with_knob(self, platform):
        p1 = platform.set_sample_rate(800.0).operating_point.total_power
        p2 = platform.set_sample_rate(80e3).operating_point.total_power
        assert p2 == pytest.approx(100.0 * p1, rel=0.02)

    def test_needs_rate_before_convert(self):
        fresh = MixedSignalPlatform.build(seed=3)
        with pytest.raises(DesignError):
            fresh.convert(lambda t: 0.5, 8)


class TestConversionFlow:
    def test_convert_sine(self, platform):
        platform.set_sample_rate(8e3)
        codes = platform.convert(
            lambda t: 0.5 + 0.2 * math.sin(2 * math.pi * 500 * t), 64)
        assert codes.shape == (64,)
        assert codes.std() > 20

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acquired_codes_carry_the_converter_noise(self, seed):
        """A coherent sine acquired through the platform reads the ENOB
        the direct-path sine test of the same tuned chip reads: both
        include the converter's input-referred noise."""
        from repro.adc.metrics import coherent_frequency, sine_test
        from repro.adc.testbench import dynamic_test

        f_sample, n_samples = 8e3, 2048
        chip = MixedSignalPlatform.build(seed=seed)
        chip.set_sample_rate(f_sample)
        cfg = chip.adc.config
        f_in = coherent_frequency(f_sample, n_samples, 67)
        mid = 0.5 * (cfg.v_low + cfg.v_high)
        amp = 0.5 * cfg.full_scale * 0.95
        codes = chip.convert(
            lambda t: mid + amp * math.sin(2 * math.pi * f_in * t),
            n_samples)
        acquired = sine_test(codes, cfg.n_bits).enob
        direct = dynamic_test(chip.pmu.tuned_adc(f_sample), f_sample,
                              n_samples=n_samples).enob
        assert acquired == pytest.approx(direct, abs=0.15)

    def test_characterize_keys(self, platform):
        platform.set_sample_rate(80e3)
        metrics = platform.characterize(samples_per_code=4)
        assert set(metrics) == {"inl_max", "dnl_max", "enob", "sndr_db"}
        assert 5.5 < metrics["enob"] < 8.0

    def test_pll_lock_consistent_with_pmu(self, platform):
        report = platform.lock_pll(8e3)
        assert report.locked
        assert report.f_out == pytest.approx(8e3, rel=5e-3)
