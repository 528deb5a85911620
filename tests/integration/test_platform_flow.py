"""Integration: the full platform flow the paper's Fig. 1 promises.

One knob (the sampling rate) retunes the analog bias tree and the
digital tail currents together; conversion quality is maintained across
the whole 800 S/s .. 80 kS/s range while power scales linearly.
"""

import math

import numpy as np
import pytest

from repro.adc.metrics import sine_test
from repro.platform_msys import MixedSignalPlatform


@pytest.fixture(scope="module")
def platform():
    return MixedSignalPlatform.build(seed=11)


class TestSingleKnobScaling:
    def test_rate_sweep_keeps_quality(self, platform):
        """ENOB stays flat across two decades of sampling rate: the
        defining property of the power-scalable converter."""
        enobs = []
        for f_s in (800.0, 8e3, 80e3):
            platform.set_sample_rate(f_s)
            tuned = platform.pmu.tuned_adc(f_s)
            f_in = f_s * 67 / 1024
            mid = 0.5 * (tuned.config.v_low + tuned.config.v_high)
            amp = 0.475 * tuned.config.full_scale
            t = np.arange(1024) / f_s
            codes = tuned.convert_batch(
                mid + amp * np.sin(2 * np.pi * f_in * t), noisy=True)
            enobs.append(sine_test(codes, 8).enob)
        assert max(enobs) - min(enobs) < 0.4
        assert min(enobs) > 6.0

    def test_power_frequency_line(self, platform):
        """Log-log slope of power vs rate = 1 (the paper's linear
        scaling)."""
        rates = np.array([800.0, 2e3, 8e3, 20e3, 80e3])
        powers = np.array([
            platform.set_sample_rate(f).operating_point.total_power
            for f in rates])
        slope = np.polyfit(np.log10(rates), np.log10(powers), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.02)


class TestEndToEndAcquisition:
    def test_ecg_like_waveform_digitised(self, platform):
        """Sample a biomedical-style waveform and verify the record is
        faithful (correlation with the analog truth)."""
        f_s = 2e3
        platform.set_sample_rate(f_s)

        def ecg_like(t: float) -> float:
            heart = math.sin(2 * math.pi * 1.3 * t) ** 31
            baseline = 0.08 * math.sin(2 * math.pi * 0.3 * t)
            return 0.5 + 0.22 * heart + baseline

        n = 512
        codes = platform.convert(ecg_like, n)
        t = np.arange(n) / f_s
        truth = np.array([ecg_like(float(x)) for x in t])
        cfg = platform.adc.config
        reconstructed = cfg.v_low + (codes + 0.5) * cfg.lsb
        correlation = np.corrcoef(truth, reconstructed)[0, 1]
        assert correlation > 0.99
