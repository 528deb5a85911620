"""Unit tests for the ramp/sine test harnesses."""

import numpy as np
import pytest

from repro.adc import FaiAdc
from repro.adc.testbench import dynamic_test, linearity_test, ramp_codes
from repro.errors import AnalysisError


class TestRamp:
    def test_covers_full_code_range(self, ideal_adc):
        codes = ramp_codes(ideal_adc, samples_per_code=8)
        assert codes.min() == 0
        assert codes.max() == 255

    def test_sample_count(self, ideal_adc):
        codes = ramp_codes(ideal_adc, samples_per_code=4)
        assert codes.size == 256 * 4

    def test_rejects_bad_density(self, ideal_adc):
        with pytest.raises(AnalysisError):
            ramp_codes(ideal_adc, samples_per_code=0)


class TestLinearityHarness:
    def test_ideal_adc_is_linear(self, ideal_adc):
        report = linearity_test(ideal_adc, samples_per_code=8)
        assert report.inl_max < 0.3
        assert report.dnl_max < 0.3
        assert not report.missing_codes

    def test_chip_worse_than_ideal(self, ideal_adc, chip_adc):
        ideal = linearity_test(ideal_adc, samples_per_code=8)
        chip = linearity_test(chip_adc, samples_per_code=8)
        assert chip.inl_max > ideal.inl_max


class TestDynamicHarness:
    def test_ideal_enob_near_quantisation_limit(self, ideal_adc):
        report = dynamic_test(ideal_adc, f_sample=80e3, n_samples=1024,
                              cycles=67)
        assert report.enob == pytest.approx(7.9, abs=0.35)

    def test_chip_enob_near_paper_value(self, chip_adc):
        report = dynamic_test(chip_adc, f_sample=80e3, n_samples=2048,
                              cycles=67)
        assert report.enob == pytest.approx(6.5, abs=0.5)

    def test_sample_hold_path_runs(self, ideal_adc):
        report = dynamic_test(ideal_adc, f_sample=80e3, n_samples=256,
                              cycles=33, use_sample_hold=True)
        assert report.enob > 5.0

    def test_sample_hold_path_keeps_converter_noise(self):
        """Through the (noiseless by default) track/hold, the converter
        still adds its own input noise: both paths read the same ENOB
        (the direct path alone spreads ~0.08 over noise draws)."""
        chip = FaiAdc(ideal=False, seed=0)
        direct = dynamic_test(chip, f_sample=8e3, n_samples=2048)
        held = dynamic_test(chip, f_sample=8e3, n_samples=2048,
                            use_sample_hold=True)
        assert held.enob == pytest.approx(direct.enob, abs=0.15)


class _FakeTran:
    """Minimal TranResult stand-in: a recorded ramp on two nodes."""

    def __init__(self):
        self.time = np.linspace(0.0, 1e-3, 501)
        self._waves = {"out": np.linspace(0.0, 1.0, 501),
                       "ref": np.full(501, 0.25)}

    def voltage(self, node):
        return self._waves[node]


class TestSampledTransientCodes:
    def test_codes_match_held_convert_batch(self, ideal_adc):
        from repro.adc.testbench import sampled_transient_codes

        result = _FakeTran()
        sample_times = np.linspace(1e-4, 9e-4, 32)
        cfg = ideal_adc.config
        # gain keeps the held ramp inside [v_low, v_high]: beyond
        # full scale the folding converter folds the codes back.
        codes = sampled_transient_codes(
            ideal_adc, result, "out", sample_times=sample_times,
            center=cfg.v_low, gain=0.5)
        held = cfg.v_low + 0.5 * np.interp(sample_times, result.time,
                                           result.voltage("out"))
        assert np.array_equal(codes, ideal_adc.convert_batch(held))
        # The held ramp is monotone, so the codes are too.
        assert (np.diff(codes) >= 0).all()

    def test_differential_input_subtracts_reference(self, ideal_adc):
        from repro.adc.testbench import sampled_transient_codes

        result = _FakeTran()
        sample_times = np.array([2e-4, 5e-4, 8e-4])
        diff = sampled_transient_codes(
            ideal_adc, result, "out", "ref",
            sample_times=sample_times, center=0.5)
        held = 0.5 + np.interp(sample_times, result.time,
                               result.voltage("out")
                               - result.voltage("ref"))
        assert np.array_equal(diff, ideal_adc.convert_batch(held))

    def test_rejects_empty_sample_times(self, ideal_adc):
        from repro.adc.testbench import sampled_transient_codes

        with pytest.raises(AnalysisError, match="no sample instants"):
            sampled_transient_codes(ideal_adc, _FakeTran(), "out",
                                    sample_times=np.array([]))

    def test_rejects_samples_outside_the_record(self, ideal_adc):
        from repro.adc.testbench import sampled_transient_codes

        with pytest.raises(AnalysisError):
            sampled_transient_codes(
                ideal_adc, _FakeTran(), "out",
                sample_times=np.array([5e-4, 2e-3]))
