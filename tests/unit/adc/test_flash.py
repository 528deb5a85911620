"""Unit tests for the coarse flash sub-ADC."""

import numpy as np
import pytest

from repro.adc import CoarseFlash, FaiAdcConfig
from repro.devices.mismatch import PELGROM_180NM
from repro.digital.encoder import EncoderSpec, coarse_thermometer
from repro.errors import ModelError


@pytest.fixture(scope="module")
def flash():
    return CoarseFlash(FaiAdcConfig(), i_comparator=20e-9, i_res=30e-9,
                       comparator_ideal=True)


def word(flash, v):
    """The thermometer word of one held voltage."""
    return tuple(bool(b) for b in flash.thermometer_batch(np.array([v]))[0])


class TestIdealFlash:
    def test_thermometer_at_code_centres(self, flash):
        cfg = flash.config
        spec = EncoderSpec()
        for segment in range(8):
            code = segment * 32 + 16
            assert word(flash, cfg.code_to_voltage(code)) == \
                coarse_thermometer(code, spec)

    def test_batch_matches_scalar(self, flash):
        """Each batch decision is its comparator's scalar one: the held
        input above the tap plus the offset."""
        cfg = flash.config
        taps = flash.ladder.tap_voltages()
        voltages = np.linspace(cfg.v_low, cfg.v_high, 40)
        batch = flash.thermometer_batch(voltages)
        for k, v in enumerate(voltages):
            assert tuple(batch[k]) == tuple(
                bool(v > t + o) for t, o in zip(taps, flash.offsets))

    def test_all_zero_below_range(self, flash):
        assert not any(word(flash, flash.config.v_low - 0.01))

    def test_all_one_above_range(self, flash):
        assert all(word(flash, flash.config.v_high + 0.01))

    def test_ideal_flash_has_zero_offsets(self, flash):
        assert np.all(flash.offsets == 0.0)
        assert flash.offsets.shape == (flash.config.n_segments - 1,)

    def test_power_positive_and_scalable(self, flash):
        p1 = flash.power(1.0)
        scaled = flash.with_bias(i_comparator=2e-9, i_res=3e-9)
        p2 = scaled.power(1.0)
        assert p1 > 0.0
        assert p2 == pytest.approx(p1 / 10.0, rel=0.01)

    def test_rejects_non_positive_comparator_current(self, flash):
        with pytest.raises(ModelError):
            CoarseFlash(FaiAdcConfig(), i_comparator=0.0, i_res=30e-9)
        with pytest.raises(ModelError):
            flash.with_bias(i_comparator=-1e-9, i_res=3e-9)


class TestMismatchedFlash:
    def test_offsets_shift_boundaries(self):
        cfg = FaiAdcConfig()
        flash = CoarseFlash(cfg, i_comparator=20e-9, i_res=30e-9,
                            ladder_sigma=0.01, comparator_ideal=False,
                            pair_w=2e-6, pair_l=0.5e-6, seed=11)
        # Near a boundary a small-device flash decides differently from
        # ideal for some voltages.
        spec = EncoderSpec()
        disagreements = 0
        for boundary in range(32, 256, 32):
            v = cfg.v_low + boundary * cfg.lsb + 0.2 * cfg.lsb
            if word(flash, v) != coarse_thermometer(boundary, spec):
                disagreements += 1
        assert disagreements > 0

    def test_offsets_are_the_per_comparator_pelgrom_draws(self):
        """One vector draw equals one scalar draw per comparator from
        the chip's offset stream, bit for bit."""
        flash = CoarseFlash(FaiAdcConfig(), i_comparator=20e-9,
                            i_res=30e-9, comparator_ideal=False, seed=5)
        rng = np.random.default_rng(5 + 2)
        sigma = PELGROM_180NM.sigma_pair_offset(24.0e-6, 6.0e-6)
        expected = [float(rng.normal(0.0, sigma))
                    for _ in range(flash.offsets.size)]
        assert flash.offsets.tolist() == expected

    def test_offsets_follow_pelgrom(self):
        offsets = np.concatenate([
            CoarseFlash(FaiAdcConfig(), i_comparator=1e-9, i_res=30e-9,
                        comparator_ideal=False, pair_w=2e-6,
                        pair_l=0.5e-6, seed=seed).offsets
            for seed in range(60)])
        expected = PELGROM_180NM.sigma_pair_offset(2e-6, 0.5e-6)
        assert offsets.std() == pytest.approx(expected, rel=0.15)

    def test_same_seed_same_chip(self):
        cfg = FaiAdcConfig()
        kwargs = dict(i_comparator=20e-9, i_res=30e-9, ladder_sigma=0.01,
                      comparator_ideal=False, seed=5)
        a = CoarseFlash(cfg, **kwargs)
        b = CoarseFlash(cfg, **kwargs)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.ladder.tap_voltages(),
                              b.ladder.tap_voltages())

    def test_with_bias_keeps_mismatch(self):
        cfg = FaiAdcConfig()
        flash = CoarseFlash(cfg, i_comparator=20e-9, i_res=30e-9,
                            ladder_sigma=0.01, comparator_ideal=False,
                            seed=5)
        retuned = flash.with_bias(2e-9, 3e-9)
        assert np.array_equal(flash.offsets, retuned.offsets)
        assert np.allclose(flash.ladder.tap_voltages(),
                           retuned.ladder.tap_voltages())
