"""Integration: coarse/fine synchronisation robustness.

The paper's 'error correction' (Sec. III-B): the converter must survive
coarse comparators deciding early or late near segment boundaries.  We
inject controlled coarse offsets and check the damage stays ~LSB-level.
"""

import numpy as np
import pytest

from repro.adc import FaiAdc, FaiAdcConfig
from repro.digital.encoder import EncoderSpec, encode_batch


def convert_with_coarse_offset(adc: FaiAdc, voltages: np.ndarray,
                               offset_lsb: float,
                               spec: EncoderSpec) -> np.ndarray:
    """Re-run conversions with every coarse threshold shifted."""
    cfg = adc.config
    taps = (adc.coarse.ladder.tap_voltages()
            + adc.coarse.offsets + offset_lsb * cfg.lsb)
    coarse = voltages[:, None] > taps[None, :]
    fine = adc.fine.fine_code(voltages)
    return encode_batch(coarse, fine, spec)


@pytest.fixture(scope="module")
def ideal():
    return FaiAdc(ideal=True, seed=0)


class TestBoundaryRobustness:
    @pytest.mark.parametrize("offset_lsb", [-1.5, -0.5, 0.5, 1.5])
    def test_small_coarse_offsets_cost_few_lsb(self, ideal, offset_lsb):
        """The folding reflection bounds the damage at ~2x the coarse
        offset (the wrong segment pairs with a mirrored fine code), so
        a sub-LSB coarse error costs one code and a 1.5-LSB error at
        most three -- never a 32-code segment jump."""
        cfg = ideal.config
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb,
                           2048)
        expected = ideal.convert_batch(ramp)
        shifted = convert_with_coarse_offset(ideal, ramp, offset_lsb,
                                             ideal.spec)
        bound = int(np.ceil(2.0 * abs(offset_lsb)))
        assert np.max(np.abs(shifted - expected)) <= bound

    def test_large_offset_breaks_plain_decode(self, ideal):
        """Beyond the folding symmetry's reach, the plain decode
        produces segment-sized errors -- bounding where the protection
        ends."""
        cfg = ideal.config
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb,
                           2048)
        expected = ideal.convert_batch(ramp)
        shifted = convert_with_coarse_offset(ideal, ramp, 6.0, ideal.spec)
        assert np.max(np.abs(shifted - expected)) > 8

    def test_sync_correction_extends_tolerance(self, ideal):
        """The ref-[14] snap decode survives multi-LSB coarse errors
        that break the plain decode (the E12 ablation)."""
        cfg = ideal.config
        spec_sync = EncoderSpec(sync_correction=True)
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb,
                           2048)
        expected = ideal.convert_batch(ramp)
        shifted = convert_with_coarse_offset(ideal, ramp, 6.0, spec_sync)
        assert np.max(np.abs(shifted - expected)) <= 1


class TestMismatchedChipMonotonicity:
    def test_chips_have_no_segment_jumps(self):
        """Even with mismatch, no conversion error approaches a
        segment (32-LSB) glitch: the sync scheme holds on real chips."""
        for seed in range(4):
            adc = FaiAdc(ideal=False, seed=seed)
            cfg = adc.config
            ramp = np.linspace(cfg.v_low + cfg.lsb,
                               cfg.v_high - cfg.lsb, 4096)
            codes = adc.convert_batch(ramp)
            ideal_codes = ((ramp - cfg.v_low) / cfg.lsb).astype(int)
            assert np.max(np.abs(codes - ideal_codes)) < 8
