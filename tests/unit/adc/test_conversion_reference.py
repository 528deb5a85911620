"""The conversion path against its straightforward formulation, bit for bit.

The folder evaluation, the interpolation chain, the fine comparator
decision and the batch encoder are written for speed: arches computed
once per folder, one output buffer per interpolation, no second float
array for the offsets, and bit-major rows in the encoder.  The reference
functions below are the plain formulations they replaced -- every
crossing recomputed per call, a per-row interpolation loop, the offsets
added before the comparison, fancy-indexed Gray taps.  Every floating
point operation and its order is the same in both, so the signals, fine
codes and output codes must be *equal*, not close.
"""

import itertools

import numpy as np
import pytest

from repro.adc import FaiAdc
from repro.adc.config import FaiAdcConfig
from repro.analog.folder import CurrentFolder, FolderBank
from repro.analog.interpolator import CurrentInterpolator
from repro.digital.encoder import (EncoderSpec, encode_batch,
                                   reference_encode,
                                   thermometer_to_gray_taps)
from repro.errors import ModelError
from repro.pmu import PowerManagementUnit

#: The E3 sampling rates; the PMU tunes a chip's biases to each.
E3_RATES = (800.0, 2e3, 8e3, 20e3, 80e3)
SAMPLE_COUNTS = (1, 2048, 3072)
CHIP_SEEDS = range(32)


# -- reference formulations ---------------------------------------------------

def reference_output_current(folder: CurrentFolder, vin):
    """Folder output with every crossing and gain recomputed per call."""
    v = np.atleast_1d(np.asarray(vin, dtype=float))
    crossings = folder.crossing_positions()
    if np.any(np.diff(crossings) <= 0.0):
        raise ModelError("mismatch offsets reordered the crossings")
    gains = (1.0 + np.asarray(folder.pair_gain_errors, dtype=float)
             if folder.pair_gain_errors
             else np.ones(len(folder.references)))
    k = np.clip(np.searchsorted(crossings, v) - 1, 0, crossings.size - 2)
    x_lo = crossings[k]
    x_hi = crossings[k + 1]
    t = (v - x_lo) / (x_hi - x_lo)
    amplitude = 0.5 * (gains[k] + gains[k + 1]) * folder.i_unit
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    result = sign * amplitude * np.sin(np.pi * t)
    return float(result[0]) if np.isscalar(vin) else result


def reference_interpolate(stages: int, signals, gains=None) -> np.ndarray:
    """The interpolation chain as a per-row loop, one array per stage."""
    current = np.asarray(signals, dtype=float)
    for stage in range(stages):
        n = current.shape[0]
        stage_gains = gains[stage] if gains is not None else None
        result = np.empty((2 * n,) + current.shape[1:])
        for i in range(n):
            a = current[i]
            b = current[i + 1] if i + 1 < n else -current[0]
            g_a = g_b = 1.0
            if stage_gains is not None:
                g_a, g_b = stage_gains[i]
            result[2 * i] = a
            result[2 * i + 1] = 0.5 * (g_a * a + g_b * b)
        current = result
    return current


def reference_signals(fine, v_in, folders=None, gains=None) -> np.ndarray:
    """A fine path's interpolated currents (its own folders and gains
    unless given)."""
    v_in = np.atleast_1d(np.asarray(v_in, dtype=float))
    if folders is None:
        folders, gains = fine.folders, fine._gains
    raw = np.stack([reference_output_current(f, v_in) for f in folders])
    return reference_interpolate(fine.interpolator.stages, raw, gains)


def reference_wiring(fine) -> np.ndarray:
    """Design-time polarities, from the ideal bank at code 0's centre."""
    cfg = fine.config
    base = FolderBank(
        n_folders=cfg.n_folders, full_scale=(cfg.v_low, cfg.v_high),
        folding_factor=cfg.folding_factor, n_signals=cfg.n_fine_signals,
        i_unit=fine.i_unit)
    v0 = cfg.v_low + 0.5 * cfg.lsb
    return reference_signals(fine, np.array([v0]), base, None)[:, 0] > 0.0


def reference_fine_code(fine, v_in) -> np.ndarray:
    """Offsets added to the currents, then compared against zero."""
    currents = reference_signals(fine, v_in)
    offsets = (fine._comp_offsets * fine.i_unit)[:, None]
    decisions = (currents + offsets) > 0.0
    return (decisions != reference_wiring(fine)[:, None]).T


def _reference_majority(bits: np.ndarray, cyclic: bool) -> np.ndarray:
    if cyclic:
        left = np.roll(bits, 1, axis=1)
        right = np.roll(bits, -1, axis=1)
    else:
        left = np.concatenate(
            [np.ones((bits.shape[0], 1), dtype=bool), bits[:, :-1]], axis=1)
        right = np.concatenate(
            [bits[:, 1:], np.zeros((bits.shape[0], 1), dtype=bool)], axis=1)
    return (left.astype(int) + bits.astype(int) + right.astype(int)) >= 2


def _reference_gray_to_binary(gray: np.ndarray) -> np.ndarray:
    bits = np.zeros_like(gray)
    acc = np.zeros(gray.shape[0], dtype=bool)
    for k in reversed(range(gray.shape[1])):
        acc = acc != gray[:, k]
        bits[:, k] = acc
    weights = 1 << np.arange(gray.shape[1])
    return bits.astype(np.int64) @ weights


def reference_encode_batch(coarse_thermo, fine_thermo,
                           spec: EncoderSpec) -> np.ndarray:
    """The batch encoder on (sample, bit) words with fancy-indexed taps."""
    coarse = np.asarray(coarse_thermo, dtype=bool)
    fine = np.asarray(fine_thermo, dtype=bool)
    if spec.bubble_correction:
        coarse = _reference_majority(coarse, cyclic=False)
    if spec.fine_bubble_correction:
        fine = _reference_majority(fine, cyclic=True)
    coarse_gray = np.stack(
        [np.bitwise_xor.reduce(coarse[:, taps], axis=1)
         for taps in thermometer_to_gray_taps(spec.coarse_bits,
                                              spec.n_coarse_thermo)],
        axis=1)
    fine_gray = np.stack(
        [np.bitwise_xor.reduce(fine[:, taps], axis=1)
         for taps in thermometer_to_gray_taps(spec.fine_bits,
                                              spec.n_fine_thermo)],
        axis=1)
    coarse_value = _reference_gray_to_binary(coarse_gray)
    if spec.sync_correction and spec.coarse_bits >= 2:
        f_codes = spec.n_fine_thermo
        x = _reference_gray_to_binary(fine_gray)
        p_all = np.bitwise_xor.reduce(fine, axis=1)
        fold_parity = p_all != (x & 1).astype(bool)
        u_2f = np.where(fold_parity, 2 * f_codes - 1 - x, x)
        t = (f_codes * coarse_value + f_codes + f_codes // 2
             - u_2f) % 2 ** spec.total_bits
        k = t >> (spec.fine_bits + 1)
        return k * 2 * f_codes + u_2f
    odd_fold = (coarse_value & 1).astype(bool)
    fine_gray[:, -1] = fine_gray[:, -1] != odd_fold
    return coarse_value * 2 ** spec.fine_bits \
        + _reference_gray_to_binary(fine_gray)


def reference_thermometer(flash, v_in: float) -> tuple[bool, ...]:
    """One coarse word, one comparator (tap plus offset) at a time."""
    return tuple(bool(v_in > t + o)
                 for t, o in zip(flash.ladder.tap_voltages(), flash.offsets))


def reference_convert_batch(adc: FaiAdc, v_in) -> np.ndarray:
    v_in = np.atleast_1d(np.asarray(v_in, dtype=float))
    return reference_encode_batch(adc.coarse.thermometer_batch(v_in),
                                  reference_fine_code(adc.fine, v_in),
                                  adc.spec)


def assert_identical(actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)


# -- the converter ------------------------------------------------------------

def _bias_points(adc: FaiAdc) -> list[FaiAdc]:
    """The chip itself and its PMU-tuned twins at the five E3 rates."""
    unit = PowerManagementUnit(adc)
    return [adc] + [unit.tuned_adc(f_s) for f_s in E3_RATES]


def _check_chip(adc: FaiAdc, rng: np.random.Generator) -> None:
    cfg = adc.config
    for chip in _bias_points(adc):
        assert_identical(chip.fine._ref_positive, reference_wiring(chip.fine))
        for n in SAMPLE_COUNTS:
            # A little past both ends of the range: the folds wrap there.
            v = rng.uniform(cfg.v_low - 4 * cfg.lsb,
                            cfg.v_high + 4 * cfg.lsb, n)
            assert_identical(chip.fine.signals(v),
                             reference_signals(chip.fine, v))
            assert_identical(chip.fine.fine_code(v),
                             reference_fine_code(chip.fine, v))
            assert_identical(chip.convert_batch(v),
                             reference_convert_batch(chip, v))
        fine = reference_fine_code(chip.fine, v[:4])
        for x, word in zip(v[:4], fine):
            expected = reference_encode(reference_thermometer(chip.coarse,
                                                              float(x)),
                                        tuple(bool(b) for b in word),
                                        chip.spec)
            assert chip.convert_batch(np.array([x]))[0] == expected


@pytest.mark.parametrize("seed", CHIP_SEEDS)
def test_seeded_chip_converts_as_reference(seed):
    _check_chip(FaiAdc(ideal=False, seed=seed),
                np.random.default_rng(1000 + seed))


def test_ideal_chip_converts_as_reference():
    _check_chip(FaiAdc(ideal=True, seed=0), np.random.default_rng(7))


def test_ramp_codes_equal_reference():
    """The E4 histogram ramp, code for code."""
    adc = FaiAdc(ideal=False, seed=3)
    cfg = adc.config
    ramp = np.linspace(cfg.v_low, cfg.v_high, cfg.n_codes * 12)
    assert_identical(adc.convert_batch(ramp),
                     reference_convert_batch(adc, ramp))


def test_other_geometry_converts_as_reference():
    cfg = FaiAdcConfig(coarse_bits=2, fine_bits=4, n_folders=4)
    adc = FaiAdc(cfg, ideal=False, seed=5)
    v = np.random.default_rng(2).uniform(cfg.v_low, cfg.v_high, 500)
    assert_identical(adc.convert_batch(v), reference_convert_batch(adc, v))


# -- the folder ---------------------------------------------------------------

def _mismatched_folder(rng: np.random.Generator) -> CurrentFolder:
    refs = tuple(0.2 + 0.05 * np.arange(12))
    return CurrentFolder(
        references=refs, i_unit=3e-9,
        pair_offsets=tuple(rng.normal(0.0, 4e-3, len(refs))),
        pair_gain_errors=tuple(rng.normal(0.0, 0.01, len(refs))))


def test_folder_output_equals_reference():
    rng = np.random.default_rng(11)
    for folder in (_mismatched_folder(rng),
                   CurrentFolder(references=(0.3, 0.4, 0.5, 0.6),
                                 i_unit=1e-8)):
        crossings = folder.crossing_positions()
        v = np.concatenate([rng.uniform(0.0, 1.0, 4000), crossings,
                            [-np.inf, np.inf, np.nan]])
        with np.errstate(invalid="ignore"):  # sin(inf) is nan in both
            assert_identical(folder.output_current(v),
                             reference_output_current(folder, v))
        v = v[:-3]
        for x in (0.0, 0.31, float(crossings[2]), 0.9):
            assert folder.output_current(x) \
                == reference_output_current(folder, x)
        rebiased = folder.with_bias(2.5e-9)
        assert_identical(rebiased.output_current(v),
                         reference_output_current(rebiased, v))


def test_reordered_folder_raises_at_every_call():
    folder = CurrentFolder(references=(0.3, 0.4, 0.5, 0.6), i_unit=1e-8,
                           pair_offsets=(0.2, -0.2, 0.0, 0.0))
    for _ in range(2):
        with pytest.raises(ModelError):
            folder.output_current(np.array([0.45]))


# -- the interpolator ---------------------------------------------------------

@pytest.mark.parametrize("shape", [(1,), (4,), (1, 7), (4, 300),
                                   (3, 5, 6), (1, 2, 3)])
@pytest.mark.parametrize("stages", [0, 1, 3])
@pytest.mark.parametrize("with_gains", [False, True])
def test_interpolate_equals_reference(shape, stages, with_gains):
    rng = np.random.default_rng(sum(shape) + 10 * stages)
    signals = rng.normal(0.0, 1e-9, shape)
    interp = CurrentInterpolator(stages=stages, mirror_sigma=0.02,
                                 merged_first_stage=False)
    gains = interp.sample_gains(shape[0], rng) if with_gains else None
    assert_identical(interp.interpolate(signals, gains),
                     reference_interpolate(stages, signals, gains))


# -- the encoder --------------------------------------------------------------

@pytest.mark.parametrize(
    "bubble,fine_bubble,sync",
    list(itertools.product((False, True), repeat=3)))
def test_encode_batch_equals_reference(bubble, fine_bubble, sync):
    spec = EncoderSpec(bubble_correction=bubble,
                       fine_bubble_correction=fine_bubble,
                       sync_correction=sync)
    rng = np.random.default_rng(4 * bubble + 2 * fine_bubble + sync)
    for n in (1, 7, 3000):
        coarse = rng.random((n, spec.n_coarse_thermo)) < 0.5
        fine = rng.random((n, spec.n_fine_thermo)) < 0.5
        coarse_before, fine_before = coarse.copy(), fine.copy()
        assert_identical(encode_batch(coarse, fine, spec),
                         reference_encode_batch(coarse, fine, spec))
        # The encoder must leave its inputs alone.
        assert np.array_equal(coarse, coarse_before)
        assert np.array_equal(fine, fine_before)
        # A transposed view (the fine path's layout) encodes the same.
        assert_identical(encode_batch(coarse, np.ascontiguousarray(
            fine.T).T, spec), reference_encode_batch(coarse, fine, spec))
