"""Unit tests for the current-mode interpolator."""

import numpy as np
import pytest

from repro.analog.interpolator import CurrentInterpolator
from repro.errors import ModelError


def staggered_sinusoids(n: int, points: int = 2001):
    """n unit sinusoids with phases spaced pi/n, over two periods."""
    x = np.linspace(0.0, 4.0 * np.pi, points)
    return np.stack([np.sin(x - k * np.pi / n) for k in range(n)]), x


def crossings_of(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.nonzero(np.diff(np.signbit(row)))[0]
    out = []
    for i in idx:
        x1, x2 = x[i], x[i + 1]
        y1, y2 = row[i], row[i + 1]
        out.append(x1 - y1 * (x2 - x1) / (y2 - y1))
    return np.asarray(out)


class TestFactor:
    def test_factor(self):
        assert CurrentInterpolator(stages=3).factor == 8
        assert CurrentInterpolator(stages=0).factor == 1

    def test_output_count(self):
        signals, _x = staggered_sinusoids(4)
        out = CurrentInterpolator(stages=3).interpolate(signals)
        assert out.shape[0] == 32

    def test_zero_stages_identity(self):
        signals, _x = staggered_sinusoids(4)
        out = CurrentInterpolator(stages=0).interpolate(signals)
        assert np.array_equal(out, signals)


class TestExactness:
    def test_midpoint_crossings_exact_for_sinusoids(self):
        """sin a + sin b crosses exactly at the phase midpoint: the
        interpolated crossings bisect the parents'."""
        signals, x = staggered_sinusoids(4)
        out = CurrentInterpolator(stages=1).interpolate(signals)
        parent0 = crossings_of(signals[0], x)
        parent1 = crossings_of(signals[1], x)
        mid = crossings_of(out[1], x)
        # Skip midpoints near the record edges, whose parent crossing
        # falls outside the simulated span.
        for m in mid[1:-1]:
            gaps0 = np.min(np.abs(parent0 - m))
            gaps1 = np.min(np.abs(parent1 - m))
            assert gaps0 == pytest.approx(gaps1, abs=2e-3)

    def test_full_chain_nearly_uniform_crossings(self):
        """Iterated 2x averaging is exact at the first stage but the
        later stages average sinusoids of unequal amplitude, leaving a
        small systematic crossing ripple (the interpolation distortion
        analysed in ref. [15]) -- bounded here at ~7 % of a step."""
        signals, x = staggered_sinusoids(4, points=20001)
        out = CurrentInterpolator(stages=3).interpolate(signals)
        firsts = []
        for row in out:
            c = crossings_of(row, x)
            firsts.append(c[0])
        spacing = np.diff(sorted(firsts))
        assert np.allclose(spacing, np.pi / 32.0, rtol=0.075)

    def test_cyclic_wrap_inverts_first(self):
        """Past the last signal the chain interpolates toward the
        *inverted* first signal."""
        signals, x = staggered_sinusoids(4)
        out = CurrentInterpolator(stages=1).interpolate(signals)
        manual = 0.5 * (signals[3] - signals[0])
        assert np.allclose(out[7], manual)


class TestMirrorMismatch:
    def test_frozen_gains_reproducible(self):
        interp = CurrentInterpolator(stages=2, mirror_sigma=0.05,
                                     merged_first_stage=False)
        rng = np.random.default_rng(3)
        gains = interp.sample_gains(4, rng)
        assert len(gains) == 2
        assert gains[0].shape == (4, 2)
        signals, _x = staggered_sinusoids(4)
        out1 = interp.interpolate(signals, gains)
        out2 = interp.interpolate(signals, gains)
        assert np.array_equal(out1, out2)

    def test_merged_first_stage_is_ideal(self):
        interp = CurrentInterpolator(stages=2, mirror_sigma=0.5)
        gains = interp.sample_gains(4, np.random.default_rng(0))
        assert np.allclose(gains[0], 1.0)
        assert not np.allclose(gains[1], 1.0)

    def test_gain_errors_shift_midpoint_crossing(self):
        signals, x = staggered_sinusoids(4, points=20001)
        interp = CurrentInterpolator(stages=1, merged_first_stage=False)
        skewed = [np.array([[1.2, 0.8]] + [[1.0, 1.0]] * 3)]
        out = interp.interpolate(signals, skewed)
        ideal = interp.interpolate(signals)
        shift = crossings_of(out[1], x)[0] - crossings_of(ideal[1], x)[0]
        assert abs(shift) > 1e-3

    def test_branch_count(self):
        interp = CurrentInterpolator(stages=3, merged_first_stage=True)
        # stages at n=4 (merged), 8, 16: 2*(8+16) = 48
        assert interp.branch_count(4) == 48


class TestValidation:
    def test_wrong_gain_count_rejected(self):
        interp = CurrentInterpolator(stages=2)
        signals, _x = staggered_sinusoids(4)
        with pytest.raises(ModelError):
            interp.interpolate(signals, [np.ones((4, 2))])

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (4,), (5, 2),
                                       (2, 2)])
    def test_badly_shaped_stage_gains_rejected(self, shape):
        interp = CurrentInterpolator(stages=1, merged_first_stage=False)
        signals, _x = staggered_sinusoids(4)
        with pytest.raises(ModelError, match="stage 0 gains"):
            interp.interpolate(signals, [np.ones(shape)])

    def test_empty_signals_rejected(self):
        with pytest.raises(ModelError):
            CurrentInterpolator(stages=1).interpolate(np.empty((0, 5)))
