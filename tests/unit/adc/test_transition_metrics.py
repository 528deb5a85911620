"""Unit tests for transition-level metrology and its agreement with
the histogram method."""

import numpy as np
import pytest

from repro.adc import FaiAdc
from repro.adc.metrics import (
    code_transition_levels,
    inl_dnl_from_codes,
    inl_dnl_from_transitions,
)
from repro.errors import AnalysisError


def staircase(v: float, lsb: float = 1.0 / 16.0) -> int:
    """A perfect 4-bit quantizer on [0, 1]."""
    return max(0, min(15, int(v / lsb)))


class TestTransitionSearch:
    def test_finds_ideal_transitions(self):
        transitions = code_transition_levels(staircase, 4, 0.0, 1.0,
                                             resolution=1e-5)
        expected = np.arange(1, 16) / 16.0
        assert np.allclose(transitions, expected, atol=1e-4)

    def test_respects_resolution(self):
        coarse = code_transition_levels(staircase, 4, 0.0, 1.0,
                                        resolution=1e-2)
        fine = code_transition_levels(staircase, 4, 0.0, 1.0,
                                      resolution=1e-5)
        expected = np.arange(1, 16) / 16.0
        assert (np.abs(fine - expected).max()
                < np.abs(coarse - expected).max() + 1e-5)

    def test_range_validation(self):
        with pytest.raises(AnalysisError):
            code_transition_levels(staircase, 4, 1.0, 0.0)


class TestTransitionLinearity:
    def test_ideal_staircase_is_linear(self):
        transitions = code_transition_levels(staircase, 4, 0.0, 1.0)
        report = inl_dnl_from_transitions(transitions, 4)
        assert report.inl_max < 0.01
        assert report.dnl_max < 0.01

    def test_known_wide_code(self):
        transitions = (np.arange(1, 16) / 16.0).copy()
        transitions[7:] += 1.0 / 32.0  # code 7 half an LSB wide extra
        report = inl_dnl_from_transitions(transitions, 4)
        # The endpoint-fit LSB also stretches by 0.5/14, so the wide
        # code reads 1.5 * 14/14.5 - 1 = +0.448 and every other
        # interior code -0.034.
        assert report.dnl[7] == pytest.approx(0.448, abs=0.01)
        assert report.dnl[3] == pytest.approx(-0.034, abs=0.01)

    def test_shape_validation(self):
        with pytest.raises(AnalysisError):
            inl_dnl_from_transitions(np.arange(5), 4)


class TestBracketRecovery:
    """Regression for the stale-bound early exit: when the carried-over
    bracket reads at/above the target, the search must re-bisect from
    ``v_low`` rather than record the bound verbatim."""

    N_CODES = 16
    T = np.arange(1, N_CODES) / N_CODES

    def _probe_count_before_target(self, target: int) -> int:
        """Call index at which the servo loop for ``target`` opens
        (found by replaying a stable converter: the full-scale check at
        ``v_high`` marks the second probe of every target's loop)."""
        calls = []

        def recording(v):
            calls.append(v)
            return int(np.searchsorted(self.T, v, side="right"))

        code_transition_levels(recording, 4, 0.0, 1.0)
        hi_probes = [i for i, v in enumerate(calls) if v == 1.0]
        return hi_probes[target - 1] - 1

    def test_reference_droop_is_rebisected_not_recorded(self):
        """A converter whose reference sags 1.3 LSB between the code-8
        and code-9 servo loops makes the stale bound read above the
        target persistently.  The true (sagged) transition sits well
        below the bound; recording the bound verbatim would be 0.3 LSB
        off, re-bisecting recovers it."""
        lsb = 1.0 / self.N_CODES
        shift = 1.3 * lsb
        sag_at = self._probe_count_before_target(9)

        class Drooping:
            def __init__(self, T):
                self.T = T
                self.n = 0

            def __call__(self, v):
                t = self.T - (shift if self.n >= sag_at else 0.0)
                self.n += 1
                return int(np.searchsorted(t, v, side="right"))

        measured = code_transition_levels(Drooping(self.T), 4, 0.0, 1.0)
        # Pre-sag codes measured against the original references.
        assert np.allclose(measured[:8], self.T[:8], atol=1e-3)
        # The sagged code-9 transition: bisected, not the stale bound
        # (which sits at ~T[7] = 0.4999, a 0.3 LSB error).
        assert measured[8] == pytest.approx(self.T[8] - shift,
                                            abs=0.02 * lsb)
        # Post-sag tail tracks the sagged references.
        assert np.allclose(measured[9:], self.T[9:] - shift, atol=1e-3)

    def test_dithered_narrow_code_stays_bounded(self):
        """Servo measurement of a dithered converter with a narrow
        code: threshold noise makes the stale-bound branch fire, and
        the re-bisection keeps every measured transition within the
        dither scale of the truth instead of clamping to the bound."""
        lsb = 1.0 / self.N_CODES
        thresholds = self.T.copy()
        thresholds[8] = thresholds[7] + 0.1 * lsb  # code 8: 0.1 LSB
        rng = np.random.default_rng(11)

        def dithered(v):
            noisy = v + rng.normal(0.0, 0.2 * lsb)
            return int(np.searchsorted(thresholds, noisy, side="right"))

        measured = code_transition_levels(dithered, 4, 0.0, 1.0)
        assert np.max(np.abs(measured - thresholds)) < 0.6 * lsb
        # The narrow code's measured width stays near its true 0.1 LSB
        # (bisection against a dithered oracle wanders by the noise
        # scale, but never collapses a full code).
        width = measured[8] - measured[7]
        assert abs(width - 0.1 * lsb) < 0.5 * lsb

    def test_bottom_clipped_codes_record_v_low(self):
        """Codes below the input range still short-circuit to v_low."""
        def clipped(v):
            return max(3, min(15, int(v * 16)))

        transitions = code_transition_levels(clipped, 4, 0.0, 1.0)
        assert np.all(transitions[:3] == 0.0)
        assert np.allclose(transitions[3:], np.arange(4, 16) / 16.0,
                           atol=1e-3)


class TestMethodAgreement:
    def test_histogram_and_transition_methods_agree(self):
        """Two independent measurements of the same chip must agree on
        INL within the histogram's quantisation noise."""
        adc = FaiAdc(ideal=False, seed=1)
        cfg = adc.config
        # Histogram method.
        ramp = np.linspace(cfg.v_low, cfg.v_high, 256 * 24)
        hist_report = inl_dnl_from_codes(adc.convert_batch(ramp), 8)
        # Transition method.
        transitions = code_transition_levels(
            lambda v: int(adc.convert_batch(np.array([v]))[0]), 8,
            cfg.v_low, cfg.v_high)
        trans_report = inl_dnl_from_transitions(transitions, 8)
        assert trans_report.inl_max == pytest.approx(
            hist_report.inl_max, abs=0.15)
        # Profiles correlate strongly, not just the maxima.
        corr = np.corrcoef(hist_report.inl, trans_report.inl)[0, 1]
        assert corr > 0.95

    def test_methods_agree_on_missing_code_converter(self):
        """A synthetic 5-bit converter with one zero-width code: the
        histogram method (averaging over *all* interior bins, empty
        one included) and the transition method must agree code-by-code
        within 0.05 LSB -- the regression that caught the inflated-LSB
        histogram average."""
        n_bits, n_codes = 5, 32
        lsb = 1.0 / n_codes
        transitions_true = np.arange(1, n_codes) / n_codes
        transitions_true[13] = transitions_true[12]  # code 13 missing

        def convert(v):
            return int(np.searchsorted(transitions_true, v,
                                       side="right"))

        ramp = (np.linspace(0.0, 1.0, 64 * n_codes, endpoint=False)
                + lsb / 1000.0)
        hist = inl_dnl_from_codes(
            np.array([convert(v) for v in ramp]), n_bits)
        trans = inl_dnl_from_transitions(
            code_transition_levels(convert, n_bits, 0.0, 1.0), n_bits)
        assert hist.missing_codes == (13,)
        assert trans.missing_codes == (13,)
        assert np.max(np.abs(hist.dnl - trans.dnl)) < 0.05
        assert np.max(np.abs(hist.inl - trans.inl)) < 0.05
        assert hist.dnl[13] == pytest.approx(-1.0, abs=0.05)
