"""Unit tests for repro.scope.measure against analytic waveforms."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.scope import measure

TAU = 1e-6


def rc_step(t_stop=8e-6, n=4001, t0=0.0):
    """Analytic RC step response 1 - exp(-(t - t0)/tau)."""
    t = np.linspace(0.0, t_stop, n)
    v = np.where(t >= t0, 1.0 - np.exp(-np.maximum(t - t0, 0.0) / TAU),
                 0.0)
    return t, v


class TestCrossings:
    def test_rc_half_crossing_at_ln2_tau(self):
        t, v = rc_step()
        ups = measure.crossings(t, v, 0.5, rising=True)
        assert ups.size == 1
        assert ups[0] == pytest.approx(math.log(2.0) * TAU, rel=1e-5)

    def test_direction_filter(self):
        t = np.linspace(0.0, 1.0, 1001)
        v = np.sin(2.0 * np.pi * 3.0 * t - 0.1)  # phase: t=0 off-level
        assert measure.crossings(t, v, 0.0, rising=True).size == 3
        assert measure.crossings(t, v, 0.0, rising=False).size == 3
        assert measure.crossings(t, v, 0.0).size == 6

    def test_level_never_crossed(self):
        t, v = rc_step()
        assert measure.crossings(t, v, 2.0).size == 0


class TestValidation:
    """Every measurement rejects malformed records with a clean
    AnalysisError naming the problem."""

    def test_nan_sample_rejected(self):
        t, v = rc_step()
        v[17] = float("nan")
        with pytest.raises(AnalysisError, match="non-finite sample"):
            measure.crossings(t, v, 0.5)

    def test_short_record_rejected(self):
        with pytest.raises(AnalysisError, match="too short"):
            measure.crossings([0.0], [1.0], 0.5)

    def test_empty_record_rejected(self):
        with pytest.raises(AnalysisError, match="too short"):
            measure.output_swing([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError, match="lengths differ"):
            measure.crossings([0.0, 1.0], [1.0], 0.5)

    def test_non_monotonic_time_rejected(self):
        with pytest.raises(AnalysisError, match="not monotonic"):
            measure.crossings([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], 0.5)

    def test_missing_crossing_is_a_clean_error(self):
        t, v = rc_step()
        with pytest.raises(AnalysisError, match="propagation_delay"):
            measure.propagation_delay(t, v, v, level_in=5.0)


class TestPropagationDelay:
    def test_two_shifted_rc_steps(self):
        """Output = input delayed by d: t_pd at 50% must equal d."""
        d = 1.5e-6
        t, v_in = rc_step(t_stop=12e-6, t0=1e-6)
        _, v_out = rc_step(t_stop=12e-6, t0=1e-6 + d)
        report = measure.propagation_delay(t, v_in, v_out)
        assert report.delay == pytest.approx(d, rel=1e-4)
        assert report.t_out == report.t_in + report.delay

    def test_default_levels_are_mid_swing(self):
        t, v_in = rc_step(t0=1e-6)
        v_out = 2.0 * v_in + 1.0  # swings 1..~3, mid-swing ~2
        report = measure.propagation_delay(t, v_in, v_out)
        assert report.level_in == pytest.approx(
            0.5 * (v_in.min() + v_in.max()))
        assert report.level_out == pytest.approx(
            0.5 * (v_out.min() + v_out.max()))

    def test_inverting_stage_with_edge_out_none(self):
        t, v_in = rc_step(t_stop=12e-6, t0=1e-6)
        _, v_fall = rc_step(t_stop=12e-6, t0=2e-6)
        report = measure.propagation_delay(t, v_in, 1.0 - v_fall,
                                           edge_out=None)
        assert report.delay == pytest.approx(1e-6, rel=1e-4)

    def test_occurrence_selects_a_later_edge(self):
        t = np.linspace(0.0, 1.0, 2001)
        # Rising zero crossings at 0.3/(4 pi) and 0.5 later.
        v = np.sin(2.0 * np.pi * 2.0 * t - 0.3)
        report = measure.propagation_delay(t, v, v, level_in=0.0,
                                           level_out=0.0, occurrence=1)
        assert report.t_in == pytest.approx(0.3 / (4 * math.pi) + 0.5,
                                            abs=1e-3)
        assert report.delay == pytest.approx(0.0, abs=1e-9)


class TestTransitionTime:
    # 18 tau: the record max is the asymptote to ~1e-8, so the
    # record-relative 10/90 thresholds are the true ones.
    def test_rc_rise_time_is_ln9_tau(self):
        t, v = rc_step(t_stop=18e-6, n=36001)
        report = measure.transition_time(t, v, kind="rise")
        assert report.duration == pytest.approx(math.log(9.0) * TAU,
                                                rel=1e-3)
        assert report.slew == pytest.approx(0.8 / report.duration,
                                            rel=1e-3)

    def test_fall_time_mirrors_rise(self):
        t, v = rc_step(t_stop=18e-6, n=36001)
        report = measure.transition_time(t, 1.0 - v, kind="fall")
        assert report.kind == "fall"
        assert report.duration == pytest.approx(math.log(9.0) * TAU,
                                                rel=1e-3)
        assert report.slew < 0.0

    def test_custom_thresholds(self):
        t, v = rc_step(t_stop=18e-6, n=36001)
        # 20/80: tau * ln(0.8/0.2)
        report = measure.transition_time(t, v, low_frac=0.2,
                                         high_frac=0.8)
        assert report.duration == pytest.approx(math.log(4.0) * TAU,
                                                rel=1e-3)

    def test_flat_waveform_rejected(self):
        with pytest.raises(AnalysisError, match="flat"):
            measure.transition_time([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])

    def test_bad_kind_rejected(self):
        with pytest.raises(AnalysisError, match="kind"):
            measure.transition_time([0.0, 1.0], [0.0, 1.0], kind="up")


class TestSwingOvershootSettling:
    def test_swing_of_rc_step(self):
        t, v = rc_step()
        report = measure.output_swing(t, v)
        assert report.v_min == 0.0
        assert report.v_max == pytest.approx(1.0, abs=1e-3)
        assert report.swing == report.v_max - report.v_min

    def test_swing_window_from_t(self):
        t, v = rc_step()
        report = measure.output_swing(t, v, t_from=5.0 * TAU)
        assert report.v_min == pytest.approx(1.0 - math.exp(-5.0),
                                             rel=1e-3)

    def test_swing_after_the_record_rejected(self):
        t, v = rc_step()
        with pytest.raises(AnalysisError, match="t_from"):
            measure.output_swing(t, v, t_from=1.0)

    def test_rc_settling_time_is_minus_log_band_tau(self):
        t, v = rc_step(t_stop=12e-6, n=40001)
        report = measure.settling_time(t, v, band=0.02, v_initial=0.0,
                                       v_final=1.0)
        assert report.t_settle == pytest.approx(-math.log(0.02) * TAU,
                                                rel=1e-3)

    def test_truncated_record_does_not_report_settled(self):
        t, v = rc_step(t_stop=1e-6)  # ends at 63% of the step
        with pytest.raises(AnalysisError, match="outside"):
            measure.settling_time(t, v, band=0.02, v_initial=0.0,
                                  v_final=1.0)

    def test_already_settled_record(self):
        t = np.linspace(0.0, 1.0, 11)
        v = np.full(11, 3.0)
        report = measure.settling_time(t, v, band=0.02, v_initial=2.0,
                                       v_final=3.0)
        assert report.t_settle == 0.0


class TestStsclTestbench:
    """The gate testbenches of repro.stscl.testbench, measured end to
    end on the real transistor-level transient."""

    def test_gate_delay_tracks_the_analytic_law(self, default_design):
        from repro.stscl.testbench import measure_gate_delay

        report = measure_gate_delay(default_design, vdd=0.4)
        analytic = default_design.delay()
        # Self-loading makes the measured delay larger, but the same
        # order: the paper's ln2 V_SW C_L / I_SS law within 2x.
        assert analytic < report.delay < 2.0 * analytic

    def test_characterization_swing_is_v_sw(self, default_design):
        from repro.stscl.testbench import characterize_gate

        report = characterize_gate(default_design, vdd=0.4)
        assert report.swing.swing == pytest.approx(
            default_design.v_sw, rel=0.1)
        assert report.delay_ratio > 1.0
        assert "t_pd" in report.describe()

    @pytest.mark.parametrize("i_ss", np.logspace(-10.0, -8.0, 9),
                             ids=lambda i_ss: f"{i_ss:.3g}")
    def test_characterization_covers_the_designer_grid(self, i_ss):
        """gate_char's nine tail currents, 100 pA .. 10 nA: the delay
        testbench's cold operating point converges at every one."""
        from repro.stscl import StsclGateDesign
        from repro.stscl.testbench import characterize_gate

        design = StsclGateDesign.default(float(i_ss))
        report = characterize_gate(design, vdd=0.4)
        assert report.swing.swing == pytest.approx(design.v_sw, rel=0.1)
        assert 1.0 < report.delay_ratio < 2.0

    @pytest.mark.parametrize("i_ss", [1e-10, 1e-9, 1e-8],
                             ids=lambda i_ss: f"{i_ss:.3g}")
    def test_capture_ending_the_run_measures_what_the_full_run_does(
            self, i_ss):
        """The testbench's capture ends the run on the window's last
        sample, well short of its t_stop.  The reference is an unscoped
        dense transient of the same circuit over the full span, with
        the trigger crossing and the window cut from its record here:
        window and report are the same bits."""
        from repro import telemetry
        from repro.scope import CaptureSegment
        from repro.spice import TransientOptions, transient
        from repro.stscl import StsclGateDesign
        from repro.stscl.testbench import (DELAY_TESTBENCH_T_STOP,
                                           buffer_chain_capture,
                                           characterize_gate,
                                           delay_chain_circuit)

        design = StsclGateDesign.default(i_ss)
        t_d = design.delay()
        t_stop = DELAY_TESTBENCH_T_STOP * t_d
        with telemetry.tracing("delay-testbench") as trace:
            short = buffer_chain_capture(design, 0.4).segment()
        ended = trace.root.find("transient")
        with telemetry.tracing("dense-reference") as trace:
            dense = transient(delay_chain_circuit(design, 0.4), t_stop,
                              TransientOptions(dt_max=t_d / 25.0))
        complete = trace.root.find("transient")
        y_prev = dense.vdiff("s2_outp", "s2_outn")
        # The first sample at which y_prev crosses 0 V either way, and
        # 64 samples before it to 192 after it.
        before, after = y_prev[:-1], y_prev[1:]
        crossed = (((before < 0.0) & (after >= 0.0))
                   | ((before > 0.0) & (after <= 0.0)))
        k = 1 + int(np.argmax(crossed))
        window = slice(max(k - 64, 0), k + 192 + 1)
        full = CaptureSegment(
            signals=short.signals, time=dense.time[window],
            values=np.array([y_prev[window],
                             dense.vdiff("s3_outp", "s3_outn")[window],
                             dense.voltage("s3_outp")[window]]))
        assert crossed.any()
        assert short.trigger_time == dense.time[k]
        assert np.array_equal(short.time, full.time)
        assert np.array_equal(short.values, full.values)
        assert ended.attrs["t_end"] == short.time[-1] < 0.8 * t_stop
        assert "t_end" not in complete.attrs
        assert dense.time[-1] == pytest.approx(t_stop, rel=1e-12)
        assert complete.attrs["steps_accepted"] > \
            1.3 * ended.attrs["steps_accepted"]
        mine = characterize_gate(design, 0.4, segment=short)
        theirs = characterize_gate(design, 0.4, segment=full)
        assert mine.delay == theirs.delay
        assert mine.rise == theirs.rise
        assert mine.swing == theirs.swing

    def test_single_stage_chain_rejected(self, default_design):
        from repro.errors import DesignError
        from repro.stscl.testbench import buffer_chain_capture

        with pytest.raises(DesignError, match="2 stages"):
            buffer_chain_capture(default_design, 0.4, n_stages=1)
