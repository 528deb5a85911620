"""Unit tests for the transient engine."""

import math

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import (Circuit, LaneSpec, TransientOptions,
                         batch_transient, operating_point, transient)
from repro.spice.waveforms import dc_wave, pulse_wave, sine_wave, step_wave


def rc_circuit(tau_r=1e6, tau_c=1e-12, t_step=1e-6):
    ckt = Circuit("rc")
    ckt.add_vsource("V1", "in", "0", step_wave(0.0, 1.0, t_step))
    ckt.add_resistor("R1", "in", "out", tau_r)
    ckt.add_capacitor("C1", "out", "0", tau_c)
    return ckt


class TestRcStep:
    def test_exponential_charging(self):
        tau = 1e-6
        ckt = rc_circuit()
        result = transient(ckt, 8e-6,
                           TransientOptions(dt_max=tau / 100.0))
        for n_tau in (1.0, 2.0, 3.0):
            expected = 1.0 - math.exp(-n_tau)
            got = result.value_at("out", 1e-6 + n_tau * tau)
            assert got == pytest.approx(expected, abs=5e-3)

    def test_flat_before_step(self):
        ckt = rc_circuit()
        result = transient(ckt, 4e-6)
        assert abs(result.value_at("out", 0.5e-6)) < 1e-6

    def test_backward_euler_also_converges(self):
        ckt = rc_circuit()
        result = transient(ckt, 8e-6, TransientOptions(
            method="be", dt_max=1e-8))
        assert result.value_at("out", 1e-6 + 3e-6) == pytest.approx(
            1.0 - math.exp(-3.0), abs=1e-2)

    def test_unknown_method_rejected(self):
        with pytest.raises(NetlistError):
            transient(rc_circuit(), 1e-6,
                      TransientOptions(method="rk4"))

    def test_bad_t_stop_rejected(self):
        with pytest.raises(NetlistError):
            transient(rc_circuit(), 0.0)


class TestStepSizeValidation:
    """A step size that is neither None nor finite and positive is
    rejected before the first step, by both engines.  The step loop
    cannot finish with one (a negative step spins in the breakpoint
    snap, a NaN one rejects forever), so the wall budget bounds each
    test should the check ever go missing."""

    @staticmethod
    def _sine_rc():
        ckt = Circuit("rc_sine_1k")
        ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, 200e3))
        ckt.add_resistor("R1", "in", "out", 1e3)
        ckt.add_capacitor("C1", "out", "0", 1e-9)
        return ckt

    @pytest.mark.parametrize("bad", [
        {"dt_max": -1e-6},
        {"dt_initial": -1e-6},
        {"dt_initial": float("nan")},
        {"dt_min": 0.0},
    ], ids=["negative-dt_max", "negative-dt_initial", "nan-dt_initial",
            "zero-dt_min"])
    @pytest.mark.parametrize("engine", ["transient", "batch_transient"])
    def test_rejected_before_the_first_step(self, engine, bad):
        (name, _value), = bad.items()
        options = TransientOptions(max_wall_time=2.0, **bad)
        with pytest.raises(NetlistError, match=name):
            if engine == "transient":
                transient(self._sine_rc(), 10e-6, options)
            else:
                batch_transient(self._sine_rc(), [LaneSpec()], 10e-6,
                                options)


class TestBreakpoints:
    def test_pulse_edges_are_hit(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0",
                        pulse_wave(0.0, 1.0, delay=1e-6, rise=1e-9,
                                   fall=1e-9, width=2e-6, period=10e-6))
        ckt.add_resistor("R1", "in", "0", 1e3)
        result = transient(ckt, 5e-6)
        # Samples exist essentially at the rising edge.
        assert np.min(np.abs(result.time - 1e-6)) < 2e-9

    def test_crossing_times_rising_filter(self):
        ckt = rc_circuit()
        result = transient(ckt, 8e-6, TransientOptions(dt_max=1e-8))
        ups = result.crossing_times("out", 0.5, rising=True)
        downs = result.crossing_times("out", 0.5, rising=False)
        assert ups.size == 1
        assert downs.size == 0
        # RC reaches 50 % after ln(2) tau
        assert ups[0] == pytest.approx(1e-6 + math.log(2.0) * 1e-6,
                                       rel=1e-2)


class TestSineDrive:
    def test_amplitude_rolloff_at_pole(self):
        # Drive the RC at its pole: |H| = 1/sqrt(2).
        tau = 1e-6
        f_pole = 1.0 / (2.0 * math.pi * tau)
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0",
                        sine_wave(0.0, 1.0, f_pole))
        ckt.add_resistor("R1", "in", "out", 1e6)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        result = transient(ckt, 20.0 / f_pole,
                           TransientOptions(dt_max=1.0 / (200.0 * f_pole)))
        # Steady state: look at the last 5 periods.
        mask = result.time > 15.0 / f_pole
        amplitude = 0.5 * (result.voltage("out")[mask].max()
                           - result.voltage("out")[mask].min())
        assert amplitude == pytest.approx(1.0 / math.sqrt(2.0), rel=0.03)


class TestChargeConservation:
    def test_cap_divider_final_value(self):
        # Two series caps from a stepped source settle to the C-divider.
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", step_wave(0.0, 1.0, 1e-9))
        ckt.add_capacitor("C1", "in", "mid", 2e-12)
        ckt.add_capacitor("C2", "mid", "0", 1e-12)
        ckt.add_resistor("Rleak", "mid", "0", 1e12)  # keeps DC defined
        result = transient(ckt, 100e-9)
        assert result.value_at("mid", 90e-9) == pytest.approx(2.0 / 3.0,
                                                              rel=0.02)

    def test_record_currents_option(self):
        ckt = rc_circuit()
        result = transient(ckt, 4e-6,
                           TransientOptions(record_currents=True))
        assert "V1" in result.branch_currents
        assert result.branch_currents["V1"].shape == result.time.shape

    def test_record_currents_excludes_current_sources(self):
        """Only voltage-defined elements own an MNA branch current; a
        CurrentSource must never appear in the recorded set (its current
        is its waveform value, it has no branch unknown)."""
        ckt = rc_circuit()
        ckt.add_isource("I1", "out", "0", 1e-9)
        result = transient(ckt, 4e-6,
                           TransientOptions(record_currents=True))
        assert "V1" in result.branch_currents
        assert "I1" not in result.branch_currents


class TestInitialOpValidation:
    def test_nan_placeholder_initial_op_rejected(self):
        """A NaN placeholder point (``on_error="skip"``) carries no
        solution vector; handing it to transient() used to crash with
        ``AttributeError: 'NoneType' object has no attribute 'copy'``
        -- it must be a clear AnalysisError instead."""
        from repro.errors import AnalysisError
        from repro.spice.results import OpResult

        placeholder = OpResult(voltages={"out": float("nan")},
                               branch_currents={}, x=None)
        assert not placeholder.converged
        with pytest.raises(AnalysisError, match="x is None"):
            transient(rc_circuit(), 1e-6, initial_op=placeholder)

    def test_converged_initial_op_accepted(self):
        from repro.spice import operating_point

        ckt = rc_circuit()
        op = operating_point(ckt)
        result = transient(ckt, 1e-6, initial_op=op)
        assert result.time[0] == 0.0


class TestTelemetry:
    def test_clean_run_reports_zero_rejections(self):
        result = transient(rc_circuit(), 4e-6)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.steps_rejected == 0
        assert telemetry.steps_accepted == len(result.time) - 1
        assert telemetry.newton_iterations >= telemetry.steps_accepted
        assert telemetry.dt_smallest <= 4e-6 / 50.0
        assert "0 rejected" in telemetry.describe()

    def test_rejections_are_counted_and_timestamped(self):
        """A one-iteration Newton budget rejects every first attempt,
        which the telemetry must record before the run stalls."""
        from repro.errors import ConvergenceError
        from repro.spice import NewtonOptions

        with pytest.raises(ConvergenceError) as excinfo:
            transient(rc_circuit(), 4e-6, TransientOptions(
                newton=NewtonOptions(max_iterations=1)))
        error = excinfo.value
        assert error.diagnostics is not None
        assert error.diagnostics.steps_rejected >= 1
        assert len(error.diagnostics.rejection_times) >= 1

    def test_rejection_budget_stops_a_grinding_run(self):
        from repro.errors import ConvergenceError
        from repro.spice import NewtonOptions

        with pytest.raises(ConvergenceError) as excinfo:
            transient(rc_circuit(), 4e-6, TransientOptions(
                newton=NewtonOptions(max_iterations=1),
                max_rejections=3))
        error = excinfo.value
        assert error.stage == "rejection-budget"
        assert error.diagnostics.steps_rejected == 4
        assert "rejection budget" in str(error)

    def test_describe_without_committed_steps_reports_na(self):
        """Freshly-initialised telemetry (or a run that died before its
        first commit) must not render ``min()``'s infinity identity as
        an 'inf seconds' step size."""
        from repro.spice.transient import TransientTelemetry

        telemetry = TransientTelemetry()
        text = telemetry.describe()
        assert "inf" not in text
        assert "n/a" in text
        # One committed step restores the numeric report.
        telemetry.steps_accepted = 1
        telemetry.dt_smallest = 2.5e-9
        assert "2.500e-09 s" in telemetry.describe()


def _stscl_chain_circuit():
    """Two-stage pulse-driven STSCL buffer chain (the LTE workload)."""
    from repro.stscl.gate_model import StsclGateDesign
    from repro.stscl.netlist_gen import stscl_buffer_chain_circuit

    design = StsclGateDesign.default(1e-9)
    vdd = 0.4
    t_d = design.delay()
    high, low = vdd, vdd - design.v_sw
    edge = t_d / 5.0
    in_p = pulse_wave(low, high, delay=t_d, rise=edge, fall=edge,
                      width=3 * t_d, period=6 * t_d)
    in_n = pulse_wave(high, low, delay=t_d, rise=edge, fall=edge,
                      width=3 * t_d, period=6 * t_d)
    circuit, _ports = stscl_buffer_chain_circuit(design, vdd, 2, in_p, in_n)
    return circuit, t_d


class TestConvergenceOrder:
    """Empirical order study on a sine-driven RC with a closed-form
    solution: halving a fixed step must divide the max error by ~4 for
    trapezoid (2nd order) and ~2 for backward Euler (1st)."""

    R, C = 1e6, 1e-12
    F0 = 200e3  # period 5 us against tau = 1 us

    def _sine_rc(self):
        ckt = Circuit("rc_sine")
        ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, self.F0))
        ckt.add_resistor("R1", "in", "out", self.R)
        ckt.add_capacitor("C1", "out", "0", self.C)
        return ckt

    def _exact(self, t):
        # v' = (sin(wt) - v)/tau with v(0) = 0.
        tau = self.R * self.C
        w = 2.0 * np.pi * self.F0
        a = w * tau
        return (np.sin(w * t) - a * np.cos(w * t)
                + a * np.exp(-t / tau)) / (1.0 + a * a)

    def _max_error(self, method, h):
        result = transient(self._sine_rc(), 5e-6, TransientOptions(
            method=method, dt_initial=h, dt_min=h, dt_max=h))
        return float(np.max(np.abs(result.voltage("out")
                                   - self._exact(result.time))))

    def test_trap_is_second_order(self):
        coarse = self._max_error("trap", 1e-7)
        fine = self._max_error("trap", 5e-8)
        assert coarse / fine == pytest.approx(4.0, rel=0.15)

    def test_backward_euler_is_first_order(self):
        coarse = self._max_error("be", 1e-7)
        fine = self._max_error("be", 5e-8)
        assert coarse / fine == pytest.approx(2.0, rel=0.15)

    def test_trap_beats_backward_euler_at_equal_step(self):
        assert self._max_error("trap", 1e-7) < \
            0.1 * self._max_error("be", 1e-7)


class TestLteController:
    """Regression pins for the LTE step controller on the pulse-driven
    STSCL chain.  The accepted-step counts are exact: any change to the
    controller (error constants, safety factor, breakpoint restart,
    predictor order) shows up here as a changed integer."""

    def _run(self, reltol):
        circuit, t_d = _stscl_chain_circuit()
        return transient(circuit, 12 * t_d,
                         TransientOptions(reltol=reltol)).telemetry

    def test_step_counts_are_pinned(self):
        tight = self._run(1e-3)
        loose = self._run(1e-2)
        assert tight.steps_accepted == 105
        assert loose.steps_accepted == 84
        assert tight.lte_rejections == 8
        assert loose.steps_rejected == 0

    def test_tighter_tolerance_takes_more_steps(self):
        assert self._run(1e-3).steps_accepted > \
            self._run(1e-2).steps_accepted


class TestRejectionBreakdown:
    def test_describe_appends_breakdown_after_historical_prefix(self):
        """The rejection-cause breakdown rides after the historical
        string shape, so prefix-matching log parsers keep working."""
        from repro.spice.transient import TransientTelemetry

        telemetry = TransientTelemetry()
        telemetry.steps_accepted = 10
        telemetry.newton_iterations = 30
        telemetry.dt_smallest = 1e-9
        telemetry.record_rejection(1e-6, kind="newton")
        telemetry.record_rejection(2e-6, kind="lte")
        telemetry.record_rejection(3e-6, kind="lte")
        text = telemetry.describe()
        prefix = ("10 steps accepted, 3 rejected (23%), "
                  "30 Newton iterations, smallest dt 1.000e-09 s")
        assert text.startswith(prefix)
        assert text == prefix + "; rejections: 1 newton, 2 lte"

    def test_clean_run_keeps_historical_string_exactly(self):
        from repro.spice.transient import TransientTelemetry

        telemetry = TransientTelemetry()
        telemetry.steps_accepted = 4
        telemetry.newton_iterations = 9
        telemetry.dt_smallest = 2e-8
        assert telemetry.describe() == (
            "4 steps accepted, 0 rejected (0%), "
            "9 Newton iterations, smallest dt 2.000e-08 s")


class TestWallClockBudget:
    def test_step_loop_aborts_with_telemetry(self):
        from repro.errors import ConvergenceError
        from repro.spice import operating_point
        from repro.spice.transient import TransientTelemetry

        ckt = rc_circuit()
        op = operating_point(ckt)  # outside the budget
        with pytest.raises(ConvergenceError) as excinfo:
            transient(ckt, 4e-6,
                      TransientOptions(max_wall_time=0.0),
                      initial_op=op)
        error = excinfo.value
        assert error.stage == "wall-clock"
        assert isinstance(error.diagnostics, TransientTelemetry)
        assert "wall-clock budget" in str(error)

    def test_generous_budget_is_invisible(self):
        baseline = transient(rc_circuit(), 4e-6)
        budgeted = transient(rc_circuit(), 4e-6,
                             TransientOptions(max_wall_time=3600.0))
        np.testing.assert_allclose(budgeted.voltage("out"),
                                   baseline.voltage("out"))
        assert len(budgeted.time) == len(baseline.time)

    def test_budget_covers_the_initial_operating_point(self):
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError) as excinfo:
            transient(rc_circuit(), 4e-6,
                      TransientOptions(max_wall_time=0.0))
        assert excinfo.value.stage == "wall-clock"


class TestRecordingMemory:
    """The dense recorder must not materialize a contiguous copy per
    node: waveforms are row views into one shared store, and the
    finalization peak stays well under the old stack-then-copy path
    (which held the sample list, the stacked trace AND the growing
    per-node copies at once: >= 3x the final waveform bytes)."""

    def _chain(self, n=30):
        ckt = Circuit("rc_chain")
        ckt.add_vsource("V1", "in", "0", step_wave(0.0, 1.0, 1e-6))
        for k in range(n):
            ckt.add_resistor(f"R{k}", "in" if k == 0 else f"n{k - 1}",
                             f"n{k}", 1e5)
            ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12)
        return ckt

    def test_node_waveforms_share_one_base(self):
        result = transient(self._chain(), 4e-6,
                           TransientOptions(dt_max=1e-8))
        bases = {id(v.base) for v in result.voltages.values()}
        assert bases == {id(next(iter(result.voltages.values())).base)}
        for v in result.voltages.values():
            assert v.base is not None          # a view, not a copy
            assert v.flags["C_CONTIGUOUS"]     # but still contiguous

    def test_finalization_peak_is_bounded(self):
        import tracemalloc

        # Untraced warmup populates compile caches outside the trace.
        transient(self._chain(), 40e-6, TransientOptions(dt_max=2e-9))
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = transient(self._chain(), 40e-6,
                           TransientOptions(dt_max=2e-9))
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        final_bytes = result.time.nbytes + sum(
            v.nbytes for v in result.voltages.values())
        assert result.time.size > 10_000  # big enough to be meaningful
        # Store + per-step sample list (freed incrementally while the
        # store fills) land near 2x + per-array overhead; the old
        # ascontiguousarray-per-node path exceeded 3x.
        assert peak - before < 3.0 * final_bytes


class TestBreakpointsPastStop:
    """Waveform corners at or beyond t_stop are dropped before the
    breakpoint merge -- a pulse train extending past the run window
    must not perturb the LTE controller near the end of the run."""

    def _run(self, t_stop):
        ckt = Circuit("pulse_past_stop")
        ckt.add_vsource("V1", "in", "0",
                        pulse_wave(0.0, 1.0, delay=1e-6, rise=1e-9,
                                   fall=1e-9, width=2e-6, period=4e-6))
        ckt.add_resistor("R1", "in", "out", 1e6)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        return transient(ckt, t_stop, TransientOptions(reltol=1e-3))

    def test_lte_step_count_is_pinned(self):
        """t_stop lands mid-period: the remaining corners of that and
        all later periods are outside the window.  The accepted-step
        count is pinned (like TestLteController) so any change to the
        corner-dropping protocol shows up as a changed integer."""
        result = self._run(9.2e-6)
        assert result.telemetry.steps_accepted == 120
        assert result.telemetry.steps_rejected == 0

    def test_no_sample_lands_at_or_beyond_t_stop(self):
        result = self._run(9.2e-6)
        assert result.time[-1] == pytest.approx(9.2e-6, abs=1e-18)
        assert np.all(result.time <= 9.2e-6)

    def test_edges_inside_the_window_are_still_landed(self):
        """Corner dropping must only affect corners outside the run:
        every pulse edge inside it still gets a sample."""
        result = self._run(9.2e-6)
        for edge in (1e-6, 3e-6 + 1e-9, 5e-6, 7e-6 + 1e-9, 9e-6):
            assert np.min(np.abs(result.time - edge)) < 2e-9


class TestWaveformReplacedBetweenRuns:
    """Source values are cached per timestamp within one solve only: a
    waveform replaced between two runs on one compiled circuit drives
    the second run, even at a timestamp the first run's last step
    shares."""

    @staticmethod
    def _rc(vin: float) -> Circuit:
        ckt = Circuit("rc_rerun")
        ckt.add_vsource("vin", "in", "0", vin)
        ckt.add_resistor("R1", "in", "out", 1e3)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        return ckt

    def test_second_run_sees_the_new_waveform(self):
        ckt = self._rc(1.0)
        transient(ckt, 1e-9)
        ckt.element("vin").waveform = dc_wave(2.0)
        rerun = transient(ckt, 1e-6, TransientOptions(dt_initial=1e-9))
        assert rerun.value_at("out", 1e-9) == pytest.approx(2.0, abs=1e-9)

    def test_rerun_from_a_given_operating_point_matches_a_fresh_circuit(self):
        """No DC solve between the runs: the second run's first step
        lands on the timestamp the first run ended at."""
        ckt = self._rc(1.0)
        op = operating_point(ckt)
        transient(ckt, 1e-9, initial_op=op)
        ckt.element("vin").waveform = dc_wave(2.0)
        options = TransientOptions(dt_initial=1e-9)
        rerun = transient(ckt, 1e-6, options, initial_op=op)
        fresh = transient(self._rc(2.0), 1e-6, options, initial_op=op)
        assert np.array_equal(rerun.voltages["out"], fresh.voltages["out"])
