"""Unit tests for the triggered capture layer (repro.scope.capture)."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import AnalysisError
from repro.scope import EdgeTrigger, Probe, ScopeSession
from repro.spice import Circuit, TransientOptions, transient
from repro.spice.waveforms import sine_wave, step_wave


def rc_circuit(tau=1e-6, t_step=1e-6):
    ckt = Circuit("rc")
    ckt.add_vsource("V1", "in", "0", step_wave(0.0, 1.0, t_step))
    ckt.add_resistor("R1", "in", "out", 1e6)
    ckt.add_capacitor("C1", "out", "0", tau / 1e6)
    return ckt


def run_scoped(session, t_stop=10e-6, dt_max=1e-7, circuit=None):
    ckt = circuit if circuit is not None else rc_circuit()
    return transient(ckt, t_stop, TransientOptions(dt_max=dt_max),
                     scope=session)


def run_dense(t_stop=10e-6, dt_max=1e-7, circuit=None):
    """The unscoped run of :func:`run_scoped`: its dense record."""
    ckt = circuit if circuit is not None else rc_circuit()
    return transient(ckt, t_stop, TransientOptions(dt_max=dt_max))


def dense_window(dense, segment):
    """The slice of a dense record that ``segment`` covers."""
    start = int(np.nonzero(dense.time == segment.time[0])[0][0])
    return slice(start, start + len(segment))


def edge_session(probes=(Probe("out"),)):
    return ScopeSession(probes=list(probes),
                        trigger=EdgeTrigger("out", level=0.5),
                        pre_samples=8, post_samples=16)


class TestProbes:
    def test_default_name_is_the_node(self):
        assert Probe("out").name == "out"

    def test_differential_name(self):
        assert Probe("outp", "outn").name == "outp-outn"

    def test_label_wins(self):
        assert Probe("outp", "outn", label="y").name == "y"

    def test_string_probe_is_promoted(self):
        session = edge_session(probes=["out"])
        assert session.signal_names == ("out",)

    def test_duplicate_names_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            edge_session(probes=[Probe("out"), Probe("out")])

    def test_unknown_node_rejected_at_bind(self):
        session = edge_session(probes=[Probe("out"), Probe("nope")])
        with pytest.raises(AnalysisError, match="nope"):
            run_scoped(session)

    def test_ground_referenced_probe_equals_node_voltage(self):
        session = edge_session(probes=[Probe("out", "gnd")])
        run_scoped(session)
        dense = run_dense()
        seg = session.segment()
        assert np.array_equal(seg.signal("out"),
                              dense.voltage("out")[dense_window(dense, seg)])

    def test_differential_probe_matches_vdiff(self):
        session = edge_session(
            probes=[Probe("out"), Probe("in", "out", label="vr")])
        run_scoped(session)
        dense = run_dense()
        seg = session.segment()
        assert np.array_equal(
            seg.signal("vr"),
            dense.vdiff("in", "out")[dense_window(dense, seg)])


class TestTriggeredCapture:
    def test_window_is_a_bitwise_slice_of_dense(self):
        """The tentpole contract: a triggered window is np.array_equal
        to the corresponding slice of the dense record of an unscoped
        run of the same circuit and options."""
        session = edge_session(probes=[Probe("out"), Probe("in")])
        run_scoped(session)
        dense = run_dense()
        seg = session.segment()
        assert len(seg) == 8 + 1 + 16
        window = dense_window(dense, seg)
        assert np.array_equal(seg.time, dense.time[window])
        assert np.array_equal(seg.signal("out"),
                              dense.voltage("out")[window])
        assert np.array_equal(seg.signal("in"),
                              dense.voltage("in")[window])

    def test_trigger_sample_is_first_at_or_above_level(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=4, post_samples=4)
        run_scoped(session)
        seg = session.segment()
        out = seg.signal("out")
        k = seg.trigger_index
        assert seg.time[k] == seg.trigger_time
        assert out[k] >= 0.5
        assert out[k - 1] < 0.5

    def test_short_pre_history_yields_partial_pre_window(self):
        """Triggering before pre_samples samples exist keeps what there
        is instead of padding."""
        session = ScopeSession(probes=[Probe("in")],
                               trigger=EdgeTrigger("in", 0.5),
                               pre_samples=500, post_samples=4)
        run_scoped(session)
        seg = session.segment()
        assert 0 < len(seg) < 500 + 1 + 4
        assert seg.trigger_index < 500

    def test_run_ending_mid_window_keeps_partial_segment(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=2, post_samples=10_000)
        result = run_scoped(session)
        seg = session.segment()
        assert len(seg) < 2 + 1 + 10_000
        assert seg.time[-1] == result.time[-1] == pytest.approx(
            10e-6, rel=1e-12)

    def test_single_mode_stops_after_one_window(self):
        """Ten rising edges in the run: the window is the first one's,
        and the run ends where it closes."""
        ckt = Circuit("sine")
        ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, 1e6))
        ckt.add_resistor("R1", "in", "0", 1e3)
        session = ScopeSession(probes=[Probe("in")],
                               trigger=EdgeTrigger("in", level=0.0),
                               pre_samples=2, post_samples=2)
        result = run_scoped(session, t_stop=10e-6, dt_max=1e-8,
                            circuit=ckt)
        seg = session.segment()
        assert len(seg) == 2 + 1 + 2
        assert seg.trigger_time == pytest.approx(1e-6, abs=1e-8)
        assert result.time[-1] == seg.time[-1] < 1.1e-6

    def test_memory_is_bounded_by_the_window_not_the_run(self):
        """O(window) vs O(steps): quadrupling the run length must not
        grow the session's waveform memory once the window closed."""
        footprints = []
        for t_stop in (10e-6, 40e-6):
            session = edge_session()
            run_scoped(session, t_stop=t_stop)
            footprints.append(session.memory_bytes())
        assert footprints[0] == footprints[1]

    def test_falling_edge_trigger(self):
        ckt = Circuit("fall")
        ckt.add_vsource("V1", "in", "0", step_wave(1.0, 0.0, 1e-6))
        ckt.add_resistor("R1", "in", "out", 1e6)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5,
                                                   direction="falling"),
                               pre_samples=2, post_samples=2)
        run_scoped(session, circuit=ckt)
        seg = session.segment()
        k = seg.trigger_index
        assert seg.signal("out")[k] <= 0.5 < seg.signal("out")[k - 1]

    def test_a_trigger_reused_by_a_second_session_starts_fresh(self):
        """The first run ends above the level; the second session's
        t = 0 sample lies below it, which is no falling crossing."""
        trigger = EdgeTrigger("out", level=0.5, direction="either")
        first = ScopeSession([Probe("out")], trigger, pre_samples=4,
                             post_samples=4)
        run_scoped(first)
        second = ScopeSession([Probe("out")], trigger, pre_samples=4,
                              post_samples=4)
        run_scoped(second)
        assert second.segment().trigger_time == \
            first.segment().trigger_time > 0.0

    def test_trigger_on_unknown_signal_rejected(self):
        with pytest.raises(AnalysisError, match="not a probe"):
            ScopeSession(probes=[Probe("out")],
                         trigger=EdgeTrigger("nope", level=0.5))

    def test_untriggered_session_has_no_segment(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=99.0))
        result = run_scoped(session)
        assert result.time[-1] == pytest.approx(10e-6, rel=1e-12)
        with pytest.raises(AnalysisError, match="trigger never fired"):
            session.segment()


class TestReplaceDense:
    def test_tran_result_carries_no_waveforms(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5))
        result = run_scoped(session)
        assert result.voltages == {}
        assert result.time.size > 0
        assert result.telemetry is not None

    def test_capture_matches_a_separate_dense_run(self):
        """Same circuit, same options: the window must be bitwise equal
        to the dense run's slice (determinism + fidelity in one
        assertion)."""
        session = edge_session()
        run_scoped(session)
        dense = run_dense()
        seg = session.segment()
        assert np.array_equal(seg.signal("out"),
                              dense.voltage("out")[dense_window(dense, seg)])


class TestCompleteCaptureEndsTheRun:
    """A session whose window closed leaves the run without an
    observer, so the engine stops on the closing sample; a run whose
    window is still open integrates to t_stop."""

    def test_single_shot_run_ends_on_its_closing_sample(self):
        session = edge_session()
        with telemetry.tracing("capture-ends-run") as trace:
            result = run_scoped(session)
        dense = run_dense()
        seg = session.segment()
        assert result.time[-1] == seg.time[-1]
        assert result.time[-1] < 0.5 * dense.time[-1]
        assert dense.time[-1] == pytest.approx(10e-6, rel=1e-12)
        assert result.telemetry.steps_accepted == session.samples_seen - 1
        # Every step up to the close is the full run's, so the window is
        # the dense run's slice, bit for bit.
        assert np.array_equal(result.time, dense.time[:result.time.size])
        window = dense_window(dense, seg)
        assert np.array_equal(seg.time, dense.time[window])
        assert np.array_equal(seg.signal("out"),
                              dense.voltage("out")[window])
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == [{
            "kind": "capture-complete", "t": result.time[-1],
            "t_stop": 10e-6, "steps": result.telemetry.steps_accepted}]
        assert span.attrs["t_end"] == result.time[-1]
        assert span.attrs["steps_accepted"] == \
            result.telemetry.steps_accepted

    def test_window_closing_on_its_trigger_sample_ends_the_run(self):
        """With no post-trigger samples the trigger sample closes the
        window, and the run takes no step after it."""
        session = edge_session()
        run_scoped(session)
        closing = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=4, post_samples=0)
        with telemetry.tracing("close-on-trigger") as trace:
            result = run_scoped(closing)
        seg = closing.segment()
        trigger_time = session.segment().trigger_time
        assert seg.trigger_time == seg.time[-1] == trigger_time
        assert seg.trigger_index == len(seg) - 1 == 4
        assert result.time[-1] == trigger_time
        assert result.telemetry.steps_accepted == closing.samples_seen - 1
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == [{
            "kind": "capture-complete", "t": trigger_time,
            "t_stop": 10e-6, "steps": result.telemetry.steps_accepted}]

    @pytest.mark.parametrize("name", ["never-fires", "window-open"])
    def test_a_run_with_an_observer_left_reaches_t_stop(self, name):
        session = {
            "never-fires": lambda: ScopeSession(
                probes=[Probe("out")],
                trigger=EdgeTrigger("out", level=99.0)),
            # The window wants more samples than the run commits.
            "window-open": lambda: ScopeSession(
                probes=[Probe("out")],
                trigger=EdgeTrigger("out", level=0.5),
                pre_samples=8, post_samples=10_000),
        }[name]()
        with telemetry.tracing("observed") as trace:
            result = run_scoped(session)
        plain = run_dense()
        assert np.array_equal(result.time, plain.time)
        assert session.samples_seen == plain.time.size
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == []
        assert "t_end" not in span.attrs


class TestSessionLifecycle:
    def test_reuse_without_reset_rejected(self):
        session = edge_session()
        run_scoped(session)
        with pytest.raises(AnalysisError, match="already captured a run"):
            run_scoped(session)

    def test_validation(self):
        trigger = EdgeTrigger("a", level=0.5)
        with pytest.raises(AnalysisError, match="at least one probe"):
            ScopeSession(probes=[], trigger=trigger)
        with pytest.raises(AnalysisError, match="pre_samples"):
            ScopeSession(probes=[Probe("a")], trigger=trigger,
                         pre_samples=-1)
        with pytest.raises(AnalysisError, match="direction"):
            EdgeTrigger("a", level=0.5, direction="up")

    def test_segment_signal_lookup_error(self):
        session = edge_session()
        run_scoped(session)
        with pytest.raises(AnalysisError, match="no captured signal"):
            session.segment().signal("nope")


class TestTelemetryCounters:
    def test_capture_counters_reach_the_active_span(self):
        from repro import telemetry

        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=4, post_samples=4)
        with telemetry.tracing("scope-test") as trace:
            run_scoped(session)
        counters = trace.total_counters()
        assert counters["scope_samples_seen"] == session.samples_seen
        assert counters["scope_samples_stored"] == session.samples_stored
        assert counters["scope_triggers"] == 1
        # The run ends on the window's last sample, and every sample
        # offered before it went to the ring or the post window.
        assert session.samples_stored == session.samples_seen

    def test_sample_check_reports_a_drifted_counter(self):
        """The session saw t = 0 and every committed step of a run its
        capture ended early; a step counted but never offered to it
        breaks the identity."""
        from repro.telemetry.invariants import (scope_sample_violations,
                                                violations)

        with telemetry.tracing("scope-drift") as trace:
            run_scoped(edge_session())
        assert violations(trace) == []
        span = trace.root.find("transient")
        seen = span.counter("scope_samples_seen")
        span.inc("transient_steps_accepted")
        [message] = scope_sample_violations(trace)
        assert message == (
            f"transient span of 'rc': scope_samples_seen is {seen}, "
            f"expected transient_steps_accepted + 1 = {seen + 1}")
        assert violations(trace) == [message]
