"""Unit tests for the streaming capture layer (repro.scope.capture)."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import AnalysisError
from repro.scope import (
    EdgeTrigger,
    ExpressionTrigger,
    LevelTrigger,
    PeakDetect,
    Probe,
    ScopeSession,
    Stride,
)
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


class TestProbes:
    def test_default_name_is_the_node(self):
        assert Probe("out").name == "out"

    def test_differential_name(self):
        assert Probe("outp", "outn").name == "outp-outn"

    def test_label_wins(self):
        assert Probe("outp", "outn", label="y").name == "y"

    def test_string_probe_is_promoted(self):
        session = ScopeSession(probes=["out"])
        assert session.signal_names == ("out",)

    def test_duplicate_names_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):
            ScopeSession(probes=[Probe("a"), Probe("a")])

    def test_unknown_node_rejected_at_bind(self):
        session = ScopeSession(probes=[Probe("nope")])
        with pytest.raises(AnalysisError, match="nope"):
            run_scoped(session)

    def test_ground_referenced_probe_equals_node_voltage(self):
        session = ScopeSession(probes=[Probe("out", "gnd")])
        result = run_scoped(session)
        seg = session.segment()
        assert np.array_equal(seg.signal("out"), result.voltage("out"))


class TestStreamingMode:
    """trigger=None: one segment covering every committed sample."""

    def test_stream_equals_dense_record_bitwise(self):
        session = ScopeSession(probes=[Probe("out"), Probe("in")])
        result = run_scoped(session)
        seg = session.segment()
        assert seg.trigger_time is None
        assert seg.trigger_index is None
        assert np.array_equal(seg.time, result.time)
        assert np.array_equal(seg.signal("out"), result.voltage("out"))
        assert np.array_equal(seg.signal("in"), result.voltage("in"))

    def test_differential_probe_matches_vdiff(self):
        session = ScopeSession(probes=[Probe("in", "out", label="vr")])
        result = run_scoped(session)
        assert np.array_equal(session.segment().signal("vr"),
                              result.vdiff("in", "out"))

    def test_counters(self):
        session = ScopeSession(probes=[Probe("out")])
        result = run_scoped(session)
        assert session.samples_seen == result.time.size
        assert session.samples_stored == result.time.size


class TestTriggeredCapture:
    def test_window_is_a_bitwise_slice_of_dense(self):
        """The tentpole contract: an undecimated triggered window is
        np.array_equal to the corresponding slice of the dense record
        of the same run."""
        session = ScopeSession(
            probes=[Probe("out"), Probe("in")],
            trigger=EdgeTrigger("out", level=0.5),
            pre_samples=8, post_samples=16)
        result = run_scoped(session)
        assert session.triggered
        seg = session.segment()
        assert len(seg) == 8 + 1 + 16
        start = int(np.nonzero(result.time == seg.time[0])[0][0])
        window = slice(start, start + len(seg))
        assert np.array_equal(seg.time, result.time[window])
        assert np.array_equal(seg.signal("out"),
                              result.voltage("out")[window])
        assert np.array_equal(seg.signal("in"),
                              result.voltage("in")[window])

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
                               trigger=LevelTrigger("in", 0.5),
                               pre_samples=500, post_samples=4)
        run_scoped(session)
        seg = session.segment()
        assert 0 < len(seg) < 500 + 1 + 4
        assert seg.trigger_index < 500

    def test_run_ending_mid_window_keeps_partial_segment(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=2, post_samples=10_000)
        run_scoped(session)
        seg = session.segment()
        assert session.triggered
        assert len(seg) < 2 + 1 + 10_000

    def test_single_mode_stops_after_one_window(self):
        ckt = Circuit("sine")
        ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, 1e6))
        ckt.add_resistor("R1", "in", "0", 1e3)
        session = ScopeSession(probes=[Probe("in")],
                               trigger=EdgeTrigger("in", level=0.0),
                               pre_samples=2, post_samples=2)
        run_scoped(session, t_stop=10e-6, dt_max=1e-8, circuit=ckt)
        assert len(session.segments) == 1

    def test_normal_mode_rearms_until_max_segments(self):
        ckt = Circuit("sine")
        ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, 1e6))
        ckt.add_resistor("R1", "in", "0", 1e3)
        session = ScopeSession(probes=[Probe("in")],
                               trigger=EdgeTrigger("in", level=0.0),
                               pre_samples=2, post_samples=2,
                               mode="normal", max_segments=3)
        run_scoped(session, t_stop=10e-6, dt_max=1e-8, circuit=ckt)
        assert len(session.segments) == 3
        starts = [seg.trigger_time for seg in session.segments]
        assert starts == sorted(starts)

    def test_memory_is_bounded_by_the_window_not_the_run(self):
        """O(window) vs O(steps): quadrupling the run length must not
        grow the session's waveform memory once the window closed."""
        footprints = []
        for t_stop in (10e-6, 40e-6):
            session = ScopeSession(probes=[Probe("out")],
                                   trigger=EdgeTrigger("out", level=0.5),
                                   pre_samples=8, post_samples=16,
                                   replace_dense=True)
            run_scoped(session, t_stop=t_stop)
            footprints.append(session.memory_bytes())
        assert footprints[0] == footprints[1]

    def test_expression_trigger(self):
        session = ScopeSession(
            probes=[Probe("out"), Probe("in")],
            trigger=ExpressionTrigger(
                lambda v: v["in"] > 0.5 and v["out"] > 0.25),
            pre_samples=4, post_samples=4)
        run_scoped(session)
        seg = session.segment()
        k = seg.trigger_index
        assert seg.signal("in")[k] > 0.5
        assert seg.signal("out")[k] > 0.25
        assert seg.signal("out")[k - 1] <= 0.25

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

    def test_trigger_on_unknown_signal_rejected(self):
        with pytest.raises(AnalysisError, match="not a probe"):
            ScopeSession(probes=[Probe("out")],
                         trigger=EdgeTrigger("nope", level=0.5))

    def test_untriggered_session_has_no_segment(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=99.0))
        run_scoped(session)
        assert not session.triggered
        with pytest.raises(AnalysisError, match="trigger never fired"):
            session.segment()


class TestReplaceDense:
    def test_tran_result_carries_no_waveforms(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               replace_dense=True)
        result = run_scoped(session)
        assert result.voltages == {}
        assert result.time.size > 0
        assert result.telemetry is not None

    def test_capture_matches_a_separate_dense_run(self):
        """Same circuit, same options: the replace_dense window must be
        bitwise equal to the dense run's slice (determinism + fidelity
        in one assertion)."""
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=8, post_samples=16,
                               replace_dense=True)
        run_scoped(session)
        dense = transient(rc_circuit(), 10e-6,
                          TransientOptions(dt_max=1e-7))
        seg = session.segment()
        start = int(np.nonzero(dense.time == seg.time[0])[0][0])
        window = slice(start, start + len(seg))
        assert np.array_equal(seg.signal("out"),
                              dense.voltage("out")[window])


def sine_circuit():
    ckt = Circuit("sine")
    ckt.add_vsource("V1", "in", "0", sine_wave(0.0, 1.0, 1e6))
    ckt.add_resistor("R1", "in", "0", 1e3)
    return ckt


def edge_session(**kwargs):
    return ScopeSession(probes=[Probe("out")],
                        trigger=EdgeTrigger("out", level=0.5),
                        pre_samples=8, post_samples=16, **kwargs)


class TestCompleteCaptureEndsTheRun:
    """A replace_dense session that takes no further window leaves the
    run without an observer, so the engine stops on the closing
    sample; every other run still integrates to t_stop."""

    def test_single_shot_run_ends_on_its_closing_sample(self):
        session = edge_session(replace_dense=True)
        with telemetry.tracing("capture-ends-run") as trace:
            result = run_scoped(session)
        twin = edge_session()
        dense = run_scoped(twin)
        seg = session.segment()
        assert result.time[-1] == seg.time[-1]
        assert result.time[-1] < 0.5 * dense.time[-1]
        assert dense.time[-1] == pytest.approx(10e-6, rel=1e-12)
        assert result.telemetry.steps_accepted == session.samples_seen - 1
        # Every step up to the close is the full run's, so the window is
        # the dense twin's, bit for bit.
        assert np.array_equal(result.time, dense.time[:result.time.size])
        assert np.array_equal(seg.time, twin.segment().time)
        assert np.array_equal(seg.values, twin.segment().values)
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == [{
            "kind": "capture-complete", "t": result.time[-1],
            "t_stop": 10e-6, "steps": result.telemetry.steps_accepted}]
        assert span.attrs["t_end"] == result.time[-1]
        assert span.attrs["steps_accepted"] == \
            result.telemetry.steps_accepted

    def test_window_closing_on_the_first_sample_takes_no_step(self):
        session = ScopeSession(probes=[Probe("in")],
                               trigger=LevelTrigger("in", level=-1.0),
                               pre_samples=4, post_samples=0,
                               replace_dense=True)
        with telemetry.tracing("no-step") as trace:
            result = run_scoped(session)
        assert np.array_equal(result.time, [0.0])
        assert result.telemetry.steps_accepted == 0
        assert session.samples_seen == 1
        assert np.array_equal(session.segment().time, [0.0])
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == [{
            "kind": "capture-complete", "t": 0.0, "t_stop": 10e-6,
            "steps": 0}]
        assert span.counter("transient_steps_accepted") == 0
        assert span.counter("transient_steps_rejected") == 0

    def test_normal_mode_ends_once_max_segments_are_taken(self):
        def session(replace_dense):
            return ScopeSession(probes=[Probe("in")],
                                trigger=EdgeTrigger("in", level=0.0),
                                pre_samples=2, post_samples=2,
                                mode="normal", max_segments=3,
                                replace_dense=replace_dense)

        capture, twin = session(True), session(False)
        result = run_scoped(capture, dt_max=1e-8, circuit=sine_circuit())
        dense = run_scoped(twin, dt_max=1e-8, circuit=sine_circuit())
        assert len(capture.segments) == len(twin.segments) == 3
        assert result.time[-1] == capture.segments[-1].time[-1]
        assert result.time[-1] < 0.5 * dense.time[-1]
        for mine, theirs in zip(capture.segments, twin.segments):
            assert np.array_equal(mine.time, theirs.time)
            assert np.array_equal(mine.values, theirs.values)

    @pytest.mark.parametrize("name", [
        "dense-record", "streaming", "never-fires", "normal-rearmed"])
    def test_a_run_with_an_observer_left_reaches_t_stop(self, name):
        session = {
            "dense-record": lambda: edge_session(),
            "streaming": lambda: ScopeSession(probes=[Probe("out")],
                                              replace_dense=True),
            "never-fires": lambda: ScopeSession(
                probes=[Probe("out")],
                trigger=EdgeTrigger("out", level=99.0),
                replace_dense=True),
            # The RC output crosses 0.5 V once: the re-armed trigger
            # waits for a second edge until t_stop.
            "normal-rearmed": lambda: edge_session(
                mode="normal", max_segments=2, replace_dense=True),
        }[name]()
        with telemetry.tracing("observed") as trace:
            result = run_scoped(session)
        plain = transient(rc_circuit(), 10e-6,
                          TransientOptions(dt_max=1e-7))
        assert np.array_equal(result.time, plain.time)
        assert session.samples_seen == plain.time.size
        span = trace.root.find("transient")
        assert span.events_of("capture-complete") == []
        assert "t_end" not in span.attrs


class TestDecimation:
    def test_stride_keeps_every_nth_stream_sample(self):
        full = ScopeSession(probes=[Probe("out")])
        run_scoped(full)
        strided = ScopeSession(probes=[Probe("out")],
                               decimation=Stride(4))
        run_scoped(strided)
        reference = full.segment()
        seg = strided.segment()
        assert np.array_equal(seg.time, reference.time[::4])
        assert np.array_equal(seg.signal("out"),
                              reference.signal("out")[::4])

    def test_stride_validates(self):
        with pytest.raises(AnalysisError, match="stride"):
            Stride(0)

    def test_peak_detect_envelope_bounds_the_block(self):
        full = ScopeSession(probes=[Probe("out")])
        run_scoped(full)
        peaks = ScopeSession(probes=[Probe("out")],
                             decimation=PeakDetect(8))
        run_scoped(peaks)
        reference = full.segment().signal("out")
        seg = peaks.segment()
        # Two samples (min at block start, max at block end) per block.
        n_blocks = int(np.ceil(reference.size / 8))
        assert len(seg) == 2 * n_blocks
        values = seg.signal("out")
        for block in range(reference.size // 8):
            chunk = reference[8 * block:8 * (block + 1)]
            assert values[2 * block] == chunk.min()
            assert values[2 * block + 1] == chunk.max()

    def test_peak_detect_validates(self):
        with pytest.raises(AnalysisError, match="peak-detect"):
            PeakDetect(1)

    def test_trigger_and_post_window_stay_undecimated(self):
        """Decimation applies to the pre-trigger history only; the
        trigger sample and post window are stored at full rate."""
        decimated = ScopeSession(probes=[Probe("out")],
                                 trigger=EdgeTrigger("out", level=0.5),
                                 pre_samples=8, post_samples=16,
                                 decimation=Stride(4))
        result = run_scoped(decimated)
        seg = decimated.segment()
        k = seg.trigger_index
        post = seg.signal("out")[k:]
        start = int(np.nonzero(result.time == seg.time[k])[0][0])
        assert np.array_equal(post,
                              result.voltage("out")[start:start + 17])
        # Pre-trigger spacing is ~4x the post-trigger spacing.
        pre_dt = np.diff(seg.time[:k]).mean()
        post_dt = np.diff(seg.time[k:]).mean()
        assert pre_dt > 2.5 * post_dt


class TestSessionLifecycle:
    def test_reuse_without_reset_rejected(self):
        session = ScopeSession(probes=[Probe("out")])
        run_scoped(session)
        with pytest.raises(AnalysisError, match="reset"):
            run_scoped(session)

    def test_reset_allows_a_second_run(self):
        session = ScopeSession(probes=[Probe("out")],
                               trigger=EdgeTrigger("out", level=0.5),
                               pre_samples=4, post_samples=4)
        run_scoped(session)
        first = session.segment()
        session.reset()
        run_scoped(session)
        second = session.segment()
        assert np.array_equal(first.time, second.time)
        assert np.array_equal(first.signal("out"), second.signal("out"))

    def test_validation(self):
        with pytest.raises(AnalysisError, match="at least one probe"):
            ScopeSession(probes=[])
        with pytest.raises(AnalysisError, match="mode"):
            ScopeSession(probes=[Probe("a")], mode="auto")
        with pytest.raises(AnalysisError, match="pre_samples"):
            ScopeSession(probes=[Probe("a")], pre_samples=-1)
        with pytest.raises(AnalysisError, match="max_segments"):
            ScopeSession(probes=[Probe("a")], max_segments=0)

    def test_segment_signal_lookup_error(self):
        session = ScopeSession(probes=[Probe("out")])
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
        assert session.samples_stored < session.samples_seen

    def test_sample_check_reports_a_drifted_counter(self):
        """The session saw t = 0 and every committed step of a run its
        capture ended early; a step counted but never offered to it
        breaks the identity."""
        from repro.telemetry.invariants import (scope_sample_violations,
                                                violations)

        with telemetry.tracing("scope-drift") as trace:
            run_scoped(edge_session(replace_dense=True))
        assert violations(trace) == []
        span = trace.root.find("transient")
        seen = span.counter("scope_samples_seen")
        span.inc("transient_steps_accepted")
        [message] = scope_sample_violations(trace)
        assert message == (
            f"transient span of 'rc': scope_samples_seen is {seen}, "
            f"expected transient_steps_accepted + 1 = {seen + 1}")
        assert violations(trace) == [message]


class TestClone:
    def test_clone_is_fresh_and_shares_no_trigger_state(self):
        """The batched engine replicates one plan into per-lane
        sessions; a clone must be usable while the original is spent,
        and arming the clone must not arm the original's trigger."""
        proto = ScopeSession(probes=[Probe("out")],
                             trigger=EdgeTrigger("out", level=0.5),
                             pre_samples=4, post_samples=4)
        run_scoped(proto)
        clone = proto.clone()
        run_scoped(clone)  # the spent proto would raise here
        assert np.array_equal(proto.segment().time,
                              clone.segment().time)
        assert np.array_equal(proto.segment().signal("out"),
                              clone.segment().signal("out"))
        with pytest.raises(AnalysisError, match="reset"):
            run_scoped(proto)

    def test_clone_copies_the_full_plan(self):
        proto = ScopeSession(probes=[Probe("out")],
                             trigger=EdgeTrigger("out", level=0.5),
                             pre_samples=8, post_samples=2,
                             mode="single", max_segments=3)
        clone = proto.clone()
        assert clone.pre_samples == proto.pre_samples
        assert clone.post_samples == proto.post_samples
        assert clone.mode == proto.mode
        assert clone.max_segments == proto.max_segments
        assert clone.trigger is not proto.trigger
