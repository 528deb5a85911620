"""Unit tests for the VCD writer and reader (repro.scope.vcd)."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.scope.vcd import (
    FLOOR_TIMESCALE,
    TIMESCALES,
    VcdWriter,
    exact_timescale,
    identifier,
    parse_vcd,
    timescale_seconds,
)


class TestIdentifier:
    def test_first_identifiers_are_single_chars(self):
        assert identifier(0) == "a"
        assert identifier(1) == "b"
        assert identifier(25) == "z"

    def test_identifiers_are_unique(self):
        ids = [identifier(k) for k in range(500)]
        assert len(set(ids)) == 500

    def test_negative_rejected(self):
        with pytest.raises(AnalysisError):
            identifier(-1)


class TestExactTimescale:
    def test_integer_nanoseconds(self):
        assert exact_timescale([1e-9, 5e-9]) == ("1ns", 1e-9)

    def test_half_nanosecond_picks_100ps(self):
        """The headline fix: 0.5 ns must not round to 1ns."""
        assert exact_timescale([0.5e-9]) == ("100ps", 1e-10)

    def test_769_picoseconds(self):
        assert exact_timescale([769e-12]) == ("1ps", 1e-12)

    def test_coarsest_wins(self):
        assert exact_timescale([2e-6, 10e-6]) == ("1us", 1e-6)
        assert exact_timescale([20e-6, 60e-6]) == ("10us", 1e-5)

    def test_mixed_times_need_the_finer_scale(self):
        label, scale = exact_timescale([1e-6, 1.5e-6])
        assert label == "100ns"

    def test_irregular_floats_fall_back_to_the_fs_floor(self):
        times = [0.0, 1.2345678901234e-7, 3.3219280948874e-7]
        assert exact_timescale(times) == FLOOR_TIMESCALE

    def test_all_zero_is_coarsest(self):
        assert exact_timescale([0.0]) == ("1s", 1.0)

    def test_nonzero_time_never_collapses_to_tick_zero(self):
        """A nonzero time must keep >= 1 tick at the chosen scale --
        otherwise the event would vanish from the dump."""
        for t in (0.5e-9, 3e-15, 1e-12):
            label, scale = exact_timescale([t])
            assert round(t / scale) >= 1

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError, match="non-finite"):
            exact_timescale([float("nan")])
        with pytest.raises(AnalysisError, match="negative"):
            exact_timescale([-1e-9])

    def test_table_is_coarse_to_fine_and_label_consistent(self):
        scales = [s for _label, s in TIMESCALES]
        assert scales == sorted(scales, reverse=True)
        for label, scale in TIMESCALES:
            assert timescale_seconds(label) == scale

    def test_unknown_label_rejected(self):
        with pytest.raises(AnalysisError, match="timescale"):
            timescale_seconds("2ns")


class TestWriterRoundTrip:
    def test_real_values_round_trip_exactly(self):
        """repr-based serialisation: float -> text -> float is the
        identity (the same guarantee the capture layer's bitwise
        contract needs end to end)."""
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789e-9,
                  float(np.float64(np.pi))]
        writer = VcdWriter("1ns")
        v = writer.add_real("v")
        for k, value in enumerate(values):
            writer.change(k, v, value)
        document = parse_vcd(writer.render())
        assert [x for _t, x in document.values_of("v")] == values

    def test_unchanged_values_are_deduplicated(self):
        writer = VcdWriter("1ns")
        w = writer.add_real("w", scope="analog")
        for ticks in range(5):
            writer.change(ticks, w, 0.25)
        writer.change(5, w, 0.5)
        document = parse_vcd(writer.render())
        assert document.variables[w] == ("analog", "real", "w")
        assert document.values_of("w") == [(0, 0.25), (5, 0.5)]

    def test_decreasing_time_rejected(self):
        writer = VcdWriter("1ns")
        w = writer.add_real("w")
        writer.change(5, w, 1.0)
        with pytest.raises(AnalysisError, match="non-decreasing"):
            writer.change(4, w, 0.0)

    def test_undeclared_identifier_rejected(self):
        writer = VcdWriter("1ns")
        with pytest.raises(AnalysisError, match="undeclared"):
            writer.change(0, "z", 1.0)

    def test_bad_timescale_rejected_at_construction(self):
        with pytest.raises(AnalysisError, match="timescale"):
            VcdWriter("2ns")

    def test_stream_argument_receives_the_text(self):
        import io

        writer = VcdWriter("1ns")
        w = writer.add_real("w")
        writer.change(0, w, 1.0)
        stream = io.StringIO()
        text = writer.render(stream)
        assert stream.getvalue() == text

    def test_parser_reads_scalar_and_vector_changes(self):
        """Dumps from other tools carry wires and buses."""
        text = ("$timescale 10ns $end\n$scope module top $end\n"
                "$var wire 1 a clk $end\n$var wire 4 b bus $end\n"
                "$upscope $end\n$enddefinitions $end\n"
                "#0\n0a\nb101 b\n#3\n1a\n#7\n")
        document = parse_vcd(text)
        assert document.variables["b"] == ("top", "wire", "bus")
        assert document.values_of("clk") == [(0, 0), (3, 1)]
        assert document.values_of("bus") == [(0, 5)]
        assert document.end_ticks == 7

    def test_parser_rejects_backwards_timestamps(self):
        text = ("$timescale 1ns $end\n$var wire 1 a w $end\n"
                "$enddefinitions $end\n#5\n1a\n#4\n0a\n")
        with pytest.raises(AnalysisError, match="backwards"):
            parse_vcd(text)

    def test_parser_rejects_undeclared_change(self):
        text = ("$timescale 1ns $end\n$var wire 1 a w $end\n"
                "$enddefinitions $end\n#0\n1b\n")
        with pytest.raises(AnalysisError, match="undeclared"):
            parse_vcd(text)

    def test_parser_requires_a_timescale(self):
        with pytest.raises(AnalysisError, match="timescale"):
            parse_vcd("$enddefinitions $end\n#0\n")


class TestSegmentExport:
    def test_capture_segment_to_vcd_round_trips(self):
        from repro.scope.capture import CaptureSegment

        time = np.array([0.0, 1e-9, 2e-9, 3e-9])
        values = np.array([[0.0, 0.5, 1.0, 1.0],
                           [1.0, 0.5, 0.0, 0.0]])
        segment = CaptureSegment(signals=("a", "b"), time=time,
                                 values=values)
        document = parse_vcd(segment.to_vcd(scope="test"))
        assert document.timescale == "1ns"
        assert document.values_of("a") == [(0, 0.0), (1, 0.5), (2, 1.0)]
        assert document.values_of("b") == [(0, 1.0), (1, 0.5), (2, 0.0)]

    def test_tick_collisions_are_nudged_not_reordered(self):
        from repro.scope.capture import CaptureSegment

        # Two samples 1 fs apart collapse onto one tick at any scale
        # coarser than the floor; the writer must keep strict order.
        time = np.array([0.0, 1e-15, 2e-9])
        values = np.array([[0.0, 0.5, 1.0]])
        segment = CaptureSegment(signals=("a",), time=time,
                                 values=values)
        document = parse_vcd(segment.to_vcd(timescale="1ns"))
        ticks = [t for t, _v in document.values_of("a")]
        assert ticks == sorted(set(ticks))
        assert len(ticks) == 3

    def test_empty_segment_rejected(self):
        from repro.scope.capture import CaptureSegment

        segment = CaptureSegment(signals=("a",), time=np.empty(0),
                                 values=np.empty((1, 0)))
        with pytest.raises(AnalysisError, match="empty"):
            segment.to_vcd()
