"""Lockstep batched transient: equivalence, LTE min-rule, serial reruns.

The contract under test: :func:`batch_transient` over B lanes on a
*fixed* shared grid is numerically indistinguishable (max deviation
far inside 1e-9) from B serial :func:`transient` calls with the lane
perturbation applied; on adaptive grids the shared step obeys the
min-rule over per-lane LTE, and lanes that cannot live on the shared
grid are kicked out to a serial rerun with recorded reasons.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.devices.diode import Diode, DiodeParameters
from repro.errors import AnalysisError, ConvergenceError, NetlistError
from repro.spice import (
    Circuit,
    LaneSpec,
    NewtonOptions,
    TransientOptions,
    apply_lane,
    batch_transient,
    pulse_wave,
    transient,
)
import repro.spice.batch as batch_module
from repro.spice.batch import BatchedTranMetric
from repro.telemetry.invariants import lane_sample_violations

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16, cj0=1e-12))

T_STOP = 8e-6


def pulse_rc_diode() -> Circuit:
    """Pulse through RC with a diode clamp: nonlinear + dynamic."""
    circuit = Circuit("batch_tran")
    circuit.add_vsource("V1", "in", "0",
                        waveform=pulse_wave(0.0, 1.0, 1e-6, 1e-7, 1e-7,
                                            2e-6, 4e-6))
    circuit.add_resistor("RS", "in", "a", 1e3)
    circuit.add_capacitor("C1", "a", "0", 1e-9)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


def resistor_lanes(factors) -> list[LaneSpec]:
    return [LaneSpec(resistor_scale=(("RS", float(f)),), label=f"{f:g}")
            for f in factors]


def fixed_grid(n_steps: int = 400) -> TransientOptions:
    dt = T_STOP / n_steps
    return TransientOptions(dt_initial=dt, dt_min=dt, dt_max=dt)


class TestFixedGridEquivalence:
    @pytest.mark.parametrize("matrix_backend", ["dense", "sparse"])
    def test_matches_serial_within_1e9(self, matrix_backend):
        circuit = pulse_rc_diode()
        circuit.matrix_backend = matrix_backend
        lanes = resistor_lanes([0.5, 1.0, 2.0, 4.0])
        batch = batch_transient(circuit, lanes, T_STOP, fixed_grid())
        assert batch.n_failed == 0
        for lane, result in zip(lanes, batch.results):
            undo = apply_lane(circuit, lane)
            try:
                serial = transient(circuit, T_STOP, fixed_grid())
            finally:
                undo()
            assert np.array_equal(result.time, serial.time)
            for node in ("in", "a"):
                dev = np.abs(result.voltage(node)
                             - serial.voltage(node)).max()
                assert dev < 1e-9, (lane.label, node, dev)

    def test_single_lane_campaign(self):
        batch = batch_transient(pulse_rc_diode(), [LaneSpec()], T_STOP,
                                fixed_grid(100))
        assert batch.n_failed == 0
        # Breakpoints at the pulse edges ride on top of the fixed grid.
        assert len(batch.results[0].time) >= 101
        assert batch.results[0].time[-1] == pytest.approx(T_STOP)


class TestAdaptiveGrid:
    def test_lte_min_rule_shrinks_shared_grid(self):
        """A stiff lane (tiny RC, fast edges) forces the *shared* step
        down: the lockstep run over {nominal, stiff} takes more steps
        than nominal alone, and the stiff lane's rejections are
        attributed to it in the diagnostics."""
        circuit = pulse_rc_diode()
        options = TransientOptions()
        solo = batch_transient(circuit, resistor_lanes([1.0]), T_STOP,
                               options)
        both = batch_transient(circuit, resistor_lanes([1.0, 0.01]),
                               T_STOP, options)
        assert both.n_failed == 0
        assert not both.diagnostics.fallback_lanes
        assert (both.diagnostics.steps_accepted
                > solo.diagnostics.steps_accepted)
        # Both lanes share one time axis (the lockstep grid).
        assert np.array_equal(both.results[0].time, both.results[1].time)

    def test_accuracy_no_worse_than_serial(self):
        """The min-rule makes the shared grid at least as tight as any
        lane's own: each lane's adaptive lockstep waveform stays within
        a few LTE tolerances of a dense-grid reference."""
        circuit = pulse_rc_diode()
        lanes = resistor_lanes([0.5, 2.0])
        batch = batch_transient(circuit, lanes, T_STOP,
                                TransientOptions())
        for lane, result in zip(lanes, batch.results):
            undo = apply_lane(circuit, lane)
            try:
                dense = transient(circuit, T_STOP, fixed_grid(4000))
            finally:
                undo()
            resampled = np.interp(dense.time, result.time,
                                  result.voltage("a"))
            assert np.abs(resampled - dense.voltage("a")).max() < 2e-2


class TestLaneFallback:
    def test_nan_lane_fails_with_record_others_unaffected(self):
        circuit = pulse_rc_diode()
        lanes = [LaneSpec(label="nominal"),
                 LaneSpec(source_values=(("V1", float("nan")),),
                          label="poisoned")]
        batch = batch_transient(circuit, lanes, T_STOP, fixed_grid(100),
                                on_error="skip")
        assert batch.n_failed == 1
        (index, error), = batch.failures
        assert index == 1
        assert isinstance(error, ConvergenceError)
        assert batch.results[1] is None
        assert batch.results[0] is not None
        assert np.isfinite(batch.results[0].voltage("a")).all()

    def test_nan_lane_raises_under_on_error_raise(self):
        circuit = pulse_rc_diode()
        lanes = [LaneSpec(),
                 LaneSpec(source_values=(("V1", float("nan")),))]
        with pytest.raises(ConvergenceError):
            batch_transient(circuit, lanes, T_STOP, fixed_grid(100))

    def test_initial_dc_failure_is_no_serial_fallback(self):
        """A lane whose initial DC point fails never enters the grid and
        is not rerun: it counts as failed, not as a serial fallback, and
        the lockstep count leaves it out."""
        circuit = Circuit("walk_diode")
        circuit.add_vsource("V1", "in", "0", 1.0)
        circuit.add_resistor("RS", "in", "a", 10.0)
        circuit.add_diode("D1", "a", "0", DIODE)
        circuit.nodeset("in", 0.0)  # the 8 V walk defeats both DC rungs
        lanes = [LaneSpec.source("V1", volts, label=f"{volts:g}")
                 for volts in (0.5, 8.0)]
        options = TransientOptions(newton=NewtonOptions(max_iterations=20))
        with telemetry.tracing("initial-dc") as trace:
            batch = batch_transient(circuit, lanes, 1e-6, options,
                                    on_error="skip")
        assert [index for index, _ in batch.failures] == [1]
        diagnostics = batch.diagnostics
        assert diagnostics.fallback_lanes == []
        text = diagnostics.describe()
        assert "1/2 lanes in lockstep" in text
        assert "1 failed" in text
        assert "serial fallbacks" not in text
        assert trace.root.find("batch-transient").attrs["n_fallback"] == 0
        assert trace.root.total_counter("batch_lane_fallbacks") == 0
        assert lane_sample_violations(trace) == []

    def test_zero_budget_kicks_stiff_lane_to_serial(self, monkeypatch):
        """With no rejection allowance, the stiff lane is kicked off
        the grid at its first rejection -- and still produces a full
        serial-rerun waveform, with the kick recorded."""
        monkeypatch.setattr(batch_module, "LANE_REJECTION_BUDGET", 0)
        circuit = pulse_rc_diode()
        lanes = resistor_lanes([1.0]) + [
            LaneSpec(resistor_scale=(("RS", 1e-4),), label="stiff")]
        with telemetry.tracing("kick") as trace:
            batch = batch_transient(circuit, lanes, T_STOP,
                                    TransientOptions())
        assert batch.n_failed == 0
        assert [i for i, _ in batch.diagnostics.fallback_lanes] == [1]
        reason = batch.diagnostics.fallback_lanes[0][1]
        assert "budget" in reason
        # The fallback lane ran the serial engine: its grid is its own.
        assert batch.results[1] is not None
        assert not np.array_equal(batch.results[0].time,
                                  batch.results[1].time)
        counters = trace.root.total_counters()
        assert counters["batch_lane_fallbacks"] == 1

    def test_lane_samples_reconcile_with_shared_steps(self, monkeypatch):
        """The telemetry identity ``python -m repro trace`` checks:
        lane_samples == steps_accepted * lanes_lockstep
        + fallback_serial_steps, with a serial rerun in play."""
        monkeypatch.setattr(batch_module, "LANE_REJECTION_BUDGET", 0)
        circuit = pulse_rc_diode()
        lanes = resistor_lanes([1.0, 2.0]) + [
            LaneSpec(resistor_scale=(("RS", 1e-4),), label="stiff")]
        with telemetry.tracing("recon") as trace:
            batch = batch_transient(circuit, lanes, T_STOP,
                                    TransientOptions())
        assert batch.n_failed == 0
        attrs = trace.root.find("batch-transient").attrs
        assert attrs["fallback_serial_steps"] > 0
        assert lane_sample_violations(trace) == []

    def test_reconciliation_check_reports_a_drifted_counter(self):
        with telemetry.tracing("drift") as trace:
            batch_transient(pulse_rc_diode(), resistor_lanes([1.0]),
                            T_STOP, fixed_grid(100))
        span = trace.root.find("batch-transient")
        span.inc("batch_transient_steps")
        span.annotate(lane_samples=span.attrs["lane_samples"] + 1)
        violations = lane_sample_violations(trace)
        assert len(violations) == 2
        assert "lane_samples" in violations[0]
        assert "batch_transient_steps" in violations[1]


class TestScopes:
    def test_per_lane_scope_windows_are_bitwise_faithful(self):
        """Each lane's triggered window replays the engine's own dense
        record exactly -- the scope sees the committed samples, not a
        resampled copy."""
        from repro.scope import EdgeTrigger, Probe, ScopeSession

        circuit = pulse_rc_diode()
        lanes = resistor_lanes([0.5, 1.0, 2.0])
        proto = ScopeSession([Probe("a")],
                             trigger=EdgeTrigger("a", level=0.3),
                             pre_samples=4, post_samples=16)
        scopes = [proto.clone() for _ in lanes]
        batch = batch_transient(circuit, lanes, T_STOP, fixed_grid(),
                                scopes=scopes)
        assert batch.n_failed == 0
        for scope, result in zip(scopes, batch.results):
            segment = scope.segments[0]
            start = int(np.searchsorted(result.time,
                                        segment.time[0] - 1e-18))
            window = result.voltage("a")[start:start + len(segment)]
            assert np.array_equal(segment.values[0], window)

    @staticmethod
    def _capture(replace_dense=True):
        from repro.scope import EdgeTrigger, Probe, ScopeSession

        return ScopeSession([Probe("a")],
                            trigger=EdgeTrigger("a", level=0.3),
                            pre_samples=4, post_samples=16,
                            replace_dense=replace_dense)

    def test_run_ends_once_every_lane_is_complete(self):
        """The shared grid stops on the sample that closes the last
        lane's window, and every window is the full run's."""
        lanes = resistor_lanes([0.5, 1.0, 2.0])
        scopes = [self._capture() for _ in lanes]
        twins = [self._capture(replace_dense=False) for _ in lanes]
        with telemetry.tracing("lockstep-capture") as trace:
            batch = batch_transient(pulse_rc_diode(), lanes, T_STOP,
                                    fixed_grid(), scopes=scopes)
        full = batch_transient(pulse_rc_diode(), lanes, T_STOP,
                               fixed_grid(), scopes=twins)
        assert batch.n_failed == 0
        last_close = max(scope.segments[0].time[-1] for scope in scopes)
        closes = {scope.segments[0].time[-1] for scope in scopes}
        assert len(closes) == len(lanes)  # the lanes close one by one
        for scope, twin, result, dense in zip(scopes, twins,
                                              batch.results, full.results):
            assert result.time[-1] == last_close
            assert np.array_equal(result.time,
                                  dense.time[:result.time.size])
            assert np.array_equal(scope.segments[0].time,
                                  twin.segments[0].time)
            assert np.array_equal(scope.segments[0].values,
                                  twin.segments[0].values)
        steps = batch.diagnostics.steps_accepted
        assert steps == batch.results[0].time.size - 1
        assert steps < 400  # the fixed grid's steps to t_stop
        span = trace.root.find("batch-transient")
        assert span.events_of("capture-complete") == [{
            "kind": "capture-complete", "t": last_close, "t_stop": T_STOP,
            "steps": steps}]
        assert span.attrs["t_end"] == last_close
        assert lane_sample_violations(trace) == []

    def test_one_lane_without_a_session_keeps_the_grid_to_t_stop(self):
        lanes = resistor_lanes([0.5, 1.0, 2.0])
        scopes = [self._capture(), self._capture(), None]
        with telemetry.tracing("one-unobserved") as trace:
            batch = batch_transient(pulse_rc_diode(), lanes, T_STOP,
                                    fixed_grid(), scopes=scopes)
        plain = batch_transient(pulse_rc_diode(), lanes, T_STOP,
                                fixed_grid())
        assert all(scope.triggered for scope in scopes[:2])
        for result, reference in zip(batch.results, plain.results):
            assert np.array_equal(result.time, reference.time)
        assert batch.results[0].time[-1] == pytest.approx(T_STOP,
                                                          rel=1e-12)
        span = trace.root.find("batch-transient")
        assert span.events_of("capture-complete") == []
        assert "t_end" not in span.attrs

    def test_kicked_out_lane_rerun_stops_at_its_own_window(
            self, monkeypatch):
        """Only the stiff lane carries a capture: the lockstep lanes keep
        the grid going until the stiff lane's rejection kicks it out,
        and its serial rerun then ends on its own window's last
        sample."""
        monkeypatch.setattr(batch_module, "LANE_REJECTION_BUDGET", 0)
        lanes = resistor_lanes([1.0, 2.0]) + [
            LaneSpec(resistor_scale=(("RS", 1e-4),), label="stiff")]
        scopes = [None, None, self._capture()]
        with telemetry.tracing("kicked-capture") as trace:
            batch = batch_transient(pulse_rc_diode(), lanes, T_STOP,
                                    TransientOptions(), scopes=scopes)
        assert batch.n_failed == 0
        assert [lane for lane, _ in
                batch.diagnostics.fallback_lanes] == [2]
        window = scopes[2].segment()
        rerun = batch.results[2]
        assert rerun.time[-1] == window.time[-1] < 0.5 * T_STOP
        for result in batch.results[:2]:
            assert result.time[-1] == pytest.approx(T_STOP, rel=1e-12)
        # The rerun's window is the one a serial run with a dense record
        # captures.
        twin = self._capture(replace_dense=False)
        circuit = pulse_rc_diode()
        undo = apply_lane(circuit, lanes[2])
        try:
            transient(circuit, T_STOP, TransientOptions(), scope=twin)
        finally:
            undo()
        assert np.array_equal(window.time, twin.segment().time)
        assert np.array_equal(window.values, twin.segment().values)
        span = trace.root.find("batch-transient")
        assert "t_end" not in span.attrs
        [fallback] = span.find_all("transient")
        assert fallback.attrs["t_end"] == rerun.time[-1]
        assert lane_sample_violations(trace) == []

    def test_clone_produces_fresh_session(self):
        from repro.scope import EdgeTrigger, Probe, ScopeSession

        proto = ScopeSession([Probe("a")],
                             trigger=EdgeTrigger("a", level=0.3))
        circuit = pulse_rc_diode()
        transient(circuit, T_STOP, fixed_grid(100), scope=proto)
        clone = proto.clone()
        # The clone is unused and independently usable...
        transient(circuit, T_STOP, fixed_grid(100), scope=clone)
        assert np.array_equal(proto.segments[0].values,
                              clone.segments[0].values)
        # ...while a used session refuses to rebind.
        with pytest.raises(AnalysisError):
            transient(circuit, T_STOP, fixed_grid(100), scope=proto)


class TestValidation:
    def test_rejects_nonpositive_t_stop(self):
        with pytest.raises(NetlistError):
            batch_transient(pulse_rc_diode(), [LaneSpec()], 0.0)

    def test_rejects_scope_count_mismatch(self):
        from repro.scope import Probe, ScopeSession
        with pytest.raises(AnalysisError):
            batch_transient(pulse_rc_diode(), [LaneSpec(), LaneSpec()],
                            T_STOP, scopes=[ScopeSession([Probe("a")])])

    def test_rejects_empty_lanes(self):
        with pytest.raises(AnalysisError):
            batch_transient(pulse_rc_diode(), [], T_STOP)


class TestBatchedTranMetric:
    def test_spec_is_callable_serially(self):
        spec = BatchedTranMetric(
            build=pulse_rc_diode,
            draw=lambda seed, c: resistor_lanes([1.0 + 0.1 * seed])[0],
            measure=lambda r: {"v": float(r.voltage("a")[-1])},
            t_stop=T_STOP, options=fixed_grid(100))
        serial = spec(2)
        batch = batch_transient(pulse_rc_diode(),
                                [spec.draw(2, None)], T_STOP,
                                fixed_grid(100))
        batched = spec.measure(batch.results[0])
        assert serial["v"] == pytest.approx(batched["v"], abs=1e-9)

    def test_undo_restores_circuit(self):
        circuit = pulse_rc_diode()
        spec = BatchedTranMetric(
            build=lambda: circuit,
            draw=lambda seed, c: LaneSpec(
                resistor_scale=(("RS", 3.0),)),
            measure=lambda r: {"v": float(r.voltage("a")[-1])},
            t_stop=T_STOP, options=fixed_grid(50))
        r_before = circuit.element("RS").resistance
        spec(0)
        assert circuit.element("RS").resistance == r_before
