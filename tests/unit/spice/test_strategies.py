"""The DC ladder: pathological circuits, diagnostics, recovery.

One fixture circuit drives a diode hard through a tiny series resistor
from an 8 V source.  A nodeset starts the source node at 0 V, and with
the damped Newton of this solver it must then *walk* to 8 V at
``max_step`` volts per iteration, so a tight iteration budget defeats
plain Newton deterministically.  The rescue fixture is the paper's
delay testbench at I_SS = 10^-9.5 A started from fixed hints that put
every stage in the wrong state (``ladder_hard_delay_chain``): plain
Newton stalls on it under the default budget, and pseudo-transient
continuation converges it only by backing its step off.  Tests that
need one rung alone call it directly, from the circuit's initial guess.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.devices.diode import Diode, DiodeParameters
from repro.errors import ConvergenceError
from repro.spice import Circuit, NewtonOptions, dc_sweep, operating_point
from repro.spice.strategies import (MIN_STEP_RATIO, newton_solve,
                                    pseudo_transient, pseudo_transient_lanes)
from repro.stscl import StsclGateDesign
from tests.conftest import ladder_hard_delay_chain

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Enough for the easy points, far too little for the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def hard_diode(nodesets: dict[str, float] | None = None) -> Circuit:
    """8 V into a diode through 10 ohms: a 27-iteration Newton walk.

    A nodeset holds the source node's start at 0 V (nodesets win over
    the source start), so Newton must walk it up to 8 V."""
    circuit = Circuit("hard_diode")
    circuit.add_vsource("V1", "in", "0", 8.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    for node, voltage in {"in": 0.0, **(nodesets or {})}.items():
        circuit.nodeset(node, voltage)
    return circuit


def solve_rung(circuit: Circuit, rung, options: NewtonOptions
               ) -> dict[str, float]:
    """Node voltages of ``rung`` alone (``newton_solve`` or
    ``pseudo_transient``) run from the circuit's initial guess."""
    compiled = circuit.compile()
    x, _ = rung(compiled, circuit.initial_guess(compiled), None, options)
    return {node: float(x[row]) for node, row in compiled.node_index.items()}


def divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    return circuit


class TestLadderRescue:
    def test_plain_newton_alone_is_defeated(self):
        """The Newton rung alone cannot finish the 8 V walk in TIGHT's
        20 iterations."""
        with pytest.raises(ConvergenceError):
            solve_rung(hard_diode(), newton_solve, TIGHT)

    def test_default_ladder_rescues_and_names_the_stage(self):
        op = operating_point(ladder_hard_delay_chain())
        diag = op.diagnostics
        assert diag.converged
        assert diag.rescue_needed
        assert diag.rescued_by == "pseudo-transient"
        # The failed rung is on record, in ladder order.
        assert [s.strategy for s in diag.stages] == [
            "newton", "pseudo-transient"]
        assert not diag.stage("newton").converged
        assert diag.stage("pseudo-transient").converged
        # And the answer is the physical one: with the input step still
        # low, every stage's output sits at -V_SW.
        v_sw = StsclGateDesign.default(10.0 ** -9.5).v_sw
        for stage in (1, 2, 3):
            swing = op.voltage(f"s{stage}_outp") - op.voltage(
                f"s{stage}_outn")
            assert swing == pytest.approx(-v_sw, rel=0.05)

    def test_pseudo_transient_backs_off_where_a_decade_stalls(self):
        """The decade step g = 1e-9 -> 1e-10 stalls on this chain; the
        rung restarts from the last accepted state with the ratio
        square-rooted, then squares it back up."""
        with telemetry.tracing("backoff") as trace:
            op = operating_point(ladder_hard_delay_chain())
        assert op.diagnostics.rescued_by == "pseudo-transient"
        rung = trace.root.find("strategy:pseudo-transient")
        backoffs = rung.events_of("pseudo-transient-backoff")
        assert backoffs
        for event in backoffs:
            assert 1.0 < event["ratio"] < 10.0
        steps = [event["g"] for event in
                 rung.events_of("pseudo-transient-step")]
        assert steps[0] == 1e-3
        assert all(later < earlier
                   for earlier, later in zip(steps, steps[1:]))
        # Off the decade grid after the backoff.
        assert any(not np.isclose(np.log10(g), np.round(np.log10(g)))
                   for g in steps)

    def test_pseudo_transient_is_a_viable_final_fallback(self):
        """The pseudo-transient rung alone, with 80 iterations per
        solve, finishes the walk that defeats TIGHT Newton."""
        voltages = solve_rung(hard_diode(), pseudo_transient,
                              NewtonOptions(max_iterations=80))
        assert 0.7 < voltages["a"] < 1.1

    def test_all_strategies_agree_on_the_solution(self):
        """Each rung alone, under the default budget, reaches the
        ladder's answer."""
        reference = operating_point(hard_diode()).voltage("a")
        for rung in (newton_solve, pseudo_transient):
            voltages = solve_rung(hard_diode(), rung, NewtonOptions())
            assert voltages["a"] == pytest.approx(reference, abs=1e-5)


class TestPseudoTransientSchedule:
    """The adaptive schedule itself, driven by a stub per-lane solve
    that fails every step whose anchor conductance ``fails(g)``."""

    @staticmethod
    def _run(fails):
        calls = []

        def solve(active, g, anchor):
            calls.append(float(g[0]))
            ok = not fails(g[0])
            return [ok], [1], ({} if ok else {0: "stub failure"})

        converged, iterations, reasons = pseudo_transient_lanes(
            np.zeros((1, 2)), np.zeros(1, dtype=np.intp), NewtonOptions(),
            solve)
        return bool(converged[0]), int(iterations[0]), reasons, calls

    def test_decade_steps_end_in_a_plain_polish(self):
        converged, iterations, reasons, calls = self._run(lambda g: False)
        assert converged and not reasons
        np.testing.assert_allclose(calls[:-1], 10.0 ** -np.arange(3, 15))
        assert calls[-1] == 0.0
        assert iterations == len(calls) == 13

    def test_a_failed_step_backs_off_and_recovers_the_ratio(self):
        converged, _, _, calls = self._run(
            lambda g: np.isclose(g, 1e-6))
        assert converged
        np.testing.assert_allclose(
            calls[3:7], [1e-6, 10.0 ** -5.5, 10.0 ** -6.5, 10.0 ** -7.5])

    def test_the_ratio_floor_fails_the_lane(self):
        converged, iterations, reasons, calls = self._run(
            lambda g: g < 9.9e-6)
        assert not converged
        # 10 -> 10^(1/2) -> ... -> 10^(1/16); 10^(1/32) is below the floor.
        assert 10.0 ** (1 / 32) < MIN_STEP_RATIO <= 10.0 ** (1 / 16)
        np.testing.assert_allclose(
            calls[3:], 1e-5 / 10.0 ** (1.0 / 2.0 ** np.arange(5)))
        assert "stub failure" in reasons[0]
        assert iterations == len(calls)

    def test_a_failed_first_step_fails_the_lane(self):
        converged, iterations, reasons, calls = self._run(lambda g: True)
        assert not converged
        assert calls == [1e-3] and iterations == 1
        assert "g=0.001" in reasons[0]


class TestDiagnostics:
    def test_easy_circuit_converges_on_the_first_rung(self):
        op = operating_point(divider())
        diag = op.diagnostics
        assert diag.rescued_by == "newton"
        assert not diag.rescue_needed
        assert len(diag.stages) == 1
        assert diag.total_iterations == op.iterations

    def test_residual_trajectory_is_recorded_and_decreasing(self):
        op = operating_point(divider())
        residuals = op.diagnostics.stage("newton").residuals
        assert len(residuals) >= 1
        assert residuals[-1] <= residuals[0]

    def test_total_failure_carries_full_forensics(self):
        """Under TIGHT the 8 V walk defeats both default rungs:
        pseudo-transient's first step needs the whole walk too."""
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(hard_diode(), TIGHT)
        error = excinfo.value
        assert error.stage == "pseudo-transient"
        diag = error.diagnostics
        assert diag is not None
        assert not diag.converged
        assert [s.strategy for s in diag.stages] == [
            "newton", "pseudo-transient"]
        assert all(not s.converged for s in diag.stages)
        assert error.iterations == diag.total_iterations

    def test_describe_names_every_stage(self):
        op = operating_point(ladder_hard_delay_chain())
        text = op.diagnostics.describe()
        assert "newton" in text and "pseudo-transient" in text
        assert "failed" in text and "ok" in text

    def test_wall_time_is_accounted(self):
        diag = operating_point(ladder_hard_delay_chain()).diagnostics
        assert len(diag.stages) == 2
        assert diag.wall_time > 0.0
        assert all(s.wall_time >= 0.0 for s in diag.stages)


class TestSweepRecovery:
    def test_warm_start_failure_is_retried_from_nodesets(self):
        """One diverging warm start must not abort the sweep: the point
        is re-seeded from the circuit's initial guess.  Without its
        ``in`` nodeset the 8 V diode starts on its source, so a cold
        solve converges under TIGHT; warm-started from the 0.5 V point
        it must walk 7.5 V and loses both rungs."""
        circuit = hard_diode()
        del circuit.nodesets["in"]
        with telemetry.tracing("sweep") as trace:
            result = dc_sweep(circuit, "V1", [0.5, 8.0], options=TIGHT)
        restarts = trace.root.find("dc-sweep").events_of("cold-restart")
        assert [event["index"] for event in restarts] == [1]
        assert not result.failures
        cold = operating_point(circuit, TIGHT)
        assert result.voltage("a")[1] == cold.voltage("a")

    def test_on_error_skip_records_nan_and_continues(self):
        result = dc_sweep(hard_diode(), "V1", [0.5, 8.0, 0.55],
                          options=NewtonOptions(max_iterations=8),
                          on_error="skip")
        assert result.failed_indices == [1]
        (index, message), = result.failures
        assert index == 1 and "hard_diode" in message
        voltages = result.voltage("a")
        assert np.isnan(voltages[1])
        assert np.isfinite(voltages[0]) and np.isfinite(voltages[2])
        assert not result.points[1].converged
        assert result.points[0].converged

    def test_on_error_raise_is_the_default(self):
        with pytest.raises(ConvergenceError):
            dc_sweep(hard_diode(), "V1", [0.5, 8.0],
                     options=NewtonOptions(max_iterations=8))

    def test_sweep_restores_the_source_after_skips(self):
        circuit = hard_diode()
        element = circuit.element("V1")
        saved = element.waveform
        dc_sweep(circuit, "V1", [0.5, 8.0, 0.55],
                 options=NewtonOptions(max_iterations=8), on_error="skip")
        assert element.waveform is saved

    def test_unknown_policy_is_rejected(self):
        from repro.errors import NetlistError
        with pytest.raises(NetlistError):
            dc_sweep(divider(), "V1", [1.0], on_error="ignore")


class TestWallClockBudget:
    def test_exhausted_budget_reports_wall_clock_stage(self):
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(hard_diode(), NewtonOptions(
                max_iterations=20, max_wall_time=0.0))
        error = excinfo.value
        assert error.stage == "wall-clock"
        assert "wall-clock budget" in str(error)
        assert error.diagnostics is not None
        assert error.diagnostics.stages  # forensics still attached

    def test_generous_budget_is_invisible(self):
        result = operating_point(divider(), NewtonOptions(
            max_wall_time=3600.0))
        assert result.converged
        assert result.voltage("mid") == pytest.approx(0.5)

    def test_budget_covers_the_whole_ladder(self):
        """The deadline is absolute across rungs: both rungs share one
        budget instead of each getting its own."""
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(hard_diode(), NewtonOptions(
                max_iterations=20, max_wall_time=0.0))
        # With a pre-expired deadline not a single rung may burn its
        # full iteration budget.
        diagnostics = excinfo.value.diagnostics
        assert diagnostics.total_iterations == 0
