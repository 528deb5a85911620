"""Batched ensemble Newton: lanes, equivalence, failures, telemetry.

The contract under test: a :func:`batch_operating_point` over B lanes
is *indistinguishable* from B serial :func:`operating_point` calls with
the lane perturbation applied -- same solutions (to float tolerance),
same failures with the same diagnostics, same ladder semantics -- just
solved as one stacked tensor.
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
    apply_lane,
    batch_operating_point,
    operating_point,
)
from repro.spice.batch import BATCHED_PSEUDO_TRANSIENT_STAGE, BATCHED_STAGE
from repro.stscl import StsclGateDesign, stscl_latch_circuit
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import stscl_inverter_circuit
from tests.conftest import ladder_hard_delay_chain

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Enough for small source walks, far too little for the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def diode_circuit(v_in: float = 1.0) -> Circuit:
    """V source into a diode through 10 ohms (damped-Newton walk).

    A nodeset starts the source node at 0 V (nodesets win over the
    source start), so every lane walks up to its source value and an
    8 V lane defeats TIGHT Newton."""
    circuit = Circuit("batch_diode")
    circuit.add_vsource("V1", "in", "0", v_in)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    circuit.nodeset("in", 0.0)
    return circuit


def hold_latch(i_ss: float) -> Circuit:
    """gate_char's D-latch as at t = 0: clock low (hold), data low.  It
    is bistable there, and its nodesets name outp = VDD = 0.4 V,
    outn = VDD - V_SW = 0.2 V."""
    design = StsclGateDesign.default(i_ss)
    high, low = 0.4, 0.4 - design.v_sw
    circuit, _ = stscl_latch_circuit(design, 0.4, low, high, low, high)
    return circuit


def mismatch_lanes(circuit: Circuit, n_lanes: int) -> list[LaneSpec]:
    n_devices = len(circuit.mos_elements())
    return [LaneSpec.mismatch(
        np.random.default_rng(seed).normal(0.0, 2e-3, n_devices),
        label=f"seed-{seed}") for seed in range(n_lanes)]


def source_lanes(values) -> list[LaneSpec]:
    return [LaneSpec.source("V1", float(v), label=f"{v:g}")
            for v in values]


class TestLaneSpec:
    def test_mismatch_constructor(self):
        lane = LaneSpec.mismatch(np.array([1e-3, -2e-3]),
                                 np.array([1.01, 0.99]), label="s0")
        assert lane.label == "s0"
        assert lane.vt_delta.shape == (2,)

    def test_source_constructor(self):
        lane = LaneSpec.source("V1", 2.5)
        assert lane.source_values == (("V1", 2.5),)

    def test_apply_and_undo_restore_the_circuit(self):
        circuit = diode_circuit()
        r_before = circuit.element("RS").resistance
        undo = apply_lane(circuit, LaneSpec(
            resistor_scale=(("RS", 2.0),), source_values=(("V1", 0.5),)))
        assert circuit.element("RS").resistance == pytest.approx(
            2.0 * r_before)
        undo()
        assert circuit.element("RS").resistance == r_before
        assert operating_point(circuit).voltage("in") == pytest.approx(1.0)

    def test_wrong_vt_length_rejected(self):
        circuit = diode_circuit()  # no MOS devices at all
        with pytest.raises(AnalysisError):
            apply_lane(circuit, LaneSpec(vt_delta=np.array([1e-3])))

    def test_unknown_source_rejected(self):
        with pytest.raises(AnalysisError):
            batch_operating_point(diode_circuit(),
                                  [LaneSpec(source_values=(("nope", 1.0),))])

    def test_nonpositive_resistor_factor_rejected(self):
        with pytest.raises(AnalysisError):
            batch_operating_point(
                diode_circuit(),
                [LaneSpec(resistor_scale=(("RS", 0.0),))])

    def test_empty_lane_list_rejected(self):
        with pytest.raises(AnalysisError):
            batch_operating_point(diode_circuit(), [])


class TestEquivalence:
    def test_source_lanes_match_serial_solves(self):
        """Every lane lands on the point the serial solver finds for
        the same source value."""
        values = [0.3, 0.6, 1.0, 1.5, 2.0]
        batch = batch_operating_point(diode_circuit(), source_lanes(values))
        for value, point in zip(values, batch.points):
            serial = operating_point(diode_circuit(value))
            assert point.voltage("a") == pytest.approx(
                serial.voltage("a"), abs=1e-12)
            assert point.voltage("in") == pytest.approx(value)

    def test_resistor_lanes_match_serial(self):
        factors = [0.5, 1.0, 4.0]
        lanes = [LaneSpec(resistor_scale=(("RS", f),)) for f in factors]
        batch = batch_operating_point(diode_circuit(), lanes)
        for factor, point in zip(factors, batch.points):
            circuit = diode_circuit()
            circuit.element("RS").resistance *= factor
            serial = operating_point(circuit)
            assert point.voltage("a") == pytest.approx(
                serial.voltage("a"), abs=1e-12)

    def test_branch_currents_are_per_lane(self):
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([0.5, 2.0]))
        i0 = batch.points[0].branch_currents["V1"]
        i1 = batch.points[1].branch_currents["V1"]
        assert abs(i1) > abs(i0)  # more drive, more current

    def test_device_ops_reflect_the_lane_overlay(self, default_design):
        """Each lane's MOS operating points are evaluated under that
        lane's VT overlay, not the nominal bank."""
        from repro.stscl.netlist_gen import stscl_inverter_circuit

        circuit, _ = stscl_inverter_circuit(default_design, 0.4)
        n = len(circuit.mos_elements())
        name = circuit.mos_elements()[0].name
        lanes = [LaneSpec.mismatch(np.zeros(n)),
                 LaneSpec.mismatch(np.full(n, 20e-3))]
        batch = batch_operating_point(circuit, lanes)
        ops0 = batch.points[0].device_ops[name]
        ops1 = batch.points[1].device_ops[name]
        assert ops0.ids != ops1.ids

    def test_mos_mismatch_lanes_match_serial(self, default_design):
        """VT/beta overlays on a real MOS circuit reproduce the serial
        per-device perturbation exactly."""
        import dataclasses
        from repro.stscl.netlist_gen import stscl_inverter_circuit

        def lane_for(seed):
            rng = np.random.default_rng(seed)
            circuit, _ = stscl_inverter_circuit(default_design, 0.4)
            n = len(circuit.mos_elements())
            return (np.array([rng.normal(0.0, 5e-3) for _ in range(n)]),
                    np.array([1.0 + rng.normal(0.0, 0.01)
                              for _ in range(n)]))

        seeds = [3, 4]
        circuit, _ = stscl_inverter_circuit(default_design, 0.4)
        lanes = [LaneSpec.mismatch(*lane_for(seed)) for seed in seeds]
        batch = batch_operating_point(circuit, lanes)
        for seed, point in zip(seeds, batch.points):
            serial_circuit, _ = stscl_inverter_circuit(default_design, 0.4)
            vt, beta = lane_for(seed)
            for k, element in enumerate(serial_circuit.mos_elements()):
                element.device = dataclasses.replace(
                    element.device,
                    vt_shift=element.device.vt_shift + vt[k],
                    beta_factor=element.device.beta_factor * beta[k])
            serial = operating_point(serial_circuit)
            for node in serial.voltages:
                assert point.voltages[node] == pytest.approx(
                    serial.voltages[node], abs=1e-9)

    def test_full_bank_lane_with_a_scaled_resistor_keeps_its_mismatch(
            self, default_design):
        """A serial full-bank mismatch lane that also scales a resistor
        solves to its batched twin: the resistor write must not make
        the solve rebuild the device bank under the lane's overlay."""
        def build() -> Circuit:
            circuit, _ = adder_chain_circuit(default_design, 0.4, width=2,
                                             a=1, b=3)
            circuit.add_resistor("rleak", "s0p", "0", 1e12)
            return circuit

        n_bank = build().compile().assembler._mos_bank.n_devices
        lane = LaneSpec(
            vt_delta=np.random.default_rng(3).normal(0.0, 20e-3, n_bank),
            resistor_scale=(("rleak", 2.0),))
        batched = batch_operating_point(build(), [LaneSpec(), lane])
        circuit = build()
        undo = apply_lane(circuit, lane)
        try:
            serial = operating_point(circuit)
        finally:
            undo()
        for node, value in serial.voltages.items():
            assert batched.points[1].voltages[node] == pytest.approx(
                value, abs=1e-9)

    @pytest.mark.parametrize("circuit_name", ["inverter", "adder"])
    def test_serial_device_ops_read_after_the_undo_see_the_lane(
            self, default_design, circuit_name):
        """A serial solution's MOS operating points belong to the lane
        it was solved under, also when read after the lane's undo
        (top-level lane on the inverter, full-bank lane on the
        adder)."""
        def build() -> Circuit:
            if circuit_name == "inverter":
                return stscl_inverter_circuit(default_design, 0.4)[0]
            return adder_chain_circuit(default_design, 0.4, width=2,
                                       a=1, b=3)[0]

        # The inverter has no subcircuits: its bank is its top level.
        n = build().compile().assembler._mos_bank.n_devices
        lane = LaneSpec.mismatch(
            np.random.default_rng(5).normal(0.0, 20e-3, n))
        batched = batch_operating_point(build(), [LaneSpec(), lane])
        circuit = build()
        undo = apply_lane(circuit, lane)
        try:
            serial = operating_point(circuit)
        finally:
            undo()
        expected = batched.points[1].device_ops
        assert serial.device_ops.keys() == expected.keys()
        for name, point in serial.device_ops.items():
            assert point.ids == pytest.approx(expected[name].ids,
                                              rel=1e-9, abs=1e-21)

    def test_warm_start_vector_validated(self):
        with pytest.raises(NetlistError):
            batch_operating_point(diode_circuit(), source_lanes([1.0]),
                                  x0=np.zeros(99))


class TestLadderSemantics:
    def test_stacked_rescue_respects_a_newton_only_ladder(self):
        """Batched and serial solves climb the same two rungs, so they
        fail the same lanes -- the stacked continuation phase may not
        rescue a lane the serial ladder could not."""
        lanes = source_lanes([0.5, 8.0])  # 8 V walk defeats both rungs
        with pytest.raises(ConvergenceError):
            operating_point(diode_circuit(8.0), TIGHT)
        batch = batch_operating_point(diode_circuit(), lanes,
                                      options=TIGHT, on_error="skip")
        assert [index for index, _ in batch.failures] == [1]
        assert batch.points[0].converged
        assert not batch.points[1].converged

    def test_failed_lane_gets_nan_placeholder_and_diagnostics(self):
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([8.0]),
                                      options=TIGHT, on_error="skip")
        point = batch.points[0]
        assert all(np.isnan(v) for v in point.voltages.values())
        _, error = batch.failures[0]
        # Forensics: both stacked phases are on record, and the lane
        # was not rerun.
        stages = [s.strategy for s in error.diagnostics.stages]
        assert stages == [BATCHED_STAGE, BATCHED_PSEUDO_TRANSIENT_STAGE]
        assert error.diagnostics.rescued_by is None
        assert point.diagnostics is error.diagnostics

    def test_stacked_failure_matches_its_serial_twin_stage_by_stage(self):
        """Both stacked phases lose the 8 V lane exactly as the serial
        ladder's two rungs lose its twin: the same iterations and
        failure details, stage by stage, under the batched names."""
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([8.0]),
                                      options=TIGHT, on_error="skip")
        [(_, stacked)] = batch.failures
        with pytest.raises(ConvergenceError) as raised:
            operating_point(diode_circuit(8.0), TIGHT)
        serial = raised.value
        serial_name = {BATCHED_STAGE: "newton",
                       BATCHED_PSEUDO_TRANSIENT_STAGE: "pseudo-transient"}
        assert [(serial_name[s.strategy], s.converged, s.iterations,
                 s.detail) for s in stacked.diagnostics.stages] == [
            (s.strategy, s.converged, s.iterations, s.detail)
            for s in serial.diagnostics.stages]
        assert [s.iterations for s in stacked.diagnostics.stages] == [20, 20]
        assert stacked.diagnostics.stages[1].detail == (
            "pseudo-transient step at g=0.001: Newton failed after 20 "
            "iterations in batch_diode")
        assert stacked.stage == BATCHED_PSEUDO_TRANSIENT_STAGE
        assert serial.stage == "pseudo-transient"
        assert stacked.iterations == serial.iterations == 40

    def test_an_exhausted_wall_clock_fails_every_unconverged_lane(self):
        """A batch that runs out of ``max_wall_time`` fails each lane it
        has not converged at stage "wall-clock", with both stacked
        stage reports, and ``on_error="raise"`` raises that error.  A
        1 ns budget is gone before the first stacked iteration, so no
        lane converges."""
        options = NewtonOptions(max_wall_time=1e-9)
        lanes = source_lanes(np.linspace(0.5, 8.0, 64))
        batch = batch_operating_point(diode_circuit(), lanes,
                                      options=options, on_error="skip")
        assert [index for index, _ in batch.failures] == list(range(64))
        assert batch.diagnostics.n_failed == 64
        for _, error in batch.failures:
            assert error.stage == "wall-clock"
            assert [(s.strategy, s.converged)
                    for s in error.diagnostics.stages] == [
                (BATCHED_STAGE, False),
                (BATCHED_PSEUDO_TRANSIENT_STAGE, False)]
            assert error.diagnostics.wall_time > 0.0
            assert str(error).startswith("wall-clock budget of 1e-09s")
        with pytest.raises(ConvergenceError) as raised:
            batch_operating_point(diode_circuit(), lanes, options=options)
        assert raised.value.stage == "wall-clock"
        assert [s.strategy for s in raised.value.diagnostics.stages] == [
            BATCHED_STAGE, BATCHED_PSEUDO_TRANSIENT_STAGE]

    def test_on_error_raise_propagates_the_first_failure(self):
        with pytest.raises(ConvergenceError):
            batch_operating_point(diode_circuit(), source_lanes([8.0]),
                                  options=TIGHT)

    def test_fallback_rescues_via_the_full_ladder(self):
        """Stacked Newton stalls on the 316 pA delay chain started from
        the fixed hints; the lanes fall back to the ladder's
        pseudo-transient rung, run stacked, which rescues every one of
        them -- with a backoff, since the decade step g = 1e-9 -> 1e-10
        stalls."""
        circuit = ladder_hard_delay_chain()
        with telemetry.tracing("rescue") as trace:
            batch = batch_operating_point(circuit,
                                          mismatch_lanes(circuit, 4))
        diagnostics = batch.diagnostics
        assert diagnostics.n_converged_batched == 0
        assert diagnostics.n_converged_pseudo_transient == 4
        assert diagnostics.n_failed == 0
        assert "4 via pseudo-transient" in diagnostics.describe()
        span = trace.root.find("batch-operating-point")
        assert span.attrs["n_converged_pseudo_transient"] == 4
        assert span.events_of("pseudo-transient-backoff")
        v_sw = StsclGateDesign.default(10.0 ** -9.5).v_sw
        for point in batch.points:
            # The lane's diagnostics tell the whole story: the stacked
            # Newton attempt, then the stacked rung that rescued it.
            assert [s.strategy for s in point.diagnostics.stages] == [
                BATCHED_STAGE, BATCHED_PSEUDO_TRANSIENT_STAGE]
            assert point.diagnostics.rescued_by == \
                BATCHED_PSEUDO_TRANSIENT_STAGE
            swing = point.voltage("s3_outp") - point.voltage("s3_outn")
            assert swing == pytest.approx(-v_sw, rel=0.05)

    def test_converged_lane_diagnostics_name_the_batched_stage(self):
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([0.5, 1.0]))
        for point in batch.points:
            assert point.diagnostics.rescued_by in (
                BATCHED_STAGE, BATCHED_PSEUDO_TRANSIENT_STAGE)
            assert point.diagnostics.total_iterations == point.iterations


class TestBistableNodesets:
    """A bistable circuit's operating point lies on the side its
    nodesets name: the continuation rung anchors each step to the last
    accepted state, which starts at the nodesets, instead of shunting
    every node toward ground."""

    @pytest.mark.parametrize("i_ss", [1e-10, 1e-9, 1e-8])
    def test_serial_solve_keeps_the_named_state(self, i_ss):
        op = operating_point(hold_latch(i_ss))
        assert op.voltage("outp") - op.voltage("outn") > 0.0

    @pytest.mark.parametrize("i_ss", [1e-10, 1e-9, 1e-8])
    def test_batched_lanes_keep_the_named_state(self, i_ss):
        circuit = hold_latch(i_ss)
        batch = batch_operating_point(circuit, mismatch_lanes(circuit, 4))
        assert batch.diagnostics.n_failed == 0
        for point in batch.points:
            assert point.voltage("outp") - point.voltage("outn") > 0.0


class TestDiagnosticsAndTelemetry:
    def test_batch_diagnostics_describe(self):
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([0.5, 1.0, 2.0]))
        text = batch.diagnostics.describe()
        assert "B=3" in text
        assert "0 failed" in text

    def test_counters_reconcile_with_the_population(self):
        lanes = source_lanes([0.5, 8.0])
        with telemetry.tracing("batch-test") as trace:
            batch_operating_point(diode_circuit(), lanes, options=TIGHT,
                                  on_error="skip")
        counters = trace.total_counters()
        assert counters["batch_lanes"] == 2
        assert counters["jacobian_factorizations"] > 0
        assert counters["device_bank_evals"] > 0
        span = trace.root.find("batch-operating-point")
        assert span.attrs["n_failed"] == 1
        assert [event["lane"] for event in
                span.events_of("lane-failed")] == [1]

    def test_active_mask_decays_as_lanes_converge(self):
        """Easy and hard lanes in one batch: the active population must
        shrink while iterations continue for the stragglers."""
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([0.3, 1.0, 4.0]))
        history = batch.diagnostics.active_history
        assert history[0] == 3
        assert history[-1] < history[0]


class TestUnsupportedCircuits:
    def test_foreign_elements_are_diagnosed(self):
        """An element type the assembler does not stamp is refused when
        its circuit compiles, with its type named, by serial and batched
        solves alike.  The backend and subcircuit-template routes of the
        same refusal are checked in test_sparse and test_subckt."""
        from repro.spice.elements import Element

        class Shunt(Element):
            pass

        circuit = diode_circuit()
        circuit._register(Shunt("X1", ("in", "0")))
        for solve in (lambda: circuit.compile(validate=False),
                      lambda: operating_point(circuit),
                      lambda: batch_operating_point(circuit,
                                                    source_lanes([1.0]))):
            with pytest.raises(NetlistError, match="Shunt"):
                solve()


class TestSingularLanes:
    """A degenerate lane must never poison its batch neighbours: it
    fails with a diagnosed error, while every other lane's solution
    stays bit-identical."""

    def _mos_circuit(self) -> Circuit:
        from repro.devices.mosfet import Mosfet
        from repro.devices.parameters import nmos_180

        ckt = Circuit("singular_lane")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_vsource("vg", "g", "0", 0.6)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        ckt.add_mosfet("m1", "d", "g", "0", "0",
                       Mosfet(nmos_180(), w=1e-6, l=0.18e-6))
        return ckt

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_lane_fails_cleanly_without_poisoning(self):
        ckt = self._mos_circuit()
        lanes = [LaneSpec.mismatch([0.0], label="clean-0"),
                 LaneSpec.mismatch([float("nan")], label="poison"),
                 LaneSpec.mismatch([5e-3], label="clean-2")]
        batch = batch_operating_point(ckt, lanes, options=TIGHT,
                                      on_error="skip")
        # The poisoned lane is a clean, diagnosed failure...
        assert [index for index, _ in batch.failures] == [1]
        _, error = batch.failures[0]
        assert isinstance(error, ConvergenceError)
        assert error.diagnostics is not None
        assert all(np.isnan(v)
                   for v in batch.points[1].voltages.values())
        # ...and the neighbours match their serial twins exactly.
        for index in (0, 2):
            point = batch.points[index]
            assert point.converged
            assert all(np.isfinite(v) for v in point.voltages.values())
            undo = apply_lane(ckt, lanes[index])
            try:
                serial = operating_point(ckt, TIGHT)
            finally:
                undo()
            assert point.voltage("d") == \
                pytest.approx(serial.voltage("d"), rel=1e-9)

    def test_solve_stacked_isolates_an_exactly_singular_lane(self):
        from repro.spice.batch import _solve_stacked

        rng = np.random.default_rng(7)
        jac = np.stack([np.eye(3) + 0.1 * rng.normal(size=(3, 3))
                        for _ in range(3)])
        jac[1] = 0.0  # lane 1: exactly singular (LinAlgError territory)
        res = rng.normal(size=(3, 3))
        dX = _solve_stacked(jac, res)
        # The healthy lanes get the exact direct solutions...
        for k in (0, 2):
            np.testing.assert_allclose(
                dX[k], np.linalg.solve(jac[k], -res[k]), rtol=1e-12)
        # ...and the singular lane degrades to a *finite* least-squares
        # step instead of poisoning the whole stacked call.
        assert np.all(np.isfinite(dX[1]))

    def test_nonfinite_converged_lane_fails_diagnosed(self, monkeypatch):
        """Whatever the convergence bookkeeping claims, a lane whose
        solution vector holds NaN fails with a diagnosed error and is
        never packaged.  (Defence in depth for the stacked phases.)"""
        import repro.spice.batch as batch_mod

        real = batch_mod.batch_newton

        def poisoned(assembler, X, options, active_history=None):
            outcome = real(assembler, X, options, active_history)
            X[0] = np.nan  # "converged", but the vector is garbage
            return outcome

        monkeypatch.setattr(batch_mod, "batch_newton", poisoned)
        batch = batch_operating_point(diode_circuit(),
                                      source_lanes([0.5, 1.0]),
                                      on_error="skip")
        assert batch.diagnostics.n_failed == 1
        assert batch.diagnostics.n_converged_batched == 1
        [(index, error)] = batch.failures
        assert index == 0
        [stage] = error.diagnostics.stages
        assert (stage.strategy, stage.converged) == (BATCHED_STAGE, False)
        assert stage.detail == ("non-finite solution vector after "
                                "batched convergence")
        assert error.stage == BATCHED_STAGE
        assert error.diagnostics.rescued_by is None
        assert not batch.points[0].converged
        assert batch.points[1].converged
        assert all(np.isfinite(v) for v in batch.points[1].voltages.values())
