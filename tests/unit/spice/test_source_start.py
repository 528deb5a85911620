"""Cold DC solves start on the sources.

``Circuit.initial_guess`` puts every node a grounded independent
voltage source drives at that source's t = 0 value, and nodesets still
win.  From that start, damped Newton meets the source rows on its first
iterations instead of walking every supply up at ``max_step`` volts per
iteration, so the paper's gates and latches converge in the Newton rung.
A batched lane that overrides a grounded source starts where its serial
twin (``apply_lane``, then ``operating_point``) does, in every phase.
"""

import numpy as np
import pytest

from repro.devices.diode import Diode, DiodeParameters
from repro.spice import (
    Circuit,
    LaneSpec,
    NewtonOptions,
    apply_lane,
    batch_operating_point,
    operating_point,
    pulse_wave,
)
from repro.spice import batch
from repro.spice.strategies import pseudo_transient
from repro.stscl import (StsclGateDesign, stscl_buffer_chain_circuit,
                         stscl_inverter_circuit, stscl_latch_circuit)

VDD = 0.4
DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Enough for small source walks, far too little for the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def _start(circuit: Circuit, source_values=()) -> dict[str, float]:
    compiled = circuit.compile()
    x0 = circuit.initial_guess(compiled, source_values)
    assert not x0[len(compiled.node_index):].any()  # aux currents at 0
    return {node: float(x0[row])
            for node, row in compiled.node_index.items()}


class TestInitialGuess:
    def test_grounded_sources_start_their_nodes_on_the_source(self):
        circuit = Circuit("sources")
        circuit.add_vsource("vp", "p", "0", 0.4)
        circuit.add_vsource("vn", "gnd", "n", 0.25)   # + terminal grounded
        circuit.add_vsource("vw", "w", "0", pulse_wave(
            0.15, 0.9, delay=1e-6, rise=1e-7, fall=1e-7, width=1e-6,
            period=4e-6))
        circuit.add_vsource("vf", "f1", "f2", 1.0)    # floating
        for node in ("p", "n", "w", "f1", "f2"):
            circuit.add_resistor(f"r_{node}", node, "0", 1e3)
        assert _start(circuit) == {"p": 0.4, "n": -0.25, "w": 0.15,
                                   "f1": 0.0, "f2": 0.0}

    def test_a_nodeset_on_a_source_node_wins(self):
        circuit = Circuit("held")
        circuit.add_vsource("v1", "in", "0", 8.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_resistor("r2", "out", "0", 1e3)
        circuit.nodeset("in", 0.0)
        circuit.nodeset("out", 0.3)
        assert _start(circuit) == {"in": 0.0, "out": 0.3}

    def test_source_values_match_the_serial_twin(self):
        """The override pairs a batched lane carries build the vector
        ``apply_lane`` + ``initial_guess`` builds on the perturbed
        circuit."""
        circuit = Circuit("twins")
        circuit.add_vsource("v1", "a", "0", 1.0)
        circuit.add_vsource("v2", "0", "b", 0.3)
        circuit.add_resistor("r1", "a", "b", 1e3)
        lane = LaneSpec(source_values=(("v1", 8.0), ("v2", 0.5)))
        batched = _start(circuit, lane.source_values)
        undo = apply_lane(circuit, lane)
        try:
            serial = _start(circuit)
        finally:
            undo()
        assert batched == serial == {"a": 8.0, "b": -0.5}


def _latch(design: StsclGateDesign) -> Circuit:
    """gate_char's D-latch: data and clock pulses over 10 t_d.  At
    t = 0 the clock is low (hold) and its nodesets name
    outp - outn = +V_SW."""
    t_d = design.delay()
    high, low = VDD, VDD - design.v_sw

    def pulse(v0, v1, delay, width, period):
        return pulse_wave(v0, v1, delay=delay, rise=t_d / 5.0,
                          fall=t_d / 5.0, width=width, period=period)
    circuit, _ = stscl_latch_circuit(
        design, VDD,
        pulse(low, high, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(high, low, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(low, high, t_d, 2 * t_d, 4 * t_d),
        pulse(high, low, t_d, 2 * t_d, 4 * t_d))
    return circuit


def _inverter(design: StsclGateDesign) -> Circuit:
    return stscl_inverter_circuit(design, VDD)[0]


def _chain8(design: StsclGateDesign) -> Circuit:
    return stscl_buffer_chain_circuit(design, VDD, 8, VDD,
                                      VDD - design.v_sw,
                                      with_dwell=True)[0]


class TestColdGatesTakeNewton:
    """From 0 V each of these but the inverter at 10 nA stalled the
    Newton rung and needed 28-51 pseudo-transient iterations; from the
    sources Newton converges."""

    @pytest.mark.parametrize("i_ss", [1e-10, 1e-8])
    @pytest.mark.parametrize("build", [_latch, _inverter, _chain8],
                             ids=["latch", "inverter", "chain8"])
    def test_newton_converges_to_the_continuation_answer(self, build,
                                                         i_ss):
        design = StsclGateDesign.default(i_ss)
        newton = operating_point(build(design))
        assert newton.diagnostics.rescued_by == "newton"
        assert [s.strategy for s in newton.diagnostics.stages] == [
            "newton"]
        # The pseudo-transient rung alone, from the same start.
        circuit = build(design)
        compiled = circuit.compile()
        continued, _ = pseudo_transient(
            compiled, circuit.initial_guess(compiled), None,
            NewtonOptions())
        vntol = NewtonOptions().vntol
        for node, row in compiled.node_index.items():
            assert newton.voltages[node] == pytest.approx(continued[row],
                                                          abs=vntol)
        if build is _latch:
            # The bistable latch keeps the state its nodesets name.
            assert newton.vdiff("outp", "outn") == pytest.approx(
                design.v_sw, rel=0.05)


def _diode() -> Circuit:
    """1 V into a diode through 10 ohms, no nodesets."""
    circuit = Circuit("source_diode")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


def _serial_twin(circuit: Circuit, lane: LaneSpec, options):
    undo = apply_lane(circuit, lane)
    try:
        return operating_point(circuit, options)
    finally:
        undo()


class TestSourceLaneStart:
    def test_an_8v_lane_matches_its_serial_twin(self):
        """The 8 V lane of the 1 V diode circuit converges in the
        Newton rung under 20 iterations serially, so it must in the
        stacked Newton phase too, to the same solution."""
        lanes = [LaneSpec.source("V1", v, label=f"{v:g}")
                 for v in (0.5, 8.0)]
        result = batch_operating_point(_diode(), lanes, options=TIGHT,
                                       on_error="skip")
        assert result.failures == []
        assert result.diagnostics.n_failed == 0
        assert result.diagnostics.n_converged_batched == 2
        for lane, point in zip(lanes, result.points):
            serial = _serial_twin(_diode(), lane, TIGHT)
            assert serial.diagnostics.rescued_by == "newton"
            assert point.converged
            for node, value in serial.voltages.items():
                assert point.voltages[node] == pytest.approx(
                    value, rel=1e-9, abs=1e-12)

    def test_every_phase_starts_a_lane_from_its_serial_twin(
            self, monkeypatch):
        """Stacked Newton and the stacked pseudo-transient restart each
        start a source lane from the vector ``apply_lane`` +
        ``initial_guess`` builds.  Two-iteration budgets make every lane
        fail both phases, so both run."""
        seen = {}
        real_newton = batch.batch_newton
        real_continuation = batch.batch_pseudo_transient

        def newton(assembler, X, *args):
            seen["newton"] = X.copy()
            return real_newton(assembler, X, *args)

        def continuation(assembler, X, lanes, *args):
            seen["pseudo-transient"] = dict(zip(lanes.tolist(),
                                                X[lanes].copy()))
            return real_continuation(assembler, X, lanes, *args)

        monkeypatch.setattr(batch, "batch_newton", newton)
        monkeypatch.setattr(batch, "batch_pseudo_transient", continuation)
        circuit = _diode()
        lanes = [LaneSpec.source("V1", 8.0), LaneSpec(),
                 LaneSpec.source("V1", 3.0)]
        result = batch_operating_point(
            circuit, lanes, options=NewtonOptions(max_iterations=2),
            on_error="skip")
        assert [k for k, _ in result.failures] == [0, 1, 2]
        compiled = circuit.compile()
        twins = []
        for lane in lanes:
            undo = apply_lane(circuit, lane)
            try:
                twins.append(circuit.initial_guess(compiled))
            finally:
                undo()
        np.testing.assert_array_equal(seen["newton"], twins)
        assert sorted(seen["pseudo-transient"]) == [0, 1, 2]
        for k, start in seen["pseudo-transient"].items():
            np.testing.assert_array_equal(start, twins[k])
        assert twins[0][compiled.node_index["in"]] == 8.0
