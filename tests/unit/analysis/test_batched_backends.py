"""backend="batched" on the analysis runners: serial equivalence.

One spec object (:class:`BatchedOpMetric` / :class:`BatchedOpSweep`)
drives both paths -- called per item it is the serial metric function,
handed to a batched runner it describes the stacked solve -- so these
tests compare the *same* population under both execution models.
"""

import numpy as np
import pytest

from repro.analysis import MonteCarlo
from repro.analysis.sweep import sweep_1d
from repro.devices.diode import Diode, DiodeParameters
from repro.devices.mismatch import MismatchSampler
from repro.errors import AnalysisError
from repro.spice import (
    BatchedOpMetric,
    BatchedOpSweep,
    Circuit,
    LaneSpec,
    NewtonOptions,
    NewtonStrategy,
    dc_sweep,
)
from repro.stscl.netlist_gen import stscl_inverter_circuit

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Converges small source walks, defeated by the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def _diode_build() -> Circuit:
    circuit = Circuit("flaky_diode")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


def _diode_measure(result):
    return {"v_a": result.voltages["a"]}


def _flaky_draw(seed, circuit):
    """Odd seeds demand the 8 V walk that defeats a Newton-only TIGHT
    ladder -- a deterministic, *deliberately* non-convergent sample."""
    value = 8.0 if seed % 2 else 0.5 + 0.1 * seed
    return LaneSpec.source("V1", value, label=f"seed-{seed}")


#: Serial call and batched lane both fail odd seeds the same way.
FLAKY_SPEC = BatchedOpMetric(build=_diode_build, draw=_flaky_draw,
                             measure=_diode_measure, options=TIGHT,
                             strategies=(NewtonStrategy(),))


class TestMonteCarloBatched:
    def _mismatch_spec(self, design):
        def build():
            circuit, _ = stscl_inverter_circuit(design, 0.4)
            return circuit

        def draw(seed, circuit):
            sampler = MismatchSampler(seed=seed)
            vt, beta = sampler.sample_bank(
                [m.device for m in circuit.mos_elements()])
            return LaneSpec.mismatch(vt, beta, label=f"seed-{seed}")

        def measure(result):
            return {"v_diff": result.vdiff("outp", "outn")}

        return BatchedOpMetric(build=build, draw=draw, measure=measure)

    def test_summaries_match_serial_within_1e9(self, default_design):
        """The acceptance bar: batched summary statistics within 1e-9
        relative tolerance of the serial backend on the same seeds."""
        spec = self._mismatch_spec(default_design)
        serial = MonteCarlo(spec, n_runs=8).run()
        batched = MonteCarlo(spec, n_runs=8, backend="batched").run()
        for name in serial:
            np.testing.assert_allclose(batched[name].values,
                                       serial[name].values, rtol=1e-9)
            assert batched[name].mean == pytest.approx(
                serial[name].mean, rel=1e-9)
            assert batched[name].std == pytest.approx(
                serial[name].std, rel=1e-9)
        assert serial.failed_seeds == batched.failed_seeds == []

    def test_failed_seed_records_match_serial(self):
        """A deliberately non-convergent sample produces the same
        failed-seed record, in the same order, under both backends."""
        serial = MonteCarlo(FLAKY_SPEC, n_runs=6, on_error="skip").run()
        batched = MonteCarlo(FLAKY_SPEC, n_runs=6, on_error="skip",
                             backend="batched").run()
        assert [seed for seed, _ in serial.failed_seeds] == [1, 3, 5]
        assert ([seed for seed, _ in batched.failed_seeds]
                == [seed for seed, _ in serial.failed_seeds])
        np.testing.assert_allclose(batched["v_a"].values,
                                   serial["v_a"].values, rtol=1e-9)

    def test_raise_policy_propagates_like_serial(self):
        from repro.errors import ConvergenceError
        with pytest.raises(ConvergenceError):
            MonteCarlo(FLAKY_SPEC, n_runs=2, backend="batched").run()

    def test_backend_validated(self):
        with pytest.raises(AnalysisError):
            MonteCarlo(FLAKY_SPEC, backend="vectorized")

    def test_batched_excludes_process_pool(self):
        with pytest.raises(AnalysisError, match="n_workers"):
            MonteCarlo(FLAKY_SPEC, backend="batched", n_workers=4)

    def test_plain_callable_rejected_with_guidance(self):
        mc = MonteCarlo(lambda seed: {"x": 1.0}, n_runs=2,
                        backend="batched")
        with pytest.raises(AnalysisError, match="BatchedOpMetric"):
            mc.run()


def _sweep_lane(value, circuit):
    return LaneSpec.source("V1", value, label=f"{value:g}")


SWEEP_SPEC = BatchedOpSweep(build=_diode_build, lane=_sweep_lane,
                            measure=_diode_measure)

FLAKY_SWEEP_SPEC = BatchedOpSweep(build=_diode_build, lane=_sweep_lane,
                                  measure=_diode_measure, options=TIGHT,
                                  strategies=(NewtonStrategy(),))


class TestSweepBatched:
    def test_table_matches_serial(self):
        values = [0.3, 0.6, 1.0, 2.0]
        serial = sweep_1d("v_in", values, SWEEP_SPEC)
        batched = sweep_1d("v_in", values, SWEEP_SPEC, backend="batched")
        np.testing.assert_allclose(batched.column("v_a"),
                                   serial.column("v_a"), rtol=1e-9)
        assert batched.failures == serial.failures == ()

    def test_skip_policy_nan_rows_match_serial(self):
        """The non-convergent point surfaces as the same NaN row and
        failure record under both backends."""
        values = [0.5, 8.0, 1.0]
        serial = sweep_1d("v_in", values, FLAKY_SWEEP_SPEC,
                          on_error="skip")
        batched = sweep_1d("v_in", values, FLAKY_SWEEP_SPEC,
                           on_error="skip", backend="batched")
        assert [k for k, _ in serial.failures] == [1]
        assert ([k for k, _ in batched.failures]
                == [k for k, _ in serial.failures])
        assert np.isnan(batched.column("v_a")[1])
        np.testing.assert_allclose(batched.column("v_a")[[0, 2]],
                                   serial.column("v_a")[[0, 2]],
                                   rtol=1e-9)

    def test_pilot_failure_falls_back_to_flat_start(self):
        """A dead *first* point must not poison the sweep: the pilot
        warm start falls back to the flat nodeset guess and the
        remaining points still converge and match serial."""
        values = [8.0, 0.5, 1.0]
        serial = sweep_1d("v_in", values, FLAKY_SWEEP_SPEC,
                          on_error="skip")
        batched = sweep_1d("v_in", values, FLAKY_SWEEP_SPEC,
                           on_error="skip", backend="batched")
        assert [k for k, _ in batched.failures] == [0]
        assert ([k for k, _ in batched.failures]
                == [k for k, _ in serial.failures])
        assert np.isnan(batched.column("v_a")[0])
        np.testing.assert_allclose(batched.column("v_a")[[1, 2]],
                                   serial.column("v_a")[[1, 2]],
                                   rtol=1e-9)

    def test_pilot_warm_start_emits_telemetry(self):
        from repro import telemetry
        with telemetry.tracing("sweep-test") as trace:
            sweep_1d("v_in", [0.3, 0.6], SWEEP_SPEC, backend="batched")
        sweep_span = trace.root.find("sweep-1d")
        assert sweep_span is not None
        assert sweep_span.events_of("pilot-warm-start")

    def test_plain_callable_rejected_with_guidance(self):
        with pytest.raises(AnalysisError, match="BatchedOpSweep"):
            sweep_1d("x", [1.0], lambda v: {"m": v}, backend="batched")


class TestDcSweepBatched:
    def test_points_match_serial(self, default_design):
        circuit, _ = stscl_inverter_circuit(default_design, 0.4)
        values = np.linspace(0.0, 0.4, 7)
        serial = dc_sweep(circuit, "vinp", values)
        batched = dc_sweep(circuit, "vinp", values, backend="batched")
        for s, b in zip(serial.points, batched.points):
            for node in s.voltages:
                assert b.voltages[node] == pytest.approx(
                    s.voltages[node], abs=1e-9)

    def test_skip_policy_matches_serial(self):
        circuit = _diode_build()
        values = [0.5, 8.0]
        serial = dc_sweep(circuit, "V1", values, options=TIGHT,
                          strategies=(NewtonStrategy(),), on_error="skip")
        batched = dc_sweep(circuit, "V1", values, options=TIGHT,
                           strategies=(NewtonStrategy(),),
                           on_error="skip", backend="batched")
        assert [k for k, _ in serial.failures] == [1]
        assert ([k for k, _ in batched.failures]
                == [k for k, _ in serial.failures])
        assert not batched.points[1].converged

    @pytest.mark.parametrize("backend", ["serial", "batched"])
    def test_empty_value_list_returns_an_empty_sweep(self, backend):
        """No values, no points -- and no solve on either backend."""
        from repro import telemetry
        with telemetry.tracing("empty") as trace:
            result = dc_sweep(_diode_build(), "V1", [], backend=backend)
        assert result.parameter == "V1"
        assert result.values.shape == (0,)
        assert result.points == [] and result.failures == []
        assert trace.total_counters().get("jacobian_factorizations", 0) == 0
        assert trace.root.find("batch-operating-point") is None


def _nan_draw(seed, circuit):
    """Seed 2 draws a NaN source value: a degenerate lane whose solve
    can never succeed, batched or serial."""
    value = float("nan") if seed == 2 else 0.5 + 0.1 * seed
    return LaneSpec.source("V1", value, label=f"seed-{seed}")


NAN_SPEC = BatchedOpMetric(build=_diode_build, draw=_nan_draw,
                           measure=_diode_measure, options=TIGHT)


class TestSingularLaneBackend:
    def test_degenerate_lane_records_failed_seed(self):
        """One NaN lane in a batched Monte-Carlo population must record
        a failed-seed entry -- the healthy seeds' statistics unharmed
        -- not poison the stacked solve."""
        run = MonteCarlo(NAN_SPEC, n_runs=5, on_error="skip",
                         backend="batched").run()
        assert [seed for seed, _ in run.failed_seeds] == [2]
        assert np.isfinite(run["v_a"].mean)
        serial = MonteCarlo(NAN_SPEC, n_runs=5, on_error="skip").run()
        assert ([seed for seed, _ in serial.failed_seeds]
                == [seed for seed, _ in run.failed_seeds])
        np.testing.assert_allclose(run["v_a"].values,
                                   serial["v_a"].values, rtol=1e-9)


def _pulse_build() -> Circuit:
    from repro.spice import pulse_wave

    circuit = Circuit("pulse_rc")
    circuit.add_vsource("V1", "in", "0",
                        waveform=pulse_wave(0.0, 1.0, 1e-6, 1e-7, 1e-7,
                                            2e-6, 4e-6))
    circuit.add_resistor("RS", "in", "a", 1e3)
    circuit.add_capacitor("C1", "a", "0", 1e-9)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


def _tran_draw(seed, circuit):
    factor = 1.0 + 0.1 * ((seed % 7) - 3)
    return LaneSpec(resistor_scale=(("RS", factor),),
                    label=f"seed-{seed}")


def _tran_measure(result):
    wave = result.voltage("a")
    return {"v_final": float(wave[-1]), "v_peak": float(wave.max())}


def _tran_spec():
    from repro.spice import TransientOptions
    from repro.spice.batch import BatchedTranMetric

    dt = 8e-6 / 200
    return BatchedTranMetric(
        build=_pulse_build, draw=_tran_draw, measure=_tran_measure,
        t_stop=8e-6,
        options=TransientOptions(dt_initial=dt, dt_min=dt, dt_max=dt))


class TestMonteCarloTransient:
    """analysis="transient": waveform metrics per seed, lockstep."""

    def test_fixed_grid_summaries_match_serial_within_1e9(self):
        spec = _tran_spec()
        serial = MonteCarlo(spec, n_runs=6, analysis="transient").run()
        batched = MonteCarlo(spec, n_runs=6, analysis="transient",
                             backend="batched").run()
        for name in serial:
            np.testing.assert_allclose(batched[name].values,
                                       serial[name].values, rtol=1e-9)
        assert serial.failed_seeds == batched.failed_seeds == []

    def test_op_backend_rejects_tran_spec_with_guidance(self):
        with pytest.raises(AnalysisError,
                           match="analysis='transient'"):
            MonteCarlo(_tran_spec(), n_runs=2, backend="batched").run()

    def test_tran_backend_rejects_op_spec_with_guidance(self):
        with pytest.raises(AnalysisError, match="BatchedTranMetric"):
            MonteCarlo(FLAKY_SPEC, n_runs=2, analysis="transient",
                       backend="batched").run()

    def test_analysis_validated(self):
        with pytest.raises(AnalysisError, match="analysis"):
            MonteCarlo(_tran_spec(), n_runs=2, analysis="ac")


class TestPilotWarmStart:
    """Every batched-op front-end warm-starts from one serial-ladder
    pilot solve instead of a one-lane batch."""

    N_RUNS = 4

    def test_lanes_bit_identical_to_one_lane_batch_pilot(
            self, default_design):
        """On an adder that only the pseudo-transient rung solves cold,
        the Monte-Carlo lanes equal the former recipe bit for bit -- a
        one-lane ``batch_operating_point`` pilot (whose lane falls back
        to that same serial ladder), its solution as ``x0``, then the
        batch -- without the extra pilot lane."""
        from repro import telemetry
        from repro.spice import batch_operating_point
        from repro.stscl.adder import adder_chain_circuit

        circuit, _ = adder_chain_circuit(default_design, 0.4, width=2,
                                         a=1, b=2, carry_in=True)
        circuit.matrix_backend = "sparse"
        n_bank = circuit.compile().assembler._mos_bank.n_devices
        lanes = [LaneSpec.mismatch(
            np.random.default_rng(seed).normal(0.0, 2e-3, n_bank),
            label=f"seed-{seed}") for seed in range(self.N_RUNS)]
        solutions = []

        def measure(result):
            solutions.append(result.x)
            return {"v0": float(result.x[0])}

        spec = BatchedOpMetric(build=lambda: circuit,
                               draw=lambda seed, _: lanes[seed],
                               measure=measure)
        pilot = batch_operating_point(circuit, lanes[:1], on_error="skip")
        assert pilot.diagnostics.n_fallback == 1  # needs the ladder
        recipe = batch_operating_point(circuit, lanes, on_error="skip",
                                       x0=pilot.points[0].x)
        with telemetry.tracing("pilot") as trace:
            run = MonteCarlo(spec, n_runs=self.N_RUNS,
                             backend="batched").run()
        assert run.failed_seeds == [] == recipe.failures
        for got, point in zip(solutions, recipe.points):
            assert np.array_equal(got, point.x)
        counters = trace.total_counters()
        assert counters["batch_lanes"] == self.N_RUNS
        assert counters.get("batch_lane_fallbacks", 0) == 0
        mc_span = trace.root.find("montecarlo")
        assert mc_span.events_of("pilot-warm-start") == [
            {"kind": "pilot-warm-start", "lane": "seed-0"}]

    def test_failed_pilot_emits_flat_start_event(self):
        from repro import telemetry
        with telemetry.tracing("dead-pilot") as trace:
            run = MonteCarlo(FLAKY_SPEC, n_runs=3, seed_base=1,
                             on_error="skip", backend="batched").run()
        assert [seed for seed, _ in run.failed_seeds] == [1, 3]
        mc_span = trace.root.find("montecarlo")
        [event] = mc_span.events_of("pilot-failed-flat-start")
        assert event["lane"] == "seed-1"
        assert not mc_span.events_of("pilot-warm-start")


def _shared_inverter(design) -> Circuit:
    circuit, _ = stscl_inverter_circuit(design, 0.4)
    return circuit


def _pilot_backend(trace) -> str:
    """The backend the first serial operating point of a trace -- the
    pilot -- factored its Jacobians on."""
    pilot = trace.root.find("operating-point")
    assert pilot is not None and pilot.total_counter(
        "jacobian_factorizations") > 0
    return ("sparse" if pilot.total_counter("sparse_factorizations")
            else "dense")


class TestMatrixBackendOverride:
    """A per-call ``matrix_backend=`` applies to that call -- pilot,
    stacked lanes and serial fallbacks -- and never sticks to the
    caller's circuit."""

    @staticmethod
    def _mismatch_draw(seed, circuit):
        rng = np.random.default_rng(seed)
        return LaneSpec.mismatch(
            rng.normal(0.0, 2e-3, len(circuit.mos_elements())),
            label=f"seed-{seed}")

    def _run_front_end(self, name, circuit, override):
        from repro.faults import FaultCampaign, ResistorDrift
        from repro.spice import TransientOptions
        from repro.spice.batch import BatchedTranMetric

        def build():
            return circuit

        if name == "montecarlo":
            spec = BatchedOpMetric(
                build=build, draw=self._mismatch_draw,
                measure=lambda r: {"v": r.vdiff("outp", "outn")})
            MonteCarlo(spec, n_runs=3, backend="batched",
                       matrix_backend=override).run()
        elif name == "montecarlo-transient":
            spec = BatchedTranMetric(
                build=build, draw=self._mismatch_draw,
                measure=lambda r: {"v": float(r.voltage("outp")[-1])},
                t_stop=1e-6, options=TransientOptions(dt_initial=5e-8,
                                                      dt_max=5e-8))
            MonteCarlo(spec, n_runs=2, backend="batched",
                       analysis="transient", matrix_backend=override).run()
        elif name == "sweep_1d":
            spec = BatchedOpSweep(
                build=build,
                lane=lambda v, _: LaneSpec.source("vinp", v, label=f"{v}"),
                measure=lambda r: {"v": r.vdiff("outp", "outn")})
            sweep_1d("v_in", [0.1, 0.2, 0.3], spec, backend="batched",
                     matrix_backend=override)
        elif name == "dc_sweep":
            dc_sweep(circuit, "vinp", [0.1, 0.2, 0.3], backend="batched",
                     matrix_backend=override)
        else:
            FaultCampaign(build=build,
                          metric_fn=lambda r: {"v": r.voltage("outp")},
                          faults=[ResistorDrift("rlp", 1.5)],
                          backend="batched",
                          matrix_backend=override).run()

    @pytest.mark.parametrize("front_end", [
        "montecarlo", "montecarlo-transient", "sweep_1d", "dc_sweep",
        "fault_campaign"])
    def test_override_does_not_leak(self, default_design, front_end):
        from repro import telemetry
        from repro.spice import operating_point

        circuit = _shared_inverter(default_design)
        operating_point(circuit)  # resolve and cache the own backend
        assert circuit.compile().solver_backend() == "dense"
        with telemetry.tracing("override") as trace:
            self._run_front_end(front_end, circuit, "sparse")
        assert circuit.matrix_backend == "auto"
        assert circuit.compile().solver_backend() == "dense"
        batched = (trace.root.find("batch-operating-point")
                   or trace.root.find("batch-transient"))
        assert batched.attrs["matrix_backend"] == "sparse"
        if front_end in ("montecarlo", "sweep_1d", "dc_sweep"):
            assert _pilot_backend(trace) == "sparse"

    def test_dense_override_of_a_sparse_circuit(self, default_design):
        from repro import telemetry

        circuit = _shared_inverter(default_design)
        circuit.matrix_backend = "sparse"
        assert circuit.compile().solver_backend() == "sparse"
        with telemetry.tracing("override") as trace:
            self._run_front_end("montecarlo", circuit, "dense")
        assert _pilot_backend(trace) == "dense"
        assert "matrix_backend" not in trace.root.find(
            "batch-operating-point").attrs
        assert circuit.matrix_backend == "sparse"
        assert circuit.compile().solver_backend() == "sparse"

    def test_override_restored_when_the_batch_raises(self):
        from repro.errors import ConvergenceError
        from repro.spice import batch_operating_point

        circuit = _diode_build()
        assert circuit.compile().solver_backend() == "dense"
        with pytest.raises(ConvergenceError):
            batch_operating_point(
                circuit, [LaneSpec.source("V1", 8.0)], options=TIGHT,
                strategies=(NewtonStrategy(),), matrix_backend="sparse")
        assert circuit.matrix_backend == "auto"
        assert circuit.compile().solver_backend() == "dense"
