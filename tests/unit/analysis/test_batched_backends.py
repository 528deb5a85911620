"""backend="batched" on the population front-ends: serial equivalence.

One spec object (:class:`BatchedOpMetric` / :class:`BatchedTranMetric`)
drives both paths of :class:`MonteCarlo` -- called per seed it is the
serial metric function, handed to the batched runner it describes the
stacked solve -- and :func:`dc_sweep` takes the same source values on
either backend, so these tests compare the *same* population under
both execution models.
"""

import numpy as np
import pytest

from repro.analysis import MonteCarlo
from repro.devices.diode import Diode, DiodeParameters
from repro.devices.mismatch import PELGROM_180NM
from repro.errors import AnalysisError
from repro.spice import (
    BatchedOpMetric,
    Circuit,
    LaneSpec,
    NewtonOptions,
    dc_sweep,
)
from repro.stscl.netlist_gen import stscl_inverter_circuit

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Converges small source walks, defeated by the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def _diode_build() -> Circuit:
    """A source into a diode through 10 ohms.  A nodeset starts the
    source node at 0 V (nodesets win over the source start), so every
    lane walks up to its source value: the 8 V walk defeats TIGHT."""
    circuit = Circuit("flaky_diode")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    circuit.nodeset("in", 0.0)
    return circuit


def _diode_measure(result):
    return {"v_a": result.voltages["a"]}


def _flaky_draw(seed, circuit):
    """Odd seeds demand the 8 V walk that defeats both rungs under
    TIGHT -- a deterministic, *deliberately* non-convergent sample."""
    value = 8.0 if seed % 2 else 0.5 + 0.1 * seed
    return LaneSpec.source("V1", value, label=f"seed-{seed}")


#: Serial call and batched lane both fail odd seeds the same way.
FLAKY_SPEC = BatchedOpMetric(build=_diode_build, draw=_flaky_draw,
                             measure=_diode_measure, options=TIGHT)


class TestMonteCarloBatched:
    def _mismatch_spec(self, design):
        def build():
            circuit, _ = stscl_inverter_circuit(design, 0.4)
            return circuit

        def draw(seed, circuit):
            devices = [m.device for m in circuit.mos_elements()]
            rng = np.random.default_rng(seed)
            vt = rng.normal(0.0, [PELGROM_180NM.sigma_vt(d.w, d.l)
                                  for d in devices])
            beta = 1.0 + rng.normal(0.0, [PELGROM_180NM.sigma_beta(d.w, d.l)
                                          for d in devices])
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
                          on_error="skip")
        batched = dc_sweep(circuit, "V1", values, options=TIGHT,
                           on_error="skip", backend="batched")
        assert [k for k, _ in serial.failures] == [1]
        assert ([k for k, _ in batched.failures]
                == [k for k, _ in serial.failures])
        assert not batched.points[1].converged

    def test_pilot_failure_falls_back_to_flat_start(self):
        """A dead *first* point must not poison the sweep: the pilot
        warm start falls back to each lane's own cold start, and the
        remaining points still converge and match serial."""
        from repro import telemetry

        values = [8.0, 0.5, 1.0]
        serial = dc_sweep(_diode_build(), "V1", values, options=TIGHT,
                          on_error="skip")
        with telemetry.tracing("dead-pilot") as trace:
            batched = dc_sweep(_diode_build(), "V1", values,
                               options=TIGHT, on_error="skip",
                               backend="batched")
        [event] = [event for span in trace.root.walk()
                   for event in span.events_of("pilot-failed-flat-start")]
        assert event["lane"] == "8"
        assert not any(span.events_of("pilot-warm-start")
                       for span in trace.root.walk())
        assert [k for k, _ in batched.failures] == [0]
        assert ([k for k, _ in batched.failures]
                == [k for k, _ in serial.failures])
        assert not batched.points[0].converged
        for k in (1, 2):
            for node, voltage in serial.points[k].voltages.items():
                assert batched.points[k].voltages[node] == pytest.approx(
                    voltage, abs=1e-9)

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

    def test_lanes_bitwise_match_serial_pilot(self, default_design,
                                              ladder_hard_adder):
        """On an adder that only the pseudo-transient rung solves cold
        (its source-coupled nodes started where Newton stalls), the
        Monte-Carlo lanes equal the explicit recipe bit for bit --
        lane 0 through the serial ladder, its solution as ``x0``, then
        the batch -- without an extra pilot lane."""
        from repro import telemetry
        from repro.spice import (apply_lane, batch_operating_point,
                                 operating_point)

        circuit, _ = ladder_hard_adder(default_design, 0.4, width=2,
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
        undo = apply_lane(circuit, lanes[0])
        try:
            pilot = operating_point(circuit)
        finally:
            undo()
        assert pilot.diagnostics.rescued_by == "pseudo-transient"
        recipe = batch_operating_point(circuit, lanes, on_error="skip",
                                       x0=pilot.x)
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


def _backend_diode(backend: str) -> Circuit:
    """:func:`_diode_build` on ``backend``."""
    circuit = _diode_build()
    circuit.matrix_backend = backend
    return circuit


def _backend_pulse_rc(backend: str) -> Circuit:
    """A pulse through RC into a diode clamp, on ``backend``."""
    from repro.spice import pulse_wave

    circuit = Circuit("pulse_rc", matrix_backend=backend)
    circuit.add_vsource("V1", "in", "0", waveform=pulse_wave(
        0.0, 1.0, 1e-6, 1e-7, 1e-7, 2e-6, 4e-6))
    circuit.add_resistor("RS", "in", "a", 1e3)
    circuit.add_capacitor("C1", "a", "0", 1e-9)
    circuit.add_diode("D1", "a", "0", Diode(DiodeParameters(
        name="junction", i_s=1e-16, cj0=1e-12)))
    return circuit


class TestOwnBackend:
    """Every batched front-end solves on the circuit's own
    ``matrix_backend``: its pilot, its stacked lanes and its serial
    solves.  Each front-end's population holds one member the stacked
    solver cannot keep: the 8 V walk both rungs lose under TIGHT (DC),
    which fails with both stacked stages on record and is not rerun; a
    stiff lane Newton loses on a fixed grid (transient), which reruns
    serially."""

    def _run_front_end(self, name, backend) -> tuple[str | None,
                                                     str | None]:
        """Run ``name`` traced; returns (the span the pilot solves in or
        None, the span a serial solve runs in or None when the stacked
        solver reruns nothing)."""
        from functools import partial

        from repro.spice import TransientOptions
        from repro.spice.batch import BatchedTranMetric

        build = partial(_backend_diode, backend)
        if name == "mc":
            MonteCarlo(BatchedOpMetric(
                build=build, draw=_flaky_draw, measure=_diode_measure,
                options=TIGHT),
                n_runs=3, on_error="skip", backend="batched").run()
            return "operating-point", None
        if name == "mc_tran":
            # Six Newton iterations per step on a 100-step grid: the
            # nominal lane keeps up, the stiff lane (RS / 1e4) leaves
            # the grid and fails its serial rerun the same way.
            dt = 8e-8
            spec = BatchedTranMetric(
                build=partial(_backend_pulse_rc, backend),
                draw=lambda seed, _: LaneSpec(
                    resistor_scale=(("RS", 1e-4 if seed else 1.0),)),
                measure=lambda r: {"v": float(r.voltage("a")[-1])},
                t_stop=8e-6, options=TransientOptions(
                    dt_initial=dt, dt_min=dt, dt_max=dt,
                    newton=NewtonOptions(max_iterations=6)))
            run = MonteCarlo(spec, n_runs=2, on_error="skip",
                             backend="batched", analysis="transient").run()
            assert [seed for seed, _ in run.failed_seeds] == [1]
            return None, "transient"
        dc_sweep(build(), "V1", [0.5, 8.0, 0.7], options=TIGHT,
                 on_error="skip", backend="batched")
        return "operating-point", None

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("front_end", ["mc", "mc_tran", "dc_sweep"])
    def test_on_own_backend(self, front_end, backend):
        from repro import telemetry

        with telemetry.tracing("own-backend") as trace:
            pilot, serial = self._run_front_end(front_end, backend)
        batched = (trace.root.find("batch-transient")
                   or trace.root.find("batch-operating-point"))
        solves = [batched.counter("jacobian_factorizations")]
        if serial is None:
            # Batched DC reruns no lane: the lost one fails with both
            # stacked stages on record.
            [failed] = batched.events_of("lane-failed")
            assert ("(tried batched-newton, batched-pseudo-transient)"
                    in failed["why"])
        else:
            solved = batched.find(serial) or trace.root.find(serial)
            solves.append(solved.total_counter("jacobian_factorizations"))
        if pilot is not None:
            first = next(span for span in trace.root.walk()
                         if span.name in (pilot, batched.name))
            assert first.name == pilot  # the pilot solves first
            solves.append(first.total_counter("jacobian_factorizations"))
        assert min(solves) > 0
        for span in trace.root.walk():
            factored = span.counter("jacobian_factorizations")
            assert span.counter("sparse_factorizations") == (
                factored if backend == "sparse" else 0), span.name
