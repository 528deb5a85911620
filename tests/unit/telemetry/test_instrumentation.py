"""Integration of the telemetry layer with the solver stack.

The acceptance contract: a traced operating-point chain exposes
Newton-iteration spans, strategy-ladder events and device-eval /
compile-cache counters that reconcile with the solver's own
diagnostics -- and tracing must not change any numerical result.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import MonteCarlo
from repro.spice import Circuit, ac_analysis, operating_point
from repro.spice.dc import dc_sweep
from repro.spice.transient import TransientOptions, transient
from repro.spice.waveforms import pulse_wave
from repro.stscl.gate_model import StsclGateDesign
from repro.stscl.netlist_gen import stscl_inverter_circuit
from tests.conftest import ladder_hard_delay_chain


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.reset()
    yield
    telemetry.reset()


def inverter():
    design = StsclGateDesign.default(1e-9)
    circuit, ports = stscl_inverter_circuit(design, 0.4)
    return circuit, ports


class TestOperatingPointTrace:
    def test_counters_reconcile_with_diagnostics(self):
        circuit, _ = inverter()
        with telemetry.tracing("op") as trace:
            result = operating_point(circuit)
        op = trace.root.find("operating-point")
        assert op is not None
        assert op.attrs["circuit"] == circuit.name
        # Every Newton iteration factors the Jacobian it assembled:
        # summed over every ladder rung, the factorizations reconcile
        # exactly with the solver's own iteration total.
        factorizations = op.total_counter("jacobian_factorizations")
        assert factorizations == result.iterations
        assert factorizations > 0
        # Compile-cache traffic reconciles with Circuit.compile_count.
        assert (op.total_counter("compile_cache_misses")
                == circuit.compile_count == 1)

    def test_newton_spans_carry_iteration_events(self):
        circuit, _ = inverter()
        with telemetry.tracing("op") as trace:
            operating_point(circuit)
        newtons = trace.root.find_all("newton")
        assert newtons
        converged = [s for s in newtons if s.attrs.get("converged")]
        assert converged
        events = converged[-1].events_of("newton-iter")
        assert len(events) == converged[-1].attrs["iterations"]
        for key in ("i", "residual", "update_norm", "damping"):
            assert key in events[0]

    def test_ladder_events_name_the_rescuing_strategy(self):
        circuit = ladder_hard_delay_chain()
        with telemetry.tracing("op") as trace:
            result = operating_point(circuit)
        op = trace.root.find("operating-point")
        rungs = op.events_of("ladder-rung")
        assert rungs
        winner = [r for r in rungs if r["converged"]]
        assert winner[-1]["strategy"] == result.diagnostics.rescued_by
        # The 3-stage delay testbench at 316 pA from the fixed hints
        # needs the pseudo-transient rung: its strategy span
        # records the step schedule.
        assert result.diagnostics.rescued_by == "pseudo-transient"
        rung = op.find("strategy:pseudo-transient")
        steps = rung.events_of("pseudo-transient-step")
        assert steps
        assert all("g" in s and "iterations" in s for s in steps)
        assert steps[0]["g"] == 1e-3

    def test_device_bank_evals_counted(self):
        circuit, _ = inverter()
        with telemetry.tracing("op") as trace:
            result = operating_point(circuit)
        op = trace.root.find("operating-point")
        # One MOS-bank evaluation per Newton iteration (assemble call),
        # plus the final-residual assembles -- at least `iterations`.
        assert (op.total_counter("device_bank_evals")
                >= result.iterations)

    def test_tracing_does_not_change_the_solution(self):
        circuit_a, ports = inverter()
        plain = operating_point(circuit_a)
        circuit_b, _ = inverter()
        with telemetry.tracing("op"):
            traced = operating_point(circuit_b)
        assert np.allclose(plain.x, traced.x, rtol=0, atol=0)
        assert plain.iterations == traced.iterations

    def test_warm_start_hits_the_compile_cache(self):
        circuit, _ = inverter()
        with telemetry.tracing("op") as trace:
            first = operating_point(circuit)
            operating_point(circuit, x0=first.x)
        ops = trace.root.find_all("operating-point")
        assert len(ops) == 2
        assert ops[1].attrs["warm_start"] is True
        assert ops[1].total_counter("compile_cache_hits") >= 1
        assert ops[1].total_counter("compile_cache_misses") == 0


class TestAnalysisSpans:
    def test_dc_sweep_span(self):
        circuit, _ = inverter()
        with telemetry.tracing("sweep") as trace:
            dc_sweep(circuit, "vinp", np.linspace(0.0, 0.4, 5))
        node = trace.root.find("dc-sweep")
        assert node is not None
        assert node.attrs["n_points"] == 5
        assert node.attrs["n_failures"] == 0
        assert node.total_counter("compile_cache_misses") == 1

    def test_transient_span_counts_steps(self):
        design = StsclGateDesign.default(1e-9)
        t_d = design.delay()
        edge = t_d / 5.0
        high, low = 0.4, 0.4 - design.v_sw
        circuit, ports = stscl_inverter_circuit(
            design, 0.4,
            in_p=pulse_wave(low, high, delay=t_d, rise=edge, fall=edge,
                            width=2 * t_d, period=4 * t_d),
            in_n=pulse_wave(high, low, delay=t_d, rise=edge, fall=edge,
                            width=2 * t_d, period=4 * t_d))
        with telemetry.tracing("tran") as trace:
            result = transient(circuit, 4 * design.delay(),
                               TransientOptions(
                                   dt_max=design.delay() / 10))
        node = trace.root.find("transient")
        assert node is not None
        assert (node.counter("transient_steps_accepted")
                == result.telemetry.steps_accepted)
        assert (node.counter("transient_steps_rejected")
                == result.telemetry.steps_rejected)

    def test_ac_span_counts_factorizations(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", 0.0, ac_mag=1.0)
        ckt.add_resistor("R1", "in", "out", 1e6)
        ckt.add_capacitor("C1", "out", "0", 1e-12)
        # NB: the trace name must differ from the span name -- find()
        # searches from the root inclusive.
        with telemetry.tracing("actest") as trace:
            ac_analysis(ckt, np.logspace(3, 6, 7))
        node = trace.root.find("ac")
        assert node is not None
        assert node.attrs["n_frequencies"] == 7
        assert node.counter("jacobian_factorizations") == 7


    def test_fault_campaign_spans_in_catalogue_order(self):
        """One child span per fault, the failing fault's included, in
        catalogue order after the baseline."""
        from repro.faults import BridgedNodes, FaultCampaign, ResistorDrift

        faults = [ResistorDrift("R2", 3.0), ResistorDrift("V1", 2.0),
                  BridgedNodes("mid", "0", resistance=1.0),
                  ResistorDrift("R1", 0.5)]
        with telemetry.tracing("faults") as trace:
            report = FaultCampaign(build=_divider, metric_fn=_mid_voltage,
                                   faults=faults).run()
        assert [o.fault for o in report.failed] == ["r-drift-V1-x2"]
        campaign = trace.root.find("fault-campaign")
        names = [fault.name for fault in faults]
        assert [c.name for c in campaign.children] == ["baseline"] + [
            f"fault-{name}" for name in names]
        assert [c.attrs["fault"] for c in campaign.children[1:]] == names
        [failure] = campaign.events_of("fault-eval-failed")
        assert failure["fault"] == "r-drift-V1-x2"
        assert campaign.counter("faults_failed") == 1


def _divider():
    circuit = Circuit("divider")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    return circuit


def _mid_voltage(circuit):
    return {"v_mid": operating_point(circuit).voltage("mid")}


def _seed_metric(seed):
    return {"value": float(seed) * 2.0}


class TestMonteCarloTraceMerge:
    def test_serial_spans_nest_per_seed(self):
        with telemetry.tracing("mc") as trace:
            MonteCarlo(_seed_metric, n_runs=3).run()
        node = trace.root.find("montecarlo")
        assert [c.name for c in node.children] == [
            "seed-0", "seed-1", "seed-2"]

    def test_parallel_worker_spans_merge_in_order(self):
        with telemetry.tracing("mc") as trace:
            MonteCarlo(_seed_metric, n_runs=4, n_workers=2).run()
        node = trace.root.find("montecarlo")
        assert [c.name for c in node.children] == [
            "seed-0", "seed-1", "seed-2", "seed-3"]
        assert [c.attrs["seed"] for c in node.children] == [0, 1, 2, 3]

    def test_parallel_and_serial_results_identical_when_traced(self):
        with telemetry.tracing("a"):
            serial = MonteCarlo(_seed_metric, n_runs=4).run()
        telemetry.reset()
        with telemetry.tracing("b"):
            parallel = MonteCarlo(_seed_metric, n_runs=4,
                                  n_workers=2).run()
        assert np.array_equal(serial["value"].values,
                              parallel["value"].values)

    def test_untraced_parallel_run_ships_no_spans(self):
        run = MonteCarlo(_seed_metric, n_runs=2, n_workers=2).run()
        assert run["value"].mean == pytest.approx(1.0)
        assert not telemetry.is_enabled()
