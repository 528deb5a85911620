"""The four design-flow workloads of the end-to-end benchmark.

A workload makes every input from its seed, runs one job per call of
``job(index)`` and checks the outputs of the timed jobs against a
reference that does not share the code path under test (``check``).
Job ``index`` draws its inputs from ``(seed, index)`` alone, so a job's
inputs do not depend on how many jobs ran before it.  Only the public
``repro`` API is called.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro import adc, analysis, pmu, spice, stscl
from repro.errors import ReproError
from repro.stscl.adder import adder_chain_circuit

import layers

VDD = 0.4
#: The paper's E3 sampling rates [S/s].
E3_RATES = (800.0, 2e3, 8e3, 20e3, 80e3)
#: VT mismatch sigma of the transistor-level ensembles [V].
VT_SIGMA = 2e-3


@dataclass
class JobResult:
    index: int
    attempted: int
    failed: int
    output: object = None


def _job_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, index))


def _latch_circuit(design: stscl.StsclGateDesign) -> spice.Circuit:
    """Clocked D-latch driven by data and clock pulses, over 10 t_d."""
    t_d = design.delay()
    high, low = VDD, VDD - design.v_sw
    edge = t_d / 5.0

    def pulse(v0, v1, delay, width, period):
        return spice.pulse_wave(v0, v1, delay=delay, rise=edge, fall=edge,
                                width=width, period=period)
    circuit, _ = stscl.stscl_latch_circuit(
        design, VDD,
        pulse(low, high, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(high, low, 2 * t_d, 4 * t_d, 8 * t_d),
        pulse(low, high, t_d, 2 * t_d, 4 * t_d),
        pulse(high, low, t_d, 2 * t_d, 4 * t_d))
    return circuit


def _latch_options(t_d: float) -> spice.TransientOptions:
    return spice.TransientOptions(reltol=4e-3, abstol=1e-4, dt_max=t_d / 2.5)


def _latch_q(result) -> np.ndarray:
    return result.vdiff("outp", "outn")


def _mismatch(seed: int, n_devices: int) -> spice.LaneSpec:
    rng = np.random.default_rng(seed)
    return spice.LaneSpec.mismatch(rng.normal(0.0, VT_SIGMA, n_devices),
                                   label=f"seed-{seed}")


def _ratio(error: float, tolerance: float) -> float:
    return float(error) / tolerance


def _kept_seeds(run, base: int, n_runs: int) -> list[int]:
    """Seeds of a Monte-Carlo run that produced metrics, in the order
    its summaries list them."""
    failed = {seed for seed, _ in run.failed_seeds}
    return [seed for seed in range(base, base + n_runs) if seed not in failed]


# -- adc_yield ----------------------------------------------------------------

ADC_METRICS = ("inl", "dnl", "enob", "p_total")
#: Layers a pooled chip evaluation runs in the worker process.
ADC_WORKER_LAYERS = ("analog", "adc")


def adc_chip(seed: int) -> dict[str, float]:
    """One chip of the paper's E3+E4 flow: histogram INL/DNL, ENOB at one
    of the E3 rates on the PMU-tuned chip, and total power there."""
    chip = adc.FaiAdc(ideal=False, seed=seed)
    report = adc.linearity_test(chip, samples_per_code=12)
    unit = pmu.PowerManagementUnit(chip)
    f_s = E3_RATES[seed % len(E3_RATES)]
    enob = adc.dynamic_test(unit.tuned_adc(f_s), f_sample=f_s,
                            n_samples=2048).enob
    return {"inl": report.inl_max, "dnl": report.dnl_max, "enob": enob,
            "p_total": unit.operating_point(f_s).total_power}


def adc_chip_traced(seed: int) -> dict[str, float]:
    """:func:`adc_chip` plus the layer time it cost where it ran, as
    extra metric keys: in a pool worker that is the only way back to the
    parent's ledger."""
    ledger = layers.ACTIVE
    before = ledger.snapshot()
    t0 = time.perf_counter()
    metrics = adc_chip(seed)
    metrics["busy_s"] = time.perf_counter() - t0
    metrics.update(ledger.since(before, ADC_WORKER_LAYERS))
    return metrics


class AdcYield:
    """Monte-Carlo yield population of the converter, 32 chips a job on a
    process pool."""

    item = "chip"
    CHIPS = 32
    ANCHOR_JOBS = 8
    TRACED_JOBS = 10
    #: Entry points the traced jobs must reach.
    traced_entries = (
        "repro.adc.fai:FaiAdc.__init__",
        "repro.adc.fai:FaiAdc.convert_batch",
        "repro.adc.fai:FaiAdc.with_bias",
        "repro.adc.metrics:inl_dnl_from_codes",
        "repro.adc.metrics:sine_test",
        "repro.analysis.montecarlo:MonteCarlo.run",
        "repro.pmu.controller:PowerManagementUnit.operating_point",
        "repro.pmu.controller:PowerManagementUnit.tuned_adc")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # cpu_count, not the affinity: set-up runs pinned to one vCPU.
        self.n_workers = min(2, os.cpu_count() or 1)
        # Set by the traced run: chips then report their layer time too.
        self.traced = False
        if self.n_workers > 1:
            self.traced_entries += (layers.RUN_ORDERED,)

    def _seed_base(self, index: int) -> int:
        return int(_job_rng(self.seed, index).integers(0, 2**31 - self.CHIPS))

    def _population(self, index: int, metric, n_workers: int):
        return analysis.MonteCarlo(
            metric, n_runs=self.CHIPS, seed_base=self._seed_base(index),
            n_workers=n_workers, on_error="skip").run()

    def job(self, index: int) -> JobResult:
        metric = adc_chip_traced if self.traced else adc_chip
        run = self._population(index, metric, self.n_workers)
        finite = all(np.isfinite(run[key].values).all() for key in ADC_METRICS)
        return JobResult(index, self.CHIPS,
                         run.n_failed if finite else self.CHIPS, run)

    def check(self, results: list[JobResult]) -> dict[str, float]:
        """The first job recomputed serially in this process must equal
        the pooled results bit for bit; the chips of the first
        ``ANCHOR_JOBS`` jobs must sit on the paper's E3/E4 anchors (a
        fixed population, so the check reads the same on every run)."""
        first = results[0].output
        serial = self._population(results[0].index, adc_chip, 1)
        mismatched = sum(int(np.sum(serial[key].values != first[key].values))
                         for key in ADC_METRICS)
        population = results[:self.ANCHOR_JOBS]
        values = {key: np.concatenate([r.output[key].values
                                       for r in population])
                  for key in ADC_METRICS}
        rates = np.array([
            E3_RATES[seed % len(E3_RATES)] for r in population
            for seed in _kept_seeds(r.output, self._seed_base(r.index),
                                    self.CHIPS)])
        p_total = values["p_total"]
        return {
            "pooled_equals_serial": float(mismatched),
            "inl_median": _ratio(abs(np.median(values["inl"]) - 1.0), 0.4),
            "dnl_median": _ratio(abs(np.median(values["dnl"]) - 0.55), 0.35),
            "enob_median": _ratio(abs(np.median(values["enob"]) - 6.5), 0.4),
            "p_total_800": _ratio(np.max(np.abs(
                p_total[rates == 800.0] / 44e-9 - 1.0)), 0.35),
            "p_total_80k": _ratio(np.max(np.abs(
                p_total[rates == 80e3] / 4e-6 - 1.0)), 0.35),
        }

    def worker_keys(self, result: JobResult) -> dict[str, float]:
        """Summed worker-side keys of one traced job."""
        return {key: float(summary.values.sum())
                for key, summary in result.output.items()
                if key not in ADC_METRICS}


# -- gate_char ----------------------------------------------------------------

#: Tail currents of the designer loop: 100 pA .. 10 nA, log spaced.
GATE_I_SS = np.logspace(-10.0, -8.0, 9)


@dataclass
class GateOutput:
    design: stscl.StsclGateDesign
    swing: float
    latch: object


def gate_flow(design: stscl.StsclGateDesign) -> GateOutput:
    """One designer iteration on one gate, every circuit built fresh."""
    t_d = design.delay()
    high, low = VDD, VDD - design.v_sw
    chain, _ = stscl.stscl_buffer_chain_circuit(design, VDD, 8, high, low,
                                                with_dwell=True)
    op = spice.operating_point(chain)
    swing = abs(op.voltages["s8_outp"] - op.voltages["s8_outn"])
    inverter, _ = stscl.stscl_inverter_circuit(design, VDD)
    spice.dc_sweep(inverter, "vinp", np.linspace(0.0, VDD, 31))
    inverter.element("vinp").ac_mag = 1.0
    spice.ac_analysis(inverter, np.logspace(2.0, 9.0, 241))
    stscl.characterize_gate(design, VDD)
    latch = spice.transient(_latch_circuit(design), 10.0 * t_d,
                            _latch_options(t_d))
    return GateOutput(design, swing, latch)


class GateChar:
    """Serial characterization of single STSCL gates across I_SS."""

    item = "gate"
    n_workers = 1
    TRACED_JOBS = 20
    #: Entry points the traced jobs must reach.
    traced_entries = ("repro.devices.diode:DiodeBank.current",
                      "repro.devices.mosfet:MosBank.evaluate",
                      "repro.scope.capture:ScopeSession._on_sample",
                      "repro.scope.measure:crossings",
                      "repro.scope.measure:output_swing",
                      "repro.scope.measure:propagation_delay",
                      "repro.scope.measure:transition_time",
                      "repro.spice.ac:ac_analysis",
                      "repro.spice.assembly:CircuitAssembler.assemble",
                      "repro.spice.assembly:CircuitAssembler.stamp_charges",
                      "repro.spice.netlist:Circuit.compile",
                      "repro.spice.strategies:_getrf",
                      "repro.spice.strategies:_getrs",
                      "repro.spice.strategies:newton_solve",
                      "repro.spice.strategies:run_ladder",
                      "repro.spice.transient:transient")
    SWING_TOLERANCE = 0.05

    def __init__(self, seed: int) -> None:
        # Each run walks the whole grid in a seed-chosen order, so runs of
        # different seeds do the same mix of work.
        self.order = np.random.default_rng(seed).permutation(GATE_I_SS.size)

    def job(self, index: int) -> JobResult:
        i_ss = GATE_I_SS[self.order[index % GATE_I_SS.size]]
        design = stscl.StsclGateDesign.default(float(i_ss))
        try:
            output = gate_flow(design)
        except ReproError:
            return JobResult(index, 1, 1)
        ok = abs(output.swing / design.v_sw - 1.0) <= self.SWING_TOLERANCE
        return JobResult(index, 1, 0 if ok else 1, output)

    def check(self, results: list[JobResult]) -> dict[str, float]:
        """The first job's latch waveform against a tight-tolerance LTE
        reference; every gate's static swing against V_SW."""
        first = next(r.output for r in results if r.output is not None)
        design = first.design
        t_d = design.delay()
        reference = spice.transient(
            _latch_circuit(design), 10.0 * t_d,
            spice.TransientOptions(reltol=1e-6, abstol=1e-7,
                                   dt_max=t_d / 200.0))
        q_ref = np.interp(first.latch.time, reference.time,
                          _latch_q(reference))
        error = np.max(np.abs(_latch_q(first.latch) - q_ref))
        swing = max(abs(r.output.swing / r.output.design.v_sw - 1.0)
                    for r in results if r.output is not None)
        return {"latch_waveform": _ratio(error, 0.05 * design.v_sw),
                "static_swing": _ratio(swing, self.SWING_TOLERANCE)}


# -- latch_mc -----------------------------------------------------------------

class LatchMc:
    """Waveform mismatch Monte-Carlo: 16 lanes of one shared D-latch a job,
    integrated as one lockstep batched transient."""

    item = "lane"
    n_workers = 1
    LANES = 16
    TRACED_JOBS = 10
    #: Entry points the traced jobs must reach.
    traced_entries = (
        "repro.analysis.montecarlo:MonteCarlo.run",
        "repro.devices.mosfet:MosBank.evaluate",
        "repro.spice.assembly:CircuitAssembler.stamp_charges_batch",
        "repro.spice.batch:BatchAssembler.assemble_batch",
        "repro.spice.batch:_solve_stacked",
        "repro.spice.batch:batch_operating_point",
        "repro.spice.batch:batch_transient",
        "repro.spice.netlist:Circuit.compile")
    TOLERANCE_V = 1e-3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        design = stscl.StsclGateDesign.default(1e-9)
        t_d = design.delay()
        self.circuit = _latch_circuit(design)
        self.spec = spice.BatchedTranMetric(
            build=self._build, draw=self._draw, measure=self._measure,
            t_stop=10.0 * t_d, options=_latch_options(t_d))

    def _build(self) -> spice.Circuit:
        return self.circuit

    def _draw(self, seed: int, circuit: spice.Circuit) -> spice.LaneSpec:
        return _mismatch(seed, len(circuit.mos_elements()))

    @staticmethod
    def _measure(result) -> dict[str, float]:
        q = _latch_q(result)
        return {"v_q_final": q[-1], "v_q_peak": q.max()}

    def _seed_base(self, index: int) -> int:
        return int(_job_rng(self.seed, index).integers(0, 2**31 - self.LANES))

    def job(self, index: int) -> JobResult:
        run = analysis.MonteCarlo(
            self.spec, n_runs=self.LANES, seed_base=self._seed_base(index),
            backend="batched", analysis="transient", on_error="skip").run()
        finite = np.isfinite(run["v_q_final"].values).all()
        return JobResult(index, self.LANES,
                         run.n_failed if finite else self.LANES, run)

    def check(self, results: list[JobResult]) -> dict[str, float]:
        """The first job's lanes rerun one by one through the serial
        transient."""
        run = results[0].output
        serial = [self.spec(seed)["v_q_final"] for seed in _kept_seeds(
            run, self._seed_base(results[0].index), self.LANES)]
        error = np.max(np.abs(np.asarray(serial) - run["v_q_final"].values))
        return {"serial_v_q_final": _ratio(error, self.TOLERANCE_V)}


# -- adder_mc -----------------------------------------------------------------

class AdderMc:
    """Full-bank VT mismatch over the transistor-level 16-bit adder: one
    shared compiled circuit, 8 seeds a job as one batched sparse ensemble."""

    item = "seed"
    n_workers = 1
    WIDTH = 16
    SEEDS = 8
    TRACED_JOBS = 10
    #: Entry points the traced jobs must reach.
    traced_entries = (
        "SuperLU.solve",
        "repro.analysis.montecarlo:MonteCarlo.run",
        "repro.devices.mosfet:MosBank.evaluate",
        "repro.spice.assembly:CircuitAssembler.assemble",
        "repro.spice.batch:BatchAssembler.assemble_batch_sparse",
        "repro.spice.batch:batch_operating_point",
        "repro.spice.netlist:Circuit.compile",
        "repro.spice.sparse:_splu",
        "repro.spice.strategies:newton_solve",
        "repro.spice.strategies:run_ladder")
    TOLERANCE_V = 1e-6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        mask = (1 << self.WIDTH) - 1
        a, b = (int(v) for v in rng.integers(0, mask + 1, size=2))
        self.expected = (a + b + 1) & mask
        design = stscl.StsclGateDesign.default(1e-9)
        self.circuit, self.ports = adder_chain_circuit(
            design, VDD, width=self.WIDTH, a=a, b=b, carry_in=True)
        # Full device bank: top-level devices, then every instance's.
        self.n_devices = len(self.circuit.mos_elements()) + sum(
            len(element.subcircuit.template.mos_elements())
            for element in self.circuit.elements
            if hasattr(element, "subcircuit"))
        self.spec = spice.BatchedOpMetric(build=self._build, draw=self._draw,
                                          measure=self._measure)
        self._first_voltages = None

    def _build(self) -> spice.Circuit:
        return self.circuit

    def _draw(self, seed: int, circuit: spice.Circuit) -> spice.LaneSpec:
        return _mismatch(seed, self.n_devices)

    def _measure(self, result) -> dict[str, float]:
        if self._first_voltages is None:
            self._first_voltages = result.voltages
        total = 0
        for bit in range(self.WIDTH):
            p, n = self.ports[f"s{bit}"]
            if result.voltages[p] > result.voltages[n]:
                total |= 1 << bit
        return {"sum": float(total)}

    def _seed_base(self, index: int) -> int:
        return int(_job_rng(self.seed, index).integers(0, 2**31 - self.SEEDS))

    def job(self, index: int) -> JobResult:
        self._first_voltages = None
        run = analysis.MonteCarlo(self.spec, n_runs=self.SEEDS,
                                  seed_base=self._seed_base(index),
                                  backend="batched", on_error="skip").run()
        wrong = int(np.sum(run["sum"].values != self.expected))
        return JobResult(index, self.SEEDS, run.n_failed + wrong,
                         (run, self._first_voltages))

    def check(self, results: list[JobResult]) -> dict[str, float]:
        """Every seed decodes a+b+1; lane 0 of the first job against a
        serial operating point of the same perturbed adder."""
        wrong = sum(int(np.sum(r.output[0]["sum"].values != self.expected))
                    for r in results)
        run, batched = results[0].output
        seed = _kept_seeds(run, self._seed_base(results[0].index),
                           self.SEEDS)[0]
        undo = spice.apply_lane(self.circuit, self._draw(seed, self.circuit))
        try:
            serial = spice.operating_point(self.circuit).voltages
        finally:
            undo()
        error = max(abs(serial[node] - batched[node]) for node in serial)
        return {"sum_decodes": float(wrong),
                "lane0_serial_op": _ratio(error, self.TOLERANCE_V)}


WORKLOADS = {"adc_yield": AdcYield, "gate_char": GateChar,
             "latch_mc": LatchMc, "adder_mc": AdderMc}
