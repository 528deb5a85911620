"""Timing of the MNA hot paths on FAI-ADC-sized STSCL netlists.

Each case builds its circuit fresh, runs one untimed warmup (JIT-free
Python, but the warmup still populates the compile cache exactly like a
real workflow would) and reports the best wall time over ``repeats``
runs -- the minimum is the standard estimator for "how fast can this
code go" because every source of interference only ever adds time.

The emitted ``BENCH_perf.json`` is schema-versioned so downstream
tooling (the CI perf-smoke job, trend dashboards) can evolve without
guessing at the layout.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .. import telemetry
from ..analysis.montecarlo import MonteCarlo
from ..errors import AnalysisError
from ..spice.dc import dc_sweep, operating_point
from ..spice.transient import TransientOptions, transient
from ..spice.waveforms import pulse_wave
from ..stscl.gate_model import StsclGateDesign
from ..stscl.netlist_gen import (
    stscl_buffer_chain_circuit,
    stscl_inverter_circuit,
    stscl_latch_circuit,
)
from ..telemetry.invariants import violations

#: Format tag of the emitted JSON report (v2: per-case trace_counters;
#: v3: batched-ensemble cases + numpy/BLAS/threading provenance meta;
#: v4: LTE-controlled transient + transient_lte / ac_sweep fast-path
#: cases; v5: per-case ``backend`` + ``n_unknowns`` meta and the
#: ``sparse_adder_chain`` case with its dense-vs-sparse crossover
#: ladder; v6: the ``scope_capture`` triggered-capture case with its
#: samples-seen/stored and window-memory meta; v7: the
#: ``sparse_batched_montecarlo`` thousand-unknown ensemble case with
#: its campaign counters and per-seed speedup, and the
#: ``pool_montecarlo`` process-pool case of a compiled plan (formerly
#: ``shm_montecarlo``) with its fleet-wide compile accounting; v8: the
#: lockstep ``batched_transient_montecarlo`` ensemble-waveform case
#: with its per-seed speedup and grid accounting, and the
#: ``rc_ramp_adc_codes`` case, a lockstep RC-ramp transient whose
#: behavioural-converter INL/DNL is checked bit-for-bit against the
#: serial loop -- plus the serial ``montecarlo`` case now reusing one
#: compiled chip across the population).
BENCH_SCHEMA = "repro-bench-perf/v8"

#: Environment variables that pin BLAS/OpenMP thread pools.  Recorded
#: in the report (and pinned in CI) because an unpinned BLAS spawning a
#: thread per core can swing the batched ``np.linalg.solve`` timings by
#: integer factors between machines.
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")

_I_SS = 1e-9
_VDD = 0.4


@dataclass(frozen=True)
class BenchResult:
    """One timed case.

    Attributes:
        name: Case label.
        wall_s: Best wall time over the repeats [s].
        repeats: Timed repetitions (best-of).
        meta: Case-specific detail (sizes, counts) for the report.
        trace_counters: Telemetry counter totals collected from the
            (untimed) traced warmup run -- device-bank evaluations,
            Jacobian factorizations, compile-cache traffic -- so a
            perf regression in the report comes with its explanation.
    """

    name: str
    wall_s: float
    repeats: int
    meta: dict
    trace_counters: dict = dataclasses.field(default_factory=dict)


def _design() -> StsclGateDesign:
    return StsclGateDesign.default(_I_SS)


def _solver_meta(circuit) -> dict:
    """Backend + unknown count of the case's workload (schema v5).

    The compile is cached on the circuit, so calling this after the
    case has already solved costs nothing extra."""
    compiled = circuit.compile()
    return {"backend": compiled.solver_backend(),
            "n_unknowns": compiled.size}


def _bench_op_chain() -> dict:
    """Operating point of an 8-stage buffer chain (the deepest DC solve
    an FAI-ADC thermometer stage exercises)."""
    design = _design()
    high, low = _VDD, _VDD - design.v_sw
    circuit, _ = stscl_buffer_chain_circuit(design, _VDD, 8, high, low,
                                            with_dwell=True)
    result = operating_point(circuit)
    return {"n_elements": len(circuit.elements),
            "iterations": result.iterations, **_solver_meta(circuit)}


def _bench_dc_sweep(n_points: int) -> Callable[[], dict]:
    """Transfer-curve sweep of one inverter, warm-started per point."""
    def case() -> dict:
        design = _design()
        circuit, _ = stscl_inverter_circuit(design, _VDD)
        sweep = dc_sweep(circuit, "vinp",
                         np.linspace(0.0, _VDD, n_points))
        return {"n_points": n_points, "n_failures": len(sweep.failures),
                "compile_count": circuit.compile_count,
                **_solver_meta(circuit)}
    return case


def _bench_transient() -> dict:
    """Clocked D-latch over ten gate delays (trap integration).

    Step sizes are LTE-controlled (the engine default): the waveform
    error, not a hand-tuned ``dt_max``, bounds the step -- the dense
    ``dt_max = t_d / 15`` cap of the pre-LTE heuristic is gone, which
    is where the fast path's step-count (and wall-time) win comes
    from.  Waveform accuracy against a dense-step reference is pinned
    separately in ``benchmarks/perf/test_perf_bench.py``.
    """
    design = _design()
    t_d = design.delay()
    circuit = _latch_circuit(design)
    result = transient(circuit, 10.0 * t_d,
                       TransientOptions(reltol=4e-3, abstol=1e-4,
                                        dt_max=t_d / 2.5))
    return {"steps": result.telemetry.steps_accepted,
            "rejected": result.telemetry.steps_rejected,
            "lte_rejections": result.telemetry.lte_rejections,
            **_solver_meta(circuit)}


def _latch_circuit(design: StsclGateDesign):
    """The clocked D-latch workload shared by the transient cases."""
    t_d = design.delay()
    high, low = _VDD, _VDD - design.v_sw
    edge = t_d / 5.0
    d_p = pulse_wave(low, high, delay=2 * t_d, rise=edge, fall=edge,
                     width=4 * t_d, period=8 * t_d)
    d_n = pulse_wave(high, low, delay=2 * t_d, rise=edge, fall=edge,
                     width=4 * t_d, period=8 * t_d)
    c_p = pulse_wave(low, high, delay=t_d, rise=edge, fall=edge,
                     width=2 * t_d, period=4 * t_d)
    c_n = pulse_wave(high, low, delay=t_d, rise=edge, fall=edge,
                     width=2 * t_d, period=4 * t_d)
    circuit, _ = stscl_latch_circuit(design, _VDD, d_p, d_n, c_p, c_n)
    return circuit


def _bench_transient_lte(n_stages: int) -> Callable[[], dict]:
    """Pulse-driven STSCL buffer chain under the LTE controller.

    Exercises the LTE step controller over the long settled stretches
    of the chain and its rejection machinery on the cascaded edges --
    the workload behind the controller's accepted-step regression pins.
    """
    def case() -> dict:
        design = _design()
        t_d = design.delay()
        high, low = _VDD, _VDD - design.v_sw
        edge = t_d / 5.0
        in_p = pulse_wave(low, high, delay=t_d, rise=edge, fall=edge,
                          width=3 * t_d, period=6 * t_d)
        in_n = pulse_wave(high, low, delay=t_d, rise=edge, fall=edge,
                          width=3 * t_d, period=6 * t_d)
        circuit, _ = stscl_buffer_chain_circuit(
            design, _VDD, n_stages, in_p, in_n)
        result = transient(circuit, 12.0 * t_d,
                           TransientOptions(dt_max=t_d / 2.0))
        return {"n_stages": n_stages,
                "steps": result.telemetry.steps_accepted,
                "rejected": result.telemetry.steps_rejected,
                "newton_rejections": result.telemetry.newton_rejections,
                "lte_rejections": result.telemetry.lte_rejections,
                **_solver_meta(circuit)}
    return case


def _bench_ac_sweep(n_frequencies: int) -> Callable[[], dict]:
    """Stacked-frequency AC sweep of one inverter.

    All frequencies of the log grid are solved through the stacked
    path (QZ sweep with chunked-tensor fallback); the AC unit tests
    keep a per-frequency loop as the oracle the perf tests time it
    against.
    """
    def case() -> dict:
        from ..spice.ac import ac_analysis
        design = _design()
        circuit, _ = stscl_inverter_circuit(design, _VDD)
        circuit.element("vinp").ac_mag = 1.0
        freqs = np.logspace(2.0, 9.0, n_frequencies)
        result = ac_analysis(circuit, freqs)
        return {"n_frequencies": n_frequencies,
                "n_nodes": len(result.voltages),
                **_solver_meta(circuit)}
    return case


#: Shared chip of the serial Monte-Carlo case, built lazily once per
#: process.  Seeds perturb it through ``apply_lane``'s undo contract
#: instead of rebuilding, so the compiled structure (and the
#: value-signature sync that skips re-stamping unchanged values) is
#: reused across the whole population -- the old build-per-seed loop
#: paid ``compile_cache_misses == n_seeds + 1`` for identical physics.
_MC_SHARED: tuple | None = None


def _mc_shared() -> tuple:
    global _MC_SHARED
    if _MC_SHARED is None:
        circuit, ports = stscl_inverter_circuit(_design(), _VDD)
        _MC_SHARED = (circuit, ports.outputs["y"])
    return _MC_SHARED


def _mc_metric(seed: int) -> dict[str, float]:
    """Differential output of one mismatched inverter chip.

    Module-level (and closure-free) so the Monte-Carlo process pool can
    pickle it; workers resolve the shared chip through their own lazy
    build.  Mismatch rides a VT-only
    :class:`~repro.spice.batch.LaneSpec` (same RNG, same draw order as
    the batched twin), applied and undone around the solve so the
    shared chip stays pristine.
    """
    from ..spice.batch import LaneSpec, apply_lane
    circuit, (out_p, out_n) = _mc_shared()
    rng = np.random.default_rng(seed)
    vt_delta = np.array([rng.normal(0.0, 5e-3)
                         for _ in circuit.mos_elements()])
    undo = apply_lane(circuit, LaneSpec.mismatch(vt_delta,
                                                 label=f"seed-{seed}"))
    try:
        result = operating_point(circuit)
    finally:
        undo()
    return {"v_diff": result.vdiff(out_p, out_n)}


def _bench_montecarlo(n_seeds: int,
                      n_workers: int) -> Callable[[], dict]:
    def case() -> dict:
        mc = MonteCarlo(_mc_metric, n_runs=n_seeds,
                        n_workers=n_workers)
        run = mc.run()
        return {"n_seeds": n_seeds, "n_workers": n_workers,
                "v_diff_mean": run["v_diff"].mean,
                **_solver_meta(_mc_shared()[0])}
    return case


def _batched_mc_build():
    circuit, _ = stscl_inverter_circuit(_design(), _VDD)
    return circuit


def _batched_mc_draw(seed: int, circuit):
    """The exact mismatch population of :func:`_mc_metric`, as a lane.

    Same RNG, same draw order, VT-only -- so the batched case's
    ``v_diff_mean`` lands on the serial case's number and the two bench
    entries time the *same* physics.
    """
    from ..spice.batch import LaneSpec
    rng = np.random.default_rng(seed)
    vt_delta = np.array([rng.normal(0.0, 5e-3)
                         for _ in circuit.mos_elements()])
    return LaneSpec.mismatch(vt_delta, label=f"seed-{seed}")


def _batched_mc_measure(result) -> dict[str, float]:
    return {"v_diff": result.vdiff("outp", "outn")}


def _bench_batched_montecarlo(n_seeds: int) -> Callable[[], dict]:
    """The Monte-Carlo population of ``montecarlo``, solved as one
    stacked tensor (``backend="batched"``); compare the two wall times
    per seed for the ensemble speedup."""
    def case() -> dict:
        from ..spice.batch import BatchedOpMetric
        spec = BatchedOpMetric(build=_batched_mc_build,
                               draw=_batched_mc_draw,
                               measure=_batched_mc_measure)
        run = MonteCarlo(spec, n_runs=n_seeds, backend="batched").run()
        return {"n_seeds": n_seeds, "batch": n_seeds,
                "v_diff_mean": run["v_diff"].mean,
                **_solver_meta(_batched_mc_build())}
    return case


def _bench_batched_sweep(n_points: int) -> Callable[[], dict]:
    """The transfer-curve sweep of ``dc_sweep``, every point one lane
    of a single stacked solve."""
    def case() -> dict:
        circuit, _ = stscl_inverter_circuit(_design(), _VDD)
        sweep = dc_sweep(circuit, "vinp",
                         np.linspace(0.0, _VDD, n_points),
                         backend="batched")
        return {"n_points": n_points, "batch": n_points,
                "n_failures": len(sweep.failures),
                **_solver_meta(circuit)}
    return case


def _bench_sparse_adder_chain(quick: bool) -> Callable[[], dict]:
    """Transistor-level pipelined adder chain: the thousand-unknown
    headline of the sparse backend.

    The timed body solves the full chain (32 bits, 16 in quick mode)
    through the auto-selected sparse path, then walks a short
    dense-vs-sparse ladder over narrower chains so the report carries
    the wall-time crossover behind ``SPARSE_AUTO_THRESHOLD`` -- per
    width the meta records both backends' solve times and the unknown
    count, and ``crossover_width`` is the first width where sparse
    wins outright.
    """
    widths = (4, 8) if quick else (4, 8, 16)
    headline_width = 16 if quick else 32

    def case() -> dict:
        from ..stscl.adder import adder_chain_circuit
        design = _design()
        mask = (1 << headline_width) - 1
        a, b = 0xDEADBEEF & mask, 0x12345678 & mask

        circuit, _ = adder_chain_circuit(design, _VDD,
                                         width=headline_width,
                                         a=a, b=b, carry_in=True)
        t0 = time.perf_counter()
        result = operating_point(circuit)
        headline_s = time.perf_counter() - t0

        ladder = []
        crossover_width = None
        for width in widths:
            entry = {"width": width}
            for backend in ("dense", "sparse"):
                rung, _ = adder_chain_circuit(
                    design, _VDD, width=width,
                    a=0xDEADBEEF & ((1 << width) - 1),
                    b=0x12345678 & ((1 << width) - 1), carry_in=True)
                rung.matrix_backend = backend
                t0 = time.perf_counter()
                operating_point(rung)
                entry[f"{backend}_s"] = time.perf_counter() - t0
                entry["n_unknowns"] = rung.compile().size
            ladder.append(entry)
            if crossover_width is None \
                    and entry["sparse_s"] < entry["dense_s"]:
                crossover_width = width

        return {"width": headline_width,
                "iterations": result.iterations,
                "headline_s": headline_s,
                "dense_vs_sparse": ladder,
                "crossover_width": crossover_width,
                **_solver_meta(circuit)}
    return case


def _bench_sparse_batched_montecarlo(quick: bool) -> Callable[[], dict]:
    """Full-bank mismatch Monte-Carlo on the thousand-unknown adder,
    solved as one sparse stacked ensemble.

    Every seed perturbs the VT of *every* transistor in the hierarchy
    (the full device bank, not just top-level elements), and all lanes
    share one COLAMD column ordering -- the campaign counters in the
    meta pin that down (``sparse_symbolic_factorizations == 1``).
    The per-seed speedup compares the whole campaign wall time (pilot
    included) against one cold serial sparse solve of the same spec.
    """
    width = 16 if quick else 32
    n_seeds = 4 if quick else 8

    def case() -> dict:
        from ..spice.batch import BatchedOpMetric, LaneSpec
        from ..stscl.adder import adder_chain_circuit
        design = _design()
        mask = (1 << width) - 1
        a, b = 0xDEADBEEF & mask, 0x12345678 & mask
        circuit, ports = adder_chain_circuit(design, _VDD, width=width,
                                             a=a, b=b, carry_in=True)
        expected = (a + b + 1) & mask

        def build():
            # One shared circuit: apply_lane's undo contract restores
            # it exactly, so reuse is results-neutral and keeps the
            # compile (and the column ordering) per-campaign.
            return circuit

        def draw(seed, target):
            bank = target.compile().assembler._mos_bank
            rng = np.random.default_rng(seed)
            return LaneSpec.mismatch(
                rng.normal(0.0, 2e-3, bank.n_devices),
                label=f"seed-{seed}")

        def measure(result):
            total = 0
            for i in range(width):
                p, n = ports[f"s{i}"]
                if result.voltages[p] - result.voltages[n] > 0:
                    total |= 1 << i
            return {"sum": float(total)}

        spec = BatchedOpMetric(build=build, draw=draw, measure=measure)
        with telemetry.span("sparse-batched-campaign") as cspan:
            t0 = time.perf_counter()
            run = MonteCarlo(spec, n_runs=n_seeds,
                             backend="batched").run()
            batched_s = time.perf_counter() - t0
        counters = cspan.total_counters()
        t0 = time.perf_counter()
        spec(0)
        serial_s = time.perf_counter() - t0
        return {"width": width, "n_seeds": n_seeds,
                "sum_expected": expected, "sum_mean": run["sum"].mean,
                "n_failed": run.n_failed,
                "serial_seed_s": serial_s,
                "batched_per_seed_s": batched_s / n_seeds,
                "per_seed_speedup": serial_s * n_seeds / batched_s,
                "campaign_counters": {
                    key: counters.get(key, 0) for key in
                    ("sparse_symbolic_factorizations",
                     "sparse_numeric_refactorizations",
                     "jacobian_factorizations")},
                **_solver_meta(circuit)}
    return case


def _bench_pool_montecarlo(n_seeds: int) -> Callable[[], dict]:
    """Parallel Monte-Carlo of a compiled plan on a 2-worker pool.

    The :meth:`~repro.spice.batch.BatchedOpMetric.plan` call inside the
    traced region is the *only* circuit compile of the whole fleet
    (``compile_cache_misses == 1`` in the case's trace counters): the
    plan pickles with its compiled circuit, so the workers reuse it.
    The summaries are checked bit-identical against the serial loop
    over the same plan.
    """
    def case() -> dict:
        from ..spice.batch import BatchedOpMetric
        spec = BatchedOpMetric(build=_batched_mc_build,
                               draw=_batched_mc_draw,
                               measure=_batched_mc_measure)
        plan = spec.plan()
        serial = MonteCarlo(plan, n_runs=n_seeds).run()
        parallel = MonteCarlo(plan, n_runs=n_seeds, n_workers=2).run()
        identical = bool(np.array_equal(serial["v_diff"].values,
                                        parallel["v_diff"].values))
        return {"n_seeds": n_seeds, "n_workers": 2,
                "v_diff_mean": parallel["v_diff"].mean,
                "bit_identical_to_serial": identical,
                **_solver_meta(plan.circuit)}
    return case


def _bench_scope_capture(quick: bool) -> Callable[[], dict]:
    """Triggered capture on the buffer-chain testbench.

    Times the whole capture path -- per-sample trigger evaluation,
    ring-buffer pre-history, windowed post-capture in place of the
    dense record -- on top of the transient it instruments, which ends
    on the sample that closes the window.  The meta records the window
    and its memory, the steps the run took and where it ended as a
    fraction of the testbench's ``t_stop``.  Samples seen equal samples
    stored: the ring holds every pre-trigger sample and nothing comes
    after the window.
    """
    n_stages = 2 if quick else 3

    def case() -> dict:
        from ..stscl.testbench import (DELAY_TESTBENCH_T_STOP,
                                       buffer_chain_capture)
        design = _design()
        session = buffer_chain_capture(design, _VDD, n_stages=n_stages)
        segment = session.segment()
        t_stop = DELAY_TESTBENCH_T_STOP * design.delay()
        return {"n_stages": n_stages,
                "samples_seen": session.samples_seen,
                "samples_stored": session.samples_stored,
                "steps_accepted": session.samples_seen - 1,
                "t_end_over_t_stop": float(segment.time[-1]) / t_stop,
                "window": len(segment),
                "window_bytes": segment.nbytes}
    return case


def _bench_batched_transient_montecarlo(quick: bool) -> Callable[[], dict]:
    """Mismatch Monte-Carlo over the clocked D-latch, integrated as one
    lockstep batched transient.

    Every seed's VT draw becomes one lane of a single
    :func:`~repro.spice.batch.batch_transient` campaign -- one stacked
    Newton solve per shared LTE-controlled step instead of one serial
    transient per seed.  The per-seed speedup compares the whole
    batched campaign against one serial integration of the same spec
    (same shared circuit, so the serial side pays no recompile); the
    shared grid's min-rule makes the batched waveform error
    equal-or-tighter than any single lane's.
    """
    n_seeds = 4 if quick else 12

    def case() -> dict:
        from ..spice.batch import BatchedTranMetric, LaneSpec
        design = _design()
        t_d = design.delay()
        t_stop = 10.0 * t_d
        options = TransientOptions(reltol=4e-3, abstol=1e-4,
                                   dt_max=t_d / 2.5)
        circuit = _latch_circuit(design)
        out_p, out_n = "outp", "outn"
        names = set(circuit.node_names)
        if out_p not in names:  # latch nets carry the gate prefix
            out_p = next(n for n in names if n.endswith("outp"))
            out_n = next(n for n in names if n.endswith("outn"))

        def build():
            # One shared circuit: apply_lane's undo restores it
            # exactly, so the serial comparison reuses the compile too.
            return circuit

        def draw(seed, target):
            rng = np.random.default_rng(seed)
            return LaneSpec.mismatch(
                np.array([rng.normal(0.0, 2e-3)
                          for _ in target.mos_elements()]),
                label=f"seed-{seed}")

        def measure(result):
            q = result.voltage(out_p) - result.voltage(out_n)
            return {"v_q_final": float(q[-1]), "v_q_peak": float(q.max())}

        spec = BatchedTranMetric(build=build, draw=draw, measure=measure,
                                 t_stop=t_stop, options=options)
        with telemetry.span("batched-transient-campaign") as cspan:
            t0 = time.perf_counter()
            run = MonteCarlo(spec, n_runs=n_seeds, backend="batched",
                             analysis="transient").run()
            batched_s = time.perf_counter() - t0
        counters = cspan.total_counters()
        t0 = time.perf_counter()
        serial_lane0 = spec(0)
        serial_s = time.perf_counter() - t0
        return {"n_seeds": n_seeds, "batch": n_seeds,
                "n_failed": run.n_failed,
                "v_q_final_mean": run["v_q_final"].mean,
                "serial_seed_s": serial_s,
                "batched_per_seed_s": batched_s / n_seeds,
                "per_seed_speedup": serial_s * n_seeds / batched_s,
                "campaign_counters": {
                    key: counters.get(key, 0) for key in
                    ("batch_transient_steps",
                     "batch_transient_lane_rejections",
                     "batch_lane_fallbacks")},
                **_solver_meta(circuit)}
    return case


def _bench_rc_ramp_adc_codes(quick: bool) -> Callable[[], dict]:
    """Converter codes from a lockstep transient of an RC ramp.

    The testbench is a 3-unknown circuit: a PWL ramp through a resistor
    into a capacitor, clamped by a diode.  A Monte-Carlo population of
    it (one aged source resistor per lane) integrates as one batched
    transient on a *fixed* shared grid; each lane's waveform is sampled
    into held voltages and converted by the behavioural FAI model
    (:func:`~repro.adc.testbench.sampled_transient_codes`), and the
    per-lane INL/DNL come from those codes.  The fixed grid makes
    batched and serial lanes share time points exactly, so the integer
    codes -- and therefore the linearity metrics -- must match the
    serial loop bit for bit; the meta records that check.
    """
    n_seeds = 3 if quick else 6

    def case() -> dict:
        from ..adc import FaiAdc, FaiAdcConfig
        from ..adc.metrics import inl_dnl_from_codes
        from ..adc.testbench import sampled_transient_codes
        from ..devices.diode import Diode, DiodeParameters
        from ..spice.batch import BatchedTranMetric, LaneSpec
        from ..spice.netlist import Circuit
        from ..spice.waveforms import pwl_wave

        cfg = FaiAdcConfig(coarse_bits=2, fine_bits=4, n_folders=4)
        adc = FaiAdc(cfg, ideal=True, seed=0)
        t_stop = 1e-3
        n_steps = 256 if quick else 512
        dt = t_stop / n_steps
        options = TransientOptions(dt_initial=dt, dt_min=dt, dt_max=dt)
        # Sample the ramp where the RC node tracks it linearly (the
        # clamp diode only bites near the very top), mapped to cover
        # the converter's full scale plus half an LSB each side.
        sample_times = np.linspace(0.05 * t_stop, 0.85 * t_stop,
                                   cfg.n_codes * 8)
        v_lo, v_hi = 0.05, 0.85  # ideal ramp value at the window edges
        gain = (cfg.full_scale + cfg.lsb) / (v_hi - v_lo)
        center = (cfg.v_low - 0.5 * cfg.lsb) - gain * v_lo

        tb = Circuit("fai_yield_tb")
        tb.add_vsource("vramp", "in", "0",
                       pwl_wave(((0.0, 0.0), (t_stop, 1.0))))
        tb.add_resistor("rs", "in", "a", 1e3)
        tb.add_capacitor("cl", "a", "0", 1e-9)
        tb.add_diode("dclamp", "a", "0",
                     Diode(DiodeParameters(name="clamp", i_s=1e-18,
                                           cj0=1e-13)))

        def build():
            return tb

        def draw(seed, target):
            # Aged source resistor per chip: shifts the RC lag, walking
            # the code transitions by a fraction of an LSB per lane.
            factor = 1.0 + 0.25 * ((seed % 5) - 2)
            return LaneSpec(resistor_scale=(("rs", factor),),
                            label=f"seed-{seed}")

        def measure(result):
            codes = sampled_transient_codes(
                adc, result, "a", sample_times=sample_times,
                center=center, gain=gain)
            report = inl_dnl_from_codes(codes, cfg.n_bits)
            return {"inl": report.inl_max, "dnl": report.dnl_max}

        spec = BatchedTranMetric(build=build, draw=draw, measure=measure,
                                 t_stop=t_stop, options=options)
        t0 = time.perf_counter()
        batched = MonteCarlo(spec, n_runs=n_seeds, backend="batched",
                             analysis="transient").run()
        batched_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        serial = MonteCarlo(spec, n_runs=n_seeds, backend="serial",
                            analysis="transient").run()
        serial_s = time.perf_counter() - t0
        identical = all(
            np.array_equal(batched[key].values, serial[key].values)
            for key in ("inl", "dnl"))
        return {"n_seeds": n_seeds, "n_bits": cfg.n_bits,
                "n_grid_steps": n_steps,
                "inl_max_mean": batched["inl"].mean,
                "inl_max_p95": batched["inl"].p95,
                "dnl_max_mean": batched["dnl"].mean,
                "bit_identical_to_serial": identical,
                "serial_s": serial_s, "batched_s": batched_s,
                "per_seed_speedup": serial_s / batched_s,
                **_solver_meta(tb)}
    return case


def default_cases(quick: bool = False,
                  n_workers: int = 1) -> dict[str, Callable[[], dict]]:
    """Case name -> zero-argument callable returning its meta dict."""
    n_points = 11 if quick else 31
    n_seeds = 4 if quick else 8
    n_lanes = 8 if quick else 32
    n_stages = 2 if quick else 4
    n_frequencies = 61 if quick else 241
    return {
        "op_chain": _bench_op_chain,
        "dc_sweep": _bench_dc_sweep(n_points),
        "transient": _bench_transient,
        "transient_lte": _bench_transient_lte(n_stages),
        "ac_sweep": _bench_ac_sweep(n_frequencies),
        "montecarlo": _bench_montecarlo(n_seeds, n_workers),
        "batched_montecarlo": _bench_batched_montecarlo(n_lanes),
        "batched_sweep": _bench_batched_sweep(n_points),
        "sparse_adder_chain": _bench_sparse_adder_chain(quick),
        "sparse_batched_montecarlo": _bench_sparse_batched_montecarlo(quick),
        "pool_montecarlo": _bench_pool_montecarlo(n_seeds),
        "scope_capture": _bench_scope_capture(quick),
        "batched_transient_montecarlo":
            _bench_batched_transient_montecarlo(quick),
        "rc_ramp_adc_codes": _bench_rc_ramp_adc_codes(quick),
    }


def _traced_warmup(name: str, case: Callable[[], dict]) -> tuple[dict, dict]:
    """Run the untimed warmup under a private trace; returns
    (case meta, counter totals).  Timed repeats stay untraced, so the
    reported wall times measure the solver alone.  A warmup trace that
    breaks an identity of :mod:`repro.telemetry.invariants` fails the
    run with an :class:`~repro.errors.AnalysisError`."""
    if telemetry.is_enabled():
        return case(), {}
    with telemetry.tracing(f"bench-{name}") as trace:
        meta = case()
    broken = violations(trace)
    if broken:
        raise AnalysisError(f"bench case {name!r} broke a trace "
                            f"invariant: {'; '.join(broken)}")
    return meta, trace.total_counters()


def run_benchmarks(quick: bool = False, repeats: int | None = None,
                   n_workers: int = 1) -> list[BenchResult]:
    """Time every case; best-of-``repeats`` after one untimed warmup.

    The warmup run of each case is traced through :mod:`repro.telemetry`
    and its counter totals attached to the result, so the emitted
    report pairs every timing with the work the solver actually did.
    """
    if repeats is None:
        repeats = 1 if quick else 3
    results = []
    for name, case in default_cases(quick, n_workers).items():
        # Warmup: captures the case's meta detail plus trace counters.
        meta, counters = _traced_warmup(name, case)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            case()
            best = min(best, time.perf_counter() - t0)
        results.append(BenchResult(name=name, wall_s=best,
                                   repeats=repeats, meta=meta,
                                   trace_counters=counters))
    return results


def _blas_provenance() -> dict:
    """Which BLAS numpy linked against, best-effort.

    ``np.show_config`` has changed shape across numpy versions; a bench
    report must never fail over introspection, so any surprise
    degrades to ``{"name": "unknown"}``.
    """
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name", "unknown"),
                "found": blas.get("found"),
                "version": blas.get("version")}
    except Exception:
        return {"name": "unknown"}


def runtime_provenance() -> dict:
    """Numerics-stack provenance attached to every report.

    Bench numbers are only comparable when numpy, its BLAS, scipy (whose
    bundled SuperLU sets the sparse numbers) and the thread-pool pinning
    match; recording them turns "CI got slower" from archaeology into a
    diff.
    """
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_provenance(),
        "thread_env": {name: os.environ.get(name)
                       for name in THREAD_ENV_VARS},
        "cpu_count": os.cpu_count(),
    }


def write_report(results: list[BenchResult], path: str | Path,
                 quick: bool = False) -> Path:
    """Serialize ``results`` as schema-versioned JSON; returns the path."""
    path = Path(path)
    report = {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
        "quick": quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runtime": runtime_provenance(),
        "results": {
            r.name: {"wall_s": r.wall_s, "repeats": r.repeats,
                     "meta": r.meta,
                     "trace_counters": r.trace_counters}
            for r in results
        },
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
