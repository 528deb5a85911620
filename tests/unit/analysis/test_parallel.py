"""The deterministic process-pool helpers: ordering and chunking.

Chunking only regroups pool submissions to amortise pickle/IPC cost;
the result stream must stay element-for-element identical to the
unchunked pool -- which itself mirrors the serial loop.
"""

import numpy as np
import pytest

from repro.analysis import MonteCarlo
from repro.analysis.parallel import (default_chunksize, run_ordered,
                                     validate_workers)
from repro.errors import AnalysisError


def _square(value):
    """Module-level so the pool can pickle it."""
    return value * value


def _seeded_gaussian(seed):
    rng = np.random.default_rng(seed)
    return {"v": float(rng.normal(0.0, 1.0))}


class TestChunkHeuristic:
    def test_four_chunks_per_worker(self):
        # 80 tasks on 2 workers: 8 chunks of 10.
        assert default_chunksize(80, 2) == 10

    def test_small_populations_stay_one_per_submission(self):
        assert default_chunksize(3, 4) == 1
        assert default_chunksize(1, 1) == 1

    def test_ceil_division_leaves_no_orphan_chunk(self):
        # 81 tasks / (2 workers * 4) -> ceil = 11 per chunk.
        assert default_chunksize(81, 2) == 11

    def test_degenerate_inputs(self):
        assert default_chunksize(0, 4) == 1


class TestRunOrdered:
    def test_results_keep_task_order(self):
        tasks = [(k,) for k in range(23)]
        results = run_ordered(_square, tasks, n_workers=2)
        assert results == [k * k for k in range(23)]

    def test_explicit_chunksize_is_honoured(self):
        tasks = [(k,) for k in range(10)]
        for chunksize in (1, 3, 10, 99):
            assert run_ordered(_square, tasks, 2,
                               chunksize=chunksize) == \
                [k * k for k in range(10)]

    def test_chunksize_validated(self):
        with pytest.raises(AnalysisError):
            run_ordered(_square, [(1,)], 2, chunksize=0)

    def test_workers_validation(self):
        assert validate_workers(None) == 1
        with pytest.raises(AnalysisError):
            validate_workers(0)


class TestChunkedMonteCarlo:
    def test_chunked_pool_is_bit_identical_to_serial(self):
        """Enough seeds that the default chunksize exceeds one: the
        summaries must still be bit-identical to the serial loop."""
        n_runs = 24  # chunksize 3 on 2 workers
        assert default_chunksize(n_runs, 2) > 1
        serial = MonteCarlo(_seeded_gaussian, n_runs=n_runs).run()
        chunked = MonteCarlo(_seeded_gaussian, n_runs=n_runs,
                             n_workers=2).run()
        np.testing.assert_array_equal(serial["v"].values,
                                      chunked["v"].values)
        assert serial["v"].mean == chunked["v"].mean
        assert serial["v"].std == chunked["v"].std
        assert serial["v"].p05 == chunked["v"].p05


def _failing_metric(seed):
    """Module-level Monte-Carlo metric that fails a hard solve (five
    iterations per solve defeat both rungs): the worker catches the
    ConvergenceError and ships it back as data."""
    from repro.devices.diode import Diode, DiodeParameters
    from repro.spice import Circuit, NewtonOptions, operating_point

    ckt = Circuit(f"hard_diode_{seed}")
    ckt.add_vsource("V1", "in", "0", 8.0)
    ckt.add_resistor("RS", "in", "a", 10.0)
    ckt.add_diode("D1", "a", "0",
                  Diode(DiodeParameters(name="j", i_s=1e-16)))
    operating_point(ckt, NewtonOptions(max_iterations=5))
    return {"v": 0.0}  # unreachable


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("deliberately unpicklable")

    def __repr__(self):
        return "<opaque report>"


class TestExceptionFidelity:
    def test_convergence_error_pickles_with_diagnostics(self):
        import pickle

        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError) as excinfo:
            _failing_metric(0)
        original = excinfo.value
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, ConvergenceError)
        assert str(restored) == str(original)
        assert restored.iterations == original.iterations
        assert restored.stage == original.stage
        assert restored.diagnostics is not None
        assert restored.diagnostics.circuit == \
            original.diagnostics.circuit
        assert [s.strategy for s in restored.diagnostics.stages] == \
            [s.strategy for s in original.diagnostics.stages]
        assert restored.diagnostics.stages[0].residuals == \
            original.diagnostics.stages[0].residuals

    def test_unpicklable_diagnostics_degrade_not_poison(self):
        import pickle

        from repro.errors import ConvergenceError

        error = ConvergenceError("solve failed", iterations=7,
                                 diagnostics=_Unpicklable(),
                                 stage="newton")
        restored = pickle.loads(pickle.dumps(error))
        assert restored.iterations == 7
        assert restored.stage == "newton"
        assert "opaque report" in restored.diagnostics

    def test_diagnostics_survive_worker_round_trip(self):
        """The real pool: a worker-side ConvergenceError re-raised in
        the parent under n_workers > 1 must still carry its full
        SolverDiagnostics, not a stripped-down copy."""
        from repro.analysis import MonteCarlo
        from repro.errors import ConvergenceError

        with pytest.raises(ConvergenceError) as excinfo:
            MonteCarlo(_failing_metric, n_runs=4, n_workers=2).run()
        error = excinfo.value
        assert error.stage == "pseudo-transient"
        assert error.iterations is not None
        assert error.diagnostics is not None
        assert [s.strategy for s in error.diagnostics.stages] == [
            "newton", "pseudo-transient"]
        assert error.diagnostics.stages[0].residuals


def _sparse_inverter_build():
    """Module-level so the plan pickles: a sparse-forced STSCL
    inverter."""
    from repro.stscl import StsclGateDesign
    from repro.stscl.netlist_gen import stscl_inverter_circuit

    circuit, _ = stscl_inverter_circuit(
        StsclGateDesign.default(i_ss=1e-9), 0.4)
    circuit.matrix_backend = "sparse"
    return circuit


def _sparse_inverter_draw(seed, circuit):
    from repro.spice import LaneSpec

    rng = np.random.default_rng(seed)
    n_mos = len(circuit.mos_elements())
    return LaneSpec.mismatch(rng.normal(0.0, 2e-3, n_mos),
                             label=f"seed-{seed}")


def _sparse_inverter_measure(result):
    return {"v_diff": result.vdiff("outp", "outn")}


class TestSparsePlanRoundTrip:
    """The n_workers>1 sparse-circuit regression: a compiled plan whose
    solves run on the SuperLU backend must survive the worker round
    trip -- no C-level factorization handle may travel in the payload
    (a SuperLU handle lives for one Newton iteration; the plan carries
    only the pattern's integer column ordering) and results stay
    bit-identical."""

    def _plan(self):
        from repro.spice import BatchedOpMetric

        return BatchedOpMetric(build=_sparse_inverter_build,
                               draw=_sparse_inverter_draw,
                               measure=_sparse_inverter_measure).plan()

    def test_sparse_plan_parallel_matches_serial(self):
        plan = self._plan()
        # Prime the parent-side caches: this solve factorizes through
        # SuperLU, so any handle leakage into the later pickled payload
        # would surface here.
        plan(0)
        serial = MonteCarlo(plan, n_runs=6).run()
        pooled = MonteCarlo(plan, n_runs=6, n_workers=2).run()
        assert pooled.failed_seeds == serial.failed_seeds == []
        for name in serial:
            assert np.array_equal(pooled[name].values,
                                  serial[name].values)

    def test_plan_compiles_exactly_once_fleet_wide(self):
        from repro import telemetry

        with telemetry.tracing("pool-compile") as trace:
            plan = self._plan()
            MonteCarlo(plan, n_runs=6, n_workers=2).run()
        counters = trace.total_counters()
        assert counters["compile_cache_misses"] == 1
