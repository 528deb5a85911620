"""Sparse batched ensembles: one symbolic factorization, B lanes.

The contract under test: a circuit set to ``matrix_backend="sparse"``
solved as a batched ensemble produces the same per-lane solutions as the dense stacked
solver and the serial sparse path (to 1e-9), while the COLAMD symbolic
analysis runs exactly **once** per campaign -- every lane and every
Newton iteration reuses the shared ``indices``/``indptr`` structure.
Degenerate lanes (exactly singular, NaN parameters) must fail with a
diagnosed error without poisoning neighbours.

Every factorization runs SuperLU column by column, refilling one
column-permuted container per pattern; a pickled circuit carries
neither that container nor any other per-call cache.
"""

import io
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.errors import AnalysisError, NetlistError
from repro.spice import (
    Circuit,
    LaneSpec,
    NewtonOptions,
    apply_lane,
    batch_operating_point,
    operating_point,
)
from repro.spice import assembly, sparse
from repro.spice.sparse import SparseSystem
from repro.spice.batch import BATCHED_PSEUDO_TRANSIENT_STAGE, BATCHED_STAGE
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import stscl_inverter_circuit

TIGHT = NewtonOptions(max_iterations=20)


def _inverter(design, backend: str) -> Circuit:
    circuit, _ = stscl_inverter_circuit(design, 0.4)
    circuit.matrix_backend = backend
    return circuit


def _mismatch_lanes(n_devices: int, count: int) -> list[LaneSpec]:
    """Deterministic VT-mismatch population shared by both backends."""
    lanes = []
    for seed in range(count):
        rng = np.random.default_rng(seed)
        lanes.append(LaneSpec.mismatch(
            rng.normal(0.0, 2e-3, n_devices), label=f"seed-{seed}"))
    return lanes


class TestSparseDenseEquivalence:
    """Same lanes, same answers: the backend is an implementation
    detail the solutions must not reveal."""

    def test_batched_lanes_match_dense_within_1e9(self, default_design):
        n_mos = len(_inverter(default_design, "auto").mos_elements())
        lanes = _mismatch_lanes(n_mos, 6)
        dense = batch_operating_point(
            _inverter(default_design, "dense"), lanes)
        sparse = batch_operating_point(
            _inverter(default_design, "sparse"), lanes)
        assert dense.failures == sparse.failures == []
        for d, s in zip(dense.points, sparse.points):
            assert s.converged
            for node, value in d.voltages.items():
                assert s.voltages[node] == pytest.approx(value, rel=1e-9,
                                                         abs=1e-12)

    def test_sparse_batched_matches_serial_sparse(self, default_design):
        circuit = _inverter(default_design, "sparse")
        n_mos = len(circuit.mos_elements())
        lanes = _mismatch_lanes(n_mos, 4)
        batch = batch_operating_point(circuit, lanes)
        for lane, point in zip(lanes, batch.points):
            undo = apply_lane(circuit, lane)
            try:
                serial = operating_point(circuit)
            finally:
                undo()
            for node, value in serial.voltages.items():
                assert point.voltages[node] == pytest.approx(
                    value, rel=1e-9, abs=1e-12)

    def test_matrix_backend_override_validated(self, default_design):
        """The circuit's own setting is the one backend switch: an
        unknown value is refused on assignment, and the batch runs on
        the setting the circuit kept."""
        circuit = _inverter(default_design, "sparse")
        with pytest.raises(NetlistError, match="matrix_backend"):
            circuit.matrix_backend = "banded"
        with telemetry.tracing("kept") as trace:
            batch_operating_point(circuit, [LaneSpec.source("vvdd", 0.4)])
        assert trace.root.find("batch-operating-point").attrs[
            "matrix_backend"] == "sparse"


class TestSymbolicReuse:
    """COLAMD symbolic analysis happens once per compiled structure --
    and is redone exactly when the structure actually changes."""

    def test_one_symbolic_factorization_per_campaign(self, default_design):
        with telemetry.tracing("sparse-batch") as trace:
            circuit = _inverter(default_design, "sparse")
            n_mos = len(circuit.mos_elements())
            batch = batch_operating_point(
                circuit, _mismatch_lanes(n_mos, 6))
        assert batch.failures == []
        counters = trace.total_counters()
        assert counters["sparse_symbolic_factorizations"] == 1
        # Plenty of numeric work rode on that single symbolic phase.
        assert counters["sparse_numeric_refactorizations"] > 1

    def test_structural_change_invalidates_the_symbolic(
            self, default_design):
        """Adding an element (a structural fault, say) changes the
        sparsity pattern: the next ensemble must rebuild the symbolic
        factorization rather than stamp into a stale structure."""
        with telemetry.tracing("sparse-invalidate") as trace:
            circuit = _inverter(default_design, "sparse")
            n_mos = len(circuit.mos_elements())
            lanes = _mismatch_lanes(n_mos, 3)
            batch_operating_point(circuit, lanes)
            assert trace.total_counters()[
                "sparse_symbolic_factorizations"] == 1
            # Bridge two internal nets: new off-diagonal nonzeros.
            circuit.add_resistor("r_fault", "outp", "outn", 1e6)
            again = batch_operating_point(circuit, lanes)
        assert trace.total_counters()[
            "sparse_symbolic_factorizations"] == 2
        # The post-fault ensemble still matches its serial twins.
        undo = apply_lane(circuit, lanes[0])
        try:
            serial = operating_point(circuit)
        finally:
            undo()
        assert again.points[0].voltage("outp") == pytest.approx(
            serial.voltage("outp"), rel=1e-9)

    def test_counters_reconcile(self, default_design):
        """Every batched-sparse Jacobian factorization is a numeric
        refactorization over the one shared symbolic structure."""
        with telemetry.tracing("sparse-counters") as trace:
            circuit = _inverter(default_design, "sparse")
            n_mos = len(circuit.mos_elements())
            batch = batch_operating_point(
                circuit, _mismatch_lanes(n_mos, 4))
        assert batch.failures == []
        counters = trace.total_counters()
        assert counters["sparse_symbolic_factorizations"] == 1
        assert counters["jacobian_factorizations"] == \
            counters["sparse_numeric_refactorizations"]
        assert counters["jacobian_factorizations"] > 0

    def test_factorization_check_reports_a_drifted_counter(self):
        """The library identity holds over a serial solve and a stacked
        ensemble that needs the pseudo-transient rung (the 3-stage delay
        testbench at 316 pA from the fixed hints), and names both
        counters once one drifts."""
        from repro.telemetry.invariants import factorization_violations
        from tests.conftest import ladder_hard_delay_chain

        with telemetry.tracing("sparse-identity") as trace:
            circuit = ladder_hard_delay_chain()
            circuit.matrix_backend = "sparse"
            operating_point(circuit)
            batch = batch_operating_point(
                circuit, _mismatch_lanes(len(circuit.mos_elements()), 4))
        assert batch.diagnostics.n_converged_pseudo_transient == 4
        assert factorization_violations(trace) == []
        trace.root.find("batch-operating-point").inc(
            "sparse_numeric_refactorizations")
        [violation] = factorization_violations(trace)
        assert "sparse_numeric_refactorizations" in violation
        assert "sparse_factorizations" in violation

    def test_repeat_campaign_computes_no_new_ordering(self, default_design):
        """The ordering lives on the compiled circuit's pattern: a second
        Monte-Carlo campaign over the same circuit (pilot and stacked
        lanes alike) orders nothing and only refactorizes."""
        from repro.analysis import MonteCarlo
        from repro.spice import BatchedOpMetric

        circuit = _inverter(default_design, "sparse")
        lanes = _mismatch_lanes(len(circuit.mos_elements()), 4)
        spec = BatchedOpMetric(
            build=lambda: circuit, draw=lambda seed, _: lanes[seed],
            measure=lambda result: {"v": result.voltage("outp")})
        campaign = MonteCarlo(spec, n_runs=4, backend="batched")
        with telemetry.tracing("first-campaign") as first:
            campaign.run()
        assert first.total_counters()["sparse_symbolic_factorizations"] == 1
        with telemetry.tracing("second-campaign") as second:
            campaign.run()
        counters = second.total_counters()
        assert counters.get("sparse_symbolic_factorizations", 0) == 0
        assert counters["sparse_numeric_refactorizations"] == \
            counters["jacobian_factorizations"] > 0


class TestOrderingReuse:
    """Factorizations after the first reuse the pattern's COLAMD column
    ordering; a fresh per-call COLAMD ``splu`` is the oracle."""

    def test_every_ladder_jacobian_matches_fresh_colamd(
            self, default_design, ladder_hard_adder, monkeypatch):
        """Every Jacobian a cold serial ladder solve of a sparse 4-bit
        adder factors -- Newton and pseudo-transient rungs alike, its
        source-coupled nodes started where Newton stalls -- solves as a
        fresh COLAMD factorization does, within 1e-12 relative."""
        from scipy.sparse.linalg import splu

        factored = []
        factorize = SparseSystem.factorize

        def recording(system, data):
            handle = factorize(system, data)
            factored.append((system, data.copy(), handle))
            return handle

        monkeypatch.setattr(SparseSystem, "factorize", recording)
        circuit, _ = ladder_hard_adder(default_design, 0.4, width=4,
                                       a=1, b=2, carry_in=True)
        circuit.matrix_backend = "sparse"
        with telemetry.tracing("ladder") as trace:
            result = operating_point(circuit)
        assert result.diagnostics.rescued_by == "pseudo-transient"
        # Both rungs factor, dozens of times after the first (the
        # two-rung walk takes 74 factorizations).
        per_rung = [trace.root.find(f"strategy:{name}").total_counter(
            "sparse_numeric_refactorizations")
            for name in ("newton", "pseudo-transient")]
        assert min(per_rung) > 0
        assert sum(per_rung) == len(factored) > 50
        assert {id(system) for system, _, _ in factored} == {
            id(circuit.compile().assembler.sparse_system())}
        counters = trace.total_counters()
        assert counters["sparse_symbolic_factorizations"] == 1
        assert counters["sparse_numeric_refactorizations"] == len(factored)
        rng = np.random.default_rng(0)
        for system, data, handle in factored:
            assert handle is not None
            rhs = rng.normal(size=system.size)
            want = splu(system.matrix_from_data(data),
                        permc_spec="COLAMD").solve(rhs)
            got = handle.solve(rhs)
            assert np.max(np.abs(got - want)) <= \
                1e-12 * np.max(np.abs(want))

    def test_singular_matrix_gives_none_before_and_after_ordering(self):
        rows = np.repeat(np.arange(2), 2)
        cols = np.tile(np.arange(2), 2)
        system = SparseSystem(2, {"full": (rows, cols)})
        singular = system.nonzeros(np.zeros(4))
        assert system.factorize(singular) is None
        assert system.col_order is None
        regular = system.nonzeros(np.array([1.0, 2.0, 3.0, 4.0]))
        handle = system.factorize(regular)
        np.testing.assert_allclose(
            handle.solve(np.array([1.0, 0.0])),
            np.linalg.solve([[1.0, 2.0], [3.0, 4.0]], [1.0, 0.0]))
        assert system.col_order is not None
        assert system.factorize(singular) is None


class TestSparseDegradation:
    """Degenerate lanes fail per lane; neighbours stay exact."""

    def _mos_circuit(self) -> Circuit:
        from repro.devices.mosfet import Mosfet
        from repro.devices.parameters import nmos_180

        ckt = Circuit("sparse_singular_lane", matrix_backend="sparse")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_vsource("vg", "g", "0", 0.6)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        ckt.add_mosfet("m1", "d", "g", "0", "0",
                       Mosfet(nmos_180(), w=1e-6, l=0.18e-6))
        return ckt

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_lane_demoted_to_serial_fallback(self):
        """A NaN-parameter lane in a *sparse* batch produces a NaN data
        row, is kicked out of both stacked phases and fails with their
        stage reports -- and its neighbours match their serial twins."""
        ckt = self._mos_circuit()
        lanes = [LaneSpec.mismatch([0.0], label="clean-0"),
                 LaneSpec.mismatch([float("nan")], label="poison"),
                 LaneSpec.mismatch([5e-3], label="clean-2")]
        batch = batch_operating_point(ckt, lanes, options=TIGHT,
                                      on_error="skip")
        assert [index for index, _ in batch.failures] == [1]
        _, error = batch.failures[0]
        assert error.diagnostics is not None
        assert batch.diagnostics.n_failed == 1
        assert [(s.strategy, s.converged)
                for s in error.diagnostics.stages] == [
            (BATCHED_STAGE, False), (BATCHED_PSEUDO_TRANSIENT_STAGE, False)]
        assert all(np.isnan(v)
                   for v in batch.points[1].voltages.values())
        for index in (0, 2):
            point = batch.points[index]
            assert point.converged
            undo = apply_lane(ckt, lanes[index])
            try:
                serial = operating_point(ckt, TIGHT)
            finally:
                undo()
            assert point.voltage("d") == pytest.approx(
                serial.voltage("d"), rel=1e-9)

    def test_solve_stacked_sparse_isolates_a_singular_lane(self):
        """Direct kernel check: an exactly-singular lane degrades to a
        finite least-squares step on the shared pattern while healthy
        lanes get the exact sparse solutions."""
        from repro.spice.batch import _solve_stacked_sparse

        rng = np.random.default_rng(7)
        jac = np.stack([np.eye(3) + 0.1 * rng.normal(size=(3, 3))
                        for _ in range(3)])
        jac[1] = 0.0  # lane 1: exactly singular
        rows = np.repeat(np.arange(3), 3)
        cols = np.tile(np.arange(3), 3)
        system = SparseSystem(3, {"full": (rows, cols)})
        vals = jac.reshape(3, 9)
        res = rng.normal(size=(3, 3))
        dX = _solve_stacked_sparse(system, vals, res)
        for k in (0, 2):
            np.testing.assert_allclose(
                dX[k], np.linalg.solve(jac[k], -res[k]), rtol=1e-9)
        assert np.all(np.isfinite(dX[1]))

    @pytest.mark.filterwarnings(
        "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_lane_does_not_count_a_numeric_refactorization(self):
        """``SparseSystem.factorize`` refuses non-finite input before
        touching SuperLU -- the counters only ever count real work, and
        no ordering is kept from a matrix that was never factored."""
        rows = np.repeat(np.arange(2), 2)
        cols = np.tile(np.arange(2), 2)
        system = SparseSystem(2, {"full": (rows, cols)})
        nan_data = system.nonzeros(np.array([np.nan, 0.0, 0.0, 1.0]))
        with telemetry.tracing("nan-factorize") as trace:
            assert system.factorize(nan_data) is None
        counters = trace.total_counters()
        assert counters.get("sparse_numeric_refactorizations", 0) == 0
        assert counters.get("sparse_symbolic_factorizations", 0) == 0
        assert system.col_order is None


class TestFullBankContract:
    """Hierarchical circuits: mismatch lanes may address the full
    device bank (subcircuit instances included), not just top-level
    elements -- the thousand-node adder has *no* top-level MOS."""

    def _adder(self, design) -> Circuit:
        circuit, _ = adder_chain_circuit(design, 0.4, width=2,
                                         a=1, b=2, carry_in=False)
        circuit.matrix_backend = "sparse"
        return circuit

    def test_bank_length_zero_lane_reproduces_the_baseline(
            self, default_design):
        circuit = self._adder(default_design)
        compiled = circuit.compile()
        baseline = operating_point(circuit)
        n_bank = compiled.assembler._mos_bank.n_devices
        assert len(circuit.mos_elements()) == 0  # all MOS live in cells
        batch = batch_operating_point(
            circuit, [LaneSpec.mismatch(np.zeros(n_bank), label="zero")],
            x0=baseline.x)
        assert batch.failures == []
        for node, value in baseline.voltages.items():
            assert batch.points[0].voltages[node] == pytest.approx(
                value, rel=1e-9, abs=1e-12)

    def test_wrong_length_lane_rejected_with_both_counts(
            self, default_design):
        circuit = self._adder(default_design)
        with pytest.raises(AnalysisError, match="top-level"):
            batch_operating_point(
                circuit, [LaneSpec.mismatch(np.zeros(5), label="short")])


class TestColumnByColumn:
    """SuperLU runs one column at a time, through one binding, into one
    container per pattern -- without changing the steps, and the fill
    only by entries that cancel to exactly zero in one update order."""

    def test_every_factorization_runs_column_by_column(
            self, default_design, monkeypatch):
        """A stand-in for ``sparse._splu`` sees every factorization of
        a serial solve (the serial kernel) and of a stacked solve
        (``_solve_stacked_sparse``): the first orders with COLAMD, every
        later one keeps that order, and all pass relax 1, panel 1."""
        from repro.spice import batch

        calls = {"serial": [], "stacked": []}
        caller = "serial"
        real_splu = sparse._splu
        real_stacked = batch._solve_stacked_sparse

        def splu_stand_in(matrix, **options):
            calls[caller].append(options)
            return real_splu(matrix, **options)

        def stacked(*args):
            nonlocal caller
            caller = "stacked"
            try:
                return real_stacked(*args)
            finally:
                caller = "serial"

        monkeypatch.setattr(sparse, "_splu", splu_stand_in)
        monkeypatch.setattr(batch, "_solve_stacked_sparse", stacked)
        circuit = _inverter(default_design, "sparse")
        x = operating_point(circuit).x
        batch_operating_point(circuit, _mismatch_lanes(
            len(circuit.mos_elements()), 3), x0=x)
        assert calls["serial"] and calls["stacked"]
        options = calls["serial"] + calls["stacked"]
        assert [opts["permc_spec"] for opts in options] == (
            ["COLAMD"] + ["NATURAL"] * (len(options) - 1))
        assert sparse.SUPERLU_RELAX == sparse.SUPERLU_PANEL_SIZE == 1
        assert all(opts["relax"] == 1 and opts["panel_size"] == 1
                   for opts in options)

    def test_handles_from_the_reused_container_solve_their_own_matrix(
            self):
        """Factorizations after the first refill one column-permuted
        container in place; a handle made before the refill still
        solves its own matrix."""
        rng = np.random.default_rng(5)
        pattern = (rng.random((6, 6)) < 0.4) | np.eye(6, dtype=bool)
        rows, cols = np.nonzero(pattern)
        system = SparseSystem(6, {"full": (rows, cols)})
        matrices = []
        for _ in range(3):
            matrix = np.zeros((6, 6))
            matrix[rows, cols] = rng.normal(size=rows.size)
            matrix[np.arange(6), np.arange(6)] += 4.0
            matrices.append(matrix)
        handles = [system.factorize(system.nonzeros(matrices[0][rows, cols]))]
        handles.append(system.factorize(
            system.nonzeros(matrices[1][rows, cols])))
        container = system._permuted
        handles.append(system.factorize(
            system.nonzeros(matrices[2][rows, cols])))
        assert system._permuted is container
        rhs = rng.normal(size=6)
        for matrix, handle in zip(matrices, handles):
            np.testing.assert_allclose(handle.solve(rhs),
                                       np.linalg.solve(matrix, rhs),
                                       rtol=1e-12)

    #: Largest |Δnnz(L)| + |Δnnz(U)| one factorization may show against
    #: SuperLU's default settings.  Pivots and column order agree; only
    #: entries that cancel to exactly zero under one update order and
    #: leave a residue of 1e-19 or less under the other differ, at most
    #: 6 of a factorization's ~5,500 factor nonzeros on this solve.
    FILL_DRIFT_BOUND = 12

    def test_adder16_newton_steps_match_dense_with_unchanged_fill(
            self, default_design, ladder_hard_adder, monkeypatch):
        """On the 588-unknown 16-bit adder, the Newton steps of a cold
        sparse solve through both rungs (its source-coupled nodes
        started where Newton stalls) agree with ``np.linalg.solve`` on
        the same Jacobian to 1e-12 relative, and every factorization
        has the nnz(L) and nnz(U) of SuperLU's default settings to
        within :attr:`FILL_DRIFT_BOUND` entries."""
        from scipy.sparse.linalg import splu

        factors = []
        real = sparse._splu

        def stand_in(matrix, **options):
            lu = real(matrix, **options)
            factors.append((matrix.copy(), options["permc_spec"], lu))
            return lu

        steps = []
        factorize = SparseSystem.factorize

        class Recorded:
            def __init__(self, handle, matrix):
                self.handle, self.matrix = handle, matrix

            def solve(self, rhs):
                dx = self.handle.solve(rhs)
                steps.append((self.matrix, rhs.copy(), dx.copy()))
                return dx

        def recording(system, data):
            handle = factorize(system, data)
            return Recorded(handle, system.matrix_from_data(data.copy()))

        monkeypatch.setattr(sparse, "_splu", stand_in)
        monkeypatch.setattr(SparseSystem, "factorize", recording)
        circuit, _ = ladder_hard_adder(default_design, 0.4, width=16,
                                       a=0x1234, b=0xBEEF, carry_in=True)
        assert circuit.compile().solver_backend() == "sparse"
        assert circuit.compile().size == 588
        operating_point(circuit)
        assert len(steps) == len(factors) > 20
        for matrix, rhs, dx in steps[::len(steps) // 8]:
            want = np.linalg.solve(matrix.toarray(), rhs)
            assert np.max(np.abs(dx - want)) <= \
                1e-12 * np.max(np.abs(want))
        for matrix, permc_spec, lu in factors:
            default = splu(matrix, permc_spec=permc_spec)
            assert (abs(lu.L.nnz - default.L.nnz)
                    + abs(lu.U.nnz - default.U.nnz)) <= self.FILL_DRIFT_BOUND


def _indexes(assembler):
    """Every scatter-pattern index of ``assembler``."""
    for value in vars(assembler).values():
        if isinstance(value, assembly._Index):
            yield value
        elif isinstance(value, assembly._Scatter):
            yield value.at
            yield value.sel


class TestPickledState:
    def test_solved_adder_pickles_without_dense_or_per_call_state(
            self, default_design):
        """After a serial solve and a batched job, the 16-bit adder
        pickles with no float (N, N) array and no per-call cache (the
        stacked flat slot map, the refilled container, the stacked
        index forms), and the unpickled circuit solves to the same
        bits."""
        circuit, _ = adder_chain_circuit(default_design, 0.4, width=16,
                                         a=0x0F0F, b=0x3C3C, carry_in=True)
        x = operating_point(circuit).x
        assembler = circuit.compile().assembler
        n_bank = assembler._mos_bank.n_devices
        batch = batch_operating_point(circuit,
                                      _mismatch_lanes(n_bank, 8), x0=x)
        assert batch.failures == []
        system = assembler.sparse_system()
        assert system._flat_slot is not None
        assert system._permuted is not None
        assert any(index._stacked for index in _indexes(assembler))
        size = assembler.size
        shapes = []

        class Inspector(pickle.Pickler):
            def reducer_override(self, obj):
                if isinstance(obj, np.ndarray):
                    shapes.append((obj.shape, obj.dtype.kind))
                return NotImplemented

        buffer = io.BytesIO()
        Inspector(buffer).dump(circuit)
        assert shapes
        assert ((size, size), "f") not in shapes
        restored = pickle.loads(buffer.getvalue())
        restored_asm = restored.compile().assembler
        restored_system = restored_asm.sparse_system()
        assert restored_system._flat_slot is None
        assert restored_system._permuted is None
        assert np.array_equal(restored_system.col_order, system.col_order)
        assert not any(index._stacked for index in _indexes(restored_asm))
        assert np.array_equal(operating_point(restored).x,
                              operating_point(circuit).x)
