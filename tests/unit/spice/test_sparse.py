"""Sparse backend: bit-level stamp-scatter agreement and selection.

The sparse assembler is a *twin* of the dense flat-index scatter, not a
reimplementation: every triplet segment mirrors one dense accumulation
pass in the same left-to-right order (``lin, mos, dio, cap, diocap,
diag``), and ``np.bincount`` sums duplicate triplets sequentially.  The
contract is therefore exact equality of the assembled entries -- these
tests compare with ``==``, not a tolerance.  (The one deliberate
exception: stacking *two* diagonal stamps, e.g. a pseudo-transient
anchor plus gmin, associates differently between the backends, so the
bit-level tests use a single ``add_diagonal`` call.)
"""

import numpy as np
import pytest

from repro.devices.diode import Diode, DiodeParameters
from repro.errors import NetlistError
from repro.spice import Circuit, NewtonOptions, operating_point
from repro.spice.elements import Element, Stamper
from repro.spice.sparse import (SPARSE_AUTO_THRESHOLD, SparseStamper,
                                SparseSystem)
from repro.stscl.netlist_gen import stscl_inverter_circuit

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))


def mixed_circuit(backend: str) -> Circuit:
    """R + V + I + diode + VCVS: every linear pattern plus both
    nonlinear banks."""
    circuit = Circuit("mixed", matrix_backend=backend)
    circuit.add_vsource("V1", "in", "0", 1.2)
    circuit.add_resistor("R1", "in", "a", 220.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    circuit.add_resistor("R2", "a", "b", 1e3)
    circuit.add_capacitor("C1", "b", "0", 1e-12)
    circuit.add_isource("I1", "b", "0", 1e-6)
    circuit.add_vcvs("E1", "c", "0", "a", "0", 2.0)
    circuit.add_resistor("R3", "c", "0", 5e3)
    return circuit


def inverter_circuit(backend: str, design) -> Circuit:
    circuit, _ = stscl_inverter_circuit(design, 0.4)
    circuit.matrix_backend = backend
    return circuit


def _pair(builder):
    """(dense stamper+compiled, sparse stamper+compiled) of one
    topology built twice -- identical node indexing by construction."""
    dense = builder("dense").compile()
    sparse = builder("sparse").compile()
    st_d, st_s = dense.new_stamper(), sparse.new_stamper()
    assert isinstance(st_d, Stamper)
    assert isinstance(st_s, SparseStamper)
    return (dense, st_d), (sparse, st_s)


class TestBitLevelAgreement:
    @pytest.mark.parametrize("x_kind", ["flat", "solved"])
    def test_static_assembly_is_bit_identical(self, x_kind):
        (dense, st_d), (sparse, st_s) = _pair(mixed_circuit)
        x = dense.circuit.initial_guess(dense)
        if x_kind == "solved":
            x = operating_point(dense.circuit).x
        dense.assembler.assemble(st_d, x, None)
        sparse.assembler.assemble(st_s, x, None)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_mos_bank_assembly_is_bit_identical(self, default_design):
        (dense, st_d), (sparse, st_s) = _pair(
            lambda backend: inverter_circuit(backend, default_design))
        x = operating_point(dense.circuit).x
        dense.assembler.assemble(st_d, x, None)
        sparse.assembler.assemble(st_s, x, None)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_charge_companions_are_bit_identical(self, default_design):
        """The transient companion stamp (cap + diode-cap segments)
        lands on the same entries with the same values."""
        (dense, st_d), (sparse, st_s) = _pair(
            lambda backend: inverter_circuit(backend, default_design))
        x = operating_point(dense.circuit).x
        c0 = 1.0 / 1e-9  # backward-Euler coefficient for dt = 1 ns
        q0 = dense.assembler.charge_vector(x)
        rhs = -c0 * q0
        for compiled, st in ((dense, st_d), (sparse, st_s)):
            compiled.assembler.assemble(st, x, None)
            compiled.assembler.stamp_charges(st, x, c0, rhs)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)
        assert np.array_equal(st_s.res, st_d.res)

    def test_gmin_diagonal_is_bit_identical(self):
        (dense, st_d), (sparse, st_s) = _pair(mixed_circuit)
        x = dense.circuit.initial_guess(dense)
        n_nodes = len(dense.node_index)
        for compiled, st in ((dense, st_d), (sparse, st_s)):
            compiled.assembler.assemble(st, x, None)
            st.add_diagonal(1e-9, n_nodes)
        assert np.array_equal(st_s.matrix().toarray(), st_d.jac)

    def test_solutions_agree_to_solver_tolerance(self, default_design):
        """End-to-end: same circuit through both Newton backends."""
        dense = operating_point(inverter_circuit("dense", default_design))
        sparse = operating_point(
            inverter_circuit("sparse", default_design))
        for node, value in dense.voltages.items():
            assert sparse.voltages[node] == pytest.approx(value,
                                                          abs=1e-9)


class TestBackendSelection:
    def test_auto_stays_dense_below_threshold(self):
        compiled = mixed_circuit("auto").compile()
        assert compiled.size < SPARSE_AUTO_THRESHOLD
        assert compiled.solver_backend() == "dense"

    def test_auto_switches_at_threshold(self):
        circuit = Circuit("ladder", matrix_backend="auto")
        previous = "0"
        for k in range(SPARSE_AUTO_THRESHOLD + 1):
            circuit.add_resistor(f"R{k}", previous, f"n{k}", 100.0)
            previous = f"n{k}"
        circuit.add_vsource("V1", previous, "0", 1.0)
        compiled = circuit.compile()
        assert compiled.size >= SPARSE_AUTO_THRESHOLD
        assert compiled.solver_backend() == "sparse"

    def test_explicit_sparse_honored_on_tiny_circuits(self):
        assert mixed_circuit("sparse").compile().solver_backend() \
            == "sparse"

    def test_explicit_dense_always_dense(self):
        assert mixed_circuit("dense").compile().solver_backend() \
            == "dense"

    def test_unknown_backend_rejected(self):
        with pytest.raises(NetlistError, match="matrix_backend"):
            Circuit("bad", matrix_backend="banded")

    def test_foreign_element_pins_to_dense(self):
        """An imperative (fallback) stamp has no triplet twin: auto
        degrades to dense, explicit sparse refuses loudly."""

        class Gyrator(Element):
            def __init__(self):
                super().__init__("GY1", ("p", "q"))

            def stamp(self, st, x, time):
                p, q = self.node_indices
                st.add_j(p, p, 1e-3)
                st.add_j(q, q, 1e-3)
                st.res[p] += 1e-3 * x[p]
                st.res[q] += 1e-3 * x[q]

        def build(backend):
            circuit = Circuit("foreign", matrix_backend=backend)
            circuit.add_vsource("V1", "p", "0", 1.0)
            circuit.add_resistor("R1", "p", "q", 1e3)
            circuit._register(Gyrator())
            return circuit

        assert build("auto").compile().solver_backend() == "dense"
        with pytest.raises(NetlistError, match="sparse"):
            build("sparse").compile().solver_backend()


class TestSparseSystem:
    def test_duplicate_triplets_accumulate(self):
        system = SparseSystem(2, {
            "a": (np.array([0, 0, 1]), np.array([0, 0, 1])),
            "diag": (np.array([0, 1]), np.array([0, 1]))})
        matrix = system.matrix(np.array([1.0, 2.0, 5.0, 0.25, 0.75]))
        assert np.array_equal(matrix.toarray(),
                              [[3.25, 0.0], [0.0, 5.75]])

    def test_unmasked_ground_entries_rejected(self):
        with pytest.raises(ValueError, match="ground"):
            SparseSystem(2, {"a": (np.array([-1]), np.array([0]))})

    def test_empty_system_builds(self):
        system = SparseSystem(3, {})
        assert system.nnz == 0
        assert system.matrix(np.zeros(0)).shape == (3, 3)
