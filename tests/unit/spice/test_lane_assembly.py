"""Stacked assembly is serial assembly, lane by lane.

A :class:`~repro.spice.batch.BatchAssembler` assembles many lanes of
one circuit at once.  Each lane must produce exactly the system a
serial :class:`~repro.spice.assembly.CircuitAssembler` produces for the
same lane realized on the circuit through :func:`apply_lane`:

* the static system (dense Jacobian or sparse triplet values, and the
  residual), at DC and at a transient timestamp;
* the transient charge companions stamped on top of it;
* the charge vector each transient engine records.

Unperturbed, VT/beta mismatch (top-level and full-bank) and
source-override lanes compare with ``==``.  Resistor-scale lanes add a
delta conductance to the base one where the serial lane scales the
resistance itself, so they agree to rounding (rtol 1e-12).

Lanes are assembled in reversed order, so row ``r`` holds lane
``n - 1 - r``: the lane overlays must follow the lane index, not the
row.  The last lane is also assembled on its own, the one-row stack.
Every serial lane is assembled on a freshly built circuit, so no state
carries over from one lane to the next.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro import telemetry
from repro.spice import (BatchAssembler, Circuit, LaneSpec, TransientOptions,
                         apply_lane, pulse_wave)
from repro.spice.batch import _LockstepStepper
from repro.spice.elements import Stamper
from repro.spice.sparse import SparseStamper
from repro.spice.transient import _SerialStepper
from repro.stscl import StsclGateDesign
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import (stscl_buffer_chain_circuit,
                                     stscl_latch_circuit)

DESIGN = StsclGateDesign.default(1e-9)
VDD = 0.4
T_D = DESIGN.delay()
#: A timestamp on a rising clock edge of the pulse-driven circuits.
T_EDGE = 1.1 * T_D
#: Backward-Euler companion coefficient for a 1 ns step.
C0 = 1e9


def _pulse(low: float, high: float):
    return pulse_wave(low, high, delay=T_D, rise=T_D / 5.0, fall=T_D / 5.0,
                      width=2.0 * T_D, period=4.0 * T_D)


def _latch() -> Circuit:
    high, low = VDD, VDD - DESIGN.v_sw
    circuit, _ = stscl_latch_circuit(DESIGN, VDD, _pulse(low, high),
                                     _pulse(high, low), _pulse(low, high),
                                     _pulse(high, low))
    return circuit


def _chain() -> Circuit:
    high, low = VDD, VDD - DESIGN.v_sw
    circuit, _ = stscl_buffer_chain_circuit(
        DESIGN, VDD, 8, _pulse(low, high), _pulse(high, low),
        with_dwell=True)
    return circuit


def _adder() -> Circuit:
    circuit, _ = adder_chain_circuit(DESIGN, VDD, width=2, a=1, b=3)
    return circuit


def _divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("vin", "in", "0", _pulse(0.0, 1.0))
    circuit.add_resistor("r1", "in", "mid", 10e3)
    circuit.add_resistor("r2", "mid", "0", 22e3)
    circuit.add_capacitor("c1", "mid", "0", 1e-12)
    circuit.add_isource("ib", "mid", "0", 1e-6)
    return circuit


def _mismatch(seed: int, n: int) -> LaneSpec:
    rng = np.random.default_rng(seed)
    return LaneSpec.mismatch(rng.normal(0.0, 3e-3, n),
                             rng.normal(1.0, 0.02, n), label=f"mm{seed}")


def _lanes(name: str, circuit: Circuit) -> list[tuple[LaneSpec, bool]]:
    """``(lane, exact)`` pairs; ``exact`` False marks a resistor-scale
    lane, which agrees to rounding only."""
    if name == "divider":
        return [(LaneSpec(), True),
                (LaneSpec(resistor_scale=(("r1", 1.7),)), False),
                (LaneSpec.source("ib", 2e-6), True),
                (LaneSpec(resistor_scale=(("r2", 0.4), ("r1", 2.5))),
                 False)]
    if name == "adder":
        n_bank = circuit.compile().assembler._mos_bank.n_devices
        return [(LaneSpec(), True), (_mismatch(1, n_bank), True),
                (LaneSpec.source("vvdd", 0.42), True),
                (_mismatch(2, n_bank), True)]
    n_top = len(circuit.mos_elements())
    vbp = circuit.element("vvbp").value_at(None) - 0.01
    return [(LaneSpec(), True), (_mismatch(1, n_top), True),
            (LaneSpec.source("vvdd", 0.42), True),
            (LaneSpec(vt_delta=_mismatch(2, n_top).vt_delta,
                      source_values=(("vvbp", vbp),)), True)]


BUILDERS = {"latch": _latch, "chain": _chain, "adder": _adder,
            "divider": _divider}


def _points(circuit: Circuit, n_lanes: int) -> np.ndarray:
    """One distinct solution-like vector per lane around the nodeset
    guess."""
    compiled = circuit.compile()
    rng = np.random.default_rng(7)
    guess = circuit.initial_guess(compiled)
    return guess + rng.normal(0.0, 0.02, (n_lanes, compiled.size))


class Assembly(NamedTuple):
    """What one assembly produced: the Jacobian target (dense matrix or
    sparse triplet values) and residual after the static stamp and
    after the charge companions, the charge vector, and the sparse
    system the triplets belong to (None when dense)."""

    static_target: np.ndarray
    static_res: np.ndarray
    target: np.ndarray
    res: np.ndarray
    charges: np.ndarray
    system: object


def _serial(build, lane: LaneSpec, x: np.ndarray, time, sparse: bool,
            rhs: np.ndarray) -> Assembly:
    """One lane assembled serially on a fresh circuit."""
    circuit = build()
    undo = apply_lane(circuit, lane)
    try:
        compiled = circuit.compile()
        assembler = compiled.prepare()
        system = assembler.sparse_system() if sparse else None
        st = SparseStamper(system) if sparse else Stamper(compiled.size)
        target = st.vals if sparse else st.jac
        assembler.assemble(st, x, time)
        static = (target.copy(), st.res.copy())
        assembler.stamp_charges(st, x, C0, rhs)
        stepper = _SerialStepper(circuit, 1e-6, TransientOptions(),
                                 telemetry.current_span(), None)
        charges = stepper.charges(x[None])[0]
        return Assembly(*static, target.copy(), st.res.copy(), charges,
                        system)
    finally:
        undo()


def _stacked(circuit: Circuit, lanes: list[LaneSpec], X: np.ndarray,
             rows: np.ndarray, time, sparse: bool,
             rhs: np.ndarray) -> Assembly:
    """Lanes ``rows`` (rows of ``X``/``rhs``) assembled in one stacked
    pass; every array has one row per assembled lane."""
    compiled = circuit.compile()
    assembler = BatchAssembler(compiled, lanes)
    n_rows, size = len(rows), compiled.size
    res = np.empty((n_rows, size))
    Xa, rhs_a = X[rows], rhs[rows]
    if sparse:
        assembler.enable_sparse()
        system = assembler.sparse_batch_system()
        target = np.empty((n_rows, system.n_triplets))
        assembler.assemble_batch_sparse(target, res, Xa, rows, time=time)
        slices = system.segment_slices
    else:
        system, slices = None, None
        target = np.empty((n_rows, size, size))
        assembler.assemble_batch(target, res, Xa, rows, time=time)
    static = (target.copy(), res.copy())
    assembler.stamp_charges_batch(target, res, Xa, C0, rhs_a,
                                  segment_slices=slices)
    stepper = _LockstepStepper(circuit, lanes, 1e-6, TransientOptions(),
                               telemetry.current_span(),
                               [None] * len(lanes), None)
    return Assembly(*static, target, res, stepper.charges(Xa), system)


def _same(actual, expected, exact: bool) -> None:
    if exact:
        assert np.array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("time", [None, T_EDGE], ids=["dc", "tran"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stacked_lanes_equal_serial_lanes(name, sparse, time):
    build = BUILDERS[name]
    circuit = build()
    specs = _lanes(name, circuit)
    lanes = [lane for lane, _exact in specs]
    X = _points(circuit, len(lanes))
    n_charges = circuit.compile().assembler.n_charge_terms
    rhs = np.random.default_rng(3).normal(0.0, 1e-6,
                                          (len(lanes), n_charges))
    order = np.arange(len(lanes))[::-1].copy()
    for rows in (order, order[:1]):
        stacked = _stacked(circuit, lanes, X, rows, time, sparse, rhs)
        for r, lane_index in enumerate(rows):
            lane, exact = specs[lane_index]
            serial = _serial(build, lane, X[lane_index], time, sparse,
                             rhs[lane_index])
            for field in ("static_res", "res", "charges"):
                _same(getattr(stacked, field)[r], getattr(serial, field),
                      exact)
            for field in ("static_target", "target"):
                actual = getattr(stacked, field)[r]
                expected = getattr(serial, field)
                if sparse:
                    # A resistor-scale ensemble appends a segment, so
                    # its triplet layout differs from the serial one;
                    # the assembled matrices must agree either way.
                    if stacked.system.n_triplets == serial.system.n_triplets:
                        _same(actual, expected, exact)
                    actual = stacked.system.matrix(actual).toarray()
                    expected = serial.system.matrix(expected).toarray()
                _same(actual, expected, exact)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_source_override_leaves_other_lanes_on_the_waveform(sparse):
    """Overriding a pulse source in one lane pins that lane to a DC
    value; every other lane still sees the pulse at the timestamp."""
    circuit = _divider()
    lanes = [LaneSpec(), LaneSpec.source("vin", 0.6)]
    X = _points(circuit, 2)
    rhs = np.zeros((2, circuit.compile().assembler.n_charge_terms))
    rows = np.arange(2)
    stacked = _stacked(circuit, lanes, X, rows, T_EDGE, sparse, rhs)
    for lane_index in rows:
        serial = _serial(_divider, lanes[lane_index], X[lane_index],
                         T_EDGE, sparse, rhs[lane_index])
        assert np.array_equal(stacked.static_res[lane_index],
                              serial.static_res)
