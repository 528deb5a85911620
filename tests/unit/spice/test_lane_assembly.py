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

One batched assembler assembles three lane sets in a row: every lane
in reversed order, so row ``r`` holds lane ``n - 1 - r`` and the lane
overlays must follow the lane index, not the row; then the last lane
on its own, the one-row stack; then every lane in lane order.  The
assembler must switch its lane overlays with the lane set (it keeps
the MOS overlay of the last one).  Every serial lane is assembled on a
freshly built circuit, so no state carries over from one lane to the
next.

Every stacked scatter must also hand ``np.add.at`` a flat index:
numpy's fast path for it takes only a 1-D index.

A batched assembler builds no arrays of its own: it takes over the
compiled circuit's synced assembler.  When a later sync of the batched
assembler rebuilds its arrays after an element mutation, its lane
overlays must follow the new values.
"""

import dataclasses
import types
from typing import NamedTuple

import numpy as np
import pytest

from repro import telemetry
from repro.spice import (BatchAssembler, Circuit, LaneSpec, TransientOptions,
                         apply_lane, pulse_wave)
from repro.spice import assembly
from repro.spice.batch import _LockstepStepper
from repro.spice.elements import Stamper
from repro.spice.sparse import SparseStamper
from repro.spice.transient import _SerialStepper
from repro.stscl import StsclGateDesign
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.netlist_gen import (stscl_buffer_chain_circuit,
                                     stscl_inverter_circuit,
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


def _stacked(assembler: BatchAssembler, circuit: Circuit,
             lanes: list[LaneSpec], X: np.ndarray, rows: np.ndarray, time,
             sparse: bool, rhs: np.ndarray) -> Assembly:
    """Lanes ``rows`` (rows of ``X``/``rhs``) assembled in one stacked
    pass of ``assembler``, a batched assembler over ``lanes``; every
    array has one row per assembled lane."""
    n_rows, size = len(rows), assembler.size
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
    assembler = BatchAssembler(circuit.compile(), lanes)
    order = np.arange(len(lanes))[::-1].copy()
    for rows in (order, order[:1], order[::-1].copy()):
        stacked = _stacked(assembler, circuit, lanes, X, rows, time,
                           sparse, rhs)
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
    stacked = _stacked(BatchAssembler(circuit.compile(), lanes), circuit,
                       lanes, X, rows, T_EDGE, sparse, rhs)
    for lane_index in rows:
        serial = _serial(_divider, lanes[lane_index], X[lane_index],
                         T_EDGE, sparse, rhs[lane_index])
        assert np.array_equal(stacked.static_res[lane_index],
                              serial.static_res)


class _NumpySpy:
    """``numpy`` as the assembly module sees it, recording the shapes
    of the index and the terms of every ``np.add.at`` call."""

    def __init__(self) -> None:
        self.calls: list[tuple[tuple, tuple]] = []
        self.add = types.SimpleNamespace(at=self._add_at)

    def _add_at(self, target, index, terms) -> None:
        self.calls.append((np.shape(index), np.shape(terms)))
        np.add.at(target, index, terms)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("time", [None, T_EDGE], ids=["dc", "tran"])
@pytest.mark.parametrize("n_lanes", [16, 1])
@pytest.mark.parametrize("name", ["chain", "latch"])
def test_stacked_scatters_take_the_flat_fast_path(name, n_lanes, time,
                                                  monkeypatch):
    """Every scatter of a dense stacked assembly passes ``np.add.at`` a
    1-D index and 1-D terms of the same length: numpy's fast path takes
    only a 1-D index, and a ``(rows, m)`` one costs several times as
    much.  This pins that speed property without timing anything."""
    circuit = BUILDERS[name]()
    n_top = len(circuit.mos_elements())
    lanes = [_mismatch(seed, n_top) for seed in range(n_lanes)]
    assembler = BatchAssembler(circuit.compile(), lanes)
    size = assembler.size
    X = _points(circuit, n_lanes)
    rhs = np.random.default_rng(3).normal(
        0.0, 1e-6, (n_lanes, assembler.n_charge_terms))
    rows = np.arange(n_lanes)
    jac = np.empty((n_lanes, size, size))
    res = np.empty((n_lanes, size))
    spy = _NumpySpy()
    monkeypatch.setattr(assembly, "np", spy)
    assembler.assemble_batch(jac, res, X, rows, time=time)
    assembler.stamp_charges_batch(jac, res, X, C0, rhs)
    assert spy.calls
    for index_shape, terms_shape in spy.calls:
        assert len(index_shape) == 1
        assert terms_shape == index_shape


def test_lane_bank_keeps_the_overlay_of_the_last_lane_set():
    """A repeated lane set reuses the MOS overlay of the last one; any
    other set gets its own -- a reordering, a one-element lane array (a
    ``(1, n)`` bank) and the scalar lane ``device_ops`` passes (an
    ``(n,)`` bank) -- and a sync that rebuilds the bank drops it."""
    circuit = _latch()
    mos = circuit.mos_elements()
    n = len(mos)
    assembler = BatchAssembler(circuit.compile(),
                               [_mismatch(seed, n) for seed in range(4)])
    rows = np.arange(4)
    bank = assembler._lane_bank(rows)
    assert assembler._lane_bank(rows.copy()) is bank
    assert assembler._lane_bank(rows[::-1].copy()) is not bank
    assert assembler._lane_bank(np.array([2])).vt.shape == (1, n)
    kept = assembler._lane_bank(2)
    assert kept.vt.shape == (n,)
    assert assembler._lane_bank(2) is kept
    device = mos[0].device
    mos[0].device = dataclasses.replace(device,
                                        vt_shift=device.vt_shift + 1e-3)
    assert assembler.sync()
    assert assembler._lane_bank(2) is not kept


def test_construction_takes_over_the_synced_arrays(monkeypatch):
    """With the compiled circuit's assembler in sync, constructing a
    batched assembler runs no build pass: it takes over that
    assembler's arrays and scatter patterns.  Out of sync, construction
    syncs the compiled assembler once and takes over the result."""
    calls = []

    def spy(name):
        original = getattr(assembly.CircuitAssembler, name)

        def build(self):
            calls.append(name)
            original(self)
        return build

    for name in ("_build_linear", "_build_mos", "_build_diodes",
                 "_build_charges"):
        monkeypatch.setattr(assembly.CircuitAssembler, name, spy(name))
    circuit = _latch()
    compiled = circuit.compile()
    serial = compiled.prepare()
    mos = circuit.mos_elements()
    lanes = [_mismatch(seed, len(mos)) for seed in range(4)]
    calls.clear()
    batched = BatchAssembler(compiled, lanes)
    assert calls == []
    assert batched._mos_jacobian is serial._mos_jacobian
    assert batched._mos_bank is serial._mos_bank
    device = mos[0].device
    mos[0].device = dataclasses.replace(device,
                                        vt_shift=device.vt_shift + 1e-3)
    batched = BatchAssembler(compiled, lanes)
    assert sorted(calls) == ["_build_charges", "_build_diodes",
                             "_build_linear", "_build_mos"]
    assert batched._mos_bank is compiled.assembler._mos_bank


def _inverter() -> Circuit:
    circuit, _ = stscl_inverter_circuit(DESIGN, VDD)
    return circuit


def _raise_vt(circuit: Circuit) -> None:
    element = circuit.mos_elements()[0]
    element.device = dataclasses.replace(
        element.device, vt_shift=element.device.vt_shift + 50e-3)


def _age_r1(circuit: Circuit) -> None:
    circuit.element("r1").resistance *= 1.3


@pytest.mark.parametrize("case", ["vt", "resistor"])
def test_rebuilding_sync_rebuilds_the_lane_overlays(case):
    """A held batched assembler re-synced after an element mutation
    assembles every lane as the mutated circuit does serially: a +1 mV
    VT lane after the device's VT rose 50 mV, and a scaled-resistor
    lane after the resistor aged."""
    if case == "vt":
        build, mutate = _inverter, _raise_vt
        n = len(_inverter().mos_elements())
        lane = LaneSpec.mismatch(np.eye(n)[0] * 1e-3)
    else:
        build, mutate = _divider, _age_r1
        lane = LaneSpec(resistor_scale=(("r1", 1.7),))
    lanes = [LaneSpec(), lane]
    circuit = build()
    assembler = BatchAssembler(circuit.compile(), lanes)
    mutate(circuit)
    assert assembler.sync()

    def mutated() -> Circuit:
        fresh = build()
        mutate(fresh)
        return fresh

    if case == "vt":
        vt = mutated().compile().assembler._mos_bank.vt
        assert np.array_equal(assembler._lane_bank(np.array([1])).vt[0],
                              vt + lane.vt_delta)
    X = _points(circuit, 2)
    rhs = np.zeros((2, assembler.n_charge_terms))
    rows = np.arange(2)
    stacked = _stacked(assembler, circuit, lanes, X, rows, None, False, rhs)
    for r in rows:
        serial = _serial(mutated, lanes[r], X[r], None, False, rhs[r])
        exact = case == "vt" or r == 0
        _same(stacked.static_target[r], serial.static_target, exact)
        _same(stacked.static_res[r], serial.static_res, exact)
