"""A small SPICE-class circuit simulator built on modified nodal analysis.

This is the substitute for the commercial simulator used by the paper's
authors (see DESIGN.md section 2).  It supports:

* nonlinear DC operating point (Newton, then pseudo-transient continuation),
* DC sweeps,
* small-signal AC analysis (complex MNA linearised at the DC point),
* transient analysis (trapezoidal / backward-Euler with adaptive steps),

over ideal passives, independent and controlled sources, junction diodes,
the EKV MOS model of :mod:`repro.devices` and instances of subcircuits.
One vectorized assembler (:mod:`repro.spice.assembly`) stamps every
analysis's system; it knows exactly these element types, and compiling
a circuit with any other fails.  Circuits of the size the paper
evaluates (an STSCL gate, a pre-amplifier, a replica bias loop) have a
few dozen unknowns, which dense numpy linear algebra handles easily;
larger ones go to sparse LU (see ``Circuit.matrix_backend``).
"""

from .netlist import Circuit, GROUND_NAMES
from .elements import (
    Element,
    Resistor,
    Capacitor,
    VoltageSource,
    CurrentSource,
    Vcvs,
    Vccs,
    DiodeElement,
    MosElement,
)
from .waveforms import dc_wave, pulse_wave, sine_wave, pwl_wave, step_wave
from .dc import operating_point, dc_sweep, NewtonOptions
from .strategies import SolverDiagnostics, StageReport
from .batch import (
    BatchAssembler,
    BatchDiagnostics,
    BatchOpResult,
    BatchTranDiagnostics,
    BatchTranResult,
    BatchedOpMetric,
    BatchedTranMetric,
    LaneSpec,
    apply_lane,
    batch_operating_point,
    batch_transient,
)
from .ac import ac_analysis
from .transient import transient, TransientOptions, TransientTelemetry
from .results import OpResult, SweepResult, AcResult, TranResult
from .io import read_netlist, write_netlist

__all__ = [
    "Circuit", "GROUND_NAMES",
    "Element", "Resistor", "Capacitor", "VoltageSource", "CurrentSource",
    "Vcvs", "Vccs", "DiodeElement", "MosElement",
    "dc_wave", "pulse_wave", "sine_wave", "pwl_wave", "step_wave",
    "operating_point", "dc_sweep", "NewtonOptions",
    "SolverDiagnostics", "StageReport",
    "LaneSpec", "BatchAssembler", "BatchOpResult", "BatchDiagnostics",
    "batch_operating_point", "BatchedOpMetric", "apply_lane",
    "batch_transient", "BatchTranResult", "BatchTranDiagnostics",
    "BatchedTranMetric",
    "ac_analysis",
    "transient", "TransientOptions", "TransientTelemetry",
    "OpResult", "SweepResult", "AcResult", "TranResult",
    "read_netlist", "write_netlist",
]
