"""Gate-level digital design tools for STSCL systems.

The paper's digital circuitry (the ADC's 196-gate encoder, the pipelined
adder of ref. [13]) is expressed here as gate-level netlists over the
:mod:`repro.stscl.library` cells, with:

* functional (cycle-accurate) and event-driven timed simulation;
* static timing analysis tied to the STSCL delay law;
* an automatic full-pipelining transform (the Sec. III-B technique);
* the folding-ADC encoder generator (majority bubble correction,
  thermometer -> Gray -> binary);
* a subthreshold static-CMOS baseline model for the Fig. 3 / ref. [11]
  comparisons.
"""

from .netlist import Gate, GateNetlist, Pin
from .simulator import CycleSimulator, EventSimulator
from .sta import TimingReport, analyze_timing, timing_yield_under_mismatch
from .pipeline import balance_pipeline
from .encoder import (
    EncoderSpec,
    build_fai_encoder,
    encode_batch,
    encoder_output_value,
    reference_encode,
    thermometer_to_gray_taps,
)
from .cmos_baseline import CmosGateModel, CmosSystemModel
from .vcd import dump_vcd

__all__ = [
    "Gate", "GateNetlist", "Pin",
    "CycleSimulator", "EventSimulator",
    "TimingReport", "analyze_timing", "timing_yield_under_mismatch",
    "balance_pipeline",
    "EncoderSpec", "build_fai_encoder", "encode_batch",
    "encoder_output_value", "reference_encode",
    "thermometer_to_gray_taps",
    "CmosGateModel", "CmosSystemModel",
    "dump_vcd",
]
