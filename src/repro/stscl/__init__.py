"""Subthreshold source-coupled logic (STSCL): the paper's core digital idea.

An STSCL gate (paper Fig. 2) is an NMOS differential switching network
biased by a tail current I_SS, loaded by bulk-drain-shorted PMOS devices
acting as very-high-valued resistors R_L = V_SW / I_SS.  Its properties,
all modelled here:

* delay  t_d = ln2 * V_SW * C_L / I_SS  -- set *only* by the tail current;
* power  P = I_SS * V_DD -- static, exactly known, leakage-free by design;
* speed and noise margin independent of V_DD (experiments E2, E6, E7);
* inversion is free (swap the differential wires);
* stacked differential pairs merge several functions into one tail
  current (the Fig. 8 majority cell);
* a latch merged into any gate enables depth-1 pipelining (Sec. III-B).
"""

from .gate_model import StsclGateDesign, DEFAULT_V_SW, DEFAULT_C_LOAD
from .load import HighValueLoad, ReplicaBias
from .library import (
    CellKind,
    StsclCell,
    STANDARD_CELLS,
    cell,
)
from .power import (
    eq1_cell_power,
    required_tail_current,
    system_power,
    pipelining_gain,
)
from .supply import minimum_supply, supply_sensitivity
from .netlist_gen import (
    stscl_inverter_circuit,
    stscl_buffer_chain_circuit,
    replica_bias_circuit,
    stscl_majority_circuit,
    stscl_tree_circuit,
    stscl_latch_circuit,
    stscl_ring_oscillator_circuit,
)
from .testbench import (
    GateCharacterization,
    buffer_chain_capture,
    characterize_gate,
    delay_chain_circuit,
    measure_gate_delay,
)
from .adder import PipelinedAdder, full_adder_cells
from .loading import LoadBreakdown, estimate_load, supported_fanout
from .thermal import (
    ThermalPoint,
    delay_spread,
    gain_over_temperature,
    noise_margin_slope,
    thermal_comparison,
)

__all__ = [
    "StsclGateDesign", "DEFAULT_V_SW", "DEFAULT_C_LOAD",
    "HighValueLoad", "ReplicaBias",
    "CellKind", "StsclCell", "STANDARD_CELLS", "cell",
    "eq1_cell_power", "required_tail_current", "system_power",
    "pipelining_gain",
    "minimum_supply", "supply_sensitivity",
    "stscl_inverter_circuit", "stscl_buffer_chain_circuit",
    "replica_bias_circuit", "stscl_majority_circuit",
    "stscl_tree_circuit", "stscl_latch_circuit",
    "stscl_ring_oscillator_circuit",
    "GateCharacterization", "buffer_chain_capture", "characterize_gate",
    "delay_chain_circuit", "measure_gate_delay",
    "PipelinedAdder", "full_adder_cells",
    "LoadBreakdown", "estimate_load", "supported_fanout",
    "ThermalPoint", "delay_spread", "gain_over_temperature",
    "noise_margin_slope", "thermal_comparison",
]
