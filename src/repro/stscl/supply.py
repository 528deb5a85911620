"""Minimum supply voltage of an STSCL gate (paper Fig. 9b) and the
supply-sensitivity comparison against subthreshold CMOS (Fig. 3).

The minimum V_DD is found from the headroom chain of the worst-case
(fully switched) gate: starting from the output-low level V_DD - V_SW,
each stacked NMOS pair level drops the voltage needed to carry the full
tail current with its gate driven at the logic-high level (V_DD), and
the node under the bottom level -- the tail node -- must still leave the
tail current source its saturation voltage.  Because every drop is a
weak-inversion V_GS-like quantity, V_DD,min falls logarithmically as
I_SS shrinks: the paper's "<0.5 V below 10 nA, 0.35 V below 1 nA".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import thermal_voltage
from ..errors import DesignError
from .gate_model import StsclGateDesign
from .roots import brentq


def _level_source_voltage(design: StsclGateDesign, v_drain: float,
                          v_gate: float) -> float:
    """Source voltage at which one pair level carries the full I_SS.

    Solves I_D(v_drain, v_gate, v_s) = I_SS for v_s; the EKV model covers
    both the saturated and the triode-limited case.  Raises when even a
    grounded source cannot carry the current (supply infeasible).
    """
    device = design.pair_device()

    def error(v_s: float) -> float:
        op = device.evaluate(vd=v_drain, vg=v_gate, vs=v_s, vb=0.0,
                             temperature=design.temperature)
        return op.ids - design.i_ss

    lo, hi = -0.2, v_drain - 1e-6
    if hi <= lo:
        raise DesignError("drain node collapsed below ground")
    if error(lo) < 0.0:
        raise DesignError(
            f"pair device cannot carry {design.i_ss:.2e} A "
            f"with drain at {v_drain:.3f} V")
    if error(hi) > 0.0:
        # Even with the source just under the drain the device conducts
        # too much -- only possible for enormous currents; treat as the
        # boundary itself.
        return hi
    return brentq(error, lo, hi, xtol=1e-9)


def minimum_supply(design: StsclGateDesign,
                   margin: float = 0.0) -> float:
    """Minimum V_DD at which the gate still develops full swing [V].

    Walks the stacked levels of the design's worst-case cell and finds
    the supply at which the tail node exactly reaches the tail source's
    saturation voltage, plus an optional designer ``margin``.
    """
    v_tail_needed = design.tail_saturation_voltage()

    def tail_voltage(vdd: float) -> float:
        node = vdd - design.v_sw  # output-low: worst headroom
        for _level in range(design.stack_levels):
            node = _level_source_voltage(design, node, vdd)
        return node

    def headroom(vdd: float) -> float:
        try:
            return tail_voltage(vdd) - v_tail_needed
        except DesignError:
            return -1.0

    lo = design.v_sw + v_tail_needed  # absolute floor
    hi = 2.0
    if headroom(hi) < 0.0:
        raise DesignError(
            "gate cannot reach full swing even at 2 V; check sizing")
    if headroom(lo) > 0.0:
        return lo + margin
    return brentq(headroom, lo, hi, xtol=1e-6) + margin


def minimum_supply_sweep(design: StsclGateDesign,
                         currents) -> np.ndarray:
    """V_DD,min across tail currents (the Fig. 9b curve)."""
    return np.array([
        minimum_supply(design.with_current(float(i))) for i in currents])


@dataclass(frozen=True)
class SensitivityComparison:
    """Normalised supply sensitivities S = (dt_d/dV_DD)*(V_DD/t_d).

    ``stscl`` is structurally ~0 (V_DD absent from the delay law);
    ``cmos_subthreshold`` is 1 - V_DD/(n U_T): tens of units, because the
    on-current is exponential in V_DD.  This is the quantitative content
    of the paper's Fig. 3 contrast.
    """

    stscl: float
    cmos_subthreshold: float
    vdd: float


def supply_sensitivity(vdd: float, n: float = 1.3,
                       temperature: float | None = None) -> SensitivityComparison:
    """Analytic delay-vs-supply sensitivity of both families at ``vdd``.

    For subthreshold CMOS, t_d ~ C V_DD / I_on with I_on ~ exp(V_DD/(n U_T))
    (the gate overdrive rides on the supply), so the normalised
    sensitivity is 1 - V_DD / (n U_T).  For STSCL, t_d = ln2 V_SW C / I_SS
    contains no V_DD at all.
    """
    if vdd <= 0.0:
        raise DesignError(f"vdd must be positive: {vdd}")
    from ..constants import T_NOMINAL
    ut = thermal_voltage(T_NOMINAL if temperature is None else temperature)
    return SensitivityComparison(
        stscl=0.0,
        cmos_subthreshold=1.0 - vdd / (n * ut),
        vdd=vdd)
