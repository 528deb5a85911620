"""The bulk-drain-shorted PMOS high-value load and its replica bias.

Paper Fig. 2 (and refs [9], [17]): when power drops to the nA..pA range,
the required load resistance R_L = V_SW / I_SS reaches the 0.1..100 Gohm
range -- unimplementable as a passive.  The paper's load is a PMOS whose
bulk (nwell) is shorted to its drain: the body effect then linearises the
I-V over the output swing, and the gate bias V_BP -- generated by a
replica-bias loop -- tunes the resistance over many decades.

This module provides the analytic/numeric view of that device; the
transistor-level netlist (including the closed replica loop and the
D_Well junction) lives in :mod:`repro.stscl.netlist_gen`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import T_NOMINAL
from ..devices.mosfet import Mosfet
from ..devices.parameters import GENERIC_180NM, MosParameters
from ..errors import DesignError
from .roots import brentq


@dataclass
class HighValueLoad:
    """One PMOS load device with its bulk shorted to its drain.

    The device sits between V_DD (source) and the gate output (drain =
    bulk); its gate is the shared bias rail V_BP.
    """

    params: MosParameters = field(
        default_factory=lambda: GENERIC_180NM.pmos_thick)
    w: float = 0.4e-6
    l: float = 1.0e-6
    temperature: float = T_NOMINAL

    def device(self) -> Mosfet:
        """The underlying sized transistor."""
        return Mosfet(self.params, w=self.w, l=self.l)

    def current(self, v_bp: float, vdd: float, v_sd: float) -> float:
        """Current delivered into the output node at drop ``v_sd`` [A].

        ``v_sd`` is the source-drain drop (0 at output high, V_SW at
        output low).  Bulk rides with the drain.
        """
        if v_sd < 0.0:
            raise DesignError(f"v_sd must be >= 0, got {v_sd}")
        out = vdd - v_sd
        op = self.device().evaluate(vd=out, vg=v_bp, vs=vdd, vb=out,
                                    temperature=self.temperature)
        # PMOS channel current drain->source is negative when conducting;
        # the current delivered from VDD into the output node is -ids.
        return -op.ids

    def required_gate_bias(self, i_ss: float, v_sw: float,
                           vdd: float) -> float:
        """V_BP making the load carry ``i_ss`` at full swing ``v_sw`` [V].

        This is what the replica-bias loop computes with feedback; here we
        solve it directly.  Raises :class:`DesignError` when no bias in
        [-1 V, V_DD] achieves the current (device too small or swing
        unreachable).
        """
        if i_ss <= 0.0:
            raise DesignError(f"i_ss must be positive: {i_ss}")

        def error(v_bp: float) -> float:
            return self.current(v_bp, vdd, v_sw) - i_ss

        lo, hi = -1.0, vdd
        if error(lo) < 0.0:
            raise DesignError(
                f"load W/L={self.w / self.l:.2f} cannot deliver "
                f"{i_ss:.3e} A at swing {v_sw} V from {vdd} V")
        if error(hi) > 0.0:
            raise DesignError(
                f"load conducts more than {i_ss:.3e} A even fully off; "
                "increase L or reduce W")
        return brentq(error, lo, hi, xtol=1e-9)

    def iv_profile(self, v_bp: float, vdd: float, v_sw_max: float,
                   points: int = 41) -> tuple[np.ndarray, np.ndarray]:
        """(v_sd, i) characteristic of the biased load over the swing."""
        v_sd = np.linspace(0.0, v_sw_max, points)
        currents = np.array([self.current(v_bp, vdd, v) for v in v_sd])
        return v_sd, currents

    def small_signal_resistance(self, v_bp: float, vdd: float,
                                v_sd: float) -> float:
        """Incremental resistance dV_SD/dI at the given drop [ohm].

        Bulk moves with the drain, so the relevant conductance is
        d(-I_DS)/dV_out with both the drain and bulk partials applied.
        """
        out = vdd - v_sd
        op = self.device().evaluate(vd=out, vg=v_bp, vs=vdd, vb=out,
                                    temperature=self.temperature)
        # Current delivered into the output is -I_DS; the incremental
        # conductance to V_DD is d(-I_DS)/d(-v_out) with drain and bulk
        # riding together = dI_DS/dV_D + dI_DS/dV_B.
        g_out = op.partials["d"] + op.partials["b"]
        if g_out <= 0.0:
            raise DesignError("non-positive load conductance; "
                              "device is outside its resistive regime")
        return 1.0 / g_out

    def linearity_error(self, v_bp: float, vdd: float,
                        v_sw: float) -> float:
        """Worst relative deviation of the I-V from a straight line
        through the endpoints, over the output swing.

        The bulk-drain short is what keeps this small; the figure-7-style
        ablation compares it against a plain (bulk-to-VDD) PMOS.
        """
        v_sd, currents = self.iv_profile(v_bp, vdd, v_sw)
        i_end = currents[-1]
        if i_end <= 0.0:
            raise DesignError("load carries no current at full swing")
        straight = currents[0] + (i_end - currents[0]) * (v_sd / v_sw)
        return float(np.max(np.abs(currents - straight)) / i_end)


@dataclass
class ReplicaBias:
    """The replica-bias generator (paper Sec. II-A2 and Fig. 1).

    A replica of the load device in feedback with an amplifier forces the
    load to carry exactly I_SS at V_SD = V_SW, producing the shared V_BP
    rail.  Because one replica serves every gate, the tail current of all
    STSCL cells tracks a single reference -- the paper's "precisely
    controllable" bias claim.  This class is the behavioural view; the
    closed-loop transistor-level circuit is
    :func:`repro.stscl.netlist_gen.replica_bias_circuit`.
    """

    load: HighValueLoad = field(default_factory=HighValueLoad)

    def bias_voltage(self, i_ss: float, v_sw: float, vdd: float) -> float:
        """The V_BP rail for the requested operating point [V]."""
        return self.load.required_gate_bias(i_ss, v_sw, vdd)

    def swing_across_supply(self, i_ss: float, v_sw: float,
                            vdd_values) -> np.ndarray:
        """Actual output swing at each supply with V_BP re-solved.

        With the replica active the swing is pinned to v_sw by
        construction; this helper quantifies the *residual* swing error
        when V_BP is solved at a nominal supply and the supply then moves
        (open-loop supply sensitivity, experiment E7).
        """
        vdd_values = np.asarray(list(vdd_values), dtype=float)
        v_bp = self.bias_voltage(i_ss, v_sw, float(vdd_values[0]))
        swings = []
        for vdd in vdd_values:
            # Find the V_SD at which the load carries i_ss with the stale
            # bias: that is where the output-low level settles.
            def error(v_sd: float) -> float:
                return self.load.current(v_bp, float(vdd), v_sd) - i_ss

            lo, hi = 1e-6, float(vdd) * 0.9
            if error(lo) > 0.0 or error(hi) < 0.0:
                swings.append(np.nan)
                continue
            swings.append(brentq(error, lo, hi, xtol=1e-9))
        return np.asarray(swings)
