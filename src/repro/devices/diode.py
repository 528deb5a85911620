"""Junction diode model (exponential, with junction capacitance).

Its main role in this reproduction is the reverse-biased nwell-substrate
junction D_Well of the PMOS load devices (paper Fig. 6a): its junction
capacitance loads the pre-amplifier output, and decoupling it through the
series device M_C is experiment E5 (Fig. 6d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..constants import thermal_voltage
from ..errors import ModelError

_EXP_LIMIT = 350.0


@dataclass(frozen=True)
class DiodeParameters:
    """Static diode parameters.

    Attributes:
        name: Label.
        i_s: Saturation current [A].
        n: Ideality factor.
        cj0: Zero-bias junction capacitance [F].
        vj: Built-in potential [V].
        mj: Grading coefficient.
    """

    name: str
    i_s: float = 1e-16
    n: float = 1.0
    cj0: float = 10e-15
    vj: float = 0.7
    mj: float = 0.5

    def __post_init__(self) -> None:
        if self.i_s <= 0.0:
            raise ModelError(f"saturation current must be positive: {self.i_s}")
        if self.n < 1.0:
            raise ModelError(f"ideality factor must be >= 1: {self.n}")
        if self.cj0 < 0.0:
            raise ModelError(f"cj0 must be >= 0: {self.cj0}")


#: Nwell-to-substrate junction of a load-sized PMOS in 0.18 um: the well
#: is large compared to the device, hence a relatively big capacitance --
#: this is exactly why the paper needs the decoupling trick of Fig. 6b.
NWELL_DIODE_180 = DiodeParameters(
    name="nwell_substrate_180", i_s=5e-17, n=1.05, cj0=60e-15, vj=0.65,
    mj=0.4)


@dataclass
class Diode:
    """A diode instance: anode-to-cathode exponential junction, evaluated
    by :class:`DiodeBank`."""

    params: DiodeParameters
    area: float = 1.0


class DiodeBank:
    """Array-valued evaluation over a fixed set of diode instances.

    The diode model itself: the MNA assembler restamps every junction
    of a circuit with one numpy call per quantity.  Current carries a
    small ohmic leakage that keeps the Jacobian nonsingular in deep
    reverse bias; the depletion capacitance follows the standard
    formula below ``FC * V_J`` and its SPICE-style linear extension
    above, and the charge is its analytic integral, which keeps the
    transient integrator charge-conserving.  The depletion branch
    selection is done with masked evaluation so the unused branch never
    sees an invalid base for the fractional power.
    """

    _G_LEAK = 1e-15
    _FC = 0.5

    def __init__(self, diodes: Sequence[Diode],
                 temperatures: Sequence[float]) -> None:
        if len(diodes) != len(temperatures):
            raise ModelError("one temperature per diode required")
        self.n_diodes = len(diodes)
        self.i_s = np.array([d.params.i_s * d.area for d in diodes],
                            dtype=float)
        self.n_ut = np.array(
            [thermal_voltage(t) * d.params.n
             for d, t in zip(diodes, temperatures)], dtype=float)
        self.cj0 = np.array([d.params.cj0 * d.area for d in diodes],
                            dtype=float)
        self.vj = np.array([d.params.vj for d in diodes], dtype=float)
        self.mj = np.array([d.params.mj for d in diodes], dtype=float)

    def current(self, v_ak: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(current, conductance) arrays at anode-cathode voltages."""
        x = np.minimum(v_ak / self.n_ut, _EXP_LIMIT)
        e = np.exp(x)
        current = self.i_s * (e - 1.0) + self._G_LEAK * v_ak
        conductance = self.i_s * e / self.n_ut + self._G_LEAK
        return current, conductance

    def capacitance(self, v_ak: np.ndarray) -> np.ndarray:
        """Bias-dependent junction capacitance array [F]."""
        fc = self._FC
        v_knee = fc * self.vj
        below = v_ak < v_knee
        v_safe = np.where(below, v_ak, 0.0)
        c_below = self.cj0 / (1.0 - v_safe / self.vj) ** self.mj
        f1 = (1.0 - fc) ** (1.0 + self.mj)
        c_above = self.cj0 / f1 * (1.0 - fc * (1.0 + self.mj)
                                   + self.mj * v_ak / self.vj)
        return np.where(below, c_below, c_above)

    def charge(self, v_ak: np.ndarray) -> np.ndarray:
        """Depletion charge array [C] (integral of ``capacitance``)."""
        fc = self._FC
        vj, mj, cj0 = self.vj, self.mj, self.cj0
        v_knee = fc * vj
        below = v_ak < v_knee
        v_safe = np.where(below, v_ak, 0.0)
        q_below = cj0 * vj / (1.0 - mj) * (
            1.0 - (1.0 - v_safe / vj) ** (1.0 - mj))
        q_knee = cj0 * vj / (1.0 - mj) * (1.0 - (1.0 - fc) ** (1.0 - mj))
        f1 = (1.0 - fc) ** (1.0 + mj)
        dv = v_ak - v_knee
        slope = cj0 / f1 * mj / vj
        c_knee = cj0 / f1 * (1.0 - fc * (1.0 + mj) + mj * v_knee / vj)
        q_above = q_knee + c_knee * dv + 0.5 * slope * dv * dv
        return np.where(below, q_below, q_above)
