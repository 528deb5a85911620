"""Core EKV 2.6-style large-signal equations.

The EKV model expresses the drain current of a MOS transistor as the
difference of a *forward* and a *reverse* component, each a function of
the pinch-off voltage minus the source (resp. drain) voltage, all
referenced to the local substrate:

    I_D = I_spec * (i_f - i_r)
    i_f = F((V_P - V_S) / U_T),   i_r = F((V_P - V_D) / U_T)
    V_P = (V_G - V_T0) / n
    F(v) = ln(1 + exp(v / 2))^2

``F`` interpolates smoothly between weak inversion (F -> exp(v), the
exponential law the whole paper builds on) and strong inversion
(F -> v^2/4, the square law).  All functions here accept numpy arrays so
analytic sweeps vectorise; the SPICE engine calls them with scalars.
"""

from __future__ import annotations

import numpy as np

_HALF_LOG_LIMIT = 350.0  # exp() overflow guard in double precision


def _softplus(v: np.ndarray | float) -> np.ndarray | float:
    """Numerically safe ln(1 + exp(v))."""
    return np.logaddexp(0.0, v)


def _sigmoid(v: np.ndarray | float) -> np.ndarray | float:
    """Numerically safe logistic function 1 / (1 + exp(-v))."""
    v = np.clip(v, -_HALF_LOG_LIMIT, _HALF_LOG_LIMIT)
    return 1.0 / (1.0 + np.exp(-v))


def interp_f(v: np.ndarray | float) -> np.ndarray | float:
    """EKV interpolation function F(v) = ln(1 + exp(v/2))^2.

    Asymptotes: exp(v) for v << 0 (weak inversion), (v/2)^2 for v >> 0
    (strong inversion).
    """
    sp = _softplus(np.asarray(v, dtype=float) / 2.0)
    return sp * sp


def interp_f_derivative(v: np.ndarray | float) -> np.ndarray | float:
    """dF/dv = ln(1 + exp(v/2)) * sigmoid(v/2).

    Equals sqrt(F(v)) * sigmoid(v/2); needed for transconductances.
    """
    half = np.asarray(v, dtype=float) / 2.0
    return _softplus(half) * _sigmoid(half)


def weak_inversion_current(i_spec: float, vg: np.ndarray | float,
                           vs: np.ndarray | float, vd: np.ndarray | float,
                           vt0: float, n: float,
                           ut: float) -> np.ndarray | float:
    """Pure weak-inversion (exponential) drain current, bulk-referenced.

    I_D = I_spec * exp((V_G - V_T0)/(n U_T)) * (exp(-V_S/U_T) - exp(-V_D/U_T))

    This is the closed form the paper's Eq.-level reasoning uses.  It is
    exposed separately from the full interpolated model both for tests
    (the full model must converge to it for IC << 1) and for fast
    analytic design helpers.
    """
    vg = np.asarray(vg, dtype=float)
    exponent = (vg - vt0) / (n * ut)
    exponent = np.clip(exponent, -_HALF_LOG_LIMIT, _HALF_LOG_LIMIT)
    gate_term = np.exp(exponent)
    vs_term = np.exp(np.clip(-np.asarray(vs, dtype=float) / ut,
                             -_HALF_LOG_LIMIT, _HALF_LOG_LIMIT))
    vd_term = np.exp(np.clip(-np.asarray(vd, dtype=float) / ut,
                             -_HALF_LOG_LIMIT, _HALF_LOG_LIMIT))
    return i_spec * gate_term * (vs_term - vd_term)


def gate_voltage_for_current(i_d: float, i_spec: float, vt0: float, n: float,
                             ut: float, vs: float = 0.0) -> float:
    """Invert the weak-inversion law: V_G giving ``i_d`` in saturation.

    Assumes V_D - V_S >> U_T (saturation, reverse current negligible) and
    bulk at the source reference.  Used by bias generators and the
    minimum-supply model (Fig. 9b).
    """
    if i_d <= 0.0:
        raise ValueError(f"drain current must be positive, got {i_d}")
    if i_spec <= 0.0:
        raise ValueError(f"i_spec must be positive, got {i_spec}")
    return vt0 + n * ut * (np.log(i_d / i_spec) + vs / ut)


def saturation_voltage(ic: float, ut: float) -> float:
    """Drain saturation voltage V_DS,sat as a function of IC.

    Weak inversion saturates in ~4 U_T independent of current; strong
    inversion needs the classical overdrive.  Smooth EKV approximation:
    V_DS,sat = U_T * (2 sqrt(IC + 0.25) + 3).
    """
    if ic < 0.0:
        raise ValueError(f"inversion coefficient must be >= 0, got {ic}")
    return ut * (2.0 * np.sqrt(ic + 0.25) + 3.0)


def transconductance_efficiency(ic: np.ndarray | float,
                                n: float, ut: float) -> np.ndarray | float:
    """gm/I_D as a function of inversion coefficient (EKV interpolation).

    gm/I_D = 1 / (n U_T (sqrt(IC + 0.25) + 0.5))

    Peaks at 1/(n U_T) in weak inversion -- the reason subthreshold
    current-mode circuits are the power-efficiency optimum the paper
    exploits.
    """
    ic = np.asarray(ic, dtype=float)
    return 1.0 / (n * ut * (np.sqrt(ic + 0.25) + 0.5))
