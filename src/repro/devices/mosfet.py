"""Four-terminal MOS transistor evaluated on absolute node voltages.

:class:`Mosfet` wraps the EKV core equations into the form the MNA engine
needs: given the four terminal potentials it returns the channel current
and its partial derivative with respect to *every* terminal, so the
bulk-drain-shorted PMOS load of the paper (Fig. 2 / Fig. 6) -- whose whole
point is the body effect acting through the drain -- falls out naturally
by simply wiring B to D in the netlist.

Sign conventions: ``ids`` is the current flowing from the drain terminal
to the source terminal through the channel.  It is positive for a
conducting NMOS and negative for a conducting PMOS.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..constants import T_NOMINAL, thermal_voltage
from ..errors import ModelError
from .ekv import interp_f, interp_f_derivative
from .parameters import MosParameters

#: Smoothing width for the |V_DS| used by channel-length modulation [V].
_CLM_SMOOTH = 0.05


def _smooth_abs(x: float) -> tuple[float, float]:
    """Return (|x| smoothed, d/dx) using x*tanh(x/delta)."""
    t = math.tanh(x / _CLM_SMOOTH)
    value = x * t
    derivative = t + (x / _CLM_SMOOTH) * (1.0 - t * t)
    return value, derivative


@dataclass(frozen=True)
class MosOperatingPoint:
    """Bias-point solution of one transistor.

    Attributes:
        ids: Channel current, drain to source [A].
        partials: dI_DS/dV_terminal for terminals 'd', 'g', 's', 'b' [S].
        i_f: Normalized forward current (= inversion coefficient in
            saturation).
        i_r: Normalized reverse current.
        gm: Gate transconductance magnitude |dI/dV_G| [S].
        gds: Output conductance dI_DS/dV_D [S].
        gms: Source transconductance magnitude [S].
        gmb: Bulk transconductance magnitude [S].
        region: 'weak' / 'moderate' / 'strong' inversion.
        saturated: True when the reverse current is negligible.
    """

    ids: float
    partials: dict[str, float]
    i_f: float
    i_r: float
    region: str
    saturated: bool

    @property
    def gm(self) -> float:
        return abs(self.partials["g"])

    @property
    def gds(self) -> float:
        return abs(self.partials["d"])

    @property
    def gms(self) -> float:
        return abs(self.partials["s"])

    @property
    def gmb(self) -> float:
        return abs(self.partials["b"])


@dataclass
class Mosfet:
    """A sized MOS transistor instance.

    Attributes:
        params: Flavour parameters (see :mod:`repro.devices.parameters`).
        w: Channel width [m].
        l: Channel length [m].
        vt_shift: Additive threshold shift [V] (mismatch / corners).
        beta_factor: Multiplicative current-factor error (mismatch).
        m: Parallel multiplicity.
    """

    params: MosParameters
    w: float
    l: float
    vt_shift: float = 0.0
    beta_factor: float = 1.0
    m: int = 1

    def __post_init__(self) -> None:
        if self.w < self.params.w_min:
            raise ModelError(
                f"W={self.w} below minimum {self.params.w_min} "
                f"for {self.params.name}")
        if self.l < self.params.l_min:
            raise ModelError(
                f"L={self.l} below minimum {self.params.l_min} "
                f"for {self.params.name}")
        if self.m < 1:
            raise ModelError(f"multiplicity must be >= 1, got {self.m}")
        if self.beta_factor <= 0.0:
            raise ModelError(f"beta_factor must be positive: {self.beta_factor}")

    def specific_current(self, temperature: float = T_NOMINAL) -> float:
        """I_spec of this sized instance (includes multiplicity) [A]."""
        base = self.params.specific_current(self.w, self.l, temperature)
        return base * self.beta_factor * self.m

    def evaluate(self, vd: float, vg: float, vs: float, vb: float,
                 temperature: float = T_NOMINAL) -> MosOperatingPoint:
        """Solve the large-signal model at the given terminal voltages."""
        sign = self.params.polarity.sign
        ut = thermal_voltage(temperature)
        # Polarity-normalised, bulk-referenced voltages: a conducting PMOS
        # looks exactly like a conducting NMOS in this frame.
        ug = sign * (vg - vb)
        ud = sign * (vd - vb)
        us = sign * (vs - vb)
        vt = self.params.vt_at(temperature) + self.vt_shift
        n = self.params.n
        vp = (ug - vt) / n

        a = (vp - us) / ut
        b = (vp - ud) / ut
        i_f = float(interp_f(a))
        i_r = float(interp_f(b))
        fpa = float(interp_f_derivative(a))
        fpb = float(interp_f_derivative(b))
        i_spec = self.specific_current(temperature)

        uds = ud - us
        sabs, dsabs = _smooth_abs(uds)
        lam_eff = self.params.lambda_ / (self.l * 1e6)
        clm = 1.0 + lam_eff * sabs

        core = i_f - i_r
        i_norm = core * clm  # normalized channel current with CLM

        # Partials in the normalized frame.
        d_ug = clm * (fpa - fpb) / (n * ut)
        d_us = -clm * fpa / ut - core * lam_eff * dsabs
        d_ud = clm * fpb / ut + core * lam_eff * dsabs

        ids = sign * i_spec * i_norm
        # Chain rule back to absolute terminal voltages: u_x = sign*(v_x-v_b)
        # so dI/dv_x = sign*(sign*i_spec)*d_ux = i_spec*d_ux.
        p_g = i_spec * d_ug
        p_d = i_spec * d_ud
        p_s = i_spec * d_us
        p_b = -(p_g + p_d + p_s)  # translation invariance

        ic = max(i_f, i_r)
        if ic < 0.1:
            region = "weak"
        elif ic < 10.0:
            region = "moderate"
        else:
            region = "strong"
        saturated = i_r < 0.05 * i_f if i_f > 0.0 else False

        return MosOperatingPoint(
            ids=ids,
            partials={"d": p_d, "g": p_g, "s": p_s, "b": p_b},
            i_f=i_f, i_r=i_r, region=region, saturated=saturated)

    def capacitances(self) -> dict[tuple[str, str], float]:
        """Lumped terminal-pair capacitances [F].

        Weak-inversion approximation with overlap and junction terms; these
        feed the transient engine as linear capacitors.  The DWell junction
        of the PMOS load is modelled separately (see
        :class:`repro.devices.diode.Diode`) because its decoupling is
        itself an experiment (Fig. 6d).
        """
        cox_area = self.params.cox * self.w * self.l * self.m
        c_ov = self.params.cov * self.w * self.m
        diff_len = 0.5e-6
        c_junction = self.params.cj * self.w * diff_len * self.m
        return {
            ("g", "s"): c_ov + 0.25 * cox_area,
            ("g", "d"): c_ov + 0.25 * cox_area,
            ("g", "b"): 0.3 * cox_area,
            ("d", "b"): c_junction,
            ("s", "b"): c_junction,
        }

    def gate_capacitance(self) -> float:
        """Total gate capacitance [F]: the load one such gate presents."""
        caps = self.capacitances()
        return caps[("g", "s")] + caps[("g", "d")] + caps[("g", "b")]


@dataclass(frozen=True)
class MosBankResult:
    """Array-valued large-signal solution of a :class:`MosBank`.

    Each attribute is one value per device, in bank order.
    """

    ids: np.ndarray
    p_d: np.ndarray
    p_g: np.ndarray
    p_s: np.ndarray
    p_b: np.ndarray
    i_f: np.ndarray
    i_r: np.ndarray


class MosBank:
    """Array-valued EKV evaluation over a fixed set of devices.

    The MNA engine's vectorized assembler groups every MOS element of a
    circuit into one bank so a Newton iteration makes a single
    array-valued model call instead of one Python call per transistor.
    The math is :meth:`Mosfet.evaluate`'s (same interpolation, CLM
    smoothing and chain rule), elementwise over numpy arrays; the
    packed evaluation order moves last bits, so the two agree to
    rounding (within 1e-13 relative), not bit for bit.
    """

    def __init__(self, devices: Sequence[Mosfet],
                 temperatures: Sequence[float]) -> None:
        if len(devices) != len(temperatures):
            raise ModelError("one temperature per device required")
        self.n_devices = len(devices)
        self.sign = np.array([d.params.polarity.sign for d in devices],
                             dtype=float)
        self.vt = np.array(
            [d.params.vt_at(t) + d.vt_shift
             for d, t in zip(devices, temperatures)], dtype=float)
        self.n = np.array([d.params.n for d in devices], dtype=float)
        self.ut = np.array([thermal_voltage(t) for t in temperatures],
                           dtype=float)
        self.i_spec = np.array(
            [d.specific_current(t) for d, t in zip(devices, temperatures)],
            dtype=float)
        self.lam_eff = np.array(
            [d.params.lambda_ / (d.l * 1e6) for d in devices], dtype=float)
        # Precomputed packed / fused constants for evaluate()'s packed
        # elementwise pipeline (see there); all are exact element
        # copies or exact products, so results stay bit-identical to
        # the unpacked formulation.
        self._sign3 = np.tile(self.sign, 3)
        self._ut2 = np.tile(self.ut, 2)
        self._nut = self.n * self.ut
        self._sign_ispec = self.sign * self.i_spec
        self._ispec2 = np.tile(self.i_spec, 2)

    def overlay(self, vt: np.ndarray, i_spec: np.ndarray) -> "MosBank":
        """Shallow copy with ``vt`` / ``i_spec`` swapped for (lane-)
        overlaid arrays -- ``(n,)`` or stacked ``(..., n)`` -- and every
        derived packed constant rebuilt to match.  This is the only
        supported way to vary bank parameters after construction:
        assigning ``bank.i_spec`` directly leaves the precomputed
        ``_sign_ispec`` / ``_ispec2`` products stale."""
        bank = copy.copy(self)
        bank.vt = vt
        bank.i_spec = i_spec
        bank._sign_ispec = bank.sign * i_spec
        bank._ispec2 = np.tile(i_spec, 2)
        return bank

    def evaluate(self, vd: np.ndarray, vg: np.ndarray, vs: np.ndarray,
                 vb: np.ndarray) -> MosBankResult:
        """Channel currents and all terminal partials, one entry per
        device."""
        # The whole pipeline runs on packed arrays so every elementwise
        # kernel dispatches once over 2N/3N elements instead of two or
        # three times over N -- at the handful-of-devices sizes MNA
        # banks have, numpy dispatch overhead dominates the arithmetic.
        # ufuncs are elementwise, negation is exact, and all fused
        # constants preserve the original association order, so every
        # result is bit-identical to the unpacked formulation.
        # Packing happens along the trailing (device) axis so stacked
        # leading dimensions -- the batch engine passes (B, n) lanes --
        # ride through unchanged.
        n = vd.shape[-1]
        lead = vd.shape[:-1]
        v3 = np.empty(lead + (3 * n,))
        v3[..., :n] = vg
        v3[..., n:2 * n] = vs
        v3[..., 2 * n:] = vd
        vb3 = np.empty(lead + (3 * n,))
        vb3[..., :n] = vb
        vb3[..., n:2 * n] = vb
        vb3[..., 2 * n:] = vb
        u3 = self._sign3 * (v3 - vb3)   # [ug, us, ud]
        ug = u3[..., :n]
        us = u3[..., n:2 * n]
        ud = u3[..., 2 * n:]
        vp = (ug - self.vt) / self.n

        # Fused interp_f / interp_f_derivative: both share softplus(v/2),
        # so compute it once per argument (F = sp^2, F' = sp * sigmoid);
        # the forward/reverse arguments a = (vp-us)/ut, b = (vp-ud)/ut
        # ride the packed [us, ud] tail of u3.
        vp2 = np.empty(lead + (2 * n,))
        vp2[..., :n] = vp
        vp2[..., n:] = vp
        ab = (vp2 - u3[..., n:]) / self._ut2
        half = 0.5 * ab
        sp = np.logaddexp(0.0, half)
        i_fr = sp * sp
        i_f = i_fr[..., :n]
        i_r = i_fr[..., n:]
        # Only the lower bound needs guarding: exp(-x) underflows benignly
        # for large positive x but overflows for x below about -709.
        sig = 1.0 / (1.0 + np.exp(-np.maximum(half, -350.0)))
        fp = sp * sig

        uds = ud - us
        w = uds / _CLM_SMOOTH
        t = np.tanh(w)
        sabs = uds * t
        dsabs = t + w * (1.0 - t * t)
        lam_eff = self.lam_eff
        clm = 1.0 + lam_eff * sabs

        core = i_f - i_r
        d_ug = clm * (fp[..., :n] - fp[..., n:]) / self._nut
        # d_us = -clm fpa/ut - S and d_ud = clm fpb/ut + S share the
        # packed sum (clm fp)/ut + S; the source half is then negated
        # exactly.
        clm2 = np.empty(lead + (2 * n,))
        clm2[..., :n] = clm
        clm2[..., n:] = clm
        s_clm = core * lam_eff * dsabs
        s2 = np.empty(lead + (2 * n,))
        s2[..., :n] = s_clm
        s2[..., n:] = s_clm
        sum2 = clm2 * fp / self._ut2 + s2

        ids = self._sign_ispec * core * clm
        p_g = self.i_spec * d_ug
        p_sd = self._ispec2 * sum2
        p_s = -p_sd[..., :n]
        p_d = p_sd[..., n:]
        p_b = -(p_g + p_d + p_s)
        return MosBankResult(ids=ids, p_d=p_d, p_g=p_g, p_s=p_s, p_b=p_b,
                             i_f=i_f, i_r=i_r)

    def operating_points(self, vd: np.ndarray, vg: np.ndarray,
                         vs: np.ndarray,
                         vb: np.ndarray) -> list[MosOperatingPoint]:
        """Per-device :class:`MosOperatingPoint` records, in bank
        order."""
        r = self.evaluate(vd, vg, vs, vb)
        ic = np.maximum(r.i_f, r.i_r)
        points = []
        for k in range(self.n_devices):
            if ic[k] < 0.1:
                region = "weak"
            elif ic[k] < 10.0:
                region = "moderate"
            else:
                region = "strong"
            saturated = (r.i_r[k] < 0.05 * r.i_f[k]
                         if r.i_f[k] > 0.0 else False)
            points.append(MosOperatingPoint(
                ids=float(r.ids[k]),
                partials={"d": float(r.p_d[k]), "g": float(r.p_g[k]),
                          "s": float(r.p_s[k]), "b": float(r.p_b[k])},
                i_f=float(r.i_f[k]), i_r=float(r.i_r[k]),
                region=region, saturated=saturated))
        return points
