"""Pelgrom-law local mismatch.

Static non-linearity of the paper's ADC (Fig. 11: INL 1.0 LSB, DNL
0.4 LSB) is dominated by local device mismatch: comparator/preamp offsets,
folder current errors and reference-ladder resistance errors.  The
Pelgrom model generates all of these from two technology constants:

    sigma(dVT)      = A_VT  / sqrt(W*L)
    sigma(dbeta)/b  = A_beta / sqrt(W*L)

with W, L in um and the A coefficients in mV*um and %*um respectively.
The paper's remedy -- "using large enough transistor sizes can minimize
the effect of current mismatch" (Sec. III-B) -- is exactly the 1/sqrt(WL)
scaling this module implements.  Draws happen where the randomness
lives: the converter models draw their offsets and current errors from
these sigmas with the chip seed, and Monte-Carlo populations draw
:class:`~repro.spice.batch.LaneSpec` arrays from their own generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError


@dataclass(frozen=True)
class MismatchModel:
    """Technology mismatch coefficients.

    Attributes:
        a_vt: Threshold-voltage Pelgrom coefficient [V*m] (e.g. 4 mV*um
            = 4e-9 V*m).
        a_beta: Current-factor Pelgrom coefficient [1*m] (e.g. 1 %*um
            = 1e-8).
    """

    a_vt: float = 4.0e-9
    a_beta: float = 1.0e-8

    def sigma_vt(self, w: float, l: float) -> float:
        """Std-dev of a single device's VT mismatch [V], W/L in metres."""
        if w <= 0.0 or l <= 0.0:
            raise ModelError(f"W and L must be positive: {w}, {l}")
        return self.a_vt / np.sqrt(w * l)

    def sigma_beta(self, w: float, l: float) -> float:
        """Relative std-dev of the current factor, W/L in metres."""
        if w <= 0.0 or l <= 0.0:
            raise ModelError(f"W and L must be positive: {w}, {l}")
        return self.a_beta / np.sqrt(w * l)

    def sigma_pair_offset(self, w: float, l: float) -> float:
        """Input-referred offset std-dev of a differential pair [V].

        Two devices mismatch independently: sqrt(2) * sigma_vt of one.
        (Weak inversion: beta mismatch maps onto VT via n*U_T*ln -> small;
        we fold it in with the usual n*U_T factor at call sites that need
        the refinement.)
        """
        return np.sqrt(2.0) * self.sigma_vt(w, l)

    def sigma_mirror_gain(self, w: float, l: float, n: float,
                          ut: float) -> float:
        """Relative std-dev of a 1:1 current-mirror ratio (weak inversion).

        dI/I = dbeta/beta + dVT/(n*U_T), the two contributions independent.
        """
        s_beta = self.sigma_beta(w, l)
        s_vt_term = self.sigma_vt(w, l) / (n * ut)
        return float(np.sqrt(2.0) * np.hypot(s_beta, s_vt_term))


#: Typical 0.18 um mismatch coefficients (thin oxide).
PELGROM_180NM = MismatchModel(a_vt=4.0e-9, a_beta=1.0e-8)
