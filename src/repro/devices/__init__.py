"""Device models: EKV MOS transistors, diodes, process corners, mismatch.

This package is the foundation the whole platform rests on.  The paper's
circuits live in the subthreshold (weak-inversion) region where the MOS
I-V is exponential; the EKV formulation used here is continuous across
weak, moderate and strong inversion so the same model serves the STSCL
gates (deep weak inversion), the current-mode analog blocks, and the
above-threshold CMOS baseline used for comparison.
"""

from .parameters import (
    MosPolarity,
    MosParameters,
    Technology,
    GENERIC_180NM,
    nmos_180,
    pmos_180,
    nmos_180_hvt,
    pmos_180_thick_oxide,
)
from .ekv import interp_f, interp_f_derivative
from .mosfet import Mosfet, MosOperatingPoint
from .diode import Diode, DiodeParameters, NWELL_DIODE_180
from .process import ProcessCorner, CornerSpec, CORNERS
from .mismatch import MismatchModel, PELGROM_180NM

__all__ = [
    "MosPolarity", "MosParameters", "Technology", "GENERIC_180NM",
    "nmos_180", "pmos_180", "nmos_180_hvt", "pmos_180_thick_oxide",
    "interp_f", "interp_f_derivative",
    "Mosfet", "MosOperatingPoint",
    "Diode", "DiodeParameters", "NWELL_DIODE_180",
    "ProcessCorner", "CornerSpec", "CORNERS",
    "MismatchModel", "PELGROM_180NM",
]
