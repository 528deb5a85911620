"""Device models: EKV MOS transistors, diodes, process/PVT, mismatch.

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
from .ekv import (
    inversion_coefficient,
    interp_f,
    interp_f_derivative,
    normalized_currents,
)
from .mosfet import Mosfet, MosOperatingPoint
from .diode import Diode, DiodeParameters, NWELL_DIODE_180
from .process import ProcessCorner, CornerSpec, CORNERS, PvtPoint, apply_pvt
from .mismatch import MismatchModel, MismatchSample, PELGROM_180NM

__all__ = [
    "MosPolarity", "MosParameters", "Technology", "GENERIC_180NM",
    "nmos_180", "pmos_180", "nmos_180_hvt", "pmos_180_thick_oxide",
    "inversion_coefficient", "interp_f", "interp_f_derivative",
    "normalized_currents",
    "Mosfet", "MosOperatingPoint",
    "Diode", "DiodeParameters", "NWELL_DIODE_180",
    "ProcessCorner", "CornerSpec", "CORNERS", "PvtPoint", "apply_pvt",
    "MismatchModel", "MismatchSample", "PELGROM_180NM",
]
