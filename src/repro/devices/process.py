"""Process corners.

The paper's Fig. 3 argument is that STSCL decouples performance from
process parameters while CMOS does not.  Verifying that claim
quantitatively (experiment E6) needs corner models: this module applies
global VT and mobility shifts to a :class:`~repro.devices.parameters.MosParameters`
set.  Supply and temperature are arguments of the models themselves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .parameters import MosParameters, MosPolarity, Technology


class ProcessCorner(enum.Enum):
    """Classic five-corner set (NMOS letter first)."""

    TT = "tt"
    FF = "ff"
    SS = "ss"
    FS = "fs"
    SF = "sf"


@dataclass(frozen=True)
class CornerSpec:
    """Global shifts a corner applies.

    ``vt_shift_*`` are additive threshold shifts [V]; ``beta_factor_*``
    multiply the current factor.  Fast = lower VT, higher mobility.
    """

    nmos_vt_shift: float
    nmos_beta_factor: float
    pmos_vt_shift: float
    pmos_beta_factor: float


#: 3-sigma-ish global corner shifts typical of a 0.18 um node.
CORNERS: dict[ProcessCorner, CornerSpec] = {
    ProcessCorner.TT: CornerSpec(0.0, 1.0, 0.0, 1.0),
    ProcessCorner.FF: CornerSpec(-0.06, 1.12, -0.06, 1.12),
    ProcessCorner.SS: CornerSpec(+0.06, 0.88, +0.06, 0.88),
    ProcessCorner.FS: CornerSpec(-0.06, 1.12, +0.06, 0.88),
    ProcessCorner.SF: CornerSpec(+0.06, 0.88, -0.06, 1.12),
}


def apply_corner(params: MosParameters, corner: ProcessCorner) -> MosParameters:
    """Return device parameters shifted to ``corner``."""
    spec = CORNERS[corner]
    if params.polarity is MosPolarity.NMOS:
        vt_shift, beta = spec.nmos_vt_shift, spec.nmos_beta_factor
    else:
        vt_shift, beta = spec.pmos_vt_shift, spec.pmos_beta_factor
    return params.replace(vt0=params.vt0 + vt_shift, kp=params.kp * beta)


def corner_technology(tech: Technology, corner: ProcessCorner) -> Technology:
    """Return a technology with every flavour shifted to ``corner``."""
    return Technology(
        name=f"{tech.name}_{corner.value}",
        nmos=apply_corner(tech.nmos, corner),
        pmos=apply_corner(tech.pmos, corner),
        nmos_hvt=apply_corner(tech.nmos_hvt, corner),
        pmos_thick=apply_corner(tech.pmos_thick, corner),
        supply_nominal=tech.supply_nominal,
        metal_cap_per_um=tech.metal_cap_per_um)
