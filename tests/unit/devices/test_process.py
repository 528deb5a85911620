"""Unit tests for process corners."""

from repro.devices.parameters import GENERIC_180NM
from repro.devices.process import (
    CORNERS,
    CornerSpec,
    ProcessCorner,
    apply_corner,
    corner_technology,
)


class TestCorners:
    def test_tt_is_identity(self):
        nmos = GENERIC_180NM.nmos
        shifted = apply_corner(nmos, ProcessCorner.TT)
        assert shifted.vt0 == nmos.vt0
        assert shifted.kp == nmos.kp

    def test_ff_lowers_vt_raises_kp(self):
        nmos = GENERIC_180NM.nmos
        fast = apply_corner(nmos, ProcessCorner.FF)
        assert fast.vt0 < nmos.vt0
        assert fast.kp > nmos.kp

    def test_ss_opposite_of_ff(self):
        nmos = GENERIC_180NM.nmos
        slow = apply_corner(nmos, ProcessCorner.SS)
        assert slow.vt0 > nmos.vt0
        assert slow.kp < nmos.kp

    def test_skew_corner_splits_polarities(self):
        fs_n = apply_corner(GENERIC_180NM.nmos, ProcessCorner.FS)
        fs_p = apply_corner(GENERIC_180NM.pmos, ProcessCorner.FS)
        assert fs_n.vt0 < GENERIC_180NM.nmos.vt0   # fast NMOS
        assert fs_p.vt0 > GENERIC_180NM.pmos.vt0   # slow PMOS

    def test_all_five_corners_defined(self):
        assert set(CORNERS) == set(ProcessCorner)

    def test_corner_technology_shifts_all_flavours(self):
        slow = corner_technology(GENERIC_180NM, ProcessCorner.SS)
        assert slow.nmos.vt0 > GENERIC_180NM.nmos.vt0
        assert slow.nmos_hvt.vt0 > GENERIC_180NM.nmos_hvt.vt0
        assert slow.name.endswith("ss")
