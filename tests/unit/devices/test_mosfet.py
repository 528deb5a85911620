"""Unit tests for the four-terminal MOS element."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import thermal_voltage
from repro.devices import Mosfet, nmos_180, pmos_180, nmos_180_hvt
from repro.devices.mosfet import MosBank
from repro.errors import ModelError


@pytest.fixture
def nmos():
    return Mosfet(nmos_180(), w=1e-6, l=0.5e-6)


@pytest.fixture
def pmos():
    return Mosfet(pmos_180(), w=1e-6, l=0.5e-6)


class TestConstruction:
    def test_rejects_undersized(self):
        with pytest.raises(ModelError):
            Mosfet(nmos_180(), w=0.1e-6, l=0.5e-6)
        with pytest.raises(ModelError):
            Mosfet(nmos_180(), w=1e-6, l=0.05e-6)

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ModelError):
            Mosfet(nmos_180(), w=1e-6, l=1e-6, m=0)

    def test_multiplicity_scales_current(self, nmos):
        double = Mosfet(nmos_180(), w=1e-6, l=0.5e-6, m=2)
        op1 = nmos.evaluate(0.5, 0.4, 0.0, 0.0)
        op2 = double.evaluate(0.5, 0.4, 0.0, 0.0)
        assert op2.ids == pytest.approx(2.0 * op1.ids, rel=1e-9)


class TestNmosStatic:
    def test_off_at_zero_vgs(self, nmos):
        op = nmos.evaluate(vd=1.0, vg=0.0, vs=0.0, vb=0.0)
        assert 0.0 < op.ids < 1e-11  # sub-threshold leakage only

    def test_subthreshold_slope(self, nmos):
        ut = thermal_voltage()
        n = nmos.params.n
        # Deep weak inversion; EKV's smooth moderate-inversion
        # transition costs a couple of percent even here (physical).
        op1 = nmos.evaluate(1.0, 0.10, 0.0, 0.0)
        op2 = nmos.evaluate(1.0, 0.10 + n * ut * np.log(10.0), 0.0, 0.0)
        assert op2.ids / op1.ids == pytest.approx(10.0, rel=0.03)

    def test_region_classification(self, nmos):
        weak = nmos.evaluate(1.0, 0.25, 0.0, 0.0)
        strong = nmos.evaluate(1.5, 1.5, 0.0, 0.0)
        assert weak.region == "weak"
        assert strong.region == "strong"

    def test_saturation_flag(self, nmos):
        sat = nmos.evaluate(0.5, 0.4, 0.0, 0.0)
        triode = nmos.evaluate(0.01, 0.8, 0.0, 0.0)
        assert sat.saturated
        assert not triode.saturated

    def test_gm_positive_gds_small_in_saturation(self, nmos):
        op = nmos.evaluate(0.6, 0.4, 0.0, 0.0)
        assert op.gm > 0.0
        assert op.gds < 0.05 * op.gm

    def test_body_effect_reduces_current(self, nmos):
        # Raising the source above the bulk raises the effective VT.
        op_ref = nmos.evaluate(1.0, 0.6, 0.2, 0.2)   # VB = VS
        op_body = nmos.evaluate(1.0, 0.6, 0.2, 0.0)  # VB below VS
        assert op_body.ids < op_ref.ids

    def test_vt_shift_moves_current(self, nmos):
        shifted = Mosfet(nmos_180(), w=1e-6, l=0.5e-6, vt_shift=0.05)
        assert (shifted.evaluate(1.0, 0.4, 0.0, 0.0).ids
                < nmos.evaluate(1.0, 0.4, 0.0, 0.0).ids)


class TestPmosSymmetry:
    def test_conducting_pmos_negative_ids(self, pmos):
        # Source at 1 V, gate low: channel current flows source->drain,
        # so drain->source current is negative.
        op = pmos.evaluate(vd=0.0, vg=0.2, vs=1.0, vb=1.0)
        assert op.ids < 0.0

    def test_mirror_of_nmos(self, nmos):
        # A PMOS with NMOS parameters (polarity flipped) must mirror.
        from repro.devices.parameters import MosParameters, MosPolarity
        params = nmos.params
        flipped = MosParameters(
            name="test_p", polarity=MosPolarity.PMOS, vt0=params.vt0,
            n=params.n, kp=params.kp, tox=params.tox,
            lambda_=params.lambda_)
        mirror = Mosfet(flipped, w=1e-6, l=0.5e-6)
        op_n = nmos.evaluate(0.5, 0.4, 0.0, 0.0)
        op_p = mirror.evaluate(-0.5, -0.4, 0.0, 0.0)
        assert op_p.ids == pytest.approx(-op_n.ids, rel=1e-9)


class TestPartials:
    @given(st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.0, max_value=1.2))
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance(self, vd, vg, vs):
        """Summing dI/dV over all four terminals must be zero: shifting
        every node voltage equally cannot change the current."""
        device = Mosfet(nmos_180(), w=1e-6, l=0.5e-6)
        op = device.evaluate(vd, vg, vs, 0.0)
        total = sum(op.partials.values())
        scale = max(abs(p) for p in op.partials.values()) or 1.0
        assert abs(total) < 1e-9 * scale + 1e-30

    @pytest.mark.parametrize("terminal", ["d", "g", "s", "b"])
    def test_partials_match_numeric(self, nmos, terminal):
        base = dict(vd=0.45, vg=0.42, vs=0.05, vb=0.0)
        op = nmos.evaluate(**base)
        h = 1e-6
        up = dict(base)
        up["v" + terminal] += h
        down = dict(base)
        down["v" + terminal] -= h
        numeric = (nmos.evaluate(**up).ids
                   - nmos.evaluate(**down).ids) / (2.0 * h)
        assert op.partials[terminal] == pytest.approx(
            numeric, rel=1e-3, abs=1e-18)


class TestCapacitances:
    def test_all_positive(self, nmos):
        for cap in nmos.capacitances().values():
            assert cap > 0.0

    def test_scale_with_width(self):
        narrow = Mosfet(nmos_180(), w=1e-6, l=0.5e-6)
        wide = Mosfet(nmos_180(), w=2e-6, l=0.5e-6)
        assert (wide.gate_capacitance()
                == pytest.approx(2.0 * narrow.gate_capacitance(), rel=1e-9))

    def test_gate_capacitance_is_sum(self, nmos):
        caps = nmos.capacitances()
        expected = (caps[("g", "s")] + caps[("g", "d")]
                    + caps[("g", "b")])
        assert nmos.gate_capacitance() == pytest.approx(expected)


class TestHighVtFlavour:
    def test_lower_leakage_than_standard(self):
        standard = Mosfet(nmos_180(), w=1e-6, l=1e-6)
        hvt = Mosfet(nmos_180_hvt(), w=1e-6, l=1e-6)
        leak_std = standard.evaluate(1.0, 0.0, 0.0, 0.0).ids
        leak_hvt = hvt.evaluate(1.0, 0.0, 0.0, 0.0).ids
        assert leak_hvt < 0.1 * leak_std


class TestBankAgreement:
    """Two implementations of one EKV device: ``Mosfet.evaluate`` (the
    analytic designs) and ``MosBank.evaluate`` (the simulator's
    assembler).  They differ in evaluation order only, so they agree to
    rounding."""

    def test_bank_matches_the_scalar_model(self):
        rng = np.random.default_rng(2026)
        n = 4000
        devices = [Mosfet((nmos_180, pmos_180)[k % 2](),
                          w=rng.uniform(0.5e-6, 20e-6),
                          l=rng.uniform(0.2e-6, 5e-6),
                          vt_shift=rng.normal(0.0, 0.02),
                          beta_factor=rng.uniform(0.8, 1.2))
                   for k in range(n)]
        temperatures = rng.uniform(233.15, 398.15, n)
        vd, vg, vs, vb = rng.uniform(0.0, 1.2, (4, n))
        bank = MosBank(devices, temperatures).evaluate(vd, vg, vs, vb)
        fields = ("ids", "p_d", "p_g", "p_s", "p_b", "i_f", "i_r")
        scalar = np.empty((len(fields), n))
        for k, device in enumerate(devices):
            op = device.evaluate(vd[k], vg[k], vs[k], vb[k],
                                 temperature=temperatures[k])
            scalar[:, k] = (op.ids, op.partials["d"], op.partials["g"],
                            op.partials["s"], op.partials["b"], op.i_f,
                            op.i_r)
        for row, name in enumerate(fields):
            np.testing.assert_allclose(getattr(bank, name), scalar[row],
                                       rtol=1e-13, atol=0.0, err_msg=name)
