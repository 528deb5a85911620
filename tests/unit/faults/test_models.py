"""Unit tests for the declarative fault models."""

import numpy as np
import pytest

from repro.adc import FaiAdc
from repro.devices.mosfet import Mosfet
from repro.devices.parameters import nmos_180
from repro.errors import FaultInjectionError
from repro.faults import (BiasBranchOpen, BridgedNodes, FaultedAdc,
                          ResistorDrift, StuckComparator, VtOutlier)
from repro.spice import Circuit, operating_point


def divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    return circuit


def mirror() -> Circuit:
    """A 1:1 NMOS current mirror fed 1 uA."""
    device = Mosfet(nmos_180(), w=10e-6, l=1e-6)
    circuit = Circuit("mirror")
    circuit.add_vsource("VDD", "vdd", "0", 1.8)
    circuit.add_isource("I1", "vdd", "g", 1e-6)
    circuit.add_mosfet("M1", "g", "g", "0", "0", device, with_caps=False)
    circuit.add_mosfet("M2", "out", "g", "0", "0", device, with_caps=False)
    circuit.add_resistor("RL", "vdd", "out", 100e3)
    return circuit


class TestCircuitFaults:
    def test_bridged_nodes_short_the_divider(self):
        healthy = operating_point(divider()).voltage("mid")
        faulted = BridgedNodes("mid", "0", resistance=1.0).apply(divider())
        bridged = operating_point(faulted).voltage("mid")
        assert healthy == pytest.approx(0.5)
        assert bridged < 0.001

    def test_bridge_rejects_unknown_nodes(self):
        with pytest.raises(FaultInjectionError):
            BridgedNodes("mid", "nonexistent").apply(divider())

    def test_resistor_drift_moves_the_divider(self):
        faulted = ResistorDrift("R2", 3.0).apply(divider())
        assert operating_point(faulted).voltage("mid") == pytest.approx(
            0.75)

    def test_resistor_drift_rejects_non_resistors(self):
        with pytest.raises(FaultInjectionError):
            ResistorDrift("V1", 2.0).apply(divider())

    def test_bias_branch_open_kills_the_mirror(self):
        healthy = operating_point(mirror())
        faulted = operating_point(BiasBranchOpen("I1").apply(mirror()))
        # With its reference branch open the mirror passes (almost) no
        # current: the load node floats up to the supply.
        assert healthy.voltage("out") < 1.75
        assert faulted.voltage("out") == pytest.approx(1.8, abs=1e-3)

    def test_bias_branch_open_requires_a_current_source(self):
        with pytest.raises(FaultInjectionError):
            BiasBranchOpen("V1").apply(divider())

    def test_vt_outlier_starves_the_mirror_output(self):
        healthy = operating_point(mirror())
        faulted_circuit = VtOutlier("M2", +0.3).apply(mirror())
        faulted = operating_point(faulted_circuit)
        # +300 mV on the output device cuts its current by decades in
        # weak inversion: the load drop collapses.
        healthy_drop = 1.8 - healthy.voltage("out")
        faulted_drop = 1.8 - faulted.voltage("out")
        assert faulted_drop < 0.1 * healthy_drop

    def test_vt_outlier_does_not_touch_the_shared_device(self):
        circuit = mirror()
        other_device = circuit.element("M1").device
        VtOutlier("M2", +0.3).apply(circuit)
        # M1 and M2 were built from the same Mosfet instance; only the
        # outlier may change.
        assert other_device.vt_shift == 0.0
        assert circuit.element("M2").device.vt_shift == pytest.approx(0.3)

    def test_vt_outlier_rejects_non_mos_elements(self):
        with pytest.raises(FaultInjectionError):
            VtOutlier("R1", 0.1).apply(divider())

    def test_circuit_faults_reject_converters(self):
        adc = FaiAdc(ideal=True, seed=0)
        with pytest.raises(FaultInjectionError):
            BridgedNodes("a", "b").apply(adc)
        with pytest.raises(FaultInjectionError):
            ResistorDrift("R1", 2.0).apply(adc)


class TestStuckComparator:
    @pytest.fixture(scope="class")
    def ideal(self):
        return FaiAdc(ideal=True, seed=0)

    def test_matches_manual_forcing(self, ideal):
        """The wrapper must reproduce exactly the forced-word encoding
        the old ad-hoc test harness computed by hand."""
        from repro.digital.encoder import encode_batch

        cfg = ideal.config
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb, 512)
        faulted = StuckComparator("fine", 5, True).apply(ideal)
        coarse = ideal.coarse.thermometer_batch(ramp).copy()
        fine = ideal.fine.fine_code(ramp).copy()
        fine[:, 5] = True
        expected = encode_batch(coarse, fine, ideal.spec)
        np.testing.assert_array_equal(faulted.convert_batch(ramp),
                                      expected)

    def test_wrapper_delegates_chip_attributes(self, ideal):
        faulted = StuckComparator("coarse", 3, False).apply(ideal)
        assert faulted.config is ideal.config
        assert faulted.spec is ideal.spec
        assert faulted.seed == ideal.seed

    def test_sample_and_convert_keeps_the_stuck_bits(self, ideal):
        """The track/hold route encodes the wrapper's forced words: on
        the noiseless ideal chip it equals ``convert_batch`` of the
        held samples, not the healthy chip's codes."""
        cfg = ideal.config
        t = np.arange(256) / 8e3
        mid, amp = 0.5 * (cfg.v_low + cfg.v_high), 0.49 * cfg.full_scale

        def wave(time):
            return mid + amp * np.sin(2.0 * np.pi * 7.0 / 256.0 * 8e3 * time)

        faulted = StuckComparator("coarse", 3, False).apply(ideal)
        held = ideal.sample_hold.sample(wave, t)
        codes = faulted.sample_and_convert(wave, t)
        np.testing.assert_array_equal(codes, faulted.convert_batch(held))
        assert np.any(codes != ideal.sample_and_convert(wave, t))

    def test_rebiased_chip_keeps_the_stuck_bits(self, ideal):
        """``with_bias`` (and the PMU's ``tuned_adc`` through it)
        re-wraps the rebiased chip."""
        from repro.pmu import PowerManagementUnit

        faulted = StuckComparator("coarse", 3, False).apply(ideal)
        tuned = PowerManagementUnit(faulted).tuned_adc(8e3)
        assert isinstance(tuned, FaultedAdc)
        assert tuned.stuck_coarse == {3: False}
        assert tuned.bias == PowerManagementUnit(ideal).tuned_adc(8e3).bias
        cfg = ideal.config
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb, 512)
        np.testing.assert_array_equal(tuned.convert_batch(ramp),
                                      faulted.convert_batch(ramp))

    @staticmethod
    def _ramp(chip):
        cfg = chip.config
        return np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb, 512)

    def test_calibrated_chip_keeps_the_stuck_bits(self):
        """``calibrated`` trims the chip underneath and re-wraps it: its
        codes are the faulted trimmed chip's, not the healthy one's."""
        chip = FaiAdc(seed=1)
        trimmed = StuckComparator("coarse", 3, False).apply(chip).calibrated()
        assert isinstance(trimmed, FaultedAdc)
        assert trimmed.stuck_coarse == {3: False}
        ramp = self._ramp(chip)
        expected = FaultedAdc(chip.calibrated(), stuck_coarse={3: False})
        codes = trimmed.convert_batch(ramp)
        np.testing.assert_array_equal(codes, expected.convert_batch(ramp))
        assert np.any(codes != chip.calibrated().convert_batch(ramp))

    def test_scaled_chip_keeps_the_stuck_bits(self):
        """``scaled`` rebiases through ``with_bias``, so the rescaled
        chip keeps the stuck bits."""
        chip = FaiAdc(seed=1)
        half = StuckComparator("coarse", 3, False).apply(chip).scaled(0.5)
        assert isinstance(half, FaultedAdc)
        assert half.bias == chip.scaled(0.5).bias
        ramp = self._ramp(chip)
        expected = FaultedAdc(chip.scaled(0.5), stuck_coarse={3: False})
        codes = half.convert_batch(ramp)
        np.testing.assert_array_equal(codes, expected.convert_batch(ramp))
        assert np.any(codes != chip.scaled(0.5).convert_batch(ramp))

    def test_faults_compose_onto_one_wrapper(self, ideal):
        once = StuckComparator("fine", 5, True).apply(ideal)
        twice = StuckComparator("coarse", 3, False).apply(once)
        assert isinstance(twice, FaultedAdc)
        assert twice.adc is ideal          # not nested wrappers
        assert twice.stuck_fine == {5: True}
        assert twice.stuck_coarse == {3: False}

    def test_out_of_range_index_rejected(self, ideal):
        with pytest.raises(FaultInjectionError):
            StuckComparator("fine", 999, True).apply(ideal)
        with pytest.raises(FaultInjectionError):
            StuckComparator("coarse", 99, True).apply(ideal)

    def test_bad_path_rejected(self):
        with pytest.raises(FaultInjectionError):
            StuckComparator("medium", 0, True)

    def test_rejects_circuits(self):
        with pytest.raises(FaultInjectionError):
            StuckComparator("fine", 1, True).apply(divider())


class TestBiasBranchOpenOnConverter:
    def test_dead_coarse_bank_freezes_the_msbs(self):
        ideal = FaiAdc(ideal=True, seed=0)
        cfg = ideal.config
        faulted = BiasBranchOpen("coarse").apply(ideal)
        ramp = np.linspace(cfg.v_low + cfg.lsb, cfg.v_high - cfg.lsb, 512)
        codes = faulted.convert_batch(ramp)
        healthy = ideal.convert_batch(ramp)
        # Dead coarse flash: the converter can no longer leave the
        # bottom segments; the top of the range collapses.
        assert codes.max() < healthy.max() / 2
