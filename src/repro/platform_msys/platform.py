"""The single-knob mixed-signal platform (paper Fig. 1).

Typical use (this is ``examples/quickstart.py`` in miniature)::

    platform = MixedSignalPlatform.build(seed=7)
    report = platform.set_sample_rate(8e3)
    print(report.describe())
    codes = platform.convert(waveform, n_samples=1024)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..adc.fai import FaiAdc
from ..adc.metrics import SineTestReport
from ..adc.testbench import dynamic_test, linearity_test
from ..digital.encoder import EncoderSpec, build_fai_encoder
from ..digital.netlist import GateNetlist
from ..digital.sta import analyze_timing
from ..errors import DesignError
from ..pmu.controller import PmuOperatingPoint, PowerManagementUnit
from ..stscl.gate_model import StsclGateDesign
from ..stscl.supply import minimum_supply
from ..units import format_quantity


@dataclass(frozen=True)
class PlatformReport:
    """State of the platform at one operating point."""

    operating_point: PmuOperatingPoint
    encoder_f_max: float
    vdd_min_digital: float

    def describe(self) -> str:
        """Human-readable one-screen summary."""
        op = self.operating_point
        lines = [
            f"sample rate      : {format_quantity(op.f_sample, 'S/s')}",
            f"analog current   : {format_quantity(op.analog_current, 'A')}",
            f"digital I_SS/gate: {format_quantity(op.i_ss_digital, 'A')}",
            f"total power      : {format_quantity(op.total_power, 'W')}"
            f" (digital {format_quantity(op.digital_power, 'W')},"
            f" {100 * op.digital_fraction:.1f}%)",
            f"energy/sample    : {format_quantity(op.energy_per_sample, 'J')}",
            f"encoder f_max    : {format_quantity(self.encoder_f_max, 'Hz')}",
            f"digital V_DD,min : {self.vdd_min_digital:.3f}V",
        ]
        return "\n".join(lines)


class MixedSignalPlatform:
    """ADC + encoder + PMU behind one ``set_sample_rate`` knob."""

    def __init__(self, adc: FaiAdc, encoder: GateNetlist,
                 pmu: PowerManagementUnit) -> None:
        self.adc = adc
        self.encoder = encoder
        self.pmu = pmu
        self._f_sample: float | None = None

    @classmethod
    def build(cls, seed: int | None = None,
              ideal: bool = False) -> "MixedSignalPlatform":
        """Construct the paper's system with default calibration."""
        adc = FaiAdc(ideal=ideal, seed=seed)
        encoder = build_fai_encoder(EncoderSpec())
        design = StsclGateDesign.default(i_ss=1e-9)
        timing = analyze_timing(encoder, design)
        pmu = PowerManagementUnit(
            adc, n_digital_tails=encoder.tail_count(),
            encoder_depth=timing.weighted_depth)
        return cls(adc=adc, encoder=encoder, pmu=pmu)

    @property
    def f_sample(self) -> float:
        if self._f_sample is None:
            raise DesignError(
                "no operating point set; call set_sample_rate first")
        return self._f_sample

    def set_sample_rate(self, f_sample: float) -> PlatformReport:
        """Retune the whole system to ``f_sample`` (the single knob)."""
        point = self.pmu.operating_point(f_sample)
        self._f_sample = f_sample
        design = self.pmu.tuned_gate_design(f_sample)
        timing = analyze_timing(self.encoder, design)
        if timing.f_max < f_sample * (1.0 - 1e-9):
            raise DesignError(
                f"encoder cannot reach {f_sample:.3e} S/s at the "
                f"programmed bias (f_max {timing.f_max:.3e})")
        return PlatformReport(
            operating_point=point,
            encoder_f_max=timing.f_max,
            vdd_min_digital=minimum_supply(design))

    def convert(self, waveform, n_samples: int) -> np.ndarray:
        """Sample ``waveform(t)`` at the programmed rate and convert."""
        if n_samples < 1:
            raise DesignError(f"n_samples must be >= 1: {n_samples}")
        tuned = self.pmu.tuned_adc(self.f_sample)
        t = np.arange(n_samples) / self.f_sample
        return tuned.sample_and_convert(waveform, t)

    def characterize(self, samples_per_code: int = 16) -> dict:
        """INL/DNL and ENOB of the chip at the programmed rate."""
        tuned = self.pmu.tuned_adc(self.f_sample)
        linearity = linearity_test(tuned, samples_per_code)
        dynamic: SineTestReport = dynamic_test(tuned, self.f_sample)
        return {
            "inl_max": linearity.inl_max,
            "dnl_max": linearity.dnl_max,
            "enob": dynamic.enob,
            "sndr_db": dynamic.sndr_db,
        }
