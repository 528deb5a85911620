"""Reusable ADC test harnesses: ramp (static) and sine (dynamic) tests.

These are the procedures the benchmarks and examples run; they mirror
how the paper's chip was characterised (Fig. 11 ramp histogram, ENOB
from a sampled sine).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AnalysisError
from .fai import FaiAdc
from .metrics import (LinearityReport, SineTestReport, coherent_frequency,
                      inl_dnl_from_codes, sine_test)


def ramp_codes(adc: FaiAdc, samples_per_code: int = 32,
               margin_lsb: float = 0.0) -> np.ndarray:
    """Codes from a uniform ramp across the full scale.

    Unlike a plain flash, a *folding* converter is non-monotonic beyond
    its full scale (the folded signal wraps and the code walks back
    down), so the standard practice of overdriving the ramp corrupts
    the edge bins here; the default keeps the ramp exactly in range and
    the histogram test already excludes the two edge codes.
    """
    if samples_per_code < 1:
        raise AnalysisError(
            f"samples_per_code must be >= 1: {samples_per_code}")
    cfg = adc.config
    lo = cfg.v_low - margin_lsb * cfg.lsb
    hi = cfg.v_high + margin_lsb * cfg.lsb
    n = cfg.n_codes * samples_per_code
    ramp = np.linspace(lo, hi, n)
    return adc.convert_batch(ramp)


def linearity_test(adc: FaiAdc,
                   samples_per_code: int = 32) -> LinearityReport:
    """Histogram INL/DNL of ``adc`` (the Fig. 11 measurement)."""
    codes = ramp_codes(adc, samples_per_code)
    return inl_dnl_from_codes(codes, adc.config.n_bits)


def sampled_transient_codes(adc: FaiAdc, result, node_pos: str,
                            node_neg: str | None = None, *,
                            sample_times: np.ndarray,
                            center: float | None = None,
                            gain: float = 1.0) -> np.ndarray:
    """Codes from a simulated transient waveform sampled at given instants.

    The bridge between the SPICE layer and the converter metrology: a
    :class:`~repro.spice.results.TranResult` waveform (``node_pos``, or
    the ``node_pos - node_neg`` differential) is linearly interpolated
    at ``sample_times`` -- an ideal track/hold, deliberately, so Monte
    Carlo lanes that share a time grid produce *bit-identical* codes
    whenever their waveforms match -- mapped into the converter's input
    range as ``center + gain * v`` (``center`` defaults to mid-scale),
    and converted through the noiseless batch path.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    time = np.asarray(result.time, dtype=float)
    if sample_times.size == 0:
        raise AnalysisError("sampled_transient_codes: no sample instants")
    if sample_times.min() < time[0] or sample_times.max() > time[-1]:
        raise AnalysisError(
            f"sample instants [{sample_times.min():g}, "
            f"{sample_times.max():g}] fall outside the simulated span "
            f"[{time[0]:g}, {time[-1]:g}]")
    wave = result.voltage(node_pos)
    if node_neg is not None:
        wave = wave - result.voltage(node_neg)
    cfg = adc.config
    mid = 0.5 * (cfg.v_low + cfg.v_high) if center is None else center
    held = mid + gain * np.interp(sample_times, time, wave)
    return adc.convert_batch(held)


def dynamic_test(adc: FaiAdc, f_sample: float,
                 n_samples: int = 4096, cycles: int = 67,
                 amplitude_fraction: float = 0.95,
                 use_sample_hold: bool = False) -> SineTestReport:
    """Coherent sine test returning SNDR/SFDR/ENOB.

    ``use_sample_hold`` routes the stimulus through the track/hold
    (adds its noise and jitter when enabled); otherwise the held values
    are ideal samples, isolating converter-core errors.  Either way the
    converter adds its own input-referred noise.
    """
    cfg = adc.config
    f_in = coherent_frequency(f_sample, n_samples, cycles)
    mid = 0.5 * (cfg.v_low + cfg.v_high)
    amp = 0.5 * cfg.full_scale * amplitude_fraction
    t = np.arange(n_samples) / f_sample

    if use_sample_hold:
        def waveform(time: float) -> float:
            return mid + amp * math.sin(2.0 * math.pi * f_in * time)
        held = adc.sample_hold.sample(waveform, t)
    else:
        held = mid + amp * np.sin(2.0 * np.pi * f_in * t)
    codes = adc.convert_batch(held, noisy=True)
    return sine_test(codes, cfg.n_bits)
