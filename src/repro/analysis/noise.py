"""Thermal-noise budget of source-coupled stages.

The ADC's dynamic performance (ENOB 6.5 vs the 7.9 quantisation limit)
is set by the noise of the nW-level analog chain.  This module derives
that budget from first principles so the converter's aggregate
``noise_rms`` calibration can be sanity-checked against physics rather
than being a free parameter:

* an SCL stage's output noise is the kT/C of its load, multiplied by
  the usual excess factor from the pair's channel noise amplified over
  the same bandwidth;
* referring to the input divides by the stage gain;
* the folding chain adds the folder, interpolator and comparator
  stages in RSS (independent devices).

The library-level check lives in
``tests/unit/analysis/test_noise.py``; the headline is that the
26 nA chain lands at 0.27 mV rms input-referred, 5.6x below the fitted
1.5 mV (EXPERIMENTS.md, E3 and known deviation 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import BOLTZMANN, T_NOMINAL, thermal_voltage
from ..errors import ModelError

#: Long-channel thermal-noise factor of a MOS device in weak inversion
#: (gamma = n/2 from the EKV noise model; we keep the classic symbol).
GAMMA_WEAK_INVERSION = 0.65


@dataclass(frozen=True)
class StageNoise:
    """Noise summary of one source-coupled stage.

    Attributes:
        output_rms: Output-referred rms noise [V].
        input_rms: Input-referred rms noise [V].
        gain: Small-signal gain used for the referral.
        ktc_rms: The bare kT/C floor of the load [V].
        excess_factor: output variance / kT-C variance.
    """

    output_rms: float
    input_rms: float
    gain: float
    ktc_rms: float
    excess_factor: float


def scl_stage_noise(i_bias: float, v_sw: float, c_load: float,
                    n: float = 1.3,
                    temperature: float = T_NOMINAL) -> StageNoise:
    """Thermal noise of one SCL gain stage (gate or pre-amplifier).

    The load resistor R_L = V_SW/I contributes 4kT R_L over the output
    bandwidth 1/(4 R_L C_L) -> exactly kT/C.  Each pair transistor
    contributes 4kT gamma/gm amplified by gm^2 R_L^2 over the same
    bandwidth -> kT/C * 2 gamma gm R_L (two devices, but each sees half
    the band in the differential path; we keep the conservative factor
    2).  Total:

        v_out,n^2 = (kT/C) * (1 + 2 gamma * gm R_L)

    with gm R_L = V_SW / (2 n U_T), the supply- and current-independent
    stage gain -- so the *noise* is also bias-independent, another face
    of the paper's decoupling.
    """
    if min(i_bias, v_sw, c_load) <= 0.0:
        raise ModelError("i_bias, v_sw and c_load must be positive")
    ut = thermal_voltage(temperature)
    gain = v_sw / (2.0 * n * ut)
    ktc = BOLTZMANN * temperature / c_load
    excess = 1.0 + 2.0 * GAMMA_WEAK_INVERSION * gain
    variance = ktc * excess
    output_rms = math.sqrt(variance)
    return StageNoise(output_rms=output_rms,
                      input_rms=output_rms / gain,
                      gain=gain,
                      ktc_rms=math.sqrt(ktc),
                      excess_factor=excess)


def chain_input_noise(stages: list[StageNoise]) -> float:
    """Input-referred rms noise of a cascade [V].

    Stage k's input noise is divided by the gain of everything before
    it (Friis): the first stage dominates a well-designed chain.
    """
    if not stages:
        raise ModelError("need at least one stage")
    total_variance = 0.0
    running_gain = 1.0
    for stage in stages:
        total_variance += (stage.input_rms / running_gain) ** 2
        running_gain *= stage.gain
    return math.sqrt(total_variance)


def adc_noise_budget(i_unit: float = 26e-9, v_sw: float = 0.2,
                     c_signal: float = 50e-15,
                     comparator_stages: int = 2,
                     temperature: float = T_NOMINAL) -> dict[str, float]:
    """First-principles input-referred noise of the FAI fine chain [V].

    Chain: folder (a gain-~3 SCL stage driving the interpolation
    node), then ``comparator_stages`` pre-amplifier stages ahead of the
    regenerative latch.  kT/C of the track/hold adds in RSS.

    Returns a breakdown dict with the total under ``"total"``.
    """
    folder = scl_stage_noise(i_unit, v_sw, c_signal,
                             temperature=temperature)
    preamps = [scl_stage_noise(i_unit, v_sw, c_signal,
                               temperature=temperature)
               for _k in range(comparator_stages)]
    chain = chain_input_noise([folder] + preamps)
    sample_ktc = math.sqrt(BOLTZMANN * temperature / 200e-15)
    total = math.hypot(chain, sample_ktc)
    return {
        "folder_input_rms": folder.input_rms,
        "chain_input_rms": chain,
        "sample_ktc_rms": sample_ktc,
        "total": total,
    }
