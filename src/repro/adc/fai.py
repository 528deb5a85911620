"""The complete folding-and-interpolating ADC (paper Fig. 4).

:class:`FaiAdc` wires the coarse flash, the fine folding path and the
encoder together, with one constructor knob per bias current so the PMU
(:mod:`repro.pmu.controller`) can scale the whole converter.

Coarse/fine synchronisation (Sec. III-B, "error correction"): the
reflection-symmetric Gray decode makes the composite code robust to the
coarse flash deciding up to ~half a fine fold early or late -- near a
segment boundary the folded signal is at its extremum, so a wrong
segment pairs with a reflected fine code and the result lands within
about one LSB of the truth.  The majority cells clean residual
thermometer bubbles.  (See ``tests/integration/test_adc_sync.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import LN2
from ..digital.encoder import EncoderSpec, encode_batch, reference_encode
from ..errors import ModelError
from .config import FaiAdcConfig
from .flash import CoarseFlash
from .folding import FineFoldingPath
from .sample_hold import SampleHold


@dataclass(frozen=True)
class AdcBiasPoint:
    """The converter's bias currents (all scale together under the PMU).

    Attributes:
        i_unit: Fine-path folder/comparator unit current [A].
        i_coarse: Coarse comparator bias [A].
        i_res: Ladder control current [A].
        i_sh: Track/hold bias [A].
    """

    i_unit: float
    i_coarse: float
    i_res: float
    i_sh: float

    def scaled(self, factor: float) -> "AdcBiasPoint":
        """Every current multiplied by ``factor`` -- the single-knob
        scaling of Fig. 1."""
        if factor <= 0.0:
            raise ModelError(f"scale factor must be positive: {factor}")
        return AdcBiasPoint(
            i_unit=self.i_unit * factor, i_coarse=self.i_coarse * factor,
            i_res=self.i_res * factor, i_sh=self.i_sh * factor)


#: A reference bias point sized for the paper's top rate (80 kS/s);
#: with the 156-cell encoder it lands at the paper's ~4 uW / 80 kS/s
#: total (digital ~4 %), scaling linearly down to ~40 nW at 800 S/s.
NOMINAL_BIAS_80K = AdcBiasPoint(
    i_unit=26e-9, i_coarse=26e-9, i_res=40e-9, i_sh=150e-9)


class FaiAdc:
    """The 8-bit folding-and-interpolating converter.

    The same ``seed`` always builds the same "chip" (same mismatch
    pattern); ``ideal=True`` builds the error-free converter used as a
    reference in tests and benchmarks.
    """

    def __init__(self, config: FaiAdcConfig | None = None,
                 bias: AdcBiasPoint = NOMINAL_BIAS_80K,
                 ladder_sigma: float = 0.002,
                 noise_rms: float = 1.5e-3,
                 ideal: bool = False, seed: int | None = None) -> None:
        self.config = config or FaiAdcConfig()
        self.bias = bias
        self.ideal = ideal
        self.seed = seed
        #: Aggregate input-referred rms noise [V] (comparator thermal +
        #: latch + supply ripple), applied only on noisy conversions.
        #: Calibrated so the dynamic test lands at the paper's
        #: ENOB = 6.5 (static ramp tests average it out, as the paper's
        #: slow-ramp INL/DNL measurement does).
        self.noise_rms = 0.0 if ideal else noise_rms
        self._noise_rng = np.random.default_rng(
            None if seed is None else seed + 77)
        self.spec = EncoderSpec(coarse_bits=self.config.coarse_bits,
                                fine_bits=self.config.fine_bits)
        self.coarse = CoarseFlash(
            self.config, i_comparator=bias.i_coarse, i_res=bias.i_res,
            ladder_sigma=0.0 if ideal else ladder_sigma,
            comparator_ideal=ideal,
            seed=None if seed is None else seed + 10)
        self.fine = FineFoldingPath(
            self.config, i_unit=bias.i_unit, ideal=ideal,
            seed=None if seed is None else seed + 20)
        self.sample_hold = SampleHold(i_bias=bias.i_sh)

    def with_bias(self, bias: AdcBiasPoint) -> "FaiAdc":
        """Same chip (same mismatch) at a new bias point."""
        clone = FaiAdc.__new__(FaiAdc)
        clone.config = self.config
        clone.bias = bias
        clone.ideal = self.ideal
        clone.seed = self.seed
        clone.spec = self.spec
        clone.coarse = self.coarse.with_bias(bias.i_coarse, bias.i_res)
        clone.fine = self.fine.with_bias(bias.i_unit)
        clone.sample_hold = self.sample_hold.with_bias(bias.i_sh)
        clone.noise_rms = self.noise_rms
        clone._noise_rng = self._noise_rng
        return clone

    def scaled(self, factor: float) -> "FaiAdc":
        """Single-knob rescale of every bias current."""
        return self.with_bias(self.bias.scaled(factor))

    def calibrated(self, trim_resolution_rel: float = 0.002) -> "FaiAdc":
        """Chip with its fine comparator offsets foreground-trimmed
        (see :meth:`FineFoldingPath.calibrated`); coarse and ladder
        errors are untouched, so the residual linearity isolates them."""
        clone = self.with_bias(self.bias)
        clone.fine = self.fine.calibrated(trim_resolution_rel)
        return clone

    # -- conversion ---------------------------------------------------------

    def raw_words(self, v_in: np.ndarray,
                  noisy: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Raw comparator words before encoding: ``(coarse, fine)``.

        Shapes ``(n_samples, n_coarse_taps)`` / ``(n_samples,
        n_fine_signals)``.  This is the natural fault-injection point --
        :mod:`repro.faults` forces stuck bits here, between the analog
        front end and the digital encoder.
        """
        v_in = np.atleast_1d(np.asarray(v_in, dtype=float))
        if noisy and self.noise_rms > 0.0:
            v_in = v_in + self._noise_rng.normal(
                0.0, self.noise_rms, size=v_in.shape)
        return self.coarse.thermometer_batch(v_in), self.fine.fine_code(v_in)

    def convert_batch(self, v_in: np.ndarray,
                      noisy: bool = False) -> np.ndarray:
        """Convert an array of held input voltages to output codes.

        ``noisy`` adds the chip's input-referred rms noise per sample
        (used by dynamic tests; static ramp tests average noise out).
        """
        coarse, fine = self.raw_words(v_in, noisy=noisy)
        return encode_batch(coarse, fine, self.spec)

    def convert(self, v_in: float) -> int:
        """Convert one held voltage (scalar path, uses the scalar golden
        encoder -- bit-identical to the batch path)."""
        coarse = self.coarse.thermometer(float(v_in))
        fine_matrix = self.fine.fine_code(np.array([float(v_in)]))
        fine = tuple(bool(b) for b in fine_matrix[0])
        return reference_encode(coarse, fine, self.spec)

    def sample_and_convert(self, waveform, t_sample: np.ndarray) -> np.ndarray:
        """Full signal path: track/hold, then convert with the
        converter's input-referred noise."""
        held = self.sample_hold.sample(waveform, t_sample)
        return self.convert_batch(held, noisy=True)

    # -- power accounting -----------------------------------------------------

    def analog_branch_currents(self) -> dict[str, float]:
        """Static current of each analog section [A]."""
        cfg = self.config
        return {
            "fine_path": self.fine.branch_count() * self.bias.i_unit,
            "coarse_comparators": (cfg.n_segments - 1) * self.bias.i_coarse,
            "ladder": (self.coarse.ladder.string_current()
                       + self.coarse.ladder.bias_scheme.control_current(
                           self.coarse.ladder.n_segments,
                           self.bias.i_res)),
            "sample_hold": self.bias.i_sh,
        }

    def analog_power(self, vdd: float | None = None) -> float:
        """Total analog static power [W]."""
        vdd = self.config.vdd if vdd is None else vdd
        return sum(self.analog_branch_currents().values()) * vdd

    def max_sample_rate(self) -> float:
        """Highest sampling rate the current bias point supports [S/s].

        The binding constraints, all of which scale linearly with the
        bias (the single-knob property):

        * the track/hold must settle to half an LSB;
        * the comparator pre-amplifiers must settle within half a
          clock (their bandwidth at i_unit);
        * the reference-ladder taps must recover from kickback
          (7 tau to 8-bit accuracy against ~100 fF of tap loading).
        """
        from ..analog.preamp import Preamp

        sh_limit = self.sample_hold.max_sample_rate(self.config.n_bits)
        comparator_limit = Preamp(i_bias=self.bias.i_unit).bandwidth()
        ladder_tau = self.coarse.ladder.settling_time(c_tap=100e-15)
        ladder_limit = 1.0 / (2.0 * (self.config.n_bits - 1)
                              * LN2 * ladder_tau)
        return min(sh_limit, comparator_limit, ladder_limit)
