"""Coarse flash sub-ADC: PMOS reference ladder + comparator offsets.

Extracts the 3 MSBs (paper Fig. 4, left).  Its thermometer output feeds
the encoder's majority bubble-correction stage; the reflection-robust
fine decode tolerates its boundary offsets to within ~1 LSB (see
:mod:`repro.adc.fai`).

For static linearity a comparator is its input-referred offset: each
decision is the held input against its ladder tap plus that offset,
drawn once per chip from the Pelgrom model at the pair size.
"""

from __future__ import annotations

import numpy as np

from ..analog.ladder import LadderBiasScheme, ResistorLadder
from ..devices.mismatch import PELGROM_180NM
from ..errors import ModelError
from .config import FaiAdcConfig


def _check_current(i_comparator: float) -> None:
    if i_comparator <= 0.0:
        raise ModelError(
            f"comparator current must be positive: {i_comparator}")


class CoarseFlash:
    """The coarse flash converter.

    One comparator per internal segment boundary (2^c - 1 of them), each
    comparing the held input against its ladder tap.
    """

    def __init__(self, config: FaiAdcConfig, i_comparator: float,
                 i_res: float, ladder_sigma: float = 0.0,
                 comparator_ideal: bool = True,
                 pair_w: float = 24.0e-6, pair_l: float = 6.0e-6,
                 seed: int | None = None) -> None:
        self.config = config
        n_taps = config.n_segments - 1
        if n_taps < 1:
            raise ModelError("coarse flash needs at least one boundary")
        _check_current(i_comparator)
        self.i_comparator = i_comparator
        self.ladder = ResistorLadder(
            n_taps=n_taps, v_low=config.v_low, v_high=config.v_high,
            i_res=i_res, sigma_rel=ladder_sigma,
            bias_scheme=LadderBiasScheme(share=4),
            seed=None if seed is None else seed + 1)
        # "Using large enough transistor sizes can minimize the effect
        # of current mismatch" (Sec. III-B): the coarse decisions gate
        # whole 32-LSB segments, so their pairs are drawn big.
        sigma = PELGROM_180NM.sigma_pair_offset(pair_w, pair_l)
        rng = np.random.default_rng(None if seed is None else seed + 2)
        #: Input-referred comparator offsets, LSB tap first [V].
        self.offsets = (np.zeros(n_taps) if comparator_ideal
                        else rng.normal(0.0, sigma, n_taps))

    def with_bias(self, i_comparator: float, i_res: float) -> "CoarseFlash":
        """Same chip (same offsets) at new bias currents (PMU scaling)."""
        _check_current(i_comparator)
        clone = CoarseFlash.__new__(CoarseFlash)
        clone.config = self.config
        clone.i_comparator = i_comparator
        clone.ladder = self.ladder.with_control(i_res)
        clone.offsets = self.offsets
        return clone

    def thermometer_batch(self, v_in: np.ndarray) -> np.ndarray:
        """Vectorised conversions: shape (n_samples, n_taps) booleans."""
        v_in = np.asarray(v_in, dtype=float)
        thresholds = self.ladder.tap_voltages() + self.offsets
        return v_in[:, None] > thresholds[None, :]

    def power(self, vdd: float) -> float:
        """Ladder + comparator power [W]."""
        comparators = self.offsets.size * self.i_comparator * vdd
        return self.ladder.power(vdd) + comparators
