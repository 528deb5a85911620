"""The fine folding-and-interpolating signal path (paper Fig. 4, right).

Chain: staggered folder bank -> x8 current interpolation -> comparator
bank.  The comparator outputs form the *cyclic* fine code the encoder
expects: comparator m flips exactly at code boundaries m+1, m+1+32, ...
in the ideal chain, and mismatch (folder pair offsets, interpolation
mirror errors, comparator current offsets) moves those crossings --
which is precisely how INL/DNL arises in the fine LSBs.

The "wiring" (which polarity of each interpolated signal means logic 0
at zero scale) is fixed at design time from the ideal chain, as the
differential routing of a real layout would be.
"""

from __future__ import annotations

import math

import numpy as np

from ..analog.folder import CurrentFolder, FolderBank
from ..analog.interpolator import CurrentInterpolator
from ..devices.mismatch import MismatchModel, PELGROM_180NM
from ..errors import ModelError
from .config import FaiAdcConfig


class FineFoldingPath:
    """The complete fine path of the FAI ADC.

    Attributes:
        config: Converter geometry.
        i_unit: Folder pair tail current [A] -- the PMU's analog knob.
        pair_w / pair_l: Folder pair device size [m] (offset sigma).
        mirror_sigma: Interpolation mirror relative-gain sigma.
        comparator_sigma_rel: Fine comparator current-offset sigma,
            relative to the unit current.
        ideal: Disable every mismatch source.
        seed: Chip seed; the same seed is the same chip.
    """

    def __init__(self, config: FaiAdcConfig, i_unit: float,
                 pair_w: float = 16.0e-6, pair_l: float = 4.0e-6,
                 mirror_sigma: float = 0.003,
                 comparator_sigma_rel: float = 0.005,
                 mismatch: MismatchModel = PELGROM_180NM,
                 ideal: bool = False, seed: int | None = None) -> None:
        if i_unit <= 0.0:
            raise ModelError(f"i_unit must be positive: {i_unit}")
        self.config = config
        self.i_unit = i_unit
        self.pair_w, self.pair_l = pair_w, pair_l
        self.mirror_sigma = mirror_sigma
        self.comparator_sigma_rel = comparator_sigma_rel
        self.mismatch = mismatch
        self.ideal = ideal
        self.seed = seed

        stages = int(math.log2(config.interpolation_factor))
        if 2 ** stages != config.interpolation_factor:
            raise ModelError("interpolation factor must be a power of two")
        self.interpolator = CurrentInterpolator(
            stages=stages,
            mirror_sigma=0.0 if ideal else mirror_sigma)

        base = FolderBank(
            n_folders=config.n_folders,
            full_scale=(config.v_low, config.v_high),
            folding_factor=config.folding_factor,
            n_signals=config.n_fine_signals,
            i_unit=i_unit)

        rng = np.random.default_rng(seed)
        if ideal:
            self.folders = base
            self._gains = None
            self._comp_offsets = np.zeros(config.n_fine_signals)
        else:
            sigma_off = mismatch.sigma_pair_offset(pair_w, pair_l)
            self.folders = [
                CurrentFolder(
                    references=f.references, i_unit=i_unit, tech=f.tech,
                    pair_offsets=tuple(rng.normal(
                        0.0, sigma_off, size=len(f.references))),
                    pair_gain_errors=tuple(rng.normal(
                        0.0, mismatch.sigma_beta(pair_w, pair_l),
                        size=len(f.references))),
                    temperature=f.temperature)
                for f in base]
            self._gains = self.interpolator.sample_gains(
                config.n_folders, rng)
            self._comp_offsets = rng.normal(
                0.0, comparator_sigma_rel,
                size=config.n_fine_signals)

        # Design-time wiring: reference polarities from the ideal chain
        # at the centre of code 0.
        v0 = config.v_low + 0.5 * config.lsb
        ideal_signals = self._signals_of(base, None, np.array([v0]))
        self._ref_positive = ideal_signals[:, 0] > 0.0

    def with_bias(self, i_unit: float) -> "FineFoldingPath":
        """Same chip (same mismatch pattern) at a new unit current."""
        clone = FineFoldingPath.__new__(FineFoldingPath)
        clone.config = self.config
        clone.i_unit = i_unit
        clone.pair_w, clone.pair_l = self.pair_w, self.pair_l
        clone.mirror_sigma = self.mirror_sigma
        clone.comparator_sigma_rel = self.comparator_sigma_rel
        clone.mismatch = self.mismatch
        clone.ideal = self.ideal
        clone.seed = self.seed
        clone.interpolator = self.interpolator
        clone.folders = [f.with_bias(i_unit) for f in self.folders]
        clone._gains = self._gains
        clone._comp_offsets = self._comp_offsets
        clone._ref_positive = self._ref_positive
        return clone

    def _signals_of(self, folders: list[CurrentFolder],
                    gains, v_in: np.ndarray) -> np.ndarray:
        raw = np.stack([f.output_current(v_in) for f in folders])
        return self.interpolator.interpolate(raw, gains)

    def signals(self, v_in: np.ndarray) -> np.ndarray:
        """Interpolated currents: shape (n_fine_signals, n_samples)."""
        v_in = np.atleast_1d(np.asarray(v_in, dtype=float))
        return self._signals_of(self.folders, self._gains, v_in)

    def fine_code(self, v_in: np.ndarray) -> np.ndarray:
        """Cyclic fine comparator word: shape (n_samples, n_signals)."""
        currents = self.signals(v_in)
        # currents > -offsets is exactly currents + offsets > 0 in IEEE
        # arithmetic, without a second float array.
        decisions = currents > -(self._comp_offsets * self.i_unit)[:, None]
        # XOR against the design-time polarity so the code reads 0 at
        # the bottom of the range.
        decisions ^= self._ref_positive[:, None]
        return decisions.T

    def crossing_voltages(self, oversample: int = 64) -> np.ndarray:
        """Measured crossing voltage of every comparator transition.

        Scans the full scale and interpolates each sign change of each
        comparator's effective signal; used by linearity diagnostics.
        """
        cfg = self.config
        grid = np.linspace(cfg.v_low, cfg.v_high,
                           cfg.n_codes * oversample + 1)
        currents = self.signals(grid)
        effective = currents + (self._comp_offsets * self.i_unit)[:, None]
        crossings = []
        for row in effective:
            flips = np.nonzero(np.diff(np.signbit(row)))[0]
            for idx in flips:
                x1, x2 = grid[idx], grid[idx + 1]
                y1, y2 = row[idx], row[idx + 1]
                crossings.append(x1 - y1 * (x2 - x1) / (y2 - y1))
        return np.sort(np.asarray(crossings))

    def calibrated(self, trim_resolution_rel: float = 0.002,
                   trim_range_rel: float = 0.1) -> "FineFoldingPath":
        """Foreground offset calibration (extension beyond the paper).

        Test-time procedure: for each comparator, evaluate its
        effective signal at the ideal code boundaries it should cross,
        average the residual current, and cancel it with a
        per-comparator trim current of ``trim_resolution_rel`` * i_unit
        resolution (a small trim DAC), clamped to +/-``trim_range_rel``.

        Folder reference offsets and interpolation gain errors are
        *also* absorbed to first order, because the trim cancels the
        total residual at the boundaries, whatever its source.  What
        remains is curvature between boundaries and the coarse/ladder
        errors -- visible in the E4 ablation.
        """
        if trim_resolution_rel <= 0.0:
            raise ModelError(
                f"trim resolution must be positive: {trim_resolution_rel}")
        cfg = self.config
        boundaries = np.arange(1, cfg.n_codes + 1)
        voltages = cfg.v_low + boundaries * cfg.lsb
        # keep strictly inside the range (the top boundary is the edge)
        voltages = voltages[voltages < cfg.v_high]
        currents = self.signals(voltages)
        corrections = np.zeros(cfg.n_fine_signals)
        for m in range(cfg.n_fine_signals):
            own = np.nonzero(boundaries[:voltages.size]
                             % cfg.n_fine_signals
                             == (m + 1) % cfg.n_fine_signals)[0]
            if own.size == 0:
                continue
            residual = currents[m, own] / self.i_unit \
                + self._comp_offsets[m]
            corrections[m] = float(np.mean(residual))
        trim = np.round(corrections / trim_resolution_rel) \
            * trim_resolution_rel
        trim = np.clip(trim, -trim_range_rel, trim_range_rel)

        clone = self.with_bias(self.i_unit)
        clone._comp_offsets = self._comp_offsets - trim
        return clone

    def branch_count(self) -> int:
        """Tail/mirror current branches of the fine path (power units)."""
        folder_pairs = sum(len(f.references) for f in self.folders)
        mirrors = self.interpolator.branch_count(self.config.n_folders)
        comparators = self.config.n_fine_signals
        return folder_pairs + mirrors + comparators

    def power(self, vdd: float) -> float:
        """Fine-path static power [W]."""
        return self.branch_count() * self.i_unit * vdd
