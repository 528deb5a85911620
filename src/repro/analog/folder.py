"""Current-mode folding stage (paper Fig. 5a, after Flynn & Allstot [14]).

A folder converts the input voltage to a differential current and folds
it with a row of current-steering cells whose references are spaced one
fold apart: as the input sweeps the full scale, the differential output
current zig-zags, crossing zero once per fold.  The fine ADC then only
needs to digitise *within* one fold.

Behavioural model: between consecutive zero crossings the output is a
sine arch of alternating polarity.  For a matched folder this glues
into a single sinusoid of period two folds -- the standard behavioural
abstraction of a current-mode folder, with two properties that are also
true of the silicon:

* zero crossings sit exactly on the (offset-shifted) references, which
  is where all the fine-code information lives;
* current-averaging interpolation between two staggered folders is
  *exact* at every stage (sin a + sin b = 2 sin((a+b)/2) cos(...)), so
  an ideal chain has zero INL and every non-linearity in the model
  comes from an explicit, physical mismatch term.

Mismatch enters as per-crossing reference offsets (folder pair V_T
mismatch) and per-pair gain errors (arch amplitude imbalance, which
deflects *interpolated* crossings -- the ref. [15] distortion
mechanism).

In the paper the folder's output is split 1:1:2 so that the first 2x
interpolation stage merges into the folder itself; :meth:`outputs_1_1_2`
exposes exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..constants import T_NOMINAL
from ..devices.parameters import GENERIC_180NM, Technology
from ..errors import ModelError


@dataclass(frozen=True)
class CurrentFolder:
    """One folding amplifier.

    Attributes:
        references: Zero-crossing reference voltages, ascending [V].
            Include dummy references beyond the conversion range (see
            :func:`FolderBank`) so edge crossings behave like interior
            ones.
        i_unit: Tail current of each folding cell = arch amplitude [A].
        tech: Technology (kept for bias-voltage queries).
        pair_offsets: Per-crossing input-referred offsets [V]
            (mismatch); zeros when ideal.
        pair_gain_errors: Per-crossing relative current errors
            (mismatch); they scale the adjacent arch amplitudes.
        temperature: Junction temperature [K].
    """

    references: tuple[float, ...]
    i_unit: float
    tech: Technology = field(default_factory=lambda: GENERIC_180NM)
    pair_offsets: tuple[float, ...] = ()
    pair_gain_errors: tuple[float, ...] = ()
    temperature: float = T_NOMINAL

    def __post_init__(self) -> None:
        if self.i_unit <= 0.0:
            raise ModelError(f"i_unit must be positive: {self.i_unit}")
        if len(self.references) < 2:
            raise ModelError("folder needs at least two references")
        refs = list(self.references)
        if any(a >= b for a, b in zip(refs, refs[1:])):
            raise ModelError("references must be strictly ascending")
        for name, extras in (("pair_offsets", self.pair_offsets),
                             ("pair_gain_errors", self.pair_gain_errors)):
            if extras and len(extras) != len(refs):
                raise ModelError(
                    f"{name} must match the reference count "
                    f"({len(extras)} vs {len(refs)})")

    @property
    def folding_factor(self) -> int:
        """Number of zero crossings (including dummies)."""
        return len(self.references)

    def with_bias(self, i_unit: float) -> "CurrentFolder":
        """Retuned copy (the PMU scaling operation)."""
        return CurrentFolder(
            references=self.references, i_unit=i_unit, tech=self.tech,
            pair_offsets=self.pair_offsets,
            pair_gain_errors=self.pair_gain_errors,
            temperature=self.temperature)

    def crossing_positions(self) -> np.ndarray:
        """Actual crossing voltages: references plus offsets [V]."""
        refs = np.asarray(self.references, dtype=float)
        if self.pair_offsets:
            refs = refs + np.asarray(self.pair_offsets, dtype=float)
        return refs

    @cached_property
    def _arches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """Interior crossings plus each arch's start, width and signed
        amplitude.

        Computed once per folder, on its first evaluation.  A folder
        whose offsets reorder the crossings raises here, at every call,
        as nothing is cached then.
        """
        crossings = self.crossing_positions()
        width = np.diff(crossings)
        if np.any(width <= 0.0):
            raise ModelError(
                "mismatch offsets reordered the crossings; "
                "folder is broken (offsets too large for the pitch)")
        gains = (1.0 + np.asarray(self.pair_gain_errors, dtype=float)
                 if self.pair_gain_errors
                 else np.ones(len(self.references)))
        amplitude = 0.5 * (gains[:-1] + gains[1:]) * self.i_unit
        amplitude[1::2] *= -1.0
        return crossings[1:-1], crossings[:-1], width, amplitude

    def output_current(self, vin: np.ndarray | float) -> np.ndarray | float:
        """Folded differential output current [A]."""
        v = np.atleast_1d(np.asarray(vin, dtype=float))
        interior, start, width, amplitude = self._arches
        # The arch holding v; the outer arches extend past the ends.
        k = np.searchsorted(interior, v)
        t = v - start[k]
        t /= width[k]
        t *= np.pi
        result = np.sin(t, out=t)
        result *= amplitude[k]
        return float(result[0]) if np.isscalar(vin) else result

    def outputs_1_1_2(self, vin: np.ndarray | float) -> tuple:
        """The paper's three-way output split (I, I, 2I) of Fig. 5a.

        The double-weight branch feeds the merged first interpolation
        stage; the two unit branches feed the neighbouring interpolators.
        """
        base = self.output_current(vin)
        return (base, base, 2.0 * np.asarray(base, dtype=float))

    def crossing_estimates(self, span: tuple[float, float],
                           points: int = 4001) -> np.ndarray:
        """Numerically locate the output zero crossings inside ``span``.

        Used by tests to confirm crossings land on the references (and
        to measure how far mismatch moves them).
        """
        grid = np.linspace(span[0], span[1], points)
        current = self.output_current(grid)
        sign_change = np.nonzero(np.diff(np.signbit(current)))[0]
        crossings = []
        for idx in sign_change:
            x1, x2 = grid[idx], grid[idx + 1]
            y1, y2 = current[idx], current[idx + 1]
            crossings.append(x1 - y1 * (x2 - x1) / (y2 - y1))
        return np.asarray(crossings)


def FolderBank(n_folders: int, full_scale: tuple[float, float],
               folding_factor: int, n_signals: int, i_unit: float,
               dummy_folds: int = 2,
               tech: Technology | None = None,
               temperature: float = T_NOMINAL) -> list[CurrentFolder]:
    """Build the staggered folder bank of an FAI fine path.

    ``n_folders`` folders each fold the range ``folding_factor`` times;
    interpolation later expands them to ``n_signals`` signals (one per
    fine LSB).  Folder j's first in-range crossing is placed at

        lo + LSB * (j * n_signals / n_folders + 1)

    so that after interpolation, signal m's crossings sit exactly at
    code boundaries m+1, m+1+n_signals, ... -- the convention of
    :func:`repro.digital.encoder.cyclic_fine_thermometer`.

    ``dummy_folds`` extra references beyond each range end keep the
    edge arches shaped like interior ones (the standard dummy-folding-
    cell technique); their tail currents are real and counted by the
    power model.
    """
    if n_folders < 1:
        raise ModelError(f"n_folders must be >= 1: {n_folders}")
    if n_signals % n_folders != 0:
        raise ModelError(
            f"n_signals ({n_signals}) must be a multiple of "
            f"n_folders ({n_folders})")
    if dummy_folds < 1:
        raise ModelError(f"dummy_folds must be >= 1: {dummy_folds}")
    lo, hi = full_scale
    if hi <= lo:
        raise ModelError("full_scale must be an ascending pair")
    tech = tech or GENERIC_180NM
    fold_width = (hi - lo) / folding_factor
    lsb = fold_width / n_signals
    stride = n_signals // n_folders
    folders = []
    for j in range(n_folders):
        refs = tuple(lo + lsb * (j * stride + 1) + k * fold_width
                     for k in range(-dummy_folds,
                                    folding_factor + dummy_folds))
        folders.append(CurrentFolder(
            references=refs, i_unit=i_unit, tech=tech,
            temperature=temperature))
    return folders
