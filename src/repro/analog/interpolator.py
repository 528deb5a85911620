"""Current-mode interpolation (paper Fig. 5b).

Interpolation synthesises additional zero crossings *between* folder
outputs by current averaging: the midpoint signal (I_a + I_b)/2 crosses
zero halfway between the crossings of I_a and I_b (exactly so for
matched folders in the linear region).  Because the averaging is done
with current mirrors, its only error source is mirror gain mismatch --
and its bandwidth scales with the same bias current as everything else.

The paper interpolates by 8 in total: x2 merged into the folder plus
two x2 stages of this circuit.  Mirror mismatch is *frozen per chip*:
:meth:`CurrentInterpolator.sample_gains` draws one set of gains that
every subsequent conversion reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError


@dataclass(frozen=True)
class CurrentInterpolator:
    """A chain of 2x current-averaging interpolation stages.

    Attributes:
        stages: Number of 2x stages (3 stages turn 4 folders into 32
            signals, the paper's factor 8).
        mirror_sigma: Std-dev of each averaging mirror's relative gain
            error (used by :meth:`sample_gains`).
        merged_first_stage: When True the first stage's mirrors are
            ideal -- it is merged into the folder output split (the
            paper's 1:1:2 trick of Fig. 5a).
    """

    stages: int = 3
    mirror_sigma: float = 0.0
    merged_first_stage: bool = True

    def __post_init__(self) -> None:
        if self.stages < 0:
            raise ModelError(f"stages must be >= 0: {self.stages}")
        if self.mirror_sigma < 0.0:
            raise ModelError(
                f"mirror_sigma must be >= 0: {self.mirror_sigma}")

    @property
    def factor(self) -> int:
        """Signal-count multiplication of the whole chain."""
        return 2 ** self.stages

    def sample_gains(self, n_inputs: int,
                     rng: np.random.Generator) -> list[np.ndarray]:
        """Draw one chip's frozen mirror gains.

        Returns, per stage, an array of shape (n_midpoints, 2): the two
        mirror gains feeding each averaged signal.
        """
        gains = []
        n = n_inputs
        for stage in range(self.stages):
            sigma = self.mirror_sigma
            if stage == 0 and self.merged_first_stage:
                sigma = 0.0
            gains.append(1.0 + rng.normal(0.0, sigma, size=(n, 2))
                         if sigma > 0.0 else np.ones((n, 2)))
            n *= 2
        return gains

    def interpolate(self, signals: np.ndarray,
                    gains: list[np.ndarray] | None = None) -> np.ndarray:
        """Run the chain over ``signals``.

        ``signals`` has shape (n_signals, ...) with axis 0 enumerating
        the folded signals in crossing order; the set is treated as
        *cyclic* (past the last signal the next crossing belongs to the
        first signal inverted -- the physical wrap of a folded bank).
        ``gains`` (see :meth:`sample_gains`) holds one (n, 2) array per
        stage, n being the stage's signal count; any other count or
        shape raises :class:`ModelError`.
        Returns shape (n_signals * 2**stages, ...).
        """
        inputs = np.asarray(signals, dtype=float)
        if inputs.ndim < 1 or inputs.shape[0] < 1:
            raise ModelError("need at least one input signal")
        if gains is not None and len(gains) != self.stages:
            raise ModelError(
                f"expected {self.stages} gain arrays, got {len(gains)}")
        # One output buffer: the inputs sit on every factor-th row, and
        # stage s fills the midpoint rows between its n * 2**s signals;
        # the signal past the last one is the first, inverted.
        out = np.empty((inputs.shape[0] * self.factor,) + inputs.shape[1:])
        out[::self.factor] = inputs
        for stage in range(self.stages):
            step = self.factor >> stage
            current = out[::step]
            mid = out[step // 2::step]
            n = current.shape[0]
            stage_gains = (np.ones((n, 2)) if gains is None
                           else np.asarray(gains[stage], dtype=float))
            if stage_gains.shape != (n, 2):
                raise ModelError(
                    f"stage {stage} gains shaped {stage_gains.shape}, "
                    f"expected ({n}, 2)")
            g_a, g_b = stage_gains.T.reshape((2, n) + (1,) * (out.ndim - 1))
            np.multiply(g_b[:-1], current[1:], out=mid[:-1])
            np.multiply(-g_b[-1:], current[:1], out=mid[-1:])
            mid += g_a * current
            mid *= 0.5
        return out

    def branch_count(self, n_inputs: int) -> int:
        """Current branches (power units) of the non-merged stages."""
        total = 0
        n = n_inputs
        for stage in range(self.stages):
            if not (stage == 0 and self.merged_first_stage):
                total += 2 * n  # two mirrors per generated midpoint
            n *= 2
        return total
