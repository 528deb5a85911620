"""Statistical analysis machinery: Monte-Carlo, yield and the noise
budget.

These drive the PVT and mismatch experiments (E4, E6) and are generic
enough to reuse on any model in the library.
"""

from .montecarlo import MonteCarlo, MonteCarloRun, MonteCarloSummary
from .yield_est import estimate_yield, YieldReport
from .noise import (
    StageNoise,
    adc_noise_budget,
    chain_input_noise,
    scl_stage_noise,
)

__all__ = [
    "MonteCarlo", "MonteCarloRun", "MonteCarloSummary",
    "estimate_yield", "YieldReport",
    "StageNoise", "adc_noise_budget", "chain_input_noise",
    "scl_stage_noise",
]
