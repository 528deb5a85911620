"""The mixed-signal design platform: the paper's headline deliverable.

:class:`MixedSignalPlatform` is the one-object view of the whole system
-- the ADC chip, its encoder, the PLL and the PMU -- with a single
``set_sample_rate`` knob, exactly the usage model of Fig. 1.
:mod:`repro.platform_msys.optimizer` searches the STSCL design space
(V_SW, V_DD, C_L, I_SS) under headroom and noise-margin constraints.
"""

from .platform import MixedSignalPlatform, PlatformReport
from .optimizer import DesignPoint, optimize_gate_design

__all__ = [
    "MixedSignalPlatform", "PlatformReport",
    "DesignPoint", "optimize_gate_design",
]
