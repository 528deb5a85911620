"""Power management: the paper's single-knob power-frequency scaling.

Fig. 1's architecture: a PLL (or an external reference) defines the
operating frequency; one control current derived from it biases the
analog blocks, and a fixed fraction of it biases the STSCL replica
generator -- so the *entire* mixed-signal system scales with one knob.
This package provides the behavioural PLL, the PMU proper, and
energy-harvesting supply profiles for the supply-insensitivity
experiments (E7).
"""

from .controller import PmuOperatingPoint, PowerManagementUnit
from .pll import BehavioralPll, PllReport
from .harvesting import (
    HarvestingProfile,
    solar_profile,
    vibration_profile,
    supply_excursion_ok,
)

__all__ = [
    "PmuOperatingPoint", "PowerManagementUnit",
    "BehavioralPll", "PllReport",
    "HarvestingProfile", "solar_profile", "vibration_profile",
    "supply_excursion_ok",
]
