"""Power management: the paper's single-knob power-frequency scaling.

Fig. 1's architecture: a PLL (or an external reference) defines the
operating frequency; one control current derived from it biases the
analog blocks, and a fixed fraction of it biases the STSCL replica
generator -- so the *entire* mixed-signal system scales with one knob.
This package provides the PMU proper, which maps the sampling rate
straight to every bias current (the PLL's frequency-to-current
translation, without its lock dynamics), and energy-harvesting supply
profiles for the supply-insensitivity experiments (E7).
"""

from .controller import PmuOperatingPoint, PowerManagementUnit
from .harvesting import (
    HarvestingProfile,
    solar_profile,
    vibration_profile,
    supply_excursion_ok,
)

__all__ = [
    "PmuOperatingPoint", "PowerManagementUnit",
    "HarvestingProfile", "solar_profile", "vibration_profile",
    "supply_excursion_ok",
]
