"""Power-scalable subthreshold current-mode analog blocks (paper Sec. II-B
and III-A).

Everything here is built on the same source-coupled primitive as the
STSCL gates, which is the paper's central point: scaling one bias
current scales the bandwidth of every block while gains, swings and
phase margins stay put (the exponential I-V keeps bias *voltages*
logarithmic in current).

Blocks: transconductor, the current-mode folder and interpolator of
Fig. 5, the pre-amplifier with the D_Well-decoupling load trick of
Fig. 6, the regenerative comparator, the tunable high-value PMOS
resistor ladder of Fig. 7, and the gm-C biquad.
"""

from .transconductor import SubthresholdTransconductor
from .folder import CurrentFolder, FolderBank
from .interpolator import CurrentInterpolator
from .preamp import Preamp, preamp_output_circuit
from .comparator import Comparator, ComparatorBank
from .ladder import PmosResistor, ResistorLadder, LadderBiasScheme
from .filters import GmCBiquad, gm_c_biquad_circuit

__all__ = [
    "SubthresholdTransconductor",
    "CurrentFolder", "FolderBank",
    "CurrentInterpolator",
    "Preamp", "preamp_output_circuit",
    "Comparator", "ComparatorBank",
    "PmosResistor", "ResistorLadder", "LadderBiasScheme",
    "GmCBiquad", "gm_c_biquad_circuit",
]
