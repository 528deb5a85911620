"""repro: an ultra-low-power mixed-signal design platform built on
subthreshold source-coupled circuits.

This library reproduces, end to end, the system described in

    A. Tajalli and Y. Leblebici, "Ultra-Low Power Mixed-Signal Design
    Platform Using Subthreshold Source-Coupled Circuits", DATE 2010.

It contains (bottom to top):

* :mod:`repro.devices` -- EKV subthreshold MOS models, diodes, mismatch,
  process corners (substitute for the 0.18 um foundry PDK);
* :mod:`repro.spice` -- a from-scratch MNA circuit simulator (DC / AC /
  transient), substitute for the commercial simulator;
* :mod:`repro.stscl` -- the STSCL gate: analytic models, cell library,
  transistor-level netlist generators, Eq. (1) power model, minimum
  supply, the pipelined adder of ref. [13];
* :mod:`repro.digital` -- gate-level netlists, cycle simulation, STA,
  the ADC's 196-gate encoder, the subthreshold-CMOS baseline;
* :mod:`repro.analog` -- current-mode folder / interpolator / preamp /
  scalable reference ladder (Figs. 5-7);
* :mod:`repro.adc` -- the 8-bit folding-and-interpolating ADC and its
  metrology (INL / DNL / ENOB);
* :mod:`repro.pmu` -- the single bias controller that scales analog and
  digital together;
* :mod:`repro.platform_msys` -- the mixed-signal platform front end;
* :mod:`repro.analysis` -- Monte-Carlo, yield and noise-budget machinery.

Quick taste (see ``examples/quickstart.py`` for the narrated version)::

    from repro.stscl import StsclGateDesign
    gate = StsclGateDesign.default(i_ss=1e-9)
    print(gate.delay(), gate.power(vdd=1.0))
"""

from . import constants, errors, units

__version__ = "1.0.0"

__all__ = ["constants", "units", "errors", "__version__"]
