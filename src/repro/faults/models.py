"""Declarative fault models for circuits and converters.

A :class:`FaultModel` knows how to turn a healthy target -- a
:class:`~repro.spice.netlist.Circuit` or a
:class:`~repro.adc.fai.FaiAdc` -- into its faulted twin.  Models never
mutate a shared object behind the caller's back: circuit faults mutate
the *fresh* instance handed to :meth:`FaultModel.apply` (campaigns
rebuild the target per fault), and converter faults return a
:class:`FaultedAdc` wrapper, leaving the chip itself untouched.

The catalogue mirrors how real silicon degrades:

* :class:`StuckComparator` -- a latch output frozen high/low
  (metastability hard-failure, broken reset);
* :class:`BiasBranchOpen` -- a tail/bias branch electromigrated open:
  on a circuit, a current source delivering nothing; on a converter, a
  comparator bank with no tail current whose decisions never fire;
* :class:`BridgedNodes` -- a resistive short between two nets
  (particle defect, whisker);
* :class:`VtOutlier` -- one device's threshold far off its Pelgrom
  distribution (gate-oxide charge trapping);
* :class:`ResistorDrift` -- a resistor aged away from its drawn value.
"""

from __future__ import annotations

import abc
from dataclasses import replace as _dc_replace

import numpy as np

from ..adc.fai import AdcBiasPoint, FaiAdc
from ..digital.encoder import EncoderSpec
from ..errors import FaultInjectionError
from ..spice.elements import CurrentSource, MosElement, Resistor
from ..spice.netlist import Circuit
from ..spice.waveforms import dc_wave


class FaultedAdc:
    """A converter with comparator outputs forced after the analog
    front end.

    Drop-in for :class:`~repro.adc.fai.FaiAdc`: every conversion
    (``convert_batch``, ``sample_and_convert``, the test harnesses in
    :mod:`repro.adc.testbench`) encodes this wrapper's :meth:`raw_words`,
    and a rebiased chip (``with_bias``, so also
    :meth:`~repro.pmu.controller.PowerManagementUnit.tuned_adc`) keeps
    its stuck bits.  Everything else delegates to the wrapped chip.

    Attributes:
        adc: The healthy chip underneath.
        stuck_fine: Fine comparator index -> forced boolean.
        stuck_coarse: Coarse comparator index -> forced boolean.
        spec: Encoder configuration used for the decode (defaults to
            the chip's own).
    """

    def __init__(self, adc: FaiAdc, stuck_fine: dict[int, bool] | None = None,
                 stuck_coarse: dict[int, bool] | None = None,
                 spec: EncoderSpec | None = None) -> None:
        if isinstance(adc, FaultedAdc):  # compose faults onto one wrapper
            stuck_fine = {**adc.stuck_fine, **(stuck_fine or {})}
            stuck_coarse = {**adc.stuck_coarse, **(stuck_coarse or {})}
            spec = spec or adc.spec
            adc = adc.adc
        self.adc = adc
        self.stuck_fine = dict(stuck_fine or {})
        self.stuck_coarse = dict(stuck_coarse or {})
        self.spec = spec or adc.spec

    def __getattr__(self, attribute: str):
        return getattr(self.adc, attribute)

    def raw_words(self, v_in: np.ndarray,
                  noisy: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The chip's raw words with the stuck bits forced."""
        coarse, fine = self.adc.raw_words(v_in, noisy=noisy)
        coarse = coarse.copy()
        fine = fine.copy()
        for index, value in self.stuck_coarse.items():
            coarse[:, index] = value
        for index, value in self.stuck_fine.items():
            fine[:, index] = value
        return coarse, fine

    def with_bias(self, bias: AdcBiasPoint) -> "FaultedAdc":
        """The rebiased chip with the same stuck bits."""
        return FaultedAdc(self.adc.with_bias(bias), self.stuck_fine,
                          self.stuck_coarse, self.spec)

    def calibrated(self, trim_resolution_rel: float = 0.002) -> "FaultedAdc":
        """The fine-trimmed chip with the same stuck bits."""
        return FaultedAdc(self.adc.calibrated(trim_resolution_rel),
                          self.stuck_fine, self.stuck_coarse, self.spec)

    # The chip's own conversions, run on this wrapper: they read
    # ``raw_words`` and ``spec`` from ``self``, so a fault has one
    # encode route.  ``scaled`` rebiases through :meth:`with_bias`.
    convert_batch = FaiAdc.convert_batch
    sample_and_convert = FaiAdc.sample_and_convert
    scaled = FaiAdc.scaled


class FaultModel(abc.ABC):
    """One declarative fault, applicable to a fresh target."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable label used in campaign reports."""

    @abc.abstractmethod
    def apply(self, target):
        """Return the faulted target.

        Circuit faults mutate and return ``target``; converter faults
        return a :class:`FaultedAdc` wrapping it.  Raises
        :class:`~repro.errors.FaultInjectionError` when the fault does
        not fit the target.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FaultInjectionError(message)


class StuckComparator(FaultModel):
    """A comparator output frozen at a constant value.

    ``path`` is ``"fine"`` or ``"coarse"``; ``index`` is the comparator
    position in that bank; ``value`` the frozen level.
    """

    def __init__(self, path: str, index: int, value: bool) -> None:
        _require(path in ("fine", "coarse"),
                 f"path must be 'fine' or 'coarse', got {path!r}")
        _require(index >= 0, f"comparator index must be >= 0: {index}")
        self.path = path
        self.index = index
        self.value = bool(value)

    @property
    def name(self) -> str:
        level = "high" if self.value else "low"
        return f"stuck-{self.path}[{self.index}]-{level}"

    def apply(self, target):
        _require(isinstance(target, (FaiAdc, FaultedAdc)),
                 f"{self.name} applies to converters, "
                 f"not {type(target).__name__}")
        stuck = {self.index: self.value}
        if self.path == "fine":
            _require(self.index < target.config.n_fine_signals,
                     f"fine comparator {self.index} out of range")
            return FaultedAdc(target, stuck_fine=stuck)
        _require(self.index < target.config.n_segments - 1,
                 f"coarse comparator {self.index} out of range")
        return FaultedAdc(target, stuck_coarse=stuck)


class BiasBranchOpen(FaultModel):
    """A bias branch electromigrated open.

    On a :class:`Circuit`: the named :class:`CurrentSource` delivers
    zero current.  On a converter: the named comparator bank
    (``"fine"`` or ``"coarse"``) loses its tail current, so every
    decision in it is frozen at the reset (low) level.
    """

    def __init__(self, branch: str) -> None:
        self.branch = branch

    @property
    def name(self) -> str:
        return f"bias-open-{self.branch}"

    def apply(self, target):
        if isinstance(target, (FaiAdc, FaultedAdc)):
            _require(self.branch in ("fine", "coarse"),
                     f"converter bias branch must be 'fine' or 'coarse', "
                     f"got {self.branch!r}")
            if self.branch == "fine":
                stuck = {k: False
                         for k in range(target.config.n_fine_signals)}
                return FaultedAdc(target, stuck_fine=stuck)
            stuck = {k: False for k in range(target.config.n_segments - 1)}
            return FaultedAdc(target, stuck_coarse=stuck)
        _require(isinstance(target, Circuit),
                 f"{self.name} applies to circuits or converters, "
                 f"not {type(target).__name__}")
        element = target.element(self.branch)
        _require(isinstance(element, CurrentSource),
                 f"{self.branch!r} is not a current source; only current "
                 f"branches can open")
        element.waveform = dc_wave(0.0)
        return target


class BridgedNodes(FaultModel):
    """A resistive short (defect bridge) between two nets."""

    def __init__(self, node_a: str, node_b: str,
                 resistance: float = 1.0) -> None:
        _require(resistance > 0.0,
                 f"bridge resistance must be positive: {resistance}")
        _require(node_a != node_b, "bridge needs two distinct nodes")
        self.node_a = node_a
        self.node_b = node_b
        self.resistance = resistance

    @property
    def name(self) -> str:
        return f"bridge-{self.node_a}-{self.node_b}"

    def apply(self, target):
        _require(isinstance(target, Circuit),
                 f"{self.name} applies to circuits, "
                 f"not {type(target).__name__}")
        known = set(target.node_names) | {"0", "gnd"}
        for node in (self.node_a, self.node_b):
            _require(node in known or node.lower() in ("0", "gnd"),
                     f"unknown node {node!r} for bridge")
        target.add_resistor(f"fault.{self.name}", self.node_a, self.node_b,
                            self.resistance)
        return target


class VtOutlier(FaultModel):
    """One transistor's threshold far outside its mismatch
    distribution."""

    def __init__(self, element: str, shift: float) -> None:
        self.element = element
        self.shift = shift

    @property
    def name(self) -> str:
        return f"vt-outlier-{self.element}"

    def apply(self, target):
        _require(isinstance(target, Circuit),
                 f"{self.name} applies to circuits, "
                 f"not {type(target).__name__}")
        element = target.element(self.element)
        _require(isinstance(element, MosElement),
                 f"{self.element!r} is not a MOS transistor")
        # Copy the device: Mosfet instances are commonly shared between
        # elements, and only this one is the outlier.
        element.device = _dc_replace(
            element.device, vt_shift=element.device.vt_shift + self.shift)
        return target


class ResistorDrift(FaultModel):
    """A resistor aged away from its drawn value by ``factor``."""

    def __init__(self, element: str, factor: float) -> None:
        _require(factor > 0.0, f"drift factor must be positive: {factor}")
        self.element = element
        self.factor = factor

    @property
    def name(self) -> str:
        return f"r-drift-{self.element}-x{self.factor:g}"

    def apply(self, target):
        _require(isinstance(target, Circuit),
                 f"{self.name} applies to circuits, "
                 f"not {type(target).__name__}")
        element = target.element(self.element)
        _require(isinstance(element, Resistor),
                 f"{self.element!r} is not a resistor")
        element.resistance *= self.factor
        return target
