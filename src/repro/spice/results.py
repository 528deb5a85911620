"""Analysis result containers.

All results are plain data keyed by node / element names so downstream
code never touches MNA indices.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError


class SolutionView(Mapping):
    """Read-only ``name -> x[row]`` view of one solution vector.

    Reads ``x[index[name]]`` as a Python float on access, so a result
    holds its solution vector and one of the compiled circuit's shared
    indices (node voltages, branch currents) instead of a dict with one
    entry per name.  Compares, iterates and pickles like the dict it
    replaces.
    """

    __slots__ = ("_index", "_x")

    def __init__(self, index: dict[str, int], x: np.ndarray) -> None:
        self._index = index
        self._x = x

    def __getitem__(self, name: str) -> float:
        return float(self._x[self._index[name]])

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass
class OpResult:
    """A DC operating point.

    Attributes:
        voltages: Node name -> voltage [V] (ground omitted); a solved
            point's is a :class:`SolutionView` of ``x``.
        branch_currents: Name of top-level voltage-defined element
            (independent voltage source, VCVS) -> branch current [A]
            (positive from + node through the element); a solved
            point's is a :class:`SolutionView` of ``x``.
        device_ops: MOS element name -> :class:`MosOperatingPoint`.
        iterations: Newton iterations used.
        x: Raw solution vector (for warm starts); None for a failed
            sweep point recorded under ``on_error="skip"``.
        diagnostics: The solver's forensic record
            (:class:`repro.spice.strategies.SolverDiagnostics`) -- which
            homotopy stage rescued the solve, per-stage iteration counts
            and residual trajectories.
    """

    voltages: Mapping[str, float]
    branch_currents: Mapping[str, float]
    device_ops: dict[str, object] = field(default_factory=dict)
    iterations: int = 0
    x: np.ndarray | None = None
    diagnostics: object | None = None

    @property
    def converged(self) -> bool:
        """False only for NaN placeholder points of a skipping sweep."""
        return self.x is not None

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` [V]; ground is 0 by definition."""
        if node.lower() in ("0", "gnd"):
            return 0.0
        try:
            return self.voltages[node]
        except KeyError:
            raise AnalysisError(f"no node {node!r} in result") from None

    def vdiff(self, node_pos: str, node_neg: str) -> float:
        """Differential voltage between two nodes [V]."""
        return self.voltage(node_pos) - self.voltage(node_neg)

    def current(self, element: str) -> float:
        """Branch current of a voltage-defined element [A]."""
        try:
            return self.branch_currents[element]
        except KeyError:
            raise AnalysisError(
                f"element {element!r} has no branch current") from None


@dataclass
class SweepResult:
    """A DC sweep: one operating point per swept value.

    Attributes:
        failures: ``(index, message)`` per non-converging point recorded
            under ``on_error="skip"`` (empty when everything converged).
    """

    parameter: str
    values: np.ndarray
    points: list[OpResult]
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def failed_indices(self) -> list[int]:
        """Sweep indices whose points hold NaN placeholders."""
        return [index for index, _message in self.failures]

    def voltage(self, node: str) -> np.ndarray:
        """Array of node voltages across the sweep (NaN at failures)."""
        return np.array([p.voltage(node) for p in self.points])

    def current(self, element: str) -> np.ndarray:
        """Array of branch currents across the sweep (NaN at failures)."""
        return np.array([p.current(element) for p in self.points])


@dataclass
class AcResult:
    """Small-signal frequency response.

    ``voltages[node]`` is a complex array over ``frequencies``.
    """

    frequencies: np.ndarray
    voltages: dict[str, np.ndarray]

    def transfer(self, node: str) -> np.ndarray:
        """Complex response at ``node`` (excitation is unit magnitude)."""
        try:
            return self.voltages[node]
        except KeyError:
            raise AnalysisError(f"no node {node!r} in AC result") from None

    def magnitude_db(self, node: str) -> np.ndarray:
        """|H| in dB at ``node``."""
        mag = np.abs(self.transfer(node))
        return 20.0 * np.log10(np.maximum(mag, 1e-300))

    def phase_deg(self, node: str) -> np.ndarray:
        """Unwrapped phase in degrees at ``node``."""
        return np.degrees(np.unwrap(np.angle(self.transfer(node))))

    def bandwidth_3db(self, node: str) -> float:
        """-3 dB frequency relative to the lowest-frequency magnitude."""
        mags = np.abs(self.transfer(node))
        reference = mags[0]
        if reference <= 0.0:
            raise AnalysisError("zero reference magnitude")
        threshold = reference / np.sqrt(2.0)
        below = np.nonzero(mags < threshold)[0]
        if below.size == 0:
            return float(self.frequencies[-1])
        k = int(below[0])
        if k == 0:
            return float(self.frequencies[0])
        # Log-linear interpolation between the straddling points.
        f1, f2 = self.frequencies[k - 1], self.frequencies[k]
        m1, m2 = mags[k - 1], mags[k]
        if m1 == m2:
            return float(f2)
        frac = (m1 - threshold) / (m1 - m2)
        return float(f1 * (f2 / f1) ** frac)


@dataclass
class TranResult:
    """Transient waveforms.

    Attributes:
        time: Sample instants [s].
        voltages: Node name -> array of voltages.
        branch_currents: Element name -> array of branch currents.
        telemetry: Step-acceptance record of the run
            (:class:`repro.spice.transient.TransientTelemetry`).
    """

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    branch_currents: dict[str, np.ndarray] = field(default_factory=dict)
    telemetry: object | None = None

    def voltage(self, node: str) -> np.ndarray:
        if node.lower() in ("0", "gnd"):
            return np.zeros_like(self.time)
        try:
            return self.voltages[node]
        except KeyError:
            raise AnalysisError(f"no node {node!r} in result") from None

    def vdiff(self, node_pos: str, node_neg: str) -> np.ndarray:
        return self.voltage(node_pos) - self.voltage(node_neg)

    def crossing_times(self, node: str, level: float,
                       rising: bool | None = None) -> np.ndarray:
        """Interpolated times where the waveform crosses ``level``.

        ``rising`` filters the edge direction; None keeps both.
        Delegates to the shared crossing kernel of
        :mod:`repro.scope.measure` (so dense results and triggered
        captures measure identically); NaN-polluted records raise a
        clean :class:`~repro.errors.AnalysisError`.
        """
        from ..scope.measure import crossings

        return crossings(self.time, self.voltage(node), level, rising)

    def value_at(self, node: str, when: float) -> float:
        """Linearly interpolated voltage of ``node`` at time ``when``."""
        return float(np.interp(when, self.time, self.voltage(node)))
