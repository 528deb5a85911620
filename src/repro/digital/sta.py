"""Static timing analysis on the STSCL delay law.

Path delays accumulate ``cell.delay_factor() * design.delay()`` through
the combinational graph; sequential cells cut paths.  The resulting
maximum clock rate feeds the paper's Eq. (1) reasoning: at full
pipelining (depth one cell) the encoder runs at
``design.max_frequency(1)`` -- the Fig. 9a line.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError
from ..stscl.gate_model import StsclGateDesign
from .netlist import GateNetlist


@dataclass(frozen=True)
class TimingReport:
    """Result of a timing analysis.

    Attributes:
        critical_path: Gate names along the slowest
            register-to-register segment, in order.
        critical_delay: Its total propagation delay [s].
        weighted_depth: Critical delay expressed in base gate delays.
        f_max: Maximum clock frequency [Hz] with the half-period
            settling criterion the paper's Eq. (1) encodes.
        n_tails: Tail-current count of the netlist (power units).
    """

    critical_path: tuple[str, ...]
    critical_delay: float
    weighted_depth: float
    f_max: float
    n_tails: int

    def power(self, design: StsclGateDesign, vdd: float) -> float:
        """Total static power of the block at the design bias [W]."""
        return self.n_tails * design.power(vdd)


def analyze_timing(netlist: GateNetlist, design: StsclGateDesign,
                   delay_scale: dict[str, float] | None = None
                   ) -> TimingReport:
    """Longest-path analysis of ``netlist`` at ``design``'s bias point.

    ``delay_scale`` optionally multiplies each named gate's delay -- the
    hook :func:`timing_yield_under_mismatch` uses to inject per-gate
    tail-current mismatch (delay ~ 1/I_SS).
    """
    import networkx as nx

    netlist.validate()
    base_delay = design.delay()
    graph = netlist.combinational_graph()

    # Every timed gate contributes its own delay; sequential cells
    # contribute their evaluation delay but start a new path.
    arrival: dict[str, float] = {}
    parent: dict[str, str | None] = {}
    for name in nx.topological_sort(graph):
        gate = netlist.gate(name)
        own = gate.cell.delay_factor() * base_delay
        if delay_scale is not None:
            own *= delay_scale.get(name, 1.0)
        best_pred, best_t = None, 0.0
        for pred in graph.predecessors(name):
            if arrival[pred] > best_t:
                best_t, best_pred = arrival[pred], pred
        arrival[name] = best_t + own
        parent[name] = best_pred

    if not arrival:
        raise AnalysisError("netlist has no gates to time")
    end = max(arrival, key=arrival.get)
    path = []
    cursor: str | None = end
    while cursor is not None:
        path.append(cursor)
        cursor = parent[cursor]
    path.reverse()

    critical_delay = arrival[end]
    weighted_depth = critical_delay / base_delay
    f_max = 1.0 / (2.0 * critical_delay)
    return TimingReport(
        critical_path=tuple(path),
        critical_delay=critical_delay,
        weighted_depth=weighted_depth,
        f_max=f_max,
        n_tails=netlist.tail_count())


def timing_yield_under_mismatch(netlist: GateNetlist,
                                design: StsclGateDesign,
                                n_chips: int = 25,
                                seed: int = 0) -> dict[str, float]:
    """f_max statistics under per-gate tail-current mismatch.

    Sec. III-B: "using large enough transistor sizes can minimize the
    effect of current mismatch both in analog and digital parts".  Each
    gate's tail current is mirrored from the shared reference, so its
    error follows the weak-inversion mirror sigma of the tail device
    size; the gate delay scales as 1/I_SS.

    Returns a dict with keys ``nominal``, ``mean``, ``std``, ``p05``
    (all f_max values in Hz) and ``sigma_mirror`` (the per-gate current
    sigma used).
    """
    import numpy as np

    from ..constants import thermal_voltage
    from ..devices.mismatch import PELGROM_180NM

    ut = thermal_voltage(design.temperature)
    sigma = PELGROM_180NM.sigma_mirror_gain(
        design.tail_w, design.tail_l, design.tech.nmos_hvt.n, ut)
    rng = np.random.default_rng(seed)
    nominal = analyze_timing(netlist, design).f_max
    names = [g.name for g in netlist.gates]
    samples = []
    for _chip in range(n_chips):
        factors = np.maximum(0.2, 1.0 + rng.normal(0.0, sigma,
                                                   size=len(names)))
        scale = {name: 1.0 / float(f)
                 for name, f in zip(names, factors)}
        samples.append(analyze_timing(netlist, design,
                                      delay_scale=scale).f_max)
    samples_arr = np.asarray(samples)
    return {
        "nominal": float(nominal),
        "mean": float(samples_arr.mean()),
        "std": float(samples_arr.std()),
        "p05": float(np.percentile(samples_arr, 5)),
        "sigma_mirror": float(sigma),
    }
