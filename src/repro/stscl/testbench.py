"""Transistor-level STSCL gate testbenches as scope measurements.

The paper's gate-level claims -- propagation delay tracking
ln2 * V_SW * C_L / I_SS, output swing pinned at V_SW, the ring
oscillator's f = 1/(2 N t_d) -- are all *measurements on waveforms*.
This module runs the standard transistor-level testbenches (buffer
chain, ring oscillator) through the streaming capture layer and
returns :mod:`repro.scope.measure` report objects, so integration
tests, benchmarks and the fault harness all quote the same metrology
instead of re-deriving crossing arithmetic inline.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DesignError
from ..scope import (
    DelayReport,
    EdgeTrigger,
    PeriodReport,
    Probe,
    ScopeSession,
    SlewReport,
    SwingReport,
    measure,
)
from ..spice import Circuit, TransientOptions, transient
from ..spice.waveforms import step_wave
from .gate_model import StsclGateDesign
from .netlist_gen import (
    stscl_buffer_chain_circuit,
    stscl_ring_oscillator_circuit,
)

#: Length of the delay testbench's transient, in analytic delays t_d:
#: an upper bound, because a ``replace_dense`` capture ends the run on
#: the sample that closes its window (about 12.6 t_d).  It also sets
#: the first step (t_stop / 1000) and so the grid that lands on the
#: input edge, which sets the grid after it: changing it moves the
#: window's samples.
DELAY_TESTBENCH_T_STOP = 25.0

#: Time of the delay testbench's input step, in analytic delays t_d.
#: The run lands on it with a 0.03 t_d step.  The first step after a
#: corner is the landing step or an eighth of the t_d/10 rise, whichever
#: is shorter, so while the landing step is at least t_d/80 every step
#: after the edge (and the window) is that of an edge a whole number of
#: ``dt_max`` steps later, shifted.  An edge at 0.5 t_d lands with a
#: 0.01 t_d step and moves the delays.
DELAY_TESTBENCH_EDGE = 1.0


@dataclass(frozen=True)
class GateCharacterization:
    """One gate's measured numbers from the buffer-chain testbench."""

    delay: DelayReport        # one-stage propagation delay
    rise: SlewReport          # 10/90 rise of the last stage's outp
    swing: SwingReport        # single-ended output swing (paper's V_SW)
    delay_analytic: float     # the closed-form t_d for comparison [s]

    @property
    def delay_ratio(self) -> float:
        """Measured / analytic delay (self-loading makes this > 1)."""
        return self.delay.delay / self.delay_analytic

    def describe(self) -> str:
        return (f"t_pd {self.delay.delay:.4g} s "
                f"({self.delay_ratio:.2f}x analytic), "
                f"{self.rise.describe()}, {self.swing.describe()}")


def delay_chain_circuit(design: StsclGateDesign, vdd: float,
                        n_stages: int = 3) -> Circuit:
    """The delay testbench's circuit: an ``n_stages`` buffer chain
    driven by a differential step from logic 0 to logic 1 at
    :data:`DELAY_TESTBENCH_EDGE` t_d, rising over t_d/10 (see
    :func:`buffer_chain_capture`)."""
    t_d = design.delay()
    high, low = vdd, vdd - design.v_sw
    t_edge = DELAY_TESTBENCH_EDGE * t_d
    circuit, _ports = stscl_buffer_chain_circuit(
        design, vdd, n_stages,
        in_p=step_wave(low, high, t_edge, t_d / 10.0),
        in_n=step_wave(high, low, t_edge, t_d / 10.0))
    return circuit


def buffer_chain_capture(design: StsclGateDesign, vdd: float,
                         n_stages: int = 3,
                         replace_dense: bool = True) -> ScopeSession:
    """Run the delay testbench and return its triggered capture.

    A step drives an ``n_stages`` buffer chain; differential probes sit
    on the last two stages and the trigger is the second-to-last
    stage's differential zero crossing -- so the window holds exactly
    the edge whose stage-to-stage delay is the gate's t_pd, plus the
    single-ended last-stage output for slew/swing extraction.

    The transient runs for at most :data:`DELAY_TESTBENCH_T_STOP`
    analytic delays.  With ``replace_dense`` (default) the window is the
    run's only waveform storage and nothing observes a later step, so
    the run ends on the sample that closes the window, at about
    12.6 t_d; without it the engine keeps its dense record and
    integrates the full span.  The window is bitwise the same either
    way.
    """
    if n_stages < 2:
        raise DesignError(
            f"delay extraction needs >= 2 stages: {n_stages}")
    t_d = design.delay()
    circuit = delay_chain_circuit(design, vdd, n_stages)
    a, b = n_stages - 1, n_stages
    session = ScopeSession(
        probes=[Probe(f"s{a}_outp", f"s{a}_outn", label="y_prev"),
                Probe(f"s{b}_outp", f"s{b}_outn", label="y_last"),
                Probe(f"s{b}_outp", label="outp_last")],
        trigger=EdgeTrigger("y_prev", level=0.0, direction="either"),
        pre_samples=64, post_samples=192,
        replace_dense=replace_dense)
    transient(circuit, DELAY_TESTBENCH_T_STOP * t_d,
              TransientOptions(dt_max=t_d / 25.0), scope=session)
    return session


def measure_gate_delay(design: StsclGateDesign,
                       vdd: float = 1.0) -> DelayReport:
    """Propagation delay of one STSCL buffer stage, measured.

    The stage-to-stage delay between the last two stages of a 3-buffer
    chain (first stage absorbs the ideal source's fast edge), measured
    at the differential zero crossings.
    """
    seg = buffer_chain_capture(design, vdd).segment()
    return measure.propagation_delay(
        seg.time, seg.signal("y_prev"), seg.signal("y_last"),
        level_in=0.0, level_out=0.0, edge_in=None, edge_out=None)


def characterize_gate(design: StsclGateDesign, vdd: float = 1.0,
                      segment=None) -> GateCharacterization:
    """Delay + slew + swing of one gate from a single captured window.

    ``segment`` reuses an existing :func:`buffer_chain_capture` window
    instead of re-running the testbench transient, which otherwise ends
    on the sample that closes that window.
    """
    seg = (buffer_chain_capture(design, vdd).segment()
           if segment is None else segment)
    delay = measure.propagation_delay(
        seg.time, seg.signal("y_prev"), seg.signal("y_last"),
        level_in=0.0, level_out=0.0, edge_in=None, edge_out=None)
    outp = seg.signal("outp_last")
    kind = "rise" if outp[-1] > outp[0] else "fall"
    slew = measure.transition_time(seg.time, outp, kind=kind)
    # Swing on the single-ended output: min..max over the captured
    # edge is exactly low -> high, i.e. the paper's V_SW.
    swing = measure.output_swing(seg.time, outp)
    return GateCharacterization(delay=delay, rise=slew, swing=swing,
                                delay_analytic=design.delay())


def measure_ring_period(design: StsclGateDesign, vdd: float = 1.0,
                        n_stages: int = 3,
                        n_periods: float = 12.0) -> PeriodReport:
    """Period/duty/jitter of the STSCL ring oscillator, measured.

    Streams the first ring stage's differential output for
    ``n_periods`` ideal periods (2 N t_d each) and extracts the cycle
    statistics -- the VCO characterization the paper's PLL rides on.
    """
    circuit, _ports = stscl_ring_oscillator_circuit(design, vdd,
                                                    n_stages)
    t_d = design.delay()
    session = ScopeSession(
        probes=[Probe("s1_outp", "s1_outn", label="y1")],
        trigger=None, replace_dense=True)
    transient(circuit, n_periods * 2.0 * n_stages * t_d,
              TransientOptions(dt_max=t_d / 20.0), scope=session)
    seg = session.segment()
    return measure.period_and_jitter(seg.time, seg.signal("y1"),
                                     level=0.0)
