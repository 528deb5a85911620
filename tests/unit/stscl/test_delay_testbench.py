"""The delay testbench's input edge sits where nothing observable moves.

The chain rests at its operating point until the input steps, so the
steps before the edge only set the grid that lands on it.  With the
edge at :data:`~repro.stscl.testbench.DELAY_TESTBENCH_EDGE` the window
and every measurement on it are those of an edge at 5 t_d -- the same
samples, 4 t_d earlier -- while the run takes 100 fewer steps.
"""

import itertools

import numpy as np
import pytest

from repro.spice import transient
from repro.spice.waveforms import step_wave
from repro.stscl import StsclGateDesign, testbench
from repro.stscl.netlist_gen import stscl_buffer_chain_circuit
from repro.stscl.testbench import (DELAY_TESTBENCH_EDGE,
                                   buffer_chain_capture, characterize_gate)

#: An edge 100 ``dt_max`` steps (4 t_d) later, after a longer lead-in.
LATE_EDGE = 5.0


def _late_edge_chain(design, vdd, n_stages=3):
    t_d = design.delay()
    high, low = vdd, vdd - design.v_sw
    circuit, _ = stscl_buffer_chain_circuit(
        design, vdd, n_stages,
        in_p=step_wave(low, high, LATE_EDGE * t_d, t_d / 10.0),
        in_n=step_wave(high, low, LATE_EDGE * t_d, t_d / 10.0))
    return circuit


def _capture(monkeypatch, design, vdd, n_stages, chain=None):
    """The testbench's window and the transient result behind it, with
    the testbench's stimulus or with ``chain``'s."""
    runs = []

    def recording(*args, **kwargs):
        runs.append(transient(*args, **kwargs))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(testbench, "transient", recording)
        if chain is not None:
            patch.setattr(testbench, "delay_chain_circuit", chain)
        session = buffer_chain_capture(design, vdd, n_stages)
    [run] = runs
    return session.segment(), run


@pytest.mark.parametrize("vdd, i_ss, n_stages", list(itertools.product(
    (0.4, 0.5, 1.0), (1e-10, 1e-9, 1e-8), (2, 3, 4))))
def test_window_is_the_late_edge_window_shifted(monkeypatch, vdd, i_ss,
                                                n_stages):
    design = StsclGateDesign.default(i_ss)
    t_d = design.delay()
    seg, run = _capture(monkeypatch, design, vdd, n_stages)
    late, late_run = _capture(monkeypatch, design, vdd, n_stages,
                              chain=_late_edge_chain)
    shift = (LATE_EDGE - DELAY_TESTBENCH_EDGE) * t_d
    assert seg.time.shape == late.time.shape
    np.testing.assert_allclose(seg.time + shift, late.time,
                               rtol=0.0, atol=1e-10 * t_d)
    np.testing.assert_allclose(seg.values, late.values, rtol=0.0,
                               atol=1e-10)
    assert len(late_run.time) - len(run.time) == 100
    mine = characterize_gate(design, vdd, segment=seg)
    theirs = characterize_gate(design, vdd, segment=late)
    assert mine.delay.delay == pytest.approx(theirs.delay.delay, rel=1e-10)
    assert mine.rise.duration == pytest.approx(theirs.rise.duration,
                                               rel=1e-10)
    assert mine.swing.swing == pytest.approx(theirs.swing.swing, rel=1e-10)
    # The first step after the edge is the landing step or an eighth of
    # the t_d/10 rise, whichever is shorter.  Only while the run lands
    # with at least t_d/80 is it the late edge's grid; a change to the
    # first step (t_stop / 1000) or to the restart fraction fails here.
    edge = int(np.argmin(np.abs(run.time - DELAY_TESTBENCH_EDGE * t_d)))
    assert run.time[edge] == pytest.approx(DELAY_TESTBENCH_EDGE * t_d,
                                           rel=1e-12)
    assert run.time[edge] - run.time[edge - 1] >= t_d / 80.0
    assert run.time[edge + 1] - run.time[edge] == pytest.approx(
        t_d / 80.0, rel=1e-9)
