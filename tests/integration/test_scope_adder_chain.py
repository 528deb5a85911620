"""O(window) capture memory on the thousand-unknown adder chain.

The scale demonstration of the capture layer: a long transient of the
transistor-level 32-bit adder (1164 MNA unknowns, sparse backend)
stores a bounded trigger window in place of the dense record, whose
footprint grows linearly with the number of committed steps.  Once the
window closes, nothing observes a later step and the run ends on the
closing sample.
"""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.scope import EdgeTrigger, Probe, ScopeSession
from repro.spice import TransientOptions, transient
from repro.spice.waveforms import step_wave
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.gate_model import StsclGateDesign

VDD = 0.4
A, B = 0xDEADBEEF, 0x12345678


@pytest.fixture(scope="module")
def design():
    return StsclGateDesign(i_ss=1e-9)


def _chain(design, carry_edge=False):
    """The adder at DC; with ``carry_edge`` the carry-in falls from 1
    to 0 over two steps from the second step on, so the sum bit s0
    (a0 ^ b0 ^ c_in) rises through 0 V about five delays later."""
    circuit, ports = adder_chain_circuit(design, VDD, a=A, b=B,
                                         carry_in=True)
    if carry_edge:
        dt = design.delay() / 10.0
        high, low = VDD, VDD - design.v_sw
        circuit.element("vcinp").waveform = step_wave(high, low, 2 * dt,
                                                      2 * dt)
        circuit.element("vcinn").waveform = step_wave(low, high, 2 * dt,
                                                      2 * dt)
    return circuit, ports


def _session(ports, pre=16, post=32, level=0.0):
    """A capture of the s0 sum bit on its rising edge through
    ``level``; a level above the +-0.2 V differential swing never
    fires."""
    s0_p, s0_n = ports["s0"]
    return ScopeSession(
        probes=[Probe(s0_p, s0_n, label="s0")],
        trigger=EdgeTrigger("s0", level=level, direction="rising"),
        pre_samples=pre, post_samples=post)


def _options(design, n_steps):
    dt = design.delay() / 10.0
    return n_steps * dt, TransientOptions(dt_initial=dt, dt_min=dt,
                                          dt_max=dt)


class TestBoundedCaptureMemory:
    def test_memory_is_flat_while_steps_grow_4x(self, design):
        """The acceptance bound: scope memory is O(window), the run is
        O(steps) -- quadrupling the transient leaves the session's
        footprint untouched while the committed step count quadruples.
        The trigger stays armed, so the window never closes and both
        runs integrate to t_stop with the ring buffer rolling over
        every committed sample.
        """
        footprints, steps = [], []
        for n_steps in (60, 240):
            circuit, ports = _chain(design)
            session = _session(ports, level=1.0)
            t_stop, options = _options(design, n_steps)
            result = transient(circuit, t_stop, options, scope=session)
            with pytest.raises(AnalysisError, match="never fired"):
                session.segment()
            assert result.telemetry.steps_accepted == n_steps
            # Every sample went through the ring, which kept only the
            # last pre_samples + 1 of them.
            assert session.samples_seen == n_steps + 1
            assert session.samples_stored == n_steps + 1
            footprints.append(session.memory_bytes())
            steps.append(result.time.size)
        assert steps[1] >= 4 * steps[0] - 4
        assert footprints[1] == footprints[0]
        # And the bounded window really is small: a dense record of the
        # long run would hold every node at every step.
        n_unknowns = 1164
        dense_bytes = steps[1] * n_unknowns * 8
        assert footprints[1] < dense_bytes / 100

    def test_replace_dense_result_has_no_waveforms(self, design):
        """The fired capture keeps no waveforms and ends on the sample
        that closes its window: 32 post-trigger samples are exactly the
        last 32 steps of the run, well short of t_stop."""
        circuit, ports = _chain(design, carry_edge=True)
        session = _session(ports, post=32)
        t_stop, options = _options(design, 120)
        result = transient(circuit, t_stop, options, scope=session)
        seg = session.segment()
        assert result.voltages == {}
        assert len(seg) == 16 + 1 + 32
        assert seg.time[seg.trigger_index] == seg.trigger_time > 0.0
        trigger_step = int(np.nonzero(result.time == seg.trigger_time)[0][0])
        assert result.telemetry.steps_accepted == trigger_step + 32
        assert session.samples_seen == result.time.size
        assert result.time[-1] == seg.time[-1]
        assert result.time[-1] < 0.8 * t_stop

    def test_window_matches_the_dense_run_bitwise(self, design):
        """Same circuit, same stepping: the O(window) capture must be
        np.array_equal to the slice of a dense run -- fidelity survives
        the sparse backend and the thousand-unknown system."""
        t_stop, options = _options(design, 120)

        circuit, ports = _chain(design, carry_edge=True)
        session = _session(ports, pre=4, post=8)
        transient(circuit, t_stop, options, scope=session)
        seg = session.segment()

        dense_circuit, dense_ports = _chain(design, carry_edge=True)
        dense = transient(dense_circuit, t_stop, options)
        s0_p, s0_n = dense_ports["s0"]
        s0 = dense.vdiff(s0_p, s0_n)
        start = int(np.nonzero(dense.time == seg.time[0])[0][0])
        window = slice(start, start + len(seg))
        assert np.array_equal(seg.time, dense.time[window])
        assert np.array_equal(seg.signal("s0"), s0[window])
        k = start + seg.trigger_index
        assert s0[k - 1] < 0.0 <= s0[k]
