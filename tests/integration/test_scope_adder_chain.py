"""O(window) capture memory on the thousand-unknown adder chain.

The scale demonstration of the streaming capture layer: a long
transient of the transistor-level 32-bit adder (1164 MNA unknowns,
sparse backend) with ``replace_dense=True`` stores a bounded trigger
window, while the dense recorder's footprint grows linearly with the
number of committed steps.  Once a single-shot window closes, nothing
observes a later step and the run ends on the closing sample.
"""

import numpy as np
import pytest

from repro.scope import LevelTrigger, Probe, ScopeSession
from repro.spice import TransientOptions, transient
from repro.stscl.adder import adder_chain_circuit
from repro.stscl.gate_model import StsclGateDesign

VDD = 0.4
A, B = 0xDEADBEEF, 0x12345678


@pytest.fixture(scope="module")
def design():
    return StsclGateDesign(i_ss=1e-9)


def _chain(design):
    circuit, ports = adder_chain_circuit(design, VDD, a=A, b=B,
                                         carry_in=True)
    return circuit, ports


def _session(ports, pre=16, post=32, level=-1.0):
    """A single-shot replace_dense capture of the s0 sum bit; the
    default level fires on the t = 0 sample, while a level above the
    +-0.2 V differential swing never fires."""
    s0_p, s0_n = ports["s0"]
    return ScopeSession(
        probes=[Probe(s0_p, s0_n, label="s0")],
        trigger=LevelTrigger("s0", level=level, mode="above"),
        pre_samples=pre, post_samples=post, replace_dense=True)


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
            assert not session.triggered
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
        """The fired single-shot run keeps no waveforms and ends on the
        sample that closes its window: the trigger fires on the t = 0
        sample, so 32 post-trigger samples are exactly 32 steps of the
        40 the grid would take to t_stop."""
        circuit, ports = _chain(design)
        session = _session(ports, post=32)
        t_stop, options = _options(design, 40)
        result = transient(circuit, t_stop, options, scope=session)
        seg = session.segment()
        assert result.voltages == {}
        assert seg.trigger_time == 0.0
        assert result.telemetry.steps_accepted == 32
        assert session.samples_seen == 33
        assert result.time.size == 33
        assert result.time[-1] == seg.time[-1]
        assert result.time[-1] < t_stop

    def test_window_matches_the_dense_run_bitwise(self, design):
        """Same circuit, same stepping: the O(window) capture must be
        np.array_equal to the slice of a dense run -- fidelity survives
        the sparse backend and the thousand-unknown system."""
        t_stop, options = _options(design, 40)

        circuit, ports = _chain(design)
        session = _session(ports, pre=4, post=8)
        transient(circuit, t_stop, options, scope=session)
        seg = session.segment()

        dense_circuit, dense_ports = _chain(design)
        dense = transient(dense_circuit, t_stop, options)
        s0_p, s0_n = dense_ports["s0"]
        start = int(np.nonzero(dense.time == seg.time[0])[0][0])
        window = slice(start, start + len(seg))
        assert np.array_equal(seg.time, dense.time[window])
        assert np.array_equal(seg.signal("s0"),
                              dense.vdiff(s0_p, s0_n)[window])
