"""O(window) capture memory on the thousand-unknown adder chain.

The scale demonstration of the streaming capture layer: a long
transient of the transistor-level 32-bit adder (1164 MNA unknowns,
sparse backend) with ``replace_dense=True`` stores a bounded trigger
window, while the dense recorder's footprint grows linearly with the
number of committed steps.
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


def _session(ports, pre=16, post=32):
    s0_p, s0_n = ports["s0"]
    return ScopeSession(
        probes=[Probe(s0_p, s0_n, label="s0")],
        trigger=LevelTrigger("s0", level=-1.0, mode="above"),
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
        """
        footprints, steps = [], []
        for n_steps in (60, 240):
            circuit, ports = _chain(design)
            session = _session(ports)
            t_stop, options = _options(design, n_steps)
            result = transient(circuit, t_stop, options, scope=session)
            assert session.triggered
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
        circuit, ports = _chain(design)
        session = _session(ports)
        t_stop, options = _options(design, 40)
        result = transient(circuit, t_stop, options, scope=session)
        assert result.voltages == {}
        assert result.telemetry.steps_accepted == 40

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
