"""Unit tests for the cycle-accurate simulator."""

import pytest

from repro.digital.netlist import GateNetlist
from repro.digital.simulator import CycleSimulator
from repro.errors import AnalysisError


def comb_netlist() -> GateNetlist:
    netlist = GateNetlist("comb")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("c")
    netlist.add_gate("g1", "AND2", ["a", "b"], "ab")
    netlist.add_gate("g2", "OR2", ["ab", "c"], "y")
    netlist.mark_output("y")
    return netlist


def two_stage_pipeline() -> GateNetlist:
    netlist = GateNetlist("pipe2")
    netlist.add_input("a")
    netlist.add_gate("s1", "BUF_PIPE", ["a"], "q1")
    netlist.add_gate("s2", "BUF_PIPE", ["q1"], "q2")
    netlist.mark_output("q2")
    return netlist


class TestCycleSimulator:
    def test_combinational_single_cycle(self):
        sim = CycleSimulator(comb_netlist())
        out = sim.step({"a": True, "b": True, "c": False})
        assert out["y"] is True
        out = sim.step({"a": True, "b": False, "c": False})
        assert out["y"] is False

    def test_missing_input_rejected(self):
        sim = CycleSimulator(comb_netlist())
        with pytest.raises(AnalysisError):
            sim.step({"a": True})

    def test_pipeline_latency(self):
        sim = CycleSimulator(two_stage_pipeline())
        assert sim.latency() == 2
        outs = [sim.step({"a": v})["q2"] for v in (True, False, False)]
        # The True entered at cycle 0 and appears at the output after
        # two register stages.
        assert outs == [False, True, False]

    def test_reset_value(self):
        sim = CycleSimulator(two_stage_pipeline())
        sim.step({"a": True})
        sim.reset(False)
        out = sim.step({"a": False})
        assert out["q2"] is False

    def test_registered_feedback_toggles(self):
        netlist = GateNetlist("toggle")
        netlist.add_input("en")
        netlist.add_gate("g1", "XOR2", ["en", "q"], "d")
        netlist.add_gate("g2", "BUF_PIPE", ["d"], "q")
        sim = CycleSimulator(netlist)
        values = [sim.step({"en": True})["q"] for _ in range(4)]
        assert values == [True, False, True, False]

    def test_inverted_pin_respected(self):
        netlist = GateNetlist("inv")
        netlist.add_input("a")
        netlist.add_gate("g1", "BUF", [("a", True)], "y")
        sim = CycleSimulator(netlist)
        assert sim.step({"a": True})["y"] is False
