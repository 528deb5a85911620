"""Hierarchical subcircuits: flat equivalence, naming, scope limits.

The compile-once/instantiate-N model is only trustworthy if a
hierarchical circuit is *indistinguishable* from its hand-flattened
twin on every analysis path -- DC, transient (including breakpoint
collection from instance-internal sources), AC, and the batched
ensemble solver.  These tests build both forms of the same topology,
naming the flat copy's nets with the ``"<instance>.<net>"`` scheme the
expander uses, and require agreement at solver precision.
"""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import (
    Circuit,
    LaneSpec,
    ac_analysis,
    batch_operating_point,
    operating_point,
    pulse_wave,
    transient,
    write_netlist,
)
from repro.spice.elements import Element
from repro.spice.subckt import Instance, Subcircuit


def rc_cell() -> Subcircuit:
    """Two-pole RC ladder cell with an internal node and a nodeset."""
    template = Circuit("rc_cell")
    template.add_resistor("r1", "a", "mid", 1e3)
    template.add_resistor("r2", "mid", "b", 2e3)
    template.add_capacitor("c1", "mid", "0", 1e-12)
    template.nodeset("mid", 0.25)
    return Subcircuit("rc", template, ("a", "b"))


def add_flat_rc(circuit: Circuit, name: str, a: str, b: str) -> None:
    """The hand-flattened twin of one ``rc_cell`` instance."""
    circuit.add_resistor(f"{name}.r1", a, f"{name}.mid", 1e3)
    circuit.add_resistor(f"{name}.r2", f"{name}.mid", b, 2e3)
    circuit.add_capacitor(f"{name}.c1", f"{name}.mid", "0", 1e-12)
    circuit.nodeset(f"{name}.mid", 0.25)


def chain(hierarchical: bool, drive=1.0) -> Circuit:
    """Two RC cells in series from a driven source to ground."""
    circuit = Circuit("chain")
    circuit.add_vsource("V1", "in", "0", drive)
    if hierarchical:
        cell = rc_cell()
        circuit.add_instance("s1", cell, {"a": "in", "b": "link"})
        circuit.add_instance("s2", cell, {"a": "link", "b": "0"})
    else:
        add_flat_rc(circuit, "s1", "in", "link")
        add_flat_rc(circuit, "s2", "link", "0")
    return circuit


def mos_cell(design) -> Subcircuit:
    """STSCL-style buffer cell: differential pair + loads + internal
    tail current source, everything the MOS/diode banks exercise."""
    template = Circuit("buf", temperature=design.temperature)
    pair = design.pair_device()
    load = design.load_device()
    template.add_mosfet("m1", drain="outn", gate="inp", source="tail",
                        bulk="0", device=pair)
    template.add_mosfet("m2", drain="outp", gate="inn", source="tail",
                        bulk="0", device=pair)
    for suffix in ("p", "n"):
        template.add_mosfet(f"mpl{suffix}", drain=f"out{suffix}",
                            gate="vbp", source="vdd",
                            bulk=f"out{suffix}", device=load)
        template.add_capacitor(f"cl{suffix}", f"out{suffix}", "0",
                               design.c_load)
    template.add_isource("itail", "tail", "0", design.i_ss)
    template.nodeset("tail", 0.1)
    return Subcircuit("buf", template,
                      ("vdd", "vbp", "inp", "inn", "outp", "outn"))


def mos_chain(hierarchical: bool, design, vdd: float = 0.4) -> Circuit:
    from repro.stscl.netlist_gen import _load_bias

    circuit = Circuit("mos_chain", temperature=design.temperature)
    circuit.add_vsource("vvdd", "vdd", "0", vdd)
    circuit.add_vsource("vvbp", "vbp", "0", _load_bias(design, vdd))
    circuit.add_vsource("vinp", "inp", "0", vdd)
    circuit.add_vsource("vinn", "inn", "0", vdd - design.v_sw)
    stages = [("s1", "inp", "inn", "m1p", "m1n"),
              ("s2", "m1p", "m1n", "m2p", "m2n")]
    if hierarchical:
        cell = mos_cell(design)
        for name, ip, inn, op, on in stages:
            circuit.add_instance(name, cell, {
                "vdd": "vdd", "vbp": "vbp", "inp": ip, "inn": inn,
                "outp": op, "outn": on})
    else:
        pair, load = design.pair_device(), design.load_device()
        for name, ip, inn, op, on in stages:
            circuit.add_mosfet(f"{name}.m1", drain=on, gate=ip,
                               source=f"{name}.tail", bulk="0",
                               device=pair)
            circuit.add_mosfet(f"{name}.m2", drain=op, gate=inn,
                               source=f"{name}.tail", bulk="0",
                               device=pair)
            for suffix, node in (("p", op), ("n", on)):
                circuit.add_mosfet(f"{name}.mpl{suffix}", drain=node,
                                   gate="vbp", source="vdd", bulk=node,
                                   device=load)
                circuit.add_capacitor(f"{name}.cl{suffix}", node, "0",
                                      design.c_load)
            circuit.add_isource(f"{name}.itail", f"{name}.tail", "0",
                                design.i_ss)
            circuit.nodeset(f"{name}.tail", 0.1)
        for node in ("m1p", "m2p"):
            circuit.nodeset(node, vdd)
        for node in ("m1n", "m2n"):
            circuit.nodeset(node, vdd - design.v_sw)
    return circuit


class TestFlatEquivalence:
    def test_dc_matches_flat(self):
        hier = operating_point(chain(True))
        flat = operating_point(chain(False))
        assert set(hier.voltages) == set(flat.voltages)
        for node, value in flat.voltages.items():
            assert hier.voltages[node] == pytest.approx(value, abs=1e-12)

    def test_mos_dc_matches_flat(self, default_design):
        hier = operating_point(mos_chain(True, default_design))
        flat = operating_point(mos_chain(False, default_design))
        for node, value in flat.voltages.items():
            assert hier.voltages[node] == pytest.approx(value, abs=1e-12)

    def test_device_ops_use_dotted_names(self, default_design):
        hier = operating_point(mos_chain(True, default_design))
        flat = operating_point(mos_chain(False, default_design))
        assert set(hier.device_ops) == set(flat.device_ops)
        assert "s1.m1" in hier.device_ops
        assert hier.device_ops["s2.mplp"].ids == pytest.approx(
            flat.device_ops["s2.mplp"].ids, rel=1e-9)

    def test_transient_matches_flat_with_internal_source(self):
        """A pulse source *inside* the cell must contribute its
        breakpoints to the parent's step control -- otherwise the two
        runs land on different time grids and diverge."""

        def build(hierarchical: bool) -> Circuit:
            wave = pulse_wave(0.0, 1e-6, delay=1e-6, rise=1e-8,
                              fall=1e-8, width=2e-6, period=10e-6)
            circuit = Circuit("pulsed")
            circuit.add_resistor("RL", "out", "0", 1e4)
            template = Circuit("cell")
            template.add_isource("ipulse", "0", "p", wave)
            template.add_resistor("rs", "p", "q", 1e3)
            template.add_capacitor("cs", "p", "0", 1e-12)
            if hierarchical:
                cell = Subcircuit("pcell", template, ("q",))
                circuit.add_instance("u1", cell, {"q": "out"})
            else:
                circuit.add_isource("u1.ipulse", "0", "u1.p", wave)
                circuit.add_resistor("u1.rs", "u1.p", "out", 1e3)
                circuit.add_capacitor("u1.cs", "u1.p", "0", 1e-12)
            return circuit

        hier = transient(build(True), t_stop=5e-6)
        flat = transient(build(False), t_stop=5e-6)
        np.testing.assert_array_equal(hier.time, flat.time)
        np.testing.assert_allclose(hier.voltages["out"],
                                   flat.voltages["out"], atol=1e-12)
        assert np.max(np.abs(hier.voltages["out"])) > 1e-3

    def test_ac_matches_flat(self):
        freqs = np.logspace(3, 8, 11)

        def with_excitation(circuit: Circuit) -> Circuit:
            circuit.element("V1").ac_mag = 1.0
            return circuit

        hier = ac_analysis(with_excitation(chain(True)), freqs)
        flat = ac_analysis(with_excitation(chain(False)), freqs)
        np.testing.assert_allclose(hier.voltages["link"],
                                   flat.voltages["link"], rtol=1e-12)

    def test_batched_lanes_match_serial(self):
        """Top-level source overrides apply per lane over a
        hierarchical circuit, matching one serial solve per value."""
        circuit = chain(True)
        lanes = [LaneSpec.source("V1", value, label=f"{value:g}")
                 for value in (0.5, 1.0, 2.0)]
        batch = batch_operating_point(circuit, lanes)
        assert not batch.failures
        for lane, value in zip(batch.points, (0.5, 1.0, 2.0)):
            serial = operating_point(chain(True, drive=value))
            for node, expected in serial.voltages.items():
                assert lane.voltages[node] == pytest.approx(expected,
                                                            abs=1e-9)

    def test_ports_tied_to_one_parent_net(self):
        """Both cell ports on the same parent net: contributions must
        accumulate, not overwrite (the np.add.at path)."""

        def build(hierarchical: bool) -> Circuit:
            circuit = Circuit("tied")
            circuit.add_vsource("V1", "x", "0", 1.0)
            circuit.add_resistor("RG", "x", "0", 1e4)
            if hierarchical:
                circuit.add_instance("u1", rc_cell(),
                                     {"a": "x", "b": "x"})
            else:
                add_flat_rc(circuit, "u1", "x", "x")
            return circuit

        hier = operating_point(build(True))
        flat = operating_point(build(False))
        for node, value in flat.voltages.items():
            assert hier.voltages[node] == pytest.approx(value, abs=1e-12)


class TestNaming:
    def test_internal_nets_are_namespaced(self):
        circuit = chain(True)
        assert "s1.mid" in circuit.node_names
        assert "s2.mid" in circuit.node_names

    def test_template_nodesets_replayed_without_override(self):
        circuit = Circuit("override")
        circuit.add_vsource("V1", "in", "0", 1.0)
        circuit.nodeset("s1.mid", 0.9)  # parent hint set first
        circuit.add_instance("s1", rc_cell(), {"a": "in", "b": "0"})
        assert circuit.nodesets["s1.mid"] == 0.9  # not clobbered
        circuit.add_instance("s2", rc_cell(), {"a": "in", "b": "0"})
        assert circuit.nodesets["s2.mid"] == 0.25  # replayed

    def test_write_netlist_rejects_instances(self, tmp_path):
        with pytest.raises(NetlistError):
            write_netlist(chain(True), tmp_path / "chain.cir")


class TestValidation:
    def test_defect_inside_cell_reported_with_dotted_name(self):
        """Structural validation walks the hierarchy flat: a
        DC-singular net *inside* a cell (here held only by capacitor
        plates) is reported under its namespaced parent name."""
        template = Circuit("capcell")
        template.add_capacitor("c1", "a", "mid", 1e-12)
        template.add_capacitor("c2", "mid", "0", 1e-12)
        cell = Subcircuit("capcell", template, ("a",))
        circuit = Circuit("dangling")
        circuit.add_vsource("V1", "in", "0", 1.0)
        circuit.add_instance("u1", cell, {"a": "in"})
        with pytest.raises(NetlistError, match="u1.mid"):
            circuit.compile()


class TestScopeLimits:
    def test_duplicate_ports_rejected(self):
        template = Circuit("t")
        template.add_resistor("r1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="duplicate"):
            Subcircuit("bad", template, ("a", "a"))

    def test_ground_port_rejected(self):
        template = Circuit("t")
        template.add_resistor("r1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="ground"):
            Subcircuit("bad", template, ("a", "0"))

    def test_unknown_port_rejected(self):
        template = Circuit("t")
        template.add_resistor("r1", "a", "0", 1.0)
        with pytest.raises(NetlistError, match="not a node"):
            Subcircuit("bad", template, ("a", "zz"))

    def test_nested_instances_rejected(self):
        inner = rc_cell()
        template = Circuit("outer")
        template.add_resistor("r1", "x", "0", 1.0)
        template._register(Instance("u1", inner, {"a": "x", "b": "0"}))
        with pytest.raises(NetlistError, match="nested"):
            Subcircuit("bad", template, ("x",))

    def test_foreign_template_elements_rejected(self):
        """A template element the assembler does not stamp is refused
        when the cell plan compiles, with its type named."""

        class Weird(Element):
            pass

        template = Circuit("t")
        template.add_resistor("r1", "a", "0", 1.0)
        template._register(Weird("w1", ("a",)))
        cell = Subcircuit("bad", template, ("a",))
        with pytest.raises(NetlistError, match="Weird"):
            cell.plan()
        with pytest.raises(NetlistError, match="Weird"):
            Circuit("parent").add_instance("u1", cell, {"a": "x"})

    def test_port_map_mismatch_rejected(self):
        cell = rc_cell()
        circuit = Circuit("p")
        with pytest.raises(NetlistError, match="port map"):
            circuit.add_instance("u1", cell, {"a": "x"})
        with pytest.raises(NetlistError, match="port map"):
            circuit.add_instance("u2", cell,
                                 {"a": "x", "b": "y", "c": "z"})
