"""Pre-solve structural validation: broken netlists fail with named
nets at compile time, never as a bare LAPACK singular-matrix error."""

import pytest

from repro.devices.mosfet import Mosfet
from repro.devices.parameters import nmos_180
from repro.errors import NetlistError
from repro.spice.dc import operating_point
from repro.spice.netlist import Circuit, is_ground
from repro.spice.subckt import Subcircuit
from repro.spice.validate import (FLOATING_NET, RAIL_DISCONNECTED,
                                  SENSE_ONLY_NET, structural_report,
                                  validate_structure)


def _nmos() -> Mosfet:
    return Mosfet(nmos_180(), w=1e-6, l=0.18e-6)


def _divider() -> Circuit:
    ckt = Circuit("divider")
    ckt.add_vsource("V1", "in", "0", 1.0)
    ckt.add_resistor("R1", "in", "mid", 10e3)
    ckt.add_resistor("R2", "mid", "0", 10e3)
    return ckt


class TestCleanCircuits:
    def test_divider_passes(self):
        assert structural_report(_divider()) == []

    def test_mos_circuit_passes(self):
        ckt = Circuit("mos")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_vsource("vg", "g", "0", 0.5)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        ckt.add_mosfet("m1", "d", "g", "0", "0", _nmos())
        assert structural_report(ckt) == []
        operating_point(ckt)  # and it actually solves

    def test_vccs_integrator_idiom_passes(self):
        # Ideal gm-C integrator: VCCS output into a capacitor node is
        # gmin-anchored at DC -- conventional, must not be flagged.
        ckt = Circuit("gmc")
        ckt.add_vsource("vin", "in", "0", 0.1)
        ckt.add_vccs("gm1", "out", "0", "in", "0", 1e-6)
        ckt.add_capacitor("c1", "out", "0", 1e-12)
        assert structural_report(ckt) == []


class TestDefects:
    def test_floating_net_from_nodeset(self):
        ckt = _divider()
        ckt.nodeset("phantom", 0.5)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [FLOATING_NET]
        assert issues[0].nets == ("phantom",)

    def test_gate_only_net(self):
        ckt = Circuit("gate_only")
        ckt.add_vsource("vdd", "vdd", "0", 1.0)
        ckt.add_resistor("rl", "vdd", "d", 100e3)
        # Gate net 'g' is driven by nothing: MOS gates only sense.
        ckt.add_mosfet("m1", "d", "g", "0", "0", _nmos(),
                       with_caps=False)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [SENSE_ONLY_NET]
        assert issues[0].nets == ("g",)
        assert "m1" in issues[0].detail

    def test_capacitor_only_net_is_sense_only(self):
        ckt = _divider()
        ckt.add_capacitor("c1", "mid", "dangling", 1e-12)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [SENSE_ONLY_NET]
        assert issues[0].nets == ("dangling",)

    def test_rail_disconnected_island(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)  # floating R island
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [RAIL_DISCONNECTED]
        assert issues[0].nets == ("a", "b")

    def test_current_source_only_net(self):
        ckt = _divider()
        ckt.add_isource("ibad", "lonely", "0", 1e-9)
        issues = structural_report(ckt)
        assert [i.kind for i in issues] == [RAIL_DISCONNECTED]
        assert issues[0].nets == ("lonely",)

    def test_multiple_defects_all_reported(self):
        ckt = _divider()
        ckt.nodeset("phantom", 0.1)
        ckt.add_capacitor("c1", "mid", "dangling", 1e-12)
        ckt.add_resistor("ri", "a", "b", 1e3)
        kinds = {i.kind for i in structural_report(ckt)}
        assert kinds == {FLOATING_NET, SENSE_ONLY_NET, RAIL_DISCONNECTED}


class TestCompileHook:
    def test_compile_raises_netlist_error_with_net_names(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError, match=r"'a', 'b'"):
            ckt.compile()

    def test_error_carries_issue_payload(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError) as excinfo:
            validate_structure(ckt)
        assert excinfo.value.issues[0].kind == RAIL_DISCONNECTED

    def test_opt_out_restores_old_behaviour(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        compiled = ckt.compile(validate=False)
        assert compiled.size >= 4

    def test_per_circuit_opt_out(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        ckt.validate_on_compile = False
        ckt.compile()

    def test_cached_compile_skips_revalidation(self):
        ckt = _divider()
        first = ckt.compile()
        assert ckt.compile() is first

    def test_operating_point_diagnoses_before_solving(self):
        ckt = _divider()
        ckt.add_resistor("ri", "a", "b", 1e3)
        with pytest.raises(NetlistError, match="structurally singular"):
            operating_point(ckt)


# -- hierarchy ---------------------------------------------------------------
#
# Each case is a cell, written once as a function of an element-name map
# and a net map, placed twice in a parent: as subcircuit instances, and
# by hand with every element and internal net renamed as an instance
# names them ("<instance>.<name>").  Validation classifies the template
# once and maps it per instance; it must report exactly what the
# flattened twin reports.


def _floating_internal_net(c, name, net):
    c.add_resistor(name("r1"), net("a"), net("0"), 1e3)
    c.nodeset(net("unwired"), 0.1)


def _sense_only_internal_net(c, name, net):
    c.add_resistor(name("rl"), net("a"), net("d"), 1e4)
    c.add_mosfet(name("m1"), net("d"), net("g"), net("0"), net("0"),
                 _nmos())


def _island_inside_cell(c, name, net):
    c.add_resistor(name("r1"), net("a"), net("0"), 1e3)
    c.add_resistor(name("ri"), net("p"), net("q"), 1e3)
    c.add_isource(name("ii"), net("p"), net("q"), 1e-6)


def _port_bound_to_ground(c, name, net):
    c.add_resistor(name("r1"), net("a"), net("b"), 1e3)
    c.add_mosfet(name("m1"), net("a"), net("a"), net("b"), net("b"),
                 _nmos(), with_caps=False)
    c.add_capacitor(name("c1"), net("b"), net("c"), 1e-12)


def _ports_tied_to_one_net(c, name, net):
    c.add_resistor(name("r1"), net("a"), net("b"), 1e3)
    c.add_capacitor(name("ca"), net("a"), net("0"), 1e-12)
    c.add_capacitor(name("cb"), net("b"), net("0"), 1e-12)


#: name -> (cell, ports, port map per instance, expected issue kinds).
HIERARCHY_CASES = {
    "floating-internal-net": (
        _floating_internal_net, ("a",),
        ({"a": "in"}, {"a": "in"}), [FLOATING_NET]),
    "sense-only-internal-net": (
        _sense_only_internal_net, ("a",),
        ({"a": "in"}, {"a": "mid"}), [SENSE_ONLY_NET]),
    "island-inside-cell": (
        _island_inside_cell, ("a",),
        ({"a": "in"}, {"a": "mid"}), [RAIL_DISCONNECTED]),
    "port-bound-to-ground": (
        _port_bound_to_ground, ("a", "b"),
        ({"a": "in", "b": "gnd"}, {"a": "mid", "b": "0"}),
        [SENSE_ONLY_NET]),
    "ports-tied-to-one-net": (
        _ports_tied_to_one_net, ("a", "b"),
        ({"a": "tied", "b": "tied"}, {"a": "mid", "b": "in"}),
        [RAIL_DISCONNECTED]),
}


def _hierarchical(cell, ports, port_maps) -> Circuit:
    template = Circuit("cell")
    cell(template, lambda name: name, lambda net: net)
    subckt = Subcircuit("cell", template, ports)
    circuit = _divider()
    for k, port_map in enumerate(port_maps):
        circuit.add_instance(f"x{k}", subckt, port_map)
    return circuit


def _flattened(cell, port_maps) -> Circuit:
    circuit = _divider()
    for k, port_map in enumerate(port_maps):
        inst = f"x{k}"

        def net(n, inst=inst, port_map=port_map):
            if is_ground(n):
                return n
            return port_map.get(n, f"{inst}.{n}")

        cell(circuit, lambda name, inst=inst: f"{inst}.{name}", net)
    return circuit


@pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
def test_hierarchy_reports_as_its_flattened_twin(case):
    """Kind, nets and detail of every issue equal the hand-flattened
    twin's, for a defect inside a cell, a port bound to ground and two
    ports tied to one parent net."""
    cell, ports, port_maps, kinds = HIERARCHY_CASES[case]
    report = structural_report(_hierarchical(cell, ports, port_maps))
    assert [issue.kind for issue in report] == kinds
    assert report == structural_report(_flattened(cell, port_maps))
