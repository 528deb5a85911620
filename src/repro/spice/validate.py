"""Pre-solve structural netlist validation.

A malformed netlist -- a net nothing can drive, an island with no path
to the rails -- produces a structurally singular MNA system.  Left
unchecked, that surfaces mid-Newton as a bare LAPACK
``LinAlgError: Singular matrix`` (or, worse, as a gmin-regularised
garbage solution).  This module diagnoses the structure *before* the
first factorization and raises :class:`~repro.errors.NetlistError`
naming the offending nets, so a fuzz case, an imported deck or a
hand-built circuit fails with an actionable message instead of a
linear-algebra traceback.

Three structural defects are detected (in order of specificity):

* **floating net** -- a net no element touches at all (typically a
  ``nodeset`` on a net that was never wired);
* **sense-only net** -- a net touched exclusively by terminals that
  read a voltage but cannot source or sink DC current (MOS gate/bulk,
  VCVS/VCCS control pins, capacitor plates).  Its MNA row is all-zero
  in DC: structurally singular;
* **rail-disconnected subgraph** -- a group of nets whose *conductive*
  elements (resistors, voltage sources, VCVS outputs, diodes, MOS
  drain-source channels) never reach the ground reference, leaving the
  island's absolute potential undetermined.  Nets held only by a
  current source or a VCCS output fall in this class too: current
  injection without conductance contributes nothing to the Jacobian.

The classification of each element type mirrors what
:class:`~repro.spice.assembly.CircuitAssembler` stamps for it: an edge
counts as conductive exactly when the element couples its terminals in
the DC Jacobian.  Compilation refuses any other element type before it
validates.

Hierarchy is validated as if flat, at the cost of its instances rather
than of its elements: each subcircuit template is classified once
(:func:`cell_structure`, kept on its
:class:`~repro.spice.subckt.CellPlan`), and every instance maps that
classification onto its parent nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import NetlistError
from .elements import (CurrentSource, DiodeElement, Element, MosElement,
                       Resistor, Vccs, Vcvs, VoltageSource)
from .netlist import is_ground

#: Issue kinds reported by :func:`structural_report`.
FLOATING_NET = "floating-net"
SENSE_ONLY_NET = "sense-only-net"
RAIL_DISCONNECTED = "rail-disconnected"


@dataclass(frozen=True)
class StructuralIssue:
    """One structural defect of a netlist.

    Attributes:
        kind: One of :data:`FLOATING_NET`, :data:`SENSE_ONLY_NET`,
            :data:`RAIL_DISCONNECTED`.
        nets: The offending net names (sorted).
        detail: Human-readable explanation, naming the touching
            elements where it helps.
    """

    kind: str
    nets: tuple[str, ...]
    detail: str


def _conductive_pairs(element: Element) -> list[tuple[str, str]]:
    """Node pairs ``element`` couples in the DC Jacobian.

    A voltage source (and a VCVS output) pins its two terminals
    together through the auxiliary branch row; R / diode / MOS channel
    contribute a conductance between their current-carrying terminals.
    Capacitors are DC-open; current sources and VCCS outputs inject
    current without any conductance.
    """
    if isinstance(element, (Resistor, VoltageSource, DiodeElement)):
        return [(element.nodes[0], element.nodes[1])]
    if isinstance(element, Vcvs):
        return [(element.nodes[0], element.nodes[1])]
    if isinstance(element, Vccs):
        # A VCCS output row couples to its *control* columns; an
        # output net with no other conductance is gmin-anchored at DC
        # -- the conventional ideal gm-C integrator idiom -- so the
        # output pair counts as coupled to the controls (and to each
        # other) rather than as a floating island.
        p, n, cp, cn = element.nodes
        return [(p, n), (p, cp), (n, cn)]
    if isinstance(element, MosElement):
        drain, _gate, source, _bulk = element.nodes
        return [(drain, source)]
    # Capacitor or current source: a capacitor is open at DC and a
    # current source injects without conductance, so neither couples
    # its terminals in the DC Jacobian.
    return []


def _current_terminals(element: Element) -> list[str]:
    """Nets into which ``element`` can source or sink DC current.

    These terminals produce a nonzero MNA *row* contribution; a net
    touched by none of them has an all-zero row and is structurally
    singular (the sense-only defect).
    """
    if isinstance(element, (Resistor, VoltageSource, CurrentSource,
                            DiodeElement)):
        return list(element.nodes[:2])
    if isinstance(element, (Vcvs, Vccs)):
        return list(element.nodes[:2])  # outputs; controls only sense
    if isinstance(element, MosElement):
        drain, _gate, source, _bulk = element.nodes
        return [drain, source]
    return []  # a capacitor: DC-open


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[str, str] = {}

    def find(self, key: str) -> str:
        root = key
        while self._parent.setdefault(root, root) != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb


_GROUND = "0"


def _canon(node: str) -> str:
    return _GROUND if is_ground(node) else node


@dataclass(frozen=True)
class CellStructure:
    """The structural classification of a group of elements, per net,
    in the order of a net list given to :func:`cell_structure`.

    Attributes:
        touched: Names of the elements touching each net.
        sourced: Whether some element sources or sinks DC current there.
        anchor: ``-1`` when the net's conductive component reaches
            ground, else the position of the first net of that
            component -- all a placement needs to merge the group's
            conductive graph into its circuit's.
    """

    touched: tuple[tuple[str, ...], ...]
    sourced: tuple[bool, ...]
    anchor: tuple[int, ...]


def cell_structure(elements, nets: Sequence[str]) -> CellStructure:
    """Classify ``elements`` over ``nets``, every net they touch but
    ground.  A subcircuit's :class:`~repro.spice.subckt.CellPlan`
    classifies its template once; :func:`structural_report` classifies
    a circuit's top-level elements on each call."""
    position = {net: k for k, net in enumerate(nets)}
    touched: list[list[str]] = [[] for _ in nets]
    sourced = [False] * len(nets)
    uf = _UnionFind()
    uf.find(_GROUND)
    for element in elements:
        for node in map(_canon, element.nodes):
            if node != _GROUND:
                touched[position[node]].append(element.name)
        for node in map(_canon, _current_terminals(element)):
            if node != _GROUND:
                sourced[position[node]] = True
        for a, b in _conductive_pairs(element):
            uf.union(_canon(a), _canon(b))
    ground_root = uf.find(_GROUND)
    first: dict[str, int] = {}
    anchor = [-1 if (root := uf.find(net)) == ground_root
              else first.setdefault(root, k)
              for k, net in enumerate(nets)]
    return CellStructure(touched=tuple(map(tuple, touched)),
                         sourced=tuple(sourced), anchor=tuple(anchor))


def structural_report(circuit) -> list[StructuralIssue]:
    """All structural defects of ``circuit``, without raising.

    The empty list means the netlist passes every check.  ``circuit``
    is a :class:`~repro.spice.netlist.Circuit` (typed loosely to avoid
    an import cycle).  A subcircuit instance reports as its flattened
    twin would: a defect inside a cell (or a port left to dangle in the
    parent) names the parent's nets and ``"<instance>.<element>"``.
    """
    from .subckt import Instance

    # Placements of classified element groups: the top-level elements
    # on the circuit's own nets, and each instance's template on the
    # instance's nets under its name.
    nets = circuit.node_names
    top = [e for e in circuit.elements if not isinstance(e, Instance)]
    placements = [("", nets, cell_structure(top, nets))]
    placements.extend(
        (f"{e.name}.", [_canon(net) for net in e.nodes],
         e.subcircuit.plan().structure)
        for e in circuit.elements if isinstance(e, Instance))
    # Per net, the elements touching it as (name prefix, names) pairs;
    # names are only spelled out for a net that gets reported.
    touches: dict[str, list[tuple[str, tuple[str, ...]]]] = {
        n: [] for n in nets}
    current: set[str] = set()
    uf = _UnionFind()
    uf.find(_GROUND)
    for prefix, mapped, cell in placements:
        for net, names, sourced, anchor in zip(
                mapped, cell.touched, cell.sourced, cell.anchor):
            if net != _GROUND:
                if names:
                    touches[net].append((prefix, names))
                if sourced:
                    current.add(net)
            uf.union(net, _GROUND if anchor < 0 else mapped[anchor])

    issues: list[StructuralIssue] = []

    floating = sorted(n for n, t in touches.items() if not t)
    if floating:
        issues.append(StructuralIssue(
            kind=FLOATING_NET, nets=tuple(floating),
            detail=f"net(s) {', '.join(map(repr, floating))} are not "
                   f"connected to any element (a nodeset on an unwired "
                   f"net?)"))

    sense_only = sorted(n for n, t in touches.items()
                        if t and n not in current)
    if sense_only:
        by_net = []
        for net in sense_only:
            names = sorted({prefix + name
                            for prefix, local in touches[net]
                            for name in local})
            by_net.append(f"{net!r} (touched by {', '.join(names[:4])})")
        issues.append(StructuralIssue(
            kind=SENSE_ONLY_NET, nets=tuple(sense_only),
            detail=f"net(s) {'; '.join(by_net)} are only sensed -- MOS "
                   f"gates/bulks, control pins and capacitors read a "
                   f"voltage but cannot source or sink DC current, so "
                   f"the MNA row is structurally singular"))

    flagged = set(floating) | set(sense_only)
    ground_root = uf.find(_GROUND)
    disconnected = sorted(
        n for n, t in touches.items()
        if t and n not in flagged and uf.find(n) != ground_root)
    if disconnected:
        issues.append(StructuralIssue(
            kind=RAIL_DISCONNECTED, nets=tuple(disconnected),
            detail=f"net(s) {', '.join(map(repr, disconnected))} have "
                   f"no conductive path (R, V-source, diode, MOS "
                   f"channel) to the ground reference; the island's "
                   f"absolute potential is undetermined"))
    return issues


def validate_structure(circuit) -> None:
    """Raise :class:`~repro.errors.NetlistError` naming the offending
    nets when ``circuit`` is structurally singular; no-op otherwise."""
    issues = structural_report(circuit)
    if not issues:
        return
    summary = "; ".join(issue.detail for issue in issues)
    error = NetlistError(
        f"circuit {circuit.name!r} is structurally singular: {summary}")
    error.issues = issues  # forensic payload for programmatic callers
    raise error
