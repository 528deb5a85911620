"""VCD (Value Change Dump) writer for captured analog windows.

:class:`VcdWriter` serialises the ``real`` variables of a
:class:`~repro.scope.capture.CaptureSegment` (GTKWave and friends
render them as analog lanes).

Timescale handling is exact: :func:`exact_timescale` picks the
*coarsest* standard VCD timescale (``{1,10,100} x {s..fs}``) at which
every timestamp is an integer tick, so a 0.5 ns sample spacing dumps
at ``100ps`` with 5 ticks per sample instead of rounding to ``1ns``.
Sub-femtosecond residues are quantized at the 1 fs floor.

A minimal :func:`parse_vcd` reader (scalar, vector and real changes)
closes the loop for round-trip checks in tests and the CI smoke step.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, TextIO

from ..errors import AnalysisError

_ID_ALPHABET = string.ascii_letters + string.digits + "!#$%&"


def identifier(index: int) -> str:
    """Compact VCD identifier for signal ``index``."""
    if index < 0:
        raise AnalysisError(f"negative signal index: {index}")
    base = len(_ID_ALPHABET)
    chars = []
    while True:
        chars.append(_ID_ALPHABET[index % base])
        index //= base
        if index == 0:
            break
    return "".join(chars)


#: Standard VCD timescales, coarse to fine.  Scales come from decade
#: literals (``float("1e-5")``), not ``mag * 10**-3k`` products whose
#: rounding can land one ulp off the literal.
_TIMESCALE_UNITS = ("s", "ms", "us", "ns", "ps", "fs")
TIMESCALES: tuple[tuple[str, float], ...] = tuple(
    (f"{mag}{unit}", float(f"1e{exp - 3 * k}"))
    for k, unit in enumerate(_TIMESCALE_UNITS)
    for mag, exp in ((100, 2), (10, 1), (1, 0))
    if not (unit == "s" and mag > 1))

#: The finest standard timescale; times are quantized here when no
#: coarser scale represents them exactly.
FLOOR_TIMESCALE = TIMESCALES[-1]


def timescale_seconds(label: str) -> float:
    """Seconds per tick of a ``$timescale`` label like ``100ps``."""
    for known, scale in TIMESCALES:
        if label.replace(" ", "") == known:
            return scale
    raise AnalysisError(f"unknown VCD timescale {label!r}")


def exact_timescale(times_s: Iterable[float],
                    rel_tol: float = 1e-9) -> tuple[str, float]:
    """Coarsest standard timescale representing all times exactly.

    Returns ``(label, seconds_per_tick)``.  A time is "exact" at a
    scale when its tick count is within ``rel_tol`` (relative to the
    tick count, floored at one tick) of an integer.  When nothing
    coarser fits -- the irregular float timestamps of an adaptive
    transient, say -- the 1 fs floor is returned and callers quantize
    by rounding.
    """
    finite = [float(t) for t in times_s]
    for t in finite:
        if not (t == t) or t in (float("inf"), float("-inf")):
            raise AnalysisError(f"non-finite timestamp {t!r} in VCD dump")
        if t < 0.0:
            raise AnalysisError(f"negative timestamp {t!r} in VCD dump")
    for label, scale in TIMESCALES:
        exact = True
        for t in finite:
            ticks = t / scale
            if abs(ticks - round(ticks)) > rel_tol * max(1.0, abs(ticks)):
                exact = False
                break
            if t > 0.0 and round(ticks) == 0:
                # A nonzero time collapsing to tick 0 is not "exact" --
                # it would erase the event (0.5 ns at scale 1s).
                exact = False
                break
        if exact:
            return label, scale
    return FLOOR_TIMESCALE


@dataclass
class _Var:
    ident: str
    name: str
    previous: float | None = None


class VcdWriter:
    """Declaration + change collector rendering one VCD document.

    Usage::

        w = VcdWriter("100ps")
        out = w.add_real("outp", scope="analog")
        w.change(0, out, 0.35)
        w.change(5, out, 0.12)
        text = w.render()

    Change times are ticks of the declared timescale and must be
    non-decreasing; unchanged values are deduplicated per variable the
    way every dump format expects.
    """

    def __init__(self, timescale: str = "1ns",
                 date: str = "repro mixed-signal platform",
                 comment: str | None = None) -> None:
        self.timescale = timescale.replace(" ", "")
        timescale_seconds(self.timescale)  # validate
        self.date = date
        self.comment = comment
        self._scopes: dict[str, list[_Var]] = {}
        self._vars: dict[str, _Var] = {}
        self._changes: list[tuple[int, list[str]]] = []
        self._last_ticks: int | None = None

    # -- declarations -------------------------------------------------

    def add_real(self, name: str, scope: str = "top") -> str:
        """Declare an analog (``real``) variable; returns its id."""
        ident = identifier(len(self._vars))
        var = _Var(ident=ident, name=name.replace(" ", "_"))
        self._scopes.setdefault(scope, []).append(var)
        self._vars[ident] = var
        return ident

    # -- changes ------------------------------------------------------

    def change(self, ticks: int, ident: str, value: float) -> None:
        """Record ``ident`` taking ``value`` at time ``ticks``."""
        var = self._vars.get(ident)
        if var is None:
            raise AnalysisError(f"undeclared VCD identifier {ident!r}")
        ticks = int(ticks)
        if self._last_ticks is not None and ticks < self._last_ticks:
            raise AnalysisError(
                f"VCD change times must be non-decreasing: "
                f"{ticks} after {self._last_ticks}")
        value = float(value)
        if var.previous == value:
            return
        var.previous = value
        if self._last_ticks != ticks or not self._changes:
            self._changes.append((ticks, []))
            self._last_ticks = ticks
        self._changes[-1][1].append(f"r{value!r} {ident}")

    def end_time(self, ticks: int) -> None:
        """Stamp the final ``#ticks`` marker closing the dump."""
        ticks = int(ticks)
        if self._last_ticks is None or ticks > self._last_ticks:
            self._changes.append((ticks, []))
            self._last_ticks = ticks

    # -- rendering ----------------------------------------------------

    def render(self, stream: TextIO | None = None) -> str:
        """Serialise the document; also writes to ``stream`` if given."""
        lines = [f"$date {self.date} $end"]
        if self.comment is not None:
            lines.append(f"$comment {self.comment} $end")
        lines.append(f"$timescale {self.timescale} $end")
        for scope, variables in self._scopes.items():
            lines.append(f"$scope module {scope} $end")
            for var in variables:
                lines.append(f"$var real 64 {var.ident} {var.name} $end")
            lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        for ticks, changes in self._changes:
            lines.append(f"#{ticks}")
            lines.extend(changes)
        text = "\n".join(lines) + "\n"
        if stream is not None:
            stream.write(text)
        return text


@dataclass
class VcdDocument:
    """Parsed view of a VCD file (enough for round-trip checks)."""

    timescale: str
    variables: dict[str, tuple[str, str, str]]  # id -> (scope, kind, name)
    changes: list[tuple[int, str, object]]      # (ticks, id, value)
    end_ticks: int = 0

    @property
    def seconds_per_tick(self) -> float:
        return timescale_seconds(self.timescale)

    def values_of(self, name: str) -> list[tuple[int, object]]:
        """``(ticks, value)`` history of the variable called ``name``."""
        idents = [i for i, (_s, _k, n) in self.variables.items()
                  if n == name]
        if not idents:
            raise AnalysisError(f"no VCD variable named {name!r}")
        ident = idents[0]
        return [(t, v) for t, i, v in self.changes if i == ident]


def parse_vcd(text: str) -> VcdDocument:
    """Parse VCD ``text`` (header + scalar/real changes)."""
    timescale = None
    variables: dict[str, tuple[str, str, str]] = {}
    changes: list[tuple[int, str, object]] = []
    scope_stack: list[str] = []
    now = 0
    in_header = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_header:
            if line.startswith("$timescale"):
                timescale = "".join(line.split()[1:-1])
            elif line.startswith("$scope"):
                scope_stack.append(line.split()[2])
            elif line.startswith("$upscope"):
                if scope_stack:
                    scope_stack.pop()
            elif line.startswith("$var"):
                parts = line.split()
                kind, ident, name = parts[1], parts[3], parts[4]
                scope = ".".join(scope_stack) or "top"
                variables[ident] = (scope, kind, name)
            elif line.startswith("$enddefinitions"):
                in_header = False
            continue
        if line.startswith("#"):
            stamp = int(line[1:])
            if stamp < now:
                raise AnalysisError(
                    f"VCD timestamps go backwards: #{stamp} after #{now}")
            now = stamp
        elif line[0] in "01":
            changes.append((now, line[1:], int(line[0])))
        elif line[0] in "rR":
            value_text, ident = line[1:].split()
            changes.append((now, ident, float(value_text)))
        elif line[0] in "bB":
            value_text, ident = line[1:].split()
            changes.append((now, ident, int(value_text, 2)))
        else:
            raise AnalysisError(f"unparseable VCD line {line!r}")
    if timescale is None:
        raise AnalysisError("VCD text has no $timescale")
    for _ticks, ident, _value in changes:
        if ident not in variables:
            raise AnalysisError(f"change for undeclared id {ident!r}")
    return VcdDocument(timescale=timescale, variables=variables,
                      changes=changes, end_ticks=now)
