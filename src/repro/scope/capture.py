"""Triggered waveform capture for the transient engine.

Modeled on litescope's on-chip logic-analyzer split: *probes* name the
signals to watch, an edge *trigger* decides when the window starts, and
a bounded *ring buffer* holds the pre-trigger history -- all evaluated
sample-by-sample as the transient engine commits steps.  The session
replaces the engine's dense full-history record, so the memory
footprint is O(window), not O(steps), and once the single window
closes nothing observes a later step: the engine ends the run there.

The capture path is bitwise-faithful: a stored sample is exactly the
solver's committed node voltage (no resampling, no interpolation), so
the window equals the corresponding slice of a dense record of the
same circuit and options -- the contract the equivalence tests pin.

Quick taste::

    from repro.scope import EdgeTrigger, Probe, ScopeSession
    from repro.spice import transient

    session = ScopeSession(
        probes=[Probe("outp", "outn", label="y")],
        trigger=EdgeTrigger("y", level=0.0, direction="rising"),
        pre_samples=64, post_samples=256)
    transient(circuit, t_stop, scope=session)
    seg = session.segment()          # times + values around the edge
    seg.signal("y")                  # the differential waveform
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError

#: Node names treated as ground in probe definitions.
_GROUND = ("0", "gnd")


@dataclass(frozen=True)
class Probe:
    """One captured signal: ``v(pos) - v(neg)``.

    ``neg`` defaults to ground, giving a plain node-voltage probe; an
    explicit ``neg`` captures a differential signal (the natural unit
    for STSCL outputs).  ``label`` names the signal in capture results,
    triggers and VCD dumps; it defaults to ``pos`` (or
    ``"pos-neg"`` for differential probes).
    """

    pos: str
    neg: str = "0"
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        if self.neg.lower() in _GROUND:
            return self.pos
        return f"{self.pos}-{self.neg}"


# ---------------------------------------------------------------------------
# Trigger
# ---------------------------------------------------------------------------


class EdgeTrigger:
    """Fires when the signal crosses ``level`` in ``direction``.

    ``direction`` is ``"rising"``, ``"falling"`` or ``"either"``.  A
    crossing needs two samples (strictly below then at-or-above for
    rising), so the trigger can never fire on the first sample.  The
    session calls :meth:`check` with the probe-value vector of each
    committed sample until the trigger fires.
    """

    def __init__(self, signal: str, level: float,
                 direction: str = "rising") -> None:
        if direction not in ("rising", "falling", "either"):
            raise AnalysisError(
                f"direction must be rising/falling/either, "
                f"got {direction!r}")
        self.signal = signal
        self.level = float(level)
        self.direction = direction
        self._index: int | None = None
        self._previous: float | None = None

    def bind(self, names: Sequence[str]) -> None:
        """Resolve the signal name against the session's probe list and
        forget any earlier run's last sample."""
        try:
            self._index = list(names).index(self.signal)
        except ValueError:
            raise AnalysisError(
                f"trigger signal {self.signal!r} is not a probe "
                f"(probes: {', '.join(names)})") from None
        self._previous = None

    def check(self, values: np.ndarray) -> bool:
        value = float(values[self._index])
        previous, self._previous = self._previous, value
        if previous is None:
            return False
        rising = previous < self.level <= value
        falling = previous > self.level >= value
        if self.direction == "rising":
            return rising
        if self.direction == "falling":
            return falling
        return rising or falling


# ---------------------------------------------------------------------------
# Capture storage
# ---------------------------------------------------------------------------


@dataclass
class CaptureSegment:
    """One captured window: a shared time axis + one row per probe.

    ``trigger_index`` locates the trigger sample on the time axis; a
    session always sets it and ``trigger_time``, a segment built by
    hand (say, for a VCD export) may leave them None.
    """

    signals: tuple[str, ...]
    time: np.ndarray              # (n_samples,)
    values: np.ndarray            # (n_signals, n_samples)
    trigger_time: float | None = None
    trigger_index: int | None = None

    def __len__(self) -> int:
        return int(self.time.size)

    def signal(self, name: str) -> np.ndarray:
        try:
            return self.values[self.signals.index(name)]
        except ValueError:
            raise AnalysisError(
                f"no captured signal {name!r} "
                f"(have: {', '.join(self.signals)})") from None

    @property
    def nbytes(self) -> int:
        return int(self.time.nbytes + self.values.nbytes)

    def to_vcd(self, scope: str = "analog",
               timescale: str | None = None) -> str:
        """Serialise the window as an analog (``real``-variable) VCD."""
        from .vcd import VcdWriter, exact_timescale

        if len(self) == 0:
            raise AnalysisError("cannot dump an empty capture to VCD")
        if timescale is None:
            timescale, scale = exact_timescale(self.time)
        else:
            from .vcd import timescale_seconds
            scale = timescale_seconds(timescale)
        writer = VcdWriter(timescale,
                           comment=f"repro.scope capture ({scope})")
        idents = [writer.add_real(name, scope=scope)
                  for name in self.signals]
        previous_ticks = None
        for k, t in enumerate(self.time):
            ticks = int(round(float(t) / scale))
            if previous_ticks is not None and ticks <= previous_ticks:
                # Quantization collapsed two samples onto one tick;
                # keep timestamps strictly increasing (last one wins
                # would reorder, so nudge forward instead).
                ticks = previous_ticks + 1
            previous_ticks = ticks
            for row, ident in enumerate(idents):
                writer.change(ticks, ident, float(self.values[row, k]))
        writer.end_time(previous_ticks + 1)
        return writer.render()


class _RingBuffer:
    """Fixed-depth circular store of ``(t, values)`` samples."""

    def __init__(self, depth: int, n_signals: int) -> None:
        self.depth = depth
        self.times = np.empty(depth)
        self.values = np.empty((depth, n_signals))
        self.count = 0
        self._head = 0

    def push(self, t: float, values: np.ndarray) -> None:
        self.times[self._head] = t
        self.values[self._head] = values
        self._head = (self._head + 1) % self.depth
        self.count = min(self.count + 1, self.depth)

    def unrolled(self) -> tuple[np.ndarray, np.ndarray]:
        """Contents in time order (copies -- the ring keeps running)."""
        if self.count < self.depth:
            order = np.arange(self.count)
        else:
            order = (np.arange(self.depth) + self._head) % self.depth
        return self.times[order].copy(), self.values[order].copy()

    @property
    def nbytes(self) -> int:
        return int(self.times.nbytes + self.values.nbytes)


class ScopeSession:
    """One triggered capture window, threaded through one transient run.

    Pass the session as ``transient(..., scope=session)``; the engine
    binds it to the compiled circuit, feeds it every committed sample
    (t = 0 included) and finalises it when the run ends.  The ring
    buffer keeps the last ``pre_samples`` samples; when the trigger
    fires, the window closes after ``post_samples`` more, yielding one
    :class:`CaptureSegment` of at most ``pre_samples + 1 +
    post_samples`` samples (a run that ends first keeps the partial
    window).

    The window is the run's only waveform storage: the returned
    :class:`~repro.spice.results.TranResult` carries the time axis and
    telemetry but no waveform arrays.  Once the window closes, nothing
    observes a later step, so the engine ends the run on that closing
    sample -- ``t_stop`` becomes an upper bound, and the result's time
    axis stops there.  Every step up to the close is the one a full run
    takes, so the window is unchanged.  A session captures one run.
    """

    def __init__(self, probes: Sequence[Probe | str],
                 trigger: EdgeTrigger,
                 pre_samples: int = 64,
                 post_samples: int = 256) -> None:
        if not probes:
            raise AnalysisError("a scope session needs at least one probe")
        if pre_samples < 0 or post_samples < 0:
            raise AnalysisError("pre_samples/post_samples must be >= 0")
        self.probes = tuple(
            p if isinstance(p, Probe) else Probe(p) for p in probes)
        names = [p.name for p in self.probes]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate probe names: {names}")
        self.signal_names = tuple(names)
        self.trigger = trigger
        self.pre_samples = int(pre_samples)
        self.post_samples = int(post_samples)
        trigger.bind(self.signal_names)
        # +1: the ring ends up holding the pre-trigger window AND the
        # trigger sample itself when the window closes.
        self._ring = _RingBuffer(self.pre_samples + 1, len(self.probes))
        self._segment: CaptureSegment | None = None
        self._used = False
        self._post_times: list[float] = []
        self._post_values: list[np.ndarray] = []
        self._trigger_time: float | None = None
        self._samples_seen = 0
        self._samples_stored = 0
        self._tspan = None

    # -- lifecycle (driven by the transient engine) -------------------

    def _bind(self, node_index: dict[str, int], circuit_name: str,
              tspan) -> None:
        """Resolve probe node names against a compiled circuit."""
        if self._used:
            raise AnalysisError(
                "this ScopeSession already captured a run; a session "
                "captures one run, so make a new one")
        self._used = True
        self._tspan = tspan
        # A trigger shared with an earlier session must not compare this
        # run's first sample with that run's last one.
        self.trigger.bind(self.signal_names)

        def resolve(node: str) -> int:
            if node.lower() in _GROUND:
                return -1
            try:
                return node_index[node]
            except KeyError:
                raise AnalysisError(
                    f"probe node {node!r} is not a node of "
                    f"{circuit_name}") from None

        self._pos = np.array([resolve(p.pos) for p in self.probes])
        self._neg = np.array([resolve(p.neg) for p in self.probes])

    def _signal_values(self, x: np.ndarray) -> np.ndarray:
        pos = np.where(self._pos >= 0, x[self._pos], 0.0)
        neg = np.where(self._neg >= 0, x[self._neg], 0.0)
        return pos - neg

    def _on_sample(self, t: float, x: np.ndarray) -> None:
        """One committed solver step (called by the transient engine)."""
        self._samples_seen += 1
        values = self._signal_values(x)
        if self._trigger_time is not None:
            # Post-trigger collection.
            self._post_times.append(t)
            self._post_values.append(values)
            self._samples_stored += 1
            if len(self._post_times) >= self.post_samples:
                self._close_segment()
            return
        # Armed (the engine stops offering samples once the window
        # closed): the sample joins the ring, and closes the pre-trigger
        # window when it fires the trigger.
        self._ring.push(t, values)
        self._samples_stored += 1
        if self.trigger.check(values):
            self._trigger_time = t
            if self._tspan is not None:
                self._tspan.inc("scope_triggers")
            if self.post_samples == 0:
                self._close_segment()

    def _close_segment(self) -> None:
        ring_t, ring_v = self._ring.unrolled()
        post_t = np.asarray(self._post_times)
        post_v = (np.asarray(self._post_values)
                  if self._post_values else np.empty((0, ring_v.shape[1])))
        time = np.concatenate([ring_t, post_t])
        values = np.concatenate([ring_v, post_v]).T
        # The ring held (pre window + trigger sample); the trigger is
        # the last ring entry.
        self._segment = CaptureSegment(
            signals=self.signal_names,
            time=time, values=np.ascontiguousarray(values),
            trigger_time=self._trigger_time,
            trigger_index=int(ring_t.size - 1))
        self._post_times = []
        self._post_values = []
        self._trigger_time = None

    def _complete(self) -> bool:
        """True once the run owes this session nothing more: its window
        closed."""
        return self._segment is not None

    def _finish(self) -> None:
        """End of run: close an open window, flush counters."""
        if self._trigger_time is not None:
            # Run ended mid-window: keep the partial segment.
            self._close_segment()
        if self._tspan is not None:
            self._tspan.inc("scope_samples_seen", self._samples_seen)
            self._tspan.inc("scope_samples_stored", self._samples_stored)
            self._tspan.annotate(
                scope_segments=int(self._segment is not None))
            self._tspan = None

    # -- results ------------------------------------------------------

    @property
    def samples_seen(self) -> int:
        """Committed solver samples offered to the session."""
        return self._samples_seen

    @property
    def samples_stored(self) -> int:
        """Samples the session actually kept (ring + post window)."""
        return self._samples_stored

    def segment(self) -> CaptureSegment:
        """The captured window (raises if nothing was captured)."""
        if self._segment is None:
            raise AnalysisError(
                "no capture window: the trigger never fired (or the "
                "session was not passed to transient())")
        return self._segment

    def memory_bytes(self) -> int:
        """Current waveform-storage footprint of the session [bytes].

        Ring buffer + collected post-window + the finished window --
        the number the O(window) memory-bound tests assert on.
        """
        total = self._ring.nbytes
        if self._segment is not None:
            total += self._segment.nbytes
        total += 8 * len(self._post_times)
        total += sum(v.nbytes for v in self._post_values)
        return int(total)
