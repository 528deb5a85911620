"""Streaming waveform capture for the transient engine.

Modeled on litescope's on-chip logic-analyzer split: *probes* name the
signals to watch, a *trigger* decides when a window is interesting, a
bounded *ring buffer* holds the pre-trigger history, and *decimation*
trades resolution for depth -- all evaluated sample-by-sample as the
transient engine commits steps, so the memory footprint is
O(window), not O(steps), on arbitrarily long runs.

The capture path is bitwise-faithful: without decimation, a stored
sample is exactly the solver's committed node voltage (no resampling,
no interpolation), so a triggered window equals the corresponding
slice of a dense full-history record of the same run -- the contract
the equivalence tests pin.

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
from typing import Callable, Sequence

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
# Triggers
# ---------------------------------------------------------------------------


class Trigger:
    """Decides, per committed sample, whether the capture window starts.

    Subclasses implement :meth:`check`; the session calls it with the
    probe-value vector of each committed sample (after the previous
    one), and the first ``True`` fires the trigger.  ``reset`` rearms
    any internal state for segment re-arming and session reuse.
    """

    def reset(self) -> None:  # pragma: no cover - default is stateless
        pass

    def bind(self, names: Sequence[str]) -> None:
        """Resolve signal names against the session's probe list."""
        raise NotImplementedError

    def check(self, values: np.ndarray) -> bool:
        raise NotImplementedError


class _SignalTrigger(Trigger):
    """Base for triggers bound to one named probe signal."""

    def __init__(self, signal: str) -> None:
        self.signal = signal
        self._index: int | None = None

    def bind(self, names: Sequence[str]) -> None:
        try:
            self._index = list(names).index(self.signal)
        except ValueError:
            raise AnalysisError(
                f"trigger signal {self.signal!r} is not a probe "
                f"(probes: {', '.join(names)})") from None


class EdgeTrigger(_SignalTrigger):
    """Fires when the signal crosses ``level`` in ``direction``.

    ``direction`` is ``"rising"``, ``"falling"`` or ``"either"``.  A
    crossing needs two samples (strictly below then at-or-above for
    rising), so the trigger can never fire on the first sample.
    """

    def __init__(self, signal: str, level: float,
                 direction: str = "rising") -> None:
        super().__init__(signal)
        if direction not in ("rising", "falling", "either"):
            raise AnalysisError(
                f"direction must be rising/falling/either, "
                f"got {direction!r}")
        self.level = float(level)
        self.direction = direction
        self._previous: float | None = None

    def reset(self) -> None:
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


class LevelTrigger(_SignalTrigger):
    """Fires as soon as the signal is ``above`` (or ``below``) a level."""

    def __init__(self, signal: str, level: float,
                 mode: str = "above") -> None:
        super().__init__(signal)
        if mode not in ("above", "below"):
            raise AnalysisError(f"mode must be above/below, got {mode!r}")
        self.level = float(level)
        self.mode = mode

    def check(self, values: np.ndarray) -> bool:
        value = float(values[self._index])
        return value >= self.level if self.mode == "above" \
            else value <= self.level


class ExpressionTrigger(Trigger):
    """Fires on the rising edge of a predicate over probe values.

    ``fn`` receives ``{probe name: value}`` for each committed sample;
    the trigger fires on the first sample where the predicate turns
    True after being False (a predicate already True on the very first
    sample fires immediately).
    """

    def __init__(self, fn: Callable[[dict[str, float]], bool]) -> None:
        self.fn = fn
        self._names: tuple[str, ...] = ()
        self._previous = False

    def bind(self, names: Sequence[str]) -> None:
        self._names = tuple(names)

    def reset(self) -> None:
        self._previous = False

    def check(self, values: np.ndarray) -> bool:
        state = bool(self.fn(dict(zip(self._names, values))))
        fired = state and not self._previous
        self._previous = state
        return fired


# ---------------------------------------------------------------------------
# Decimation
# ---------------------------------------------------------------------------


class Decimator:
    """Maps the committed-sample stream onto the stored-sample stream.

    ``push`` returns the (possibly empty) list of ``(t, values)``
    samples to store for one input sample; ``flush`` drains any
    partial state (called at a trigger boundary and at end of run).
    """

    def reset(self) -> None:  # pragma: no cover - default is stateless
        pass

    def push(self, t: float, values: np.ndarray) -> list:
        raise NotImplementedError

    def flush(self) -> list:
        return []


class Stride(Decimator):
    """Keep every ``n``-th committed sample (the first one included)."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise AnalysisError(f"stride must be >= 1, got {n}")
        self.n = int(n)
        self._count = 0

    def reset(self) -> None:
        self._count = 0

    def push(self, t: float, values: np.ndarray) -> list:
        keep = self._count % self.n == 0
        self._count += 1
        return [(t, values)] if keep else []


class PeakDetect(Decimator):
    """Min/max envelope decimation: 2 stored samples per ``n`` inputs.

    Each block of ``n`` committed samples stores two samples -- the
    per-signal running minima stamped at the block's first time and
    the per-signal maxima at its last -- so narrow glitches survive
    decimation (the property stride decimation cannot give you).
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise AnalysisError(f"peak-detect block must be >= 2, got {n}")
        self.n = int(n)
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._t_first = 0.0
        self._t_last = 0.0
        self._minima: np.ndarray | None = None
        self._maxima: np.ndarray | None = None

    def push(self, t: float, values: np.ndarray) -> list:
        if self._count == 0:
            self._t_first = t
            self._minima = values.copy()
            self._maxima = values.copy()
        else:
            np.minimum(self._minima, values, out=self._minima)
            np.maximum(self._maxima, values, out=self._maxima)
        self._t_last = t
        self._count += 1
        if self._count >= self.n:
            return self.flush()
        return []

    def flush(self) -> list:
        if self._count == 0:
            return []
        out = [(self._t_first, self._minima),
               (self._t_last, self._maxima)]
        self.reset()
        return out


# ---------------------------------------------------------------------------
# Capture storage
# ---------------------------------------------------------------------------


@dataclass
class CaptureSegment:
    """One captured window: a shared time axis + one row per probe.

    ``trigger_index`` locates the trigger sample on the time axis
    (None for untriggered streaming captures).
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

    def clear(self) -> None:
        self.count = 0
        self._head = 0

    @property
    def nbytes(self) -> int:
        return int(self.times.nbytes + self.values.nbytes)


class ScopeSession:
    """A capture plan threaded through one transient run.

    Pass the session as ``transient(..., scope=session)``; the engine
    binds it to the compiled circuit, feeds it every committed sample
    (t = 0 included) and finalises it when the run ends.  Afterwards
    the captured windows are on :attr:`segments`.

    Modes:

    * ``trigger=None`` -- streaming: every (decimated) sample is kept;
      one segment covering the whole run.  Memory grows with the kept
      samples -- decimate for long runs.
    * with a trigger -- the ring buffer keeps the last ``pre_samples``
      stored samples; when the trigger fires, the window closes after
      ``post_samples`` more, yielding a segment of at most
      ``pre_samples + 1 + post_samples`` samples.  ``mode="single"``
      (default) stops capturing there -- memory stays O(window) no
      matter how long the run -- while ``mode="normal"`` re-arms until
      ``max_segments`` windows were taken.

    ``replace_dense=True`` additionally tells the transient engine to
    skip its own dense full-history record: the returned
    :class:`~repro.spice.results.TranResult` then carries the time axis
    and telemetry but no waveform arrays, and the session's windows are
    the only (bounded) waveform storage of the run.  With a trigger,
    such a session is *complete* once it takes no further window (the
    single-shot window closed, or the ``max_segments``-th one): nothing
    observes a later step, so the engine ends the run on that closing
    sample -- ``t_stop`` becomes an upper bound, and the result's time
    axis stops there.  Every step up to the close is the one a full run
    takes, so the windows are unchanged.
    """

    def __init__(self, probes: Sequence[Probe | str],
                 trigger: Trigger | None = None,
                 pre_samples: int = 64,
                 post_samples: int = 256,
                 decimation: Decimator | None = None,
                 mode: str = "single",
                 max_segments: int = 16,
                 replace_dense: bool = False) -> None:
        if not probes:
            raise AnalysisError("a scope session needs at least one probe")
        if mode not in ("single", "normal"):
            raise AnalysisError(f"mode must be single/normal, got {mode!r}")
        if pre_samples < 0 or post_samples < 0:
            raise AnalysisError("pre_samples/post_samples must be >= 0")
        if max_segments < 1:
            raise AnalysisError("max_segments must be >= 1")
        self.probes = tuple(
            p if isinstance(p, Probe) else Probe(p) for p in probes)
        names = [p.name for p in self.probes]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate probe names: {names}")
        self.signal_names = tuple(names)
        self.trigger = trigger
        self.pre_samples = int(pre_samples)
        self.post_samples = int(post_samples)
        self.decimation = decimation
        self.mode = mode
        self.max_segments = int(max_segments)
        self.replace_dense = bool(replace_dense)
        if trigger is not None:
            trigger.bind(self.signal_names)
        self.segments: list[CaptureSegment] = []
        self._bound = False
        self._used = False
        self._reset_state()

    # -- lifecycle (driven by the transient engine) -------------------

    def _reset_state(self) -> None:
        self._ring: _RingBuffer | None = None
        self._stream_chunks: list[tuple[list, list]] | None = None
        self._post_times: list[float] = []
        self._post_values: list[np.ndarray] = []
        self._pending_trigger: tuple[float, int] | None = None
        self._armed = self.trigger is not None
        self._samples_seen = 0
        self._samples_stored = 0
        self._tspan = None

    def reset(self) -> None:
        """Clear all captured state so the session can run again."""
        self.segments = []
        self._bound = False
        self._used = False
        if self.trigger is not None:
            self.trigger.reset()
        if self.decimation is not None:
            self.decimation.reset()
        self._reset_state()

    def clone(self) -> "ScopeSession":
        """A fresh, unused session with this one's capture plan.

        Trigger and decimator are deep-copied (they carry per-run
        state), so clones never share mutable pieces -- the way the
        batched transient engine replicates one plan into a per-lane
        session list (:func:`~repro.spice.batch.batch_transient` needs
        an independent single-use session per lane).
        """
        import copy
        return ScopeSession(self.probes,
                            trigger=copy.deepcopy(self.trigger),
                            pre_samples=self.pre_samples,
                            post_samples=self.post_samples,
                            decimation=copy.deepcopy(self.decimation),
                            mode=self.mode,
                            max_segments=self.max_segments,
                            replace_dense=self.replace_dense)

    def _bind(self, node_index: dict[str, int], circuit_name: str,
              tspan) -> None:
        """Resolve probe node names against a compiled circuit."""
        if self._used:
            raise AnalysisError(
                "this ScopeSession already captured a run; call "
                "reset() before reusing it")
        self._used = True
        self._tspan = tspan

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
        n = len(self.probes)
        if self.trigger is not None:
            # +1: the ring ends up holding the pre-trigger window AND
            # the trigger sample itself when the window closes.
            self._ring = _RingBuffer(self.pre_samples + 1, n)
        else:
            self._stream_chunks = [([], [])]
        self._bound = True

    def _signal_values(self, x: np.ndarray) -> np.ndarray:
        pos = np.where(self._pos >= 0, x[self._pos], 0.0)
        neg = np.where(self._neg >= 0, x[self._neg], 0.0)
        return pos - neg

    def _on_sample(self, t: float, x: np.ndarray) -> None:
        """One committed solver step (called by the transient engine)."""
        if not self._bound:
            raise AnalysisError("ScopeSession used before binding")
        self._samples_seen += 1
        values = self._signal_values(x)

        fired = False
        if self._armed and self.trigger is not None \
                and self._pending_trigger is None:
            fired = self.trigger.check(values)

        if self.trigger is None:
            self._store_stream(t, values)
            return

        if not self._armed and self._pending_trigger is None:
            return  # single-shot capture already done: O(window) memory

        if fired:
            # Close the pre-trigger window exactly at the trigger
            # sample: flush any partial decimation block, then record
            # the trigger sample itself undecimated.
            if self.decimation is not None:
                for td, vd in self.decimation.flush():
                    self._ring.push(td, vd)
            self._ring.push(t, values)
            self._samples_stored += 1
            self._pending_trigger = (t, self._ring.count - 1)
            if self._tspan is not None:
                self._tspan.inc("scope_triggers")
            if self.post_samples == 0:
                self._close_segment()
            return

        if self._pending_trigger is not None:
            # Post-trigger collection (undecimated: the window is
            # already bounded, resolution is what matters now).
            self._post_times.append(t)
            self._post_values.append(values)
            self._samples_stored += 1
            if len(self._post_times) >= self.post_samples:
                self._close_segment()
            return

        # Armed, pre-trigger: decimate into the ring.
        stored = ([(t, values)] if self.decimation is None
                  else self.decimation.push(t, values))
        for td, vd in stored:
            self._ring.push(td, vd)
            self._samples_stored += 1

    def _store_stream(self, t: float, values: np.ndarray) -> None:
        stored = ([(t, values)] if self.decimation is None
                  else self.decimation.push(t, values))
        times, vals = self._stream_chunks[-1]
        for td, vd in stored:
            times.append(td)
            vals.append(vd)
            self._samples_stored += 1

    def _close_segment(self) -> None:
        trigger_time, _ring_index = self._pending_trigger
        ring_t, ring_v = self._ring.unrolled()
        post_t = np.asarray(self._post_times)
        post_v = (np.asarray(self._post_values)
                  if self._post_values else np.empty((0, ring_v.shape[1])))
        time = np.concatenate([ring_t, post_t])
        values = np.concatenate([ring_v, post_v]).T
        # The ring held (pre window + trigger sample); the trigger is
        # the last ring entry.
        trigger_index = int(ring_t.size - 1)
        self.segments.append(CaptureSegment(
            signals=self.signal_names,
            time=time, values=np.ascontiguousarray(values),
            trigger_time=trigger_time, trigger_index=trigger_index))
        self._post_times = []
        self._post_values = []
        self._pending_trigger = None
        self._ring.clear()
        if self.mode == "normal" and len(self.segments) < self.max_segments:
            self.trigger.reset()
            if self.decimation is not None:
                self.decimation.reset()
            self._armed = True
        else:
            self._armed = False

    def _complete(self) -> bool:
        """True once the run owes this session nothing more: it replaces
        the dense record and its trigger takes no further window (the
        single-shot window closed, or the ``max_segments``-th did)."""
        return (self.replace_dense and self.trigger is not None
                and not self._armed)

    def _finish(self) -> None:
        """End of run: close open windows, flush counters."""
        if self.trigger is None:
            if self.decimation is not None:
                times, vals = self._stream_chunks[-1]
                for td, vd in self.decimation.flush():
                    times.append(td)
                    vals.append(vd)
                    self._samples_stored += 1
            times, vals = self._stream_chunks[0]
            time = np.asarray(times)
            values = (np.asarray(vals).T if vals
                      else np.empty((len(self.probes), 0)))
            self.segments.append(CaptureSegment(
                signals=self.signal_names, time=time,
                values=np.ascontiguousarray(values)))
            self._stream_chunks = None
        elif self._pending_trigger is not None:
            # Run ended mid-window: keep the partial segment.
            self._close_segment()
        if self._tspan is not None:
            self._tspan.inc("scope_samples_seen", self._samples_seen)
            self._tspan.inc("scope_samples_stored", self._samples_stored)
            self._tspan.annotate(scope_segments=len(self.segments))
            self._tspan = None

    # -- results ------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once at least one window was captured by a trigger."""
        return self.trigger is not None and bool(self.segments)

    @property
    def samples_seen(self) -> int:
        """Committed solver samples offered to the session."""
        return self._samples_seen

    @property
    def samples_stored(self) -> int:
        """Samples the session actually kept (ring + post + stream)."""
        return self._samples_stored

    def segment(self, index: int = 0) -> CaptureSegment:
        """The captured window (raises if nothing was captured)."""
        if not self.segments:
            raise AnalysisError(
                "no capture window: the trigger never fired (or the "
                "session was not passed to transient())")
        return self.segments[index]

    def memory_bytes(self) -> int:
        """Current waveform-storage footprint of the session [bytes].

        Ring buffer + collected post-window + finished segments --
        the number the O(window) memory-bound tests assert on.
        """
        total = sum(seg.nbytes for seg in self.segments)
        if self._ring is not None:
            total += self._ring.nbytes
        total += 8 * len(self._post_times)
        total += sum(v.nbytes for v in self._post_values)
        if self._stream_chunks is not None:
            for times, vals in self._stream_chunks:
                total += 8 * len(times)
                total += sum(v.nbytes for v in vals)
        return int(total)
