"""Waveform measurements: the numbers the paper reports.

Every headline claim of the source paper is a measurement on a
transient waveform -- gate propagation delay vs. tail current
(Fig. 9a), output swing pinned at V_SW, settling of the folding
front-end, the FAI ADC's timing.  This module turns raw ``(time,
value)`` arrays -- from a dense :class:`~repro.spice.results.TranResult`
or a triggered :class:`~repro.scope.capture.CaptureSegment` alike --
into small report objects usable by benchmarks, testbenches and the
fault/fuzz harnesses.

All functions validate their input the same way: records shorter than
two samples, NaN-polluted waveforms, or waveforms that never perform
the measured event raise a clean :class:`~repro.errors.AnalysisError`
naming the problem (never an IndexError from deep inside numpy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError


def _validated(time, value, what: str = "waveform",
               min_samples: int = 2) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(time, dtype=float)
    v = np.asarray(value, dtype=float)
    if t.ndim != 1 or v.ndim != 1:
        raise AnalysisError(f"{what}: time/value must be 1-D arrays")
    if t.size != v.size:
        raise AnalysisError(
            f"{what}: time ({t.size}) and value ({v.size}) lengths differ")
    if t.size < min_samples:
        raise AnalysisError(
            f"{what}: record too short ({t.size} samples, "
            f"need >= {min_samples})")
    if not np.all(np.isfinite(t)):
        raise AnalysisError(f"{what}: non-finite time axis")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise AnalysisError(
            f"{what}: non-finite sample at index {bad} "
            f"(t={t[min(bad, t.size - 1)]:.3e}s)")
    if np.any(np.diff(t) < 0.0):
        raise AnalysisError(f"{what}: time axis not monotonic")
    return t, v


def crossings(time, value, level: float,
              rising: bool | None = None) -> np.ndarray:
    """Interpolated times where the waveform crosses ``level``.

    ``rising`` filters the edge direction; None keeps both.  This is
    the shared crossing kernel --
    :meth:`repro.spice.results.TranResult.crossing_times` delegates
    here.
    """
    t, v = _validated(time, value, "crossings")
    above = v >= level
    toggles = np.nonzero(above[1:] != above[:-1])[0]
    out = []
    for k in toggles:
        is_rising = not above[k]
        if rising is not None and is_rising != rising:
            continue
        v1, v2 = v[k], v[k + 1]
        frac = (level - v1) / (v2 - v1) if v2 != v1 else 0.5
        out.append(t[k] + frac * (t[k + 1] - t[k]))
    return np.array(out)


def _single_crossing(time, value, level: float, rising: bool | None,
                     occurrence: int, what: str) -> float:
    times = crossings(time, value, level, rising)
    if times.size <= occurrence:
        direction = {True: "rising ", False: "falling ", None: ""}[rising]
        raise AnalysisError(
            f"{what}: needs {direction}crossing #{occurrence} of level "
            f"{level:.4g} V but the record has only {times.size}")
    return float(times[occurrence])


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelayReport:
    """Propagation delay between an input edge and an output edge."""

    delay: float          # [s]
    t_in: float           # input crossing instant [s]
    t_out: float          # output crossing instant [s]
    level_in: float       # [V]
    level_out: float      # [V]

    def describe(self) -> str:
        return (f"t_pd = {self.delay:.4g} s "
                f"(in @ {self.t_in:.4g} s, out @ {self.t_out:.4g} s)")


@dataclass(frozen=True)
class SlewReport:
    """10/90 (by default) transition time of one edge."""

    kind: str             # "rise" | "fall"
    duration: float       # [s]
    slew: float           # [V/s], signed
    t_start: float        # [s]
    t_end: float          # [s]
    v_start: float        # threshold voltage at t_start [V]
    v_end: float          # threshold voltage at t_end [V]

    def describe(self) -> str:
        return (f"t_{self.kind} = {self.duration:.4g} s "
                f"({self.v_start:.4g} V -> {self.v_end:.4g} V, "
                f"{self.slew:.4g} V/s)")


@dataclass(frozen=True)
class SwingReport:
    """Output swing over a (settled part of a) record."""

    v_min: float
    v_max: float

    @property
    def swing(self) -> float:
        return self.v_max - self.v_min

    def describe(self) -> str:
        return (f"swing = {self.swing:.4g} V "
                f"({self.v_min:.4g} .. {self.v_max:.4g} V)")


@dataclass(frozen=True)
class SettlingReport:
    """First instant after which the waveform stays inside a band."""

    t_settle: float       # [s], measured from t_reference
    band: float           # band half-width as a fraction of |step|
    v_final: float

    def describe(self) -> str:
        return (f"settled to +/-{self.band:.1%} at "
                f"{self.t_settle:.4g} s")


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


def propagation_delay(time, v_in, v_out,
                      level_in: float | None = None,
                      level_out: float | None = None,
                      edge_in: bool | None = True,
                      edge_out: bool | None = None,
                      occurrence: int = 0) -> DelayReport:
    """Delay from an input threshold crossing to the output's response.

    Levels default to each waveform's own mid-swing (the 50 % point,
    the convention the paper's delay plots use).  ``edge_in`` /
    ``edge_out`` pick the edge direction (True rising, False falling,
    None either); the output crossing is the first one *at or after*
    the input crossing, so inverting stages measure naturally with
    ``edge_out=None``.
    """
    t, vi = _validated(time, v_in, "propagation_delay (input)")
    _, vo = _validated(time, v_out, "propagation_delay (output)")
    if level_in is None:
        level_in = 0.5 * (float(vi.min()) + float(vi.max()))
    if level_out is None:
        level_out = 0.5 * (float(vo.min()) + float(vo.max()))
    t_in = _single_crossing(t, vi, level_in, edge_in, occurrence,
                            "propagation_delay (input)")
    out_times = crossings(t, vo, level_out, edge_out)
    after = out_times[out_times >= t_in]
    if after.size == 0:
        raise AnalysisError(
            f"propagation_delay: output never crosses "
            f"{level_out:.4g} V after the input edge at {t_in:.4g} s")
    t_out = float(after[0])
    return DelayReport(delay=t_out - t_in, t_in=t_in, t_out=t_out,
                       level_in=level_in, level_out=level_out)


def transition_time(time, value, kind: str = "rise",
                    low_frac: float = 0.1, high_frac: float = 0.9,
                    occurrence: int = 0) -> SlewReport:
    """Rise/fall time between the ``low_frac``/``high_frac`` levels.

    Levels are fractions of the record's own min..max swing (the usual
    10 %/90 % definition).
    """
    if kind not in ("rise", "fall"):
        raise AnalysisError(f"kind must be 'rise' or 'fall', got {kind!r}")
    if not 0.0 <= low_frac < high_frac <= 1.0:
        raise AnalysisError(
            f"need 0 <= low_frac < high_frac <= 1, "
            f"got {low_frac}/{high_frac}")
    t, v = _validated(time, value, f"transition_time ({kind})")
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        raise AnalysisError(
            f"transition_time: waveform is flat at {lo:.4g} V")
    v_low = lo + low_frac * (hi - lo)
    v_high = lo + high_frac * (hi - lo)
    rising = kind == "rise"
    first_level, second_level = ((v_low, v_high) if rising
                                 else (v_high, v_low))
    t_start = _single_crossing(t, v, first_level, rising, occurrence,
                               f"transition_time ({kind})")
    seconds = crossings(t, v, second_level, rising)
    after = seconds[seconds >= t_start]
    if after.size == 0:
        raise AnalysisError(
            f"transition_time: edge at {t_start:.4g} s never reaches "
            f"{second_level:.4g} V")
    t_end = float(after[0])
    duration = t_end - t_start
    slew = (second_level - first_level) / duration if duration > 0 \
        else float("inf") * (1 if rising else -1)
    return SlewReport(kind=kind, duration=duration, slew=slew,
                      t_start=t_start, t_end=t_end,
                      v_start=first_level, v_end=second_level)


def output_swing(time, value, t_from: float = 0.0) -> SwingReport:
    """Min/max swing of the record from ``t_from`` onward."""
    t, v = _validated(time, value, "output_swing")
    mask = t >= t_from
    if not np.any(mask):
        raise AnalysisError(
            f"output_swing: no samples at or after t_from={t_from:.4g} s")
    window = v[mask]
    return SwingReport(v_min=float(window.min()),
                       v_max=float(window.max()))


def settling_time(time, value, band: float = 0.02,
                  v_final: float | None = None,
                  v_initial: float | None = None,
                  t_reference: float = 0.0) -> SettlingReport:
    """Time (from ``t_reference``) to stay within ``band`` of final.

    The band half-width is ``band * |v_final - v_initial|`` (fractions
    of the step, the classical definition).  Raises when the record
    ends outside the band -- a truncated record must not silently
    report "settled".
    """
    t, v = _validated(time, value, "settling_time")
    if band <= 0.0:
        raise AnalysisError(f"band must be positive, got {band}")
    if v_initial is None:
        v_initial = float(v[0])
    if v_final is None:
        v_final = float(v[-1])
    step = abs(v_final - v_initial)
    if step == 0.0:
        raise AnalysisError(
            "settling_time: zero step; pass explicit v_initial/v_final")
    half_width = band * step
    error = np.abs(v - v_final)
    if error[-1] > half_width:
        raise AnalysisError(
            f"settling_time: record ends {error[-1]:.4g} V from the "
            f"final value, outside the +/-{half_width:.4g} V band "
            f"(truncated record?)")
    outside = np.nonzero(error > half_width)[0]
    if outside.size == 0:
        return SettlingReport(t_settle=0.0, band=band, v_final=v_final)
    k = int(outside[-1])  # last sample outside the band
    # Interpolate the band entry between samples k and k+1.
    e1, e2 = float(error[k]), float(error[k + 1])
    frac = (e1 - half_width) / (e1 - e2) if e1 != e2 else 1.0
    t_enter = float(t[k] + frac * (t[k + 1] - t[k]))
    return SettlingReport(t_settle=t_enter - t_reference, band=band,
                          v_final=v_final)
