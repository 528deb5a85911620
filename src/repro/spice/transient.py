"""Transient analysis: trapezoidal / backward-Euler with adaptive steps.

The integrator is charge-based: at each accepted time point the solver
records the charge of every dynamic term, and each Newton solve at the
new time point stamps the companion current

    BE:    i = (q(x) - q_prev) / dt
    TRAP:  i = 2 (q(x) - q_prev) / dt - i_prev

Waveform breakpoints (pulse edges etc.) are always landed on exactly.

Step sizes come from a local-truncation-error controller: each
converged candidate solution is compared against a polynomial
predictor extrapolated through the last accepted points; the
difference, scaled by the standard per-method error constant
(``dt^3 x'''/12`` for trap, ``dt^2 x''/2`` for backward Euler),
estimates the LTE, and the step size is driven toward the
``reltol``/``abstol`` target.  Steps whose estimated error exceeds the
target are rejected and retried smaller -- telemetry distinguishes
these *LTE rejections* from *Newton rejections*.  A fixed grid is
``dt_initial == dt_min == dt_max``.

The controller is written once, in :class:`_Stepper`, over an ``(A,
N)`` lane state: :func:`transient` runs one lane through the scalar
Newton kernel, :func:`~repro.spice.batch.batch_transient` every
lockstep lane through the stacked one.  Every Newton iteration of
every step factors the Jacobian it just assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import math
import time as _time

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from ..scope.capture import ScopeSession

from .. import telemetry
from ..errors import AnalysisError, ConvergenceError, NetlistError
from .dc import NewtonOptions, operating_point
from .elements import CurrentSource, Stamper, VoltageSource
from .netlist import Circuit
from .results import OpResult, TranResult
from .strategies import newton_solve


@dataclass(frozen=True)
class TransientOptions:
    """Transient-engine knobs.

    Attributes:
        dt_initial: First step size [s]; default t_stop / 1000.
        dt_min: Smallest allowed step [s]; default t_stop * 1e-9.
        dt_max: Largest allowed step [s]; default t_stop / 50.
            Each step size must be None or finite and positive.
        method: 'trap' (default) or 'be'.
        newton: Nonlinear-solver options per step.
        record_currents: Also record branch currents of voltage sources.
        max_rejections: Total step-rejection budget for the whole run
            (None: unlimited), counting Newton and LTE rejections
            alike.  A circuit that keeps rejecting steps is diagnosed
            early with its telemetry instead of grinding the step size
            down to ``dt_min``.
        reltol: Relative waveform-error target per step (LTE control).
        abstol: Absolute waveform-error floor per step [V].
        max_wall_time: Wall-clock budget [s] for the whole run (initial
            operating point included).  When exceeded, the run aborts
            with :class:`~repro.errors.ConvergenceError` carrying the
            :class:`TransientTelemetry` gathered so far (stage
            ``"wall-clock"``); None (default) means unlimited.
    """

    dt_initial: float | None = None
    dt_min: float | None = None
    dt_max: float | None = None
    method: str = "trap"
    newton: NewtonOptions = NewtonOptions(max_iterations=60)
    record_currents: bool = False
    max_rejections: int | None = None
    reltol: float = 1.0e-3
    abstol: float = 1.0e-6
    max_wall_time: float | None = None


@dataclass
class TransientTelemetry:
    """Step-acceptance record of one transient run.

    Attributes:
        steps_accepted: Time points committed.
        steps_rejected: Attempts that shrank the step (all causes).
        newton_rejections: Rejections caused by a Newton failure.
        lte_rejections: Rejections caused by the LTE controller.
        newton_iterations: Total Newton iterations of every converged
            per-step solve, the ones the LTE controller then rejected
            included.
        rejection_times: Simulation times [s] at which rejections
            happened (capped at 64 entries; earliest kept).
        dt_smallest: Smallest step size actually committed [s].
    """

    steps_accepted: int = 0
    steps_rejected: int = 0
    newton_rejections: int = 0
    lte_rejections: int = 0
    newton_iterations: int = 0
    rejection_times: list[float] = field(default_factory=list)
    dt_smallest: float = float("inf")

    _REJECTION_LOG_LIMIT = 64

    def record_rejection(self, time: float, kind: str = "newton") -> None:
        self.steps_rejected += 1
        if kind == "lte":
            self.lte_rejections += 1
        else:
            self.newton_rejections += 1
        if len(self.rejection_times) < self._REJECTION_LOG_LIMIT:
            self.rejection_times.append(time)

    def describe(self) -> str:
        rate = self.steps_rejected / max(
            1, self.steps_accepted + self.steps_rejected)
        # dt_smallest is the identity of min() until a step commits; a
        # run that died before its first commit must not report an
        # "inf seconds" step size.
        dt_text = (f"{self.dt_smallest:.3e} s"
                   if math.isfinite(self.dt_smallest)
                   else "n/a (no committed steps)")
        text = (f"{self.steps_accepted} steps accepted, "
                f"{self.steps_rejected} rejected ({rate:.0%}), "
                f"{self.newton_iterations} Newton iterations, "
                f"smallest dt {dt_text}")
        # Breakdown appended after the historical string shape, so
        # prefix-matching log parsers keep working.
        if self.steps_rejected:
            text += (f"; rejections: {self.newton_rejections} newton, "
                     f"{self.lte_rejections} lte")
        return text


#: Breakpoints closer together than this fraction of t_stop are merged
#: (and ones this close to t=0 / t=t_stop dropped): two waveform edges
#: a few float-ulps apart must not force a sub-``dt_min`` landing step.
_BREAKPOINT_MERGE_RTOL = 1.0e-9


def _breakpoints(circuit: Circuit, t_stop: float) -> list[float]:
    from .subckt import Instance
    points: set[float] = set()

    def collect(element) -> None:
        if isinstance(element, (VoltageSource, CurrentSource)):
            # breakpoints_within drops corners at or beyond t_stop at
            # the waveform (pre-merge), and lets periodic waveforms
            # generate corners for the whole window instead of a
            # fixed-length table.
            for t in element.waveform.breakpoints_within(t_stop):
                if 0.0 < t < t_stop:
                    points.add(float(t))
        elif isinstance(element, Instance):
            for source in element.waveform_sources():
                collect(source)

    for element in circuit.elements:
        collect(element)
    merge_below = _BREAKPOINT_MERGE_RTOL * t_stop
    merged: list[float] = []
    for t in sorted(points):
        if t <= merge_below or t >= t_stop - merge_below:
            continue  # coincides with an endpoint the loop lands anyway
        if merged and t - merged[-1] <= merge_below:
            continue  # near-duplicate edge: keep the earliest
        merged.append(t)
    return merged


#: Truncation-error overestimation divisor (SPICE's TRTOL): the
#: divided-difference LTE estimate is conservative by roughly this
#: factor on smooth waveforms.
TRTOL = 7.0

#: Step-growth cap, shrink floor and safety factor of the LTE
#: controller (standard embedded-error-controller constants).
_LTE_MAX_GROWTH = 3.0
_LTE_MIN_SHRINK = 0.1
_LTE_SAFETY = 0.9

#: First step after a waveform corner, as a fraction of the run to the
#: next breakpoint.  The predictor history is empty right after a
#: corner, so that one step is taken blind (no LTE check); starting it
#: small bounds the unchecked error, and the controller's growth cap
#: recovers the step size within a couple of accepted steps.
_BREAKPOINT_RESTART_FRACTION = 0.125


def _predict(t_new: float, hist_t: list[float],
             hist_x: list[np.ndarray], k: int) -> np.ndarray:
    """Lagrange extrapolation through the last ``k`` accepted points."""
    ts = hist_t[-k:]
    xs = hist_x[-k:]
    pred = np.zeros_like(xs[0])
    for i in range(k):
        weight = 1.0
        for j in range(k):
            if j != i:
                weight *= (t_new - ts[j]) / (ts[i] - ts[j])
        pred += weight * xs[i]
    return pred


def _lte_norm(t_new: float, X_new: np.ndarray, X_pred: np.ndarray,
              hist_t: list[float], X_last: np.ndarray, n_nodes: int,
              order: int, options: TransientOptions) -> np.ndarray:
    """Estimated LTE over the node voltages of every lane row of
    ``X_new`` (A, N), normalised to the ``reltol``/``abstol`` target
    (``<= 1`` accepts the lane's step); ``X_last`` holds the last
    accepted solutions.

    The predictor difference ``x_new - p(t_new)`` equals
    ``prod(t_new - t_i) * DD_{k}`` with ``DD_k`` the k-th divided
    difference including the new point, which yields the standard
    truncation-error estimates ``dt^3 x'''/12`` (trap, ``x''' ~ 6 DD3``)
    and ``dt^2 x''/2`` (BE, ``x'' ~ 2 DD2``).
    """
    if n_nodes == 0:
        return np.zeros(X_new.shape[0])
    err = np.abs(X_new[:, :n_nodes] - X_pred[:, :n_nodes])
    dt = t_new - hist_t[-1]
    if order == 2:
        w = (dt * (t_new - hist_t[-2]) * (t_new - hist_t[-3]))
        lte = err * (dt ** 3) / (2.0 * w)
    else:
        w = dt * (t_new - hist_t[-2])
        lte = err * (dt ** 2) / w
    tol = options.abstol + options.reltol * np.maximum(
        np.abs(X_new[:, :n_nodes]), np.abs(X_last[:, :n_nodes]))
    return np.max(lte / (TRTOL * tol), axis=1)


def _lte_factor(err_norm: float, order: int, low: float,
                high: float) -> float:
    """Step-scale factor an error norm asks for, clamped to
    ``[low, high]``."""
    if err_norm <= 0.0:
        return high
    return max(low, min(high, _LTE_SAFETY * err_norm ** (-1.0 / (order + 1))))


def _check_options(t_stop: float, options: TransientOptions) -> None:
    """Reject a run the step loop could never finish."""
    if t_stop <= 0.0:
        raise NetlistError(f"t_stop must be positive, got {t_stop}")
    if options.method not in ("trap", "be"):
        raise NetlistError(f"unknown method {options.method!r}")
    for name in ("dt_initial", "dt_min", "dt_max"):
        value = getattr(options, name)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise NetlistError(
                f"{name} must be None or a finite step > 0 s, "
                f"got {value!r}")


class _Stepper:
    """The transient step controller, over an ``(A, N)`` lane state.

    Row ``r`` of every per-lane array belongs to lane ``self.lanes[r]``;
    a lane that leaves the grid drops its row.  The loop owns breakpoint
    landing, the predictor (the LTE reference and Newton's start), the
    min-rule verdict -- any lane over tolerance rejects the step for
    all, and the most conservative lane sets the next step -- the
    restart after a waveform corner, the rejection and wall-clock
    budgets, per-lane :class:`TransientTelemetry`, dense and scope
    recording, and :class:`TranResult` packaging.

    An entry point subclasses it with the telemetry names below -- the
    counter bumped per accepted step, the counter advanced per rejection
    by the number of lanes blamed, an optional per-cause rejection
    counter pattern, and the rejection event -- and four methods:

    * ``solve(X, t_new, c0, rhs) -> (X_new, iterations, failed)``: one
      Newton attempt for every lane row, started from ``X`` (A, N) with
      companion coefficient ``c0`` and per-lane charge history ``rhs``;
      ``failed`` maps each failed row to its reason;
    * ``charges(X)``: the dynamic charges of every lane row, (A, Nq);
    * ``leave(lane, reason, t)``: the fate of a lane that leaves the
      grid at ``t``;
    * ``diagnostics()``: the record the run's errors carry.
    """

    LABEL = "transient"
    ACCEPTED = "transient_steps_accepted"
    REJECTED = "transient_steps_rejected"
    REJECTED_BY_CAUSE: str | None = "transient_{}_rejections"
    REJECTED_EVENT = "step-rejected"

    def __init__(self, circuit: Circuit, t_stop: float,
                 options: TransientOptions, tspan, scopes: list,
                 lane_budget: int | None = None) -> None:
        self.start = _time.perf_counter()
        self.circuit = circuit
        self.compiled = circuit.compile()
        self.t_stop = t_stop
        self.options = options
        self.tspan = tspan
        self.scopes = scopes
        self.lane_budget = lane_budget
        # One absolute deadline covers the whole run, compile and
        # initial operating point included; it is also threaded into the
        # per-step Newton solves so a single stuck solve cannot outlive
        # the budget.
        self.deadline = (None if options.max_wall_time is None
                         else self.start + options.max_wall_time)
        newton = options.newton
        if self.deadline is not None:
            newton = replace(newton, deadline=self.deadline)
        # The waveform accuracy contract is (reltol, abstol); resolving
        # each nonlinear solve tighter than the absolute waveform
        # tolerance is wasted iterations, so the Newton update tolerance
        # is raised to ``abstol`` (a tighter user-set ``vntol`` is
        # honoured by lowering ``abstol``).
        self.newton_options = replace(
            newton, vntol=max(newton.vntol, options.abstol))
        self.dt_min = options.dt_min or t_stop * 1e-9
        self.logs = [TransientTelemetry() for _ in scopes]
        self.results: list[TranResult | None] = [None] * len(scopes)
        self.lanes: list[int] = []
        self.steps_accepted = 0
        self.steps_rejected = 0
        self.dt_smallest = float("inf")

    def _error(self, stage: str, what: str) -> ConvergenceError:
        report = self.diagnostics()
        return ConvergenceError(
            f"{self.LABEL} {what} in {self.circuit.name} "
            f"({report.describe()})", diagnostics=report, stage=stage)

    def _check_deadline(self, t: float) -> None:
        if self.deadline is not None and \
                _time.perf_counter() >= self.deadline:
            raise self._error(
                "wall-clock",
                f"exceeded its wall-clock budget of "
                f"{self.options.max_wall_time:.3g}s at t={t:.3e}s "
                f"({t / self.t_stop:.0%} of t_stop)")

    def _reject(self, cause: str, rows, t: float, step: float,
                err_norms=None) -> list[int]:
        """Book one shared rejection blamed on lane ``rows``; returns
        the rows over their per-lane rejection budget."""
        self.steps_rejected += 1
        blamed = [self.lanes[r] for r in rows]
        for lane in blamed:
            self.logs[lane].record_rejection(t, cause)
        tspan = self.tspan
        tspan.inc(self.REJECTED, len(blamed))
        if self.REJECTED_BY_CAUSE is not None:
            tspan.inc(self.REJECTED_BY_CAUSE.format(cause))
        tspan.event(self.REJECTED_EVENT, t=t, dt=step, cause=cause,
                    lanes=blamed,
                    **({} if err_norms is None else
                       {"err_norm": float(np.max(err_norms))}))
        limit = self.options.max_rejections
        if limit is not None and self.steps_rejected > limit:
            raise self._error(
                "rejection-budget",
                f"exhausted its rejection budget of {limit} at "
                f"t={t:.3e}s")
        budget = self.lane_budget
        return [r for r, lane in zip(rows, blamed) if budget is not None
                and self.logs[lane].steps_rejected > budget]

    def run(self, X: np.ndarray, lanes: list[int]) -> list:
        """Integrate lane rows ``X`` (A, N) from their t = 0 operating
        points to ``t_stop``, or only to the sample that completes the
        last lane's capture; fills :attr:`results` for every lane still
        on the grid at the end."""
        options = self.options
        t_stop = self.t_stop
        tspan = self.tspan
        logs = self.logs
        scopes = self.scopes
        n_nodes = len(self.compiled.node_index)
        order = 2 if options.method == "trap" else 1
        dt_min = self.dt_min
        dt_max = options.dt_max or t_stop / 50.0
        dt = min(options.dt_initial or t_stop / 1000.0, dt_max)
        self.lanes = lanes

        # Initial charge state; capacitor currents are zero at DC.
        Q = self.charges(X)
        I = np.zeros_like(Q)

        # Dense recording keeps the full MNA vector of every accepted
        # step and transposes into per-node waveforms once at the end.
        # A lane with a scope session skips it: the session's bounded
        # window is then its only waveform storage (the scalar time
        # axis is always kept).
        times = [0.0]
        samples: dict[int, list] = {}
        for r, lane in enumerate(lanes):
            scope = scopes[lane]
            if scope is None:
                samples[lane] = [X[r].copy()]
            else:
                scope._bind(self.compiled.node_index, self.circuit.name,
                            tspan)
                scope._on_sample(0.0, X[r])

        breakpoints = _breakpoints(self.circuit, t_stop)
        bp_cursor = 0
        # Predictor history for the LTE estimator: the last (order + 1)
        # accepted points.  Truncated whenever a breakpoint is crossed
        # -- the input waveform has a derivative corner there and a
        # polynomial must not extrapolate across it.
        hist_t: list[float] = [0.0]
        hist_X: list[np.ndarray] = [X]

        t = 0.0
        # Relative tolerance above float epsilon: accumulated rounding
        # in ``t`` must not leave a ~1e-16*t_stop residue to be
        # "stepped" over (it would pollute the smallest committed step).
        while self.lanes and t < t_stop * (1.0 - 1e-12):
            # Once every lane on the grid has a closed capture window,
            # no dense record and no window observes a further step:
            # the run ends on the closing sample instead of at t_stop.
            if all(scopes[lane] is not None and scopes[lane]._complete()
                   for lane in self.lanes):
                tspan.event("capture-complete", t=t, t_stop=t_stop,
                            steps=self.steps_accepted)
                tspan.annotate(t_end=t)
                break
            self._check_deadline(t)
            # Snap the step onto the next breakpoint or the stop time.
            while (bp_cursor < len(breakpoints)
                   and breakpoints[bp_cursor] <= t * (1 + 1e-12)):
                bp_cursor += 1
            t_limit = min(breakpoints[bp_cursor]
                          if bp_cursor < len(breakpoints) else t_stop,
                          t_stop)
            step = min(dt, t_limit - t)

            while self.lanes:
                t_new = t + step
                c0 = order / step  # trap: 2 / dt, BE: 1 / dt
                RHS = -c0 * Q - I if order == 2 else -c0 * Q
                # Polynomial predictor through the accepted history:
                # the LTE reference AND -- being the best available
                # forecast of the solution -- Newton's starting point.
                # While the history is still rebuilding after a
                # waveform corner, a shorter (lower-order) predictor is
                # used: its divided-difference LTE estimate is
                # conservative for the trap step, which beats taking
                # the step blind.
                X_pred = None
                pred_order = 0
                if len(hist_t) >= 2:
                    k = min(order + 1, len(hist_t))
                    candidate = _predict(t_new, hist_t, hist_X, k)
                    if np.all(np.isfinite(candidate)):
                        X_pred = candidate
                        pred_order = k - 1
                X_new, iterations, failed = self.solve(
                    X if X_pred is None else X_pred, t_new, c0, RHS)
                for r, lane in enumerate(self.lanes):
                    if r not in failed:
                        logs[lane].newton_iterations += int(iterations[r])

                rows: list[int] = []  # lanes blamed for a rejection
                leaving: dict[int, str] = {}
                worst = None  # the largest lane LTE norm, once estimated
                if failed:
                    # A budget-killed Newton solve surfaces as the
                    # wall-clock abort, not a dt-min grind.
                    self._check_deadline(t)
                    rows = sorted(failed)
                    over = self._reject("newton", rows, t, step)
                    at_floor = step / 4.0 < dt_min
                    for r in rows:
                        if at_floor:
                            leaving[r] = (
                                f"Newton failed with the shared step "
                                f"floored at dt_min={dt_min:.1e} "
                                f"(t={t:.3e}s): {failed[r]}")
                        elif r in over:
                            leaving[r] = (
                                f"lane exceeded its rejection budget of "
                                f"{self.lane_budget} on the shared grid "
                                f"(t={t:.3e}s, Newton: {failed[r]})")
                    if len(leaving) < len(rows):
                        step /= 4.0
                elif X_pred is not None:
                    err = _lte_norm(t_new, X_new, X_pred, hist_t,
                                    hist_X[-1], n_nodes, pred_order,
                                    options)
                    worst = float(err.max())
                    # A reduced-order estimate (history still
                    # rebuilding after a corner; trap stepping but only
                    # a linear predictor) systematically *overstates*
                    # the trap error, so it steers the next step size
                    # but must not reject -- post-corner steps are
                    # restarted small, and full-order control resumes
                    # one step later.
                    if worst > 1.0 and pred_order == order:
                        if step <= dt_min * (1.0 + 1e-9):
                            # The floor wins: accept rather than stall
                            # -- but leave a forensic marker.
                            tspan.event("lte-floor", t=t, dt=step,
                                        err_norm=worst)
                        else:
                            rows = np.nonzero(err > 1.0)[0].tolist()
                    if rows:
                        for r in self._reject("lte", rows, t, step,
                                              err[rows]):
                            leaving[r] = (
                                f"lane kept rejecting the shared grid "
                                f"(budget {self.lane_budget} exceeded at "
                                f"t={t:.3e}s, last LTE norm "
                                f"{float(err[r]):.3g})")
                        survivors = [r for r in rows if r not in leaving]
                        if survivors:
                            # Min-rule: the worst surviving lane's ask
                            # shrinks the shared step.
                            step = max(dt_min, step * _lte_factor(
                                float(err[survivors].max()), pred_order,
                                _LTE_MIN_SHRINK, 0.9))
                if not rows:
                    break
                if leaving:
                    for r, reason in leaving.items():
                        self.leave(self.lanes[r], reason, t)
                    keep = np.ones(len(self.lanes), dtype=bool)
                    keep[list(leaving)] = False
                    self.lanes = [lane for lane, kept
                                  in zip(self.lanes, keep) if kept]
                    X, Q, I = X[keep], Q[keep], I[keep]
                    hist_X = [h[keep] for h in hist_X]
            if not self.lanes:
                break

            # Commit the step: update charge state.
            Q = self.charges(X_new)
            I = c0 * Q + RHS
            X = X_new
            t = t_new
            self.steps_accepted += 1
            self.dt_smallest = min(self.dt_smallest, step)
            tspan.inc(self.ACCEPTED)
            times.append(t)
            for r, lane in enumerate(self.lanes):
                log = logs[lane]
                log.steps_accepted += 1
                log.dt_smallest = min(log.dt_smallest, step)
                scope = scopes[lane]
                if scope is None:
                    samples[lane].append(X[r].copy())
                else:
                    scope._on_sample(t, X[r])

            if (bp_cursor < len(breakpoints)
                    and t >= breakpoints[bp_cursor] * (1 - 1e-12)):
                # Waveform corner: restart the predictor history so no
                # polynomial spans the derivative discontinuity.  The
                # landing sample itself is excluded too -- it holds the
                # *pre-edge* source values, which would poison the
                # extrapolation of every driven node.  The first step
                # past the corner runs without an LTE check, so it is
                # restarted small relative to the upcoming breakpoint
                # interval; the controller grows it back once the
                # estimator is online.
                hist_t = []
                hist_X = []
                gap = (breakpoints[bp_cursor + 1]
                       if bp_cursor + 1 < len(breakpoints)
                       else t_stop) - t
                dt = max(dt_min,
                         min(step, gap * _BREAKPOINT_RESTART_FRACTION))
            else:
                hist_t.append(t)
                hist_X.append(X)
                if len(hist_t) > order + 1:
                    del hist_t[0], hist_X[0]
                if worst is None:
                    # No estimate yet (history still rebuilding after
                    # t=0 or a waveform corner): hold dt -- blind
                    # growth here is what causes spurious rejections
                    # once the estimator comes back online.
                    factor = 1.0
                else:
                    # Min-rule growth: the most conservative lane
                    # (largest error norm) sets the shared next step.
                    factor = _lte_factor(worst, pred_order, 0.3,
                                         _LTE_MAX_GROWTH)
                dt = min(dt_max, max(dt_min, step * factor))

        time_axis = np.asarray(times)
        for lane in self.lanes:
            if scopes[lane] is not None:
                scopes[lane]._finish()
            self.results[lane] = self._package(
                time_axis, samples.get(lane), logs[lane])
        return self.results

    def _package(self, time_axis: np.ndarray, lane_samples: list | None,
                 log: TransientTelemetry) -> TranResult:
        if lane_samples is None:
            return TranResult(time=time_axis, voltages={},
                              branch_currents={}, telemetry=log)
        # Transpose the step vectors into ONE (unknowns, steps) store
        # and hand out contiguous row views.  Each step vector is
        # released the moment it is copied, so peak waveform memory is
        # ~2x the final footprint.
        compiled = self.compiled
        store = np.empty((lane_samples[0].size, len(lane_samples)))
        for k in range(len(lane_samples)):
            store[:, k] = lane_samples[k]
            lane_samples[k] = None
        # Only voltage-defined elements own an MNA branch current; with
        # record_currents set, exactly the independent VoltageSource
        # branches are recorded (CurrentSource currents are their
        # waveform values and carry no branch unknown).
        branch = ({e.name: store[compiled.aux_index[e.name][0]]
                   for e in self.circuit.elements
                   if isinstance(e, VoltageSource)}
                  if self.options.record_currents else {})
        return TranResult(
            time=time_axis,
            voltages={name: store[idx]
                      for name, idx in compiled.node_index.items()},
            branch_currents=branch, telemetry=log)


class _SerialStepper(_Stepper):
    """One lane through the scalar Newton kernel; a lane leaving the
    grid is the run's ``dt-min`` error."""

    def __init__(self, circuit: Circuit, t_stop: float,
                 options: TransientOptions, tspan, scope) -> None:
        super().__init__(circuit, t_stop, options, tspan, [scope])
        self.assembler = self.compiled.prepare()

    def solve(self, X, t_new, c0, rhs):
        rhs = rhs[0]
        assembler = self.assembler

        def dynamic_stamp(st: Stamper, xv: np.ndarray) -> None:
            assembler.stamp_charges(st, xv, c0, rhs)

        try:
            x_new, iterations = newton_solve(
                self.compiled, X[0], t_new, self.newton_options,
                extra_stamp=dynamic_stamp)
        except ConvergenceError as error:
            return X, (0,), {0: str(error)}
        # x_new is never mutated in place downstream (newton_solve
        # copies its start vector), so the lane state holds it as is.
        return x_new[None], (iterations,), {}

    def charges(self, X):
        return self.assembler.charge_vector(X[0])[None]

    def leave(self, lane, reason, t):
        raise self._error("dt-min", f"stalled at t={t:.3e}s with the "
                                    f"step below dt_min={self.dt_min:.1e}")

    def diagnostics(self):
        return self.logs[0]


def transient(circuit: Circuit, t_stop: float,
              options: TransientOptions | None = None,
              initial_op: OpResult | None = None,
              scope: "ScopeSession | None" = None) -> TranResult:
    """Integrate ``circuit`` from t = 0 (DC operating point) to ``t_stop``.

    Under an active telemetry trace the whole run is wrapped in a
    ``transient`` span: step-acceptance counters, one ``step-rejected``
    event per shrink (annotated with its cause, ``newton`` or ``lte``),
    and the per-step Newton spans of the inner solver nest underneath.

    ``scope`` attaches a :class:`repro.scope.capture.ScopeSession`: the
    session sees every committed sample (t = 0 included) for triggered
    ring-buffer capture, and the engine skips its own dense
    full-history record -- the returned result then carries the time
    axis and telemetry but an empty ``voltages`` dict, and the
    session's bounded window is the only waveform storage of the run
    (O(window), not O(steps)).  Once the window closes, the run ends on
    its closing sample, so ``t_stop`` is an upper bound: the span
    records a ``capture-complete`` event and a ``t_end`` annotation,
    and the result's time axis ends there.  A run without a session,
    or whose window is still open, integrates to ``t_stop``.
    """
    options = options or TransientOptions()
    _check_options(t_stop, options)
    with telemetry.span("transient", circuit=circuit.name,
                        t_stop=t_stop, method=options.method) as tspan:
        stepper = _SerialStepper(circuit, t_stop, options, tspan, scope)
        if initial_op is None:
            initial_op = operating_point(circuit, stepper.newton_options)
        if initial_op.x is None:
            raise AnalysisError(
                "initial_op carries no solution vector (x is None): it "
                "is a NaN placeholder from a non-converged sweep point "
                "recorded under on_error='skip'; filter those out "
                "(OpResult.converged) before handing them to transient()")
        result = stepper.run(initial_op.x.copy()[None], [0])[0]
        log = result.telemetry
        tspan.annotate(steps_accepted=log.steps_accepted,
                       steps_rejected=log.steps_rejected,
                       newton_rejections=log.newton_rejections,
                       lte_rejections=log.lte_rejections,
                       newton_iterations=log.newton_iterations)
        return result
