"""The DC solve ladder, its two rungs, and diagnostics.

The nonlinear DC solve climbs a fixed *ladder* of two rungs, tried in
order until one converges:

1. ``newton`` -- plain damped Newton from the initial guess
   (:func:`newton_solve`);
2. ``pseudo-transient`` -- anchor each solve to the last accepted state
   through a decaying conductance, mimicking the damping of a transient
   run settling to DC (continuation in pseudo-time), with a step that
   backs off where the circuit resists (:func:`pseudo_transient`).

The pseudo-transient schedule is written once over lanes
(:func:`pseudo_transient_lanes`): the serial rung runs it for one lane,
and the batched ensemble solver (:mod:`repro.spice.batch`) runs it for
every lane stacked Newton could not converge.

Every rung, successful or not, is recorded in a
:class:`SolverDiagnostics` carried by the returned
:class:`~repro.spice.results.OpResult` -- and by the raised
:class:`~repro.errors.ConvergenceError` when the whole ladder fails --
so a non-converging Monte-Carlo seed or sweep point can be diagnosed
from its forensic record instead of re-run under a debugger.
"""

from __future__ import annotations

import functools
import time as _time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError
from .sparse import SparseStamper

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .netlist import Circuit, CompiledCircuit


@dataclass(frozen=True)
class NewtonOptions:
    """Tuning knobs of the Newton solver.

    Attributes:
        max_iterations: Iteration cap per solve.
        vntol: Absolute node-voltage update tolerance [V].
        reltol: Relative update tolerance.
        max_step: Maximum voltage change applied per iteration [V].
        gmin: Conductance from every node to ground [S]; small enough not
            to disturb pA-level circuits.
        max_wall_time: Wall-clock budget [s] for one whole ladder solve
            (every rung included).  When exhausted, the solve aborts
            with a :class:`~repro.errors.ConvergenceError` carrying the
            usual :class:`SolverDiagnostics` and ``stage="wall-clock"``
            -- so a pathological circuit (a fuzz case, a bad production
            job) can never hang a worker.  None: unlimited.
        deadline: Absolute ``time.perf_counter()`` cutoff, set
            *internally* by :func:`run_ladder` / the transient engine
            from ``max_wall_time``; leave None.  The Newton kernel
            checks it every iteration.
    """

    max_iterations: int = 200
    vntol: float = 1.0e-7
    reltol: float = 1.0e-4
    max_step: float = 0.3
    gmin: float = 1.0e-15
    max_wall_time: float | None = None
    deadline: float | None = None


#: Newton stall window: a solve ends early when neither the damped
#: update norm nor the residual at least halves across this many
#: iterations.  A converging solve shrinks its updates far faster; a
#: *stalled* rung (the classic failure mode on exponential circuits:
#: updates creeping by fractions of a percent per iteration, never
#: meeting tolerance) would waste its whole iteration budget before the
#: pseudo-transient rung -- which converges such cases quickly -- gets a
#: turn.
STALL_WINDOW = 25


def step_converged(step_norm, v_max, options: NewtonOptions):
    """The Newton update-norm convergence criterion.

    Shared between the serial kernel and the batched ensemble solver
    (:mod:`repro.spice.batch`) so both paths accept a solution under
    exactly the same rule; works elementwise on per-lane arrays.
    """
    return step_norm < options.vntol * (1.0 + options.reltol * v_max)


def _damping(dx: np.ndarray, n_nodes: int,
             options: NewtonOptions) -> tuple[float, float]:
    """(largest node-voltage update, damping scale) for a raw step.
    Branch-current rows follow freely, exactly as in classic SPICE."""
    v_updates = np.abs(dx[:n_nodes]) if n_nodes else np.array([0.0])
    biggest = float(v_updates.max()) if v_updates.size else 0.0
    scale = 1.0 if biggest <= options.max_step else options.max_step / biggest
    return biggest, scale


def _lstsq_step(jac: np.ndarray, rhs: np.ndarray,
                compiled: "CompiledCircuit", iteration: int) -> np.ndarray:
    """Least-squares fallback for a singular Jacobian."""
    try:
        dx, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
    except np.linalg.LinAlgError as error:
        raise ConvergenceError(
            f"singular, non-recoverable Jacobian in "
            f"{compiled.circuit.name} ({error})", iterations=iteration)
    return dx


@functools.cache
def _lapack():
    """scipy's LAPACK module, imported by the first dense step."""
    from scipy.linalg import lapack
    return lapack


# Raw LAPACK bindings: the getrf/getrs pair scipy.linalg's
# lu_factor/lu_solve wrap, minus the per-call asarray/check_finite
# overhead -- which is comparable to the factorization itself at MNA
# sizes.  ``_dense_step`` looks both names up at call time.
def _getrf(a: np.ndarray):
    """LU factors of ``a``: ``(lu, piv, info)``."""
    return _lapack().dgetrf(a)


def _getrs(lu: np.ndarray, piv: np.ndarray, b: np.ndarray):
    """Solve with the factors of :func:`_getrf`: ``(x, info)``."""
    return _lapack().dgetrs(lu, piv, b)


def _dense_step(jac: np.ndarray, rhs: np.ndarray,
                compiled: "CompiledCircuit", iteration: int) -> np.ndarray:
    """LU-factor ``jac`` and solve for ``rhs``; least squares when the
    factor is singular or non-finite."""
    lu, piv, info = _getrf(jac)
    # info > 0 flags an exactly zero pivot; NaN/Inf inputs propagate
    # into the factors, caught by the isfinite sweep.
    if info != 0 or not np.all(np.isfinite(lu)):
        return _lstsq_step(jac, rhs, compiled, iteration)
    dx, info = _getrs(lu, piv, rhs)
    if info != 0:  # pragma: no cover - getrs only rejects bad args
        raise ConvergenceError(f"LAPACK getrs failed (info={info})")
    return dx


def newton_solve(compiled: "CompiledCircuit", x0: np.ndarray,
                 time: float | None, options: NewtonOptions,
                 extra_stamp=None, trace: list[float] | None = None,
                 ) -> tuple[np.ndarray, int]:
    """Run damped Newton from ``x0``; return (solution, iterations).

    Every iteration factors the Jacobian it just assembled.
    ``extra_stamp(stamper, x)``, when given, adds to each iteration's
    assembled system before the ``options.gmin`` shunt (the transient
    companions, the pseudo-transient anchor).  ``trace``, when given,
    accumulates the max-abs residual of every iteration -- the
    trajectory the diagnostics record keeps.  Under an active
    telemetry trace each solve opens a ``newton`` span carrying one
    ``newton-iter`` event per iteration (residual, update norm,
    damping, stall-detector state) plus the ``jacobian_factorizations``
    counter; disabled tracing takes a single-flag-check fast path.
    """
    if not telemetry.is_enabled():
        return _newton_kernel(compiled, x0, time, options, extra_stamp,
                              trace, None)
    with telemetry.span("newton") as tspan:
        try:
            x, iterations = _newton_kernel(compiled, x0, time, options,
                                           extra_stamp, trace, tspan)
        except ConvergenceError as error:
            tspan.annotate(converged=False, detail=str(error))
            raise
        tspan.annotate(converged=True, iterations=iterations)
        return x, iterations


def _newton_kernel(compiled: "CompiledCircuit", x0: np.ndarray,
                   time: float | None, options: NewtonOptions,
                   extra_stamp, trace: list[float] | None,
                   tspan) -> tuple[np.ndarray, int]:
    gmin = options.gmin
    assembler = compiled.assembler
    st = compiled.new_stamper()
    sparse_mode = isinstance(st, SparseStamper)
    x = x0.copy()
    n_nodes = len(compiled.node_index)
    stall_checkpoint = np.inf
    stall_residual = np.inf
    observing = trace is not None or tspan is not None
    deadline = options.deadline
    for iteration in range(1, options.max_iterations + 1):
        if deadline is not None and _time.perf_counter() >= deadline:
            raise ConvergenceError(
                f"wall-clock budget exhausted after {iteration - 1} "
                f"Newton iterations in {compiled.circuit.name}",
                iterations=iteration - 1, stage="wall-clock")
        assembler.assemble(st, x, time)
        if extra_stamp is not None:
            extra_stamp(st, x)
        if gmin > 0.0:
            st.add_diagonal(gmin, n_nodes)
            st.res[:n_nodes] += gmin * x[:n_nodes]
        # Only observers and the stall detector's window boundaries
        # read the residual norm; skip it on plain hot-path iterations.
        residual = None
        if observing or iteration == 1 or iteration % STALL_WINDOW == 0:
            residual = float(np.abs(st.res).max())
        if trace is not None:
            trace.append(residual)
        if sparse_mode:
            data = st.system.nonzeros(st.vals)
            handle = st.system.factorize(data)
            if handle is not None:
                dx = handle.solve(-st.res)
            else:
                dx = _lstsq_step(
                    st.system.matrix_from_data(data).toarray(),
                    -st.res, compiled, iteration)
        else:
            dx = _dense_step(st.jac, -st.res, compiled, iteration)
        if not np.all(np.isfinite(dx)):
            raise ConvergenceError(
                f"non-finite Newton update in {compiled.circuit.name}",
                iterations=iteration)
        biggest, scale = _damping(dx, n_nodes, options)
        if tspan is not None:
            tspan.inc("jacobian_factorizations")
            if sparse_mode:
                tspan.inc("sparse_factorizations")
        x += scale * dx
        step_norm = biggest * scale
        if iteration == 1:
            # Seed the stall detector with the opening update norm and
            # residual so the first window is already armed: a solve
            # where *neither* has halved by iteration ``STALL_WINDOW``
            # is the limit-cycle failure mode, and waiting a second
            # full window just delays the homotopy rung that will
            # actually converge it.  A solve whose updates are pinned
            # at the damping cap while the residual keeps falling is
            # healthy (pseudo-transient continuation does exactly
            # this), which is why the residual check is part of the
            # trip condition.
            stall_checkpoint = step_norm
            stall_residual = residual
        if tspan is not None:
            tspan.event("newton-iter", i=iteration, residual=residual,
                        update_norm=step_norm, damping=scale,
                        stall_checkpoint=(
                            None if stall_checkpoint == np.inf
                            else stall_checkpoint))
        if scale == 1.0 and step_converged(
                step_norm,
                float(np.abs(x[:n_nodes]).max() if n_nodes else 0.0),
                options):
            return x, iteration
        if iteration % STALL_WINDOW == 0:
            if step_norm > 0.5 * stall_checkpoint and \
                    residual > 0.5 * stall_residual:
                if tspan is not None:
                    tspan.event("stall", iteration=iteration,
                                update_norm=step_norm,
                                window=STALL_WINDOW)
                raise ConvergenceError(
                    f"Newton stalled after {iteration} iterations in "
                    f"{compiled.circuit.name} (neither the update norm "
                    f"{step_norm:.3e} nor the residual {residual:.3e} "
                    f"halved over the last "
                    f"{STALL_WINDOW} iterations)",
                    iterations=iteration, residual=residual)
            stall_checkpoint = step_norm
            stall_residual = residual
    raise ConvergenceError(
        f"Newton failed after {options.max_iterations} iterations "
        f"in {compiled.circuit.name}",
        iterations=options.max_iterations,
        residual=float(np.abs(st.res).max()))


# -- diagnostics ---------------------------------------------------------


@dataclass(frozen=True)
class StageReport:
    """Forensic record of one ladder rung.

    Attributes:
        strategy: Rung name (``"newton"``, ``"pseudo-transient"``, or
            a batched phase).
        converged: Whether this rung produced the solution.
        iterations: Newton iterations spent inside the rung.
        wall_time: Seconds spent inside the rung.
        residuals: Max-abs residual per Newton iteration (the
            trajectory; truncated to the last
            :data:`RESIDUAL_TRACE_LIMIT` entries).
        detail: Failure message when the rung did not converge.
    """

    strategy: str
    converged: bool
    iterations: int
    wall_time: float
    residuals: tuple[float, ...] = ()
    detail: str = ""


#: Longest residual trajectory kept per stage (memory bound for sweeps).
RESIDUAL_TRACE_LIMIT = 256


@dataclass
class SolverDiagnostics:
    """What the homotopy ladder did for one operating-point solve.

    Attributes:
        circuit: Circuit name.
        stages: One :class:`StageReport` per rung attempted, in order.
        rescued_by: Name of the converging strategy (None: total failure).
        total_iterations: Newton iterations summed over every rung.
        wall_time: Seconds spent in the ladder.
    """

    circuit: str
    stages: list[StageReport] = field(default_factory=list)
    rescued_by: str | None = None
    total_iterations: int = 0
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.rescued_by is not None

    @property
    def rescue_needed(self) -> bool:
        """True when plain Newton was not enough."""
        return self.converged and len(self.stages) > 1

    def stage(self, name: str) -> StageReport:
        """The report of strategy ``name`` (last attempt wins)."""
        for report in reversed(self.stages):
            if report.strategy == name:
                return report
        raise KeyError(f"no stage {name!r} in diagnostics")

    def describe(self) -> str:
        """Multi-line human-readable account of the solve."""
        lines = [f"DC solve of {self.circuit!r}: "
                 + (f"converged via {self.rescued_by} "
                    if self.converged else "FAILED every strategy ")
                 + f"({self.total_iterations} Newton iterations, "
                   f"{self.wall_time * 1e3:.1f} ms)"]
        for report in self.stages:
            status = "ok" if report.converged else "failed"
            line = (f"  {report.strategy:17s} {status:6s} "
                    f"{report.iterations:5d} iters "
                    f"{report.wall_time * 1e3:8.2f} ms")
            if report.residuals:
                line += f"  residual {report.residuals[-1]:.3e}"
            if report.detail and not report.converged:
                line += f"  ({report.detail})"
            lines.append(line)
        return "\n".join(lines)


# -- the rungs -----------------------------------------------------------


#: Anchor conductance of the first pseudo-transient step [S]: a small
#: pseudo-timestep, strongly damped.
G_START = 1.0e-3

#: First (and largest) pseudo-transient step ratio: ``g`` falls by this
#: factor per accepted step while no step fails.
SHRINK = 10.0

#: Smallest step ratio the adaptive pseudo-transient schedule backs off
#: to: a lane whose ratio is square-rooted below it fails the rung.
MIN_STEP_RATIO = 1.1


def pseudo_transient(compiled: "CompiledCircuit", x0: np.ndarray,
                     time: float | None, options: NewtonOptions,
                     trace: list[float] | None = None,
                     ) -> tuple[np.ndarray, int]:
    """Pseudo-transient continuation from ``x0``; return (solution,
    iterations) or raise :class:`~repro.errors.ConvergenceError`.

    Each step solves the circuit with an extra conductance ``g`` from
    every node to its last accepted voltage -- the resistive analogue
    of a capacitor to the old state, i.e. one implicit-Euler step of a
    fictitious transient.  ``g`` starts at :data:`G_START` and falls by
    the step ratio per accepted step until it reaches ``options.gmin``,
    after which a plain Newton solve polishes the answer.  The ratio
    starts at :data:`SHRINK`; a failed step restarts from the last
    accepted state with the ratio square-rooted, and an accepted step
    squares it back up to :data:`SHRINK` (see
    :func:`pseudo_transient_lanes`).  The anchor carries no bias toward
    ground, so the solve keeps the state the nodesets name on bistable
    circuits.  ``trace`` accumulates the residual trajectory of every
    Newton iteration, as in :func:`newton_solve`.
    """
    n_nodes = len(compiled.node_index)
    X = x0.copy()[None, :]

    def solve_lane(active, g, anchor):
        def extra(st, xv, g=g[0], x_prev=anchor[0]) -> None:
            st.add_diagonal(g, n_nodes)
            st.res[:n_nodes] += g * (xv[:n_nodes] - x_prev[:n_nodes])

        try:
            X[0], iters = newton_solve(compiled, X[0], time, options,
                                       extra_stamp=extra, trace=trace)
        except ConvergenceError as error:
            return [False], [error.iterations or 0], {0: str(error)}
        return [True], [iters], {}

    converged, iterations, reasons = pseudo_transient_lanes(
        X, np.zeros(1, dtype=np.intp), options, solve_lane)
    if not converged[0]:
        raise ConvergenceError(reasons[0], iterations=int(iterations[0]))
    return X[0], int(iterations[0])


def pseudo_transient_lanes(X: np.ndarray, lanes: np.ndarray,
                           options: NewtonOptions, solve,
                           ) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Run the adaptive pseudo-transient schedule on rows ``lanes`` of
    ``X`` (in place); return ``(converged, iterations, reasons)``.

    Every lane carries its anchor conductance ``g`` (:data:`G_START`
    at first), its step ratio (:data:`SHRINK` at first) and its last
    accepted state, which anchors its next step:

    * an accepted step records its state, squares the ratio (capped at
      :data:`SHRINK`) and divides ``g`` by it; once ``g`` would reach
      ``options.gmin`` the lane's next solve is the plain polish;
    * a failed step restarts from the last accepted state with the
      ratio square-rooted -- ``g`` is the last accepted one divided by
      the new ratio -- and records a ``pseudo-transient-backoff`` event;
    * a lane fails the rung when its first step (from :data:`G_START`)
      fails, when its ratio falls below :data:`MIN_STEP_RATIO`, when its
      polish fails, or once the wall-clock deadline has passed.

    ``solve(active, g, anchor)`` runs one Newton solve per lane of
    ``active`` from its row of ``X``, in place, with ``g[lane]`` from
    every node to ``anchor[lane]`` (``g[lane] == 0``: the plain
    polish), and returns ``(converged, iterations, reasons)`` for those
    lanes in order, ``reasons`` keyed by lane.  The serial rung
    passes one lane through :func:`newton_solve`; the batched engine
    passes the stacked lanes through its own kernel.
    """
    B = X.shape[0]
    g = np.full(B, G_START)
    g_accepted = np.zeros(B)
    ratio = np.full(B, SHRINK)
    anchor = X.copy()
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    reasons: dict[int, str] = {}
    schedule = telemetry.current_span()
    active = np.asarray(lanes, dtype=np.intp)
    while active.size:
        ok, iters, why = solve(active, g, anchor)
        expired = (options.deadline is not None
                   and _time.perf_counter() >= options.deadline)
        for k, lane in enumerate(active.tolist()):
            iterations[lane] += iters[k]
            if ok[k] and g[lane] == 0.0:
                converged[lane] = True
            elif ok[k]:
                schedule.event("pseudo-transient-step", lane=lane,
                               g=float(g[lane]), iterations=int(iters[k]))
                anchor[lane] = X[lane]
                g_accepted[lane] = g[lane]
                ratio[lane] = min(ratio[lane] ** 2, SHRINK)
                g[lane] = g[lane] / ratio[lane]
                if g[lane] <= options.gmin:
                    g[lane] = 0.0
            elif (expired or g[lane] == 0.0 or g_accepted[lane] == 0.0
                  or np.sqrt(ratio[lane]) < MIN_STEP_RATIO):
                reasons[lane] = (f"pseudo-transient step at "
                                 f"g={g[lane]:.3g}: {why[lane]}")
            else:
                ratio[lane] = np.sqrt(ratio[lane])
                schedule.event("pseudo-transient-backoff", lane=lane,
                               g=float(g[lane]), ratio=float(ratio[lane]),
                               why=why[lane])
                g[lane] = g_accepted[lane] / ratio[lane]
                X[lane] = anchor[lane]
        active = np.array([lane for lane in active.tolist()
                           if not converged[lane] and lane not in reasons],
                          dtype=np.intp)
    return converged, iterations, reasons


def run_ladder(circuit: "Circuit", compiled: "CompiledCircuit",
               x0: np.ndarray, time: float | None, options: NewtonOptions,
               ) -> tuple[np.ndarray, SolverDiagnostics]:
    """Try the Newton rung, then the pseudo-transient rung, each from
    ``x0``; return solution plus diagnostics.

    Raises :class:`~repro.errors.ConvergenceError` -- with the full
    :class:`SolverDiagnostics` attached as ``.diagnostics`` -- when
    both rungs fail.
    """
    # One value-sync per solve: picks up element mutations (aged
    # resistors, swapped devices) without paying per-iteration checks.
    compiled.prepare()
    diagnostics = SolverDiagnostics(circuit=circuit.name)
    ladder = telemetry.current_span()
    ladder_start = _time.perf_counter()
    if options.max_wall_time is not None and options.deadline is None:
        # One absolute deadline covers the whole ladder; the Newton
        # kernel enforces it every iteration, and the rung loop below
        # stops climbing once it has passed.
        options = replace(options,
                          deadline=ladder_start + options.max_wall_time)
    # Both rungs are looked up when the ladder runs, not at import, so
    # a wrapper bound over the module's ``newton_solve`` sees every
    # Newton solve of the ladder.
    for name, solve in (("newton", newton_solve),
                        ("pseudo-transient", pseudo_transient)):
        trace: list[float] = []
        stage_start = _time.perf_counter()
        error: ConvergenceError | None = None
        with telemetry.span(f"strategy:{name}", strategy=name) as sspan:
            try:
                x, iterations = solve(compiled, x0, time, options,
                                      trace=trace)
            except ConvergenceError as exc:
                error = exc
                sspan.annotate(converged=False, iterations=len(trace),
                               detail=str(exc))
            else:
                sspan.annotate(converged=True, iterations=iterations)
        if error is not None:
            ladder.event("ladder-rung", strategy=name, converged=False,
                         iterations=len(trace), why=str(error))
            diagnostics.stages.append(StageReport(
                strategy=name, converged=False, iterations=len(trace),
                wall_time=_time.perf_counter() - stage_start,
                residuals=tuple(trace[-RESIDUAL_TRACE_LIMIT:]),
                detail=str(error)))
            diagnostics.total_iterations += len(trace)
            if options.deadline is not None and \
                    _time.perf_counter() >= options.deadline:
                ladder.event("ladder-deadline", strategy=name,
                             budget=options.max_wall_time)
                break
            continue
        ladder.event("ladder-rung", strategy=name, converged=True,
                     iterations=iterations, why="converged")
        diagnostics.stages.append(StageReport(
            strategy=name, converged=True, iterations=iterations,
            wall_time=_time.perf_counter() - stage_start,
            residuals=tuple(trace[-RESIDUAL_TRACE_LIMIT:])))
        diagnostics.total_iterations += iterations
        diagnostics.rescued_by = name
        diagnostics.wall_time = _time.perf_counter() - ladder_start
        return x, diagnostics
    diagnostics.wall_time = _time.perf_counter() - ladder_start
    raise ladder_failure(diagnostics, options)


def ladder_failure(diagnostics: SolverDiagnostics,
                   options: NewtonOptions) -> ConvergenceError:
    """The error of a solve that lost every stage ``diagnostics`` lists.

    Its stage is the last stage's name, or ``"wall-clock"`` once
    ``options.deadline`` has passed.  :func:`run_ladder` raises it, and
    the batched engine records it for a lane both stacked phases lost.
    """
    last = diagnostics.stages[-1]
    tried = ", ".join(s.strategy for s in diagnostics.stages)
    residual = last.residuals[-1] if last.residuals else None
    if options.deadline is not None and \
            _time.perf_counter() >= options.deadline:
        budget = (f"{options.max_wall_time:.3g}s"
                  if options.max_wall_time is not None else "deadline")
        return ConvergenceError(
            f"wall-clock budget of {budget} exhausted for "
            f"{diagnostics.circuit!r} after {tried} "
            f"({diagnostics.wall_time:.3g}s spent)",
            iterations=diagnostics.total_iterations, residual=residual,
            diagnostics=diagnostics, stage="wall-clock")
    return ConvergenceError(
        f"every solve strategy failed for {diagnostics.circuit!r} "
        f"(tried {tried})",
        iterations=diagnostics.total_iterations, residual=residual,
        diagnostics=diagnostics, stage=last.strategy)
