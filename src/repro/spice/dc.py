"""Nonlinear DC solution: Newton-Raphson with a homotopy ladder.

Subthreshold circuits are numerically awkward: currents span pA..uA and
every device is an exponential.  The solver therefore

* damps Newton steps to a maximum per-iteration voltage change,
* converges on the *update* norm (residuals at pA levels sit near the
  noise floor of double precision),
* falls back to pseudo-transient continuation when plain Newton
  diverges -- a fixed two-rung ladder, see
  :mod:`repro.spice.strategies` -- recording a
  :class:`~repro.spice.strategies.SolverDiagnostics` either way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError, NetlistError
from .assembly import LazyDeviceOps
from .elements import CurrentSource, VoltageSource
from .netlist import Circuit, CompiledCircuit
from .results import OpResult, SolutionView, SweepResult
from .strategies import NewtonOptions, SolverDiagnostics, run_ladder
from .waveforms import dc_wave


def _package(compiled: CompiledCircuit, x: np.ndarray, iterations: int,
             diagnostics: SolverDiagnostics | None = None) -> OpResult:
    x = x.copy()
    return OpResult(voltages=SolutionView(compiled.node_index, x),
                    branch_currents=SolutionView(compiled.branch_index, x),
                    device_ops=LazyDeviceOps(compiled.assembler, x),
                    iterations=iterations, x=x,
                    diagnostics=diagnostics)


def _nan_point(compiled: CompiledCircuit,
               diagnostics: SolverDiagnostics | None = None) -> OpResult:
    """Placeholder result for a sweep point that never converged."""
    nan = np.full(compiled.size, np.nan)
    return OpResult(voltages=SolutionView(compiled.node_index, nan),
                    branch_currents=SolutionView(compiled.branch_index, nan),
                    device_ops={}, iterations=0, x=None,
                    diagnostics=diagnostics)


def operating_point(circuit: Circuit,
                    options: NewtonOptions | None = None,
                    x0: np.ndarray | None = None) -> OpResult:
    """Compute the DC operating point of ``circuit``.

    ``x0`` (e.g. a previous solution) warm-starts the solve; otherwise it
    starts from :meth:`~repro.spice.netlist.Circuit.initial_guess`
    (grounded sources' nodes on their values, nodesets on top), and
    climbs the Newton, then pseudo-transient ladder
    (:func:`~repro.spice.strategies.run_ladder`).  The returned
    :class:`~repro.spice.results.OpResult` carries the full
    :class:`~repro.spice.strategies.SolverDiagnostics` of the solve.
    """
    options = options or NewtonOptions()
    with telemetry.span("operating-point", circuit=circuit.name) as tspan:
        compiled = circuit.compile()
        start = circuit.initial_guess(compiled) if x0 is None else x0.copy()
        if x0 is not None and x0.shape != (compiled.size,):
            raise NetlistError(
                f"warm-start vector has wrong size {x0.shape}, "
                f"expected ({compiled.size},)")
        x, diagnostics = run_ladder(circuit, compiled, start, None,
                                    options)
        tspan.annotate(converged_via=diagnostics.rescued_by,
                       iterations=diagnostics.total_iterations,
                       warm_start=x0 is not None)
    return _package(compiled, x, diagnostics.total_iterations, diagnostics)


def dc_sweep(circuit: Circuit, source_name: str,
             values: Sequence[float],
             options: NewtonOptions | None = None,
             on_error: str = "raise",
             backend: str = "serial") -> SweepResult:
    """Sweep the DC value of an independent source.

    Each point warm-starts from the previous solution, which is both
    faster and far more robust for exponential circuits.  The circuit
    is compiled once for the whole sweep (only the swept source's
    waveform changes, which is not a structural mutation), so every
    point reuses the same vectorized assembler.  A point whose
    warm-started solve fails is retried cold from the circuit's initial
    guess before any error is declared, so one bad bias point
    does not poison its successors.

    ``on_error`` selects the per-point recovery policy after both
    attempts fail:

    * ``"raise"`` (default): propagate the
      :class:`~repro.errors.ConvergenceError`;
    * ``"skip"``: record the point as NaN voltages, note it in
      :attr:`SweepResult.failures`, and continue from a cold start.

    ``backend="batched"`` solves all points as one stacked ensemble
    (see :mod:`repro.spice.batch`): every point becomes a lane of one
    multi-lane Newton solve with per-point convergence masking, then
    the stacked pseudo-transient rung for the points Newton lost; a
    point both lose is a failure under ``on_error``.  Both backends
    solve on the circuit's own
    :attr:`~repro.spice.netlist.Circuit.matrix_backend`.
    """
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if backend not in ("serial", "batched"):
        raise NetlistError(
            f"backend must be 'serial' or 'batched', got {backend!r}")
    options = options or NewtonOptions()
    element = circuit.element(source_name)
    if not isinstance(element, (VoltageSource, CurrentSource)):
        raise NetlistError(
            f"{source_name!r} is not an independent source")
    values = [float(value) for value in values]
    points: list[OpResult] = []
    failures: list[tuple[int, str]] = []
    if backend == "batched":
        # Where the serial sweep warm-starts point k from point k-1,
        # the stacked solve has no sequential order to exploit: every
        # lane starts from one serial ladder solve of the first point
        # (a failed pilot just leaves the lanes cold).
        from .batch import LaneSpec, run_lanes  # local: avoids import cycle
        lanes = [LaneSpec.source(source_name, value, label=f"{value:g}")
                 for value in values]
        outcomes = run_lanes(circuit, lanes, lambda point: point,
                             options=options)
        for index, (status, payload) in enumerate(outcomes):
            if status == "error":
                if on_error == "raise":
                    raise payload
                failures.append((index, str(payload)))
                payload = _nan_point(circuit.compile(), payload.diagnostics)
            points.append(payload)
        return SweepResult(parameter=source_name,
                           values=np.asarray(values, dtype=float),
                           points=points, failures=failures)
    saved = element.waveform
    x_prev: np.ndarray | None = None
    try:
        with telemetry.span("dc-sweep", circuit=circuit.name,
                            source=source_name,
                            n_points=len(values)) as tspan:
            for index, value in enumerate(values):
                element.waveform = dc_wave(value)
                try:
                    result = operating_point(circuit, options, x0=x_prev)
                except ConvergenceError as error:
                    result = None
                    if x_prev is not None:
                        # Warm start led the ladder astray: retry cold
                        # from the circuit's own initial guess.
                        tspan.event("cold-restart", index=index,
                                    value=value)
                        try:
                            result = operating_point(circuit, options)
                        except ConvergenceError as cold_error:
                            error = cold_error
                    if result is None:
                        if on_error == "raise":
                            raise error
                        tspan.event("point-failed", index=index,
                                    value=value, why=str(error))
                        tspan.inc("sweep_points_failed")
                        failures.append((index, str(error)))
                        points.append(_nan_point(circuit.compile(),
                                                 error.diagnostics))
                        x_prev = None
                        continue
                points.append(result)
                x_prev = result.x
            tspan.annotate(n_failures=len(failures))
    finally:
        element.waveform = saved
    return SweepResult(parameter=source_name,
                       values=np.asarray(values, dtype=float),
                       points=points, failures=failures)
