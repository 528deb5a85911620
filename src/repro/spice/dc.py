"""Nonlinear DC solution: Newton-Raphson with a homotopy ladder.

Subthreshold circuits are numerically awkward: currents span pA..uA and
every device is an exponential.  The solver therefore

* damps Newton steps to a maximum per-iteration voltage change,
* converges on the *update* norm (residuals at pA levels sit near the
  noise floor of double precision),
* climbs a pluggable ladder of fallback strategies (gmin stepping,
  source stepping, pseudo-transient continuation -- see
  :mod:`repro.spice.strategies`) when plain Newton diverges, recording
  a :class:`~repro.spice.strategies.SolverDiagnostics` either way.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError, NetlistError
from .elements import CurrentSource, VoltageSource
from .netlist import Circuit, CompiledCircuit
from .results import OpResult, SweepResult
from .strategies import (NewtonOptions, SolveStrategy, SolverDiagnostics,
                         newton_solve, run_ladder)
from .waveforms import dc_wave

# Backwards-compatible aliases (the kernel moved to ``strategies``).
_newton = newton_solve


def _solve_with_homotopy(circuit: Circuit, compiled: CompiledCircuit,
                         x0: np.ndarray, time: float | None,
                         options: NewtonOptions,
                         strategies: Sequence[SolveStrategy] | None = None,
                         ) -> tuple[np.ndarray, SolverDiagnostics]:
    """Climb the strategy ladder; return (solution, diagnostics)."""
    return run_ladder(circuit, compiled, x0, time, options, strategies)


class _LazyDeviceOps(Mapping):
    """``device_ops`` mapping materialized on first access.

    Most sweep points are only read for node voltages; deferring the
    per-transistor operating-point extraction keeps it off the sweep
    hot path while looking exactly like the dict it replaces.
    """

    def __init__(self, compiled: CompiledCircuit, x: np.ndarray) -> None:
        self._compiled = compiled
        self._x = x
        self._data: dict | None = None

    def _materialize(self) -> dict:
        if self._data is None:
            self._data = self._compiled.device_ops(self._x)
        return self._data

    def __getitem__(self, key):
        return self._materialize()[key]

    def __iter__(self):
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())

    def __repr__(self) -> str:
        return repr(self._materialize())


def _package(compiled: CompiledCircuit, x: np.ndarray, iterations: int,
             diagnostics: SolverDiagnostics | None = None) -> OpResult:
    circuit = compiled.circuit
    voltages = {name: float(x[i]) for name, i in compiled.node_index.items()}
    branch = {}
    for element in circuit.elements:
        aux = compiled.aux_index.get(element.name, ())
        if aux:
            branch[element.name] = float(x[aux[0]])
    x = x.copy()
    return OpResult(voltages=voltages, branch_currents=branch,
                    device_ops=_LazyDeviceOps(compiled, x),
                    iterations=iterations, x=x,
                    diagnostics=diagnostics)


def _nan_point(compiled: CompiledCircuit,
               diagnostics: SolverDiagnostics | None = None) -> OpResult:
    """Placeholder result for a sweep point that never converged."""
    voltages = {name: float("nan") for name in compiled.node_index}
    branch = {element.name: float("nan")
              for element in compiled.circuit.elements
              if compiled.aux_index.get(element.name, ())}
    return OpResult(voltages=voltages, branch_currents=branch,
                    device_ops={}, iterations=0, x=None,
                    diagnostics=diagnostics)


def operating_point(circuit: Circuit,
                    options: NewtonOptions | None = None,
                    x0: np.ndarray | None = None,
                    strategies: Sequence[SolveStrategy] | None = None,
                    ) -> OpResult:
    """Compute the DC operating point of ``circuit``.

    ``x0`` (e.g. a previous solution) warm-starts the solve; otherwise the
    circuit's nodesets seed the initial guess.  ``strategies`` overrides
    the default homotopy ladder (see
    :data:`repro.spice.strategies.DEFAULT_LADDER`).  The returned
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
        x, diagnostics = _solve_with_homotopy(circuit, compiled, start,
                                              None, options, strategies)
        tspan.annotate(converged_via=diagnostics.rescued_by,
                       iterations=diagnostics.total_iterations,
                       warm_start=x0 is not None)
    return _package(compiled, x, diagnostics.total_iterations, diagnostics)


def dc_sweep(circuit: Circuit, source_name: str,
             values: Sequence[float],
             options: NewtonOptions | None = None,
             strategies: Sequence[SolveStrategy] | None = None,
             on_error: str = "raise",
             backend: str = "serial",
             matrix_backend: str | None = None) -> SweepResult:
    """Sweep the DC value of an independent source.

    Each point warm-starts from the previous solution, which is both
    faster and far more robust for exponential circuits.  The circuit
    is compiled once for the whole sweep (only the swept source's
    waveform changes, which is not a structural mutation), so every
    point reuses the same vectorized assembler.  A point whose
    warm-started solve fails is retried cold from the circuit's nodeset
    initial guess before any error is declared, so one bad bias point
    does not poison its successors.

    ``on_error`` selects the per-point recovery policy after both
    attempts fail:

    * ``"raise"`` (default): propagate the
      :class:`~repro.errors.ConvergenceError`;
    * ``"skip"``: record the point as NaN voltages, note it in
      :attr:`SweepResult.failures`, and continue from a cold start.

    ``backend="batched"`` solves all points as one stacked ensemble
    (see :mod:`repro.spice.batch`): every point becomes a lane of one
    multi-lane Newton solve with per-point convergence masking, and
    points the stacked loop cannot converge fall back to the serial
    strategy ladder individually.  ``matrix_backend`` (batched only)
    overrides the circuit's dense/sparse preference for the stacked
    solve.
    """
    if on_error not in ("raise", "skip"):
        raise NetlistError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if backend not in ("serial", "batched"):
        raise NetlistError(
            f"backend must be 'serial' or 'batched', got {backend!r}")
    if matrix_backend is not None and backend != "batched":
        raise NetlistError(
            "matrix_backend overrides apply to backend='batched' only")
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
                             options=options, strategies=strategies,
                             warm_start=True, matrix_backend=matrix_backend)
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
                    result = operating_point(circuit, options, x0=x_prev,
                                             strategies=strategies)
                except ConvergenceError as error:
                    result = None
                    if x_prev is not None:
                        # Warm start led the ladder astray: retry cold
                        # from the circuit's own nodeset guess.
                        tspan.event("cold-restart", index=index,
                                    value=value)
                        try:
                            result = operating_point(circuit, options,
                                                     x0=None,
                                                     strategies=strategies)
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
