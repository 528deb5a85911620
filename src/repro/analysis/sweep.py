"""One-dimensional parameter sweeps with tabular results.

A thin, explicit helper: benchmarks sweep a knob (tail current,
sampling rate, supply) through a metric function and want aligned
arrays back for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..errors import AnalysisError
from .parallel import run_items


@dataclass(frozen=True)
class SweepTable:
    """Aligned sweep results.

    Attributes:
        parameter: Swept-knob label.
        values: Swept values.
        metrics: Metric name -> array aligned with ``values`` (NaN at
            points skipped under ``on_error="skip"``).
        failures: ``(index, message)`` per skipped point.
    """

    parameter: str
    values: np.ndarray
    metrics: dict[str, np.ndarray]
    failures: tuple[tuple[int, str], ...] = ()

    def column(self, name: str) -> np.ndarray:
        try:
            return self.metrics[name]
        except KeyError:
            raise AnalysisError(f"no metric {name!r} in sweep") from None

    def rows(self):
        """Iterate (value, {metric: value}) pairs -- printing helper."""
        for k, value in enumerate(self.values):
            yield float(value), {name: float(column[k])
                                 for name, column in self.metrics.items()}


def _batched_outcomes(values: list[float], spec,
                      matrix_backend: str | None) -> list[tuple]:
    """The sweep's outcome stream from one stacked multi-lane solve.

    ``spec`` must be a :class:`~repro.spice.batch.BatchedOpSweep`;
    every swept value becomes one lane of
    :func:`~repro.spice.batch.run_lanes`, warm-started from a serial
    ladder solve of the first point.  A lane that fails every strategy
    surfaces with the same error record -- and, under
    ``on_error="raise"``, the same (lowest-index) exception -- as the
    serial loop.
    """
    from ..spice.batch import BatchedOpSweep, run_lanes
    if not isinstance(spec, BatchedOpSweep):
        raise AnalysisError(
            "backend='batched' needs a BatchedOpSweep spec as metric_fn, "
            f"got {type(spec).__name__}; wrap the build/lane/measure "
            "triple in repro.spice.batch.BatchedOpSweep")
    circuit = spec.build()
    lanes = [spec.lane(value, circuit) for value in values]
    return run_lanes(circuit, lanes, spec.measure, options=spec.options,
                     strategies=spec.strategies, warm_start=True,
                     matrix_backend=matrix_backend)


def sweep_1d(parameter: str, values: Sequence[float],
             metric_fn: Callable[[float], dict[str, float]],
             on_error: str = "raise",
             backend: str = "serial",
             matrix_backend: str | None = None) -> SweepTable:
    """Evaluate ``metric_fn`` at each value; collect aligned columns.

    ``on_error="skip"`` records a point whose evaluation raises a
    library error as NaN across every metric column (noted in
    :attr:`SweepTable.failures`) instead of aborting the sweep.

    ``backend="batched"`` solves every point as one lane of a stacked
    ensemble Newton solve (``metric_fn`` must then be a
    :class:`~repro.spice.batch.BatchedOpSweep` spec, which is also a
    plain callable for the serial path).  ``matrix_backend`` overrides
    the built circuit's dense/sparse preference for the stacked solve
    (``"sparse"``/``"auto"`` route thousand-unknown sweeps through the
    shared-pattern sparse ensemble path).
    """
    if on_error not in ("raise", "skip"):
        raise AnalysisError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if backend not in ("serial", "batched"):
        raise AnalysisError(
            f"backend must be 'serial' or 'batched', got {backend!r}")
    if matrix_backend is not None and backend != "batched":
        raise AnalysisError(
            "matrix_backend overrides apply to backend='batched' only")
    values_array = np.asarray(list(values), dtype=float)
    if values_array.size == 0:
        raise AnalysisError("empty sweep")
    values = values_array.tolist()
    rows: list[dict[str, float] | None] = []
    failures: list[tuple[int, str]] = []
    with telemetry.span("sweep-1d", parameter=parameter,
                        backend=backend,
                        n_points=int(values_array.size)) as tspan:
        if backend == "batched":
            outcomes = _batched_outcomes(values, metric_fn, matrix_backend)
        else:
            outcomes = run_items(metric_fn, values,
                                 [(f"point-{index}", {"value": value})
                                  for index, value in enumerate(values)], 1)
        for index, (value, (status, payload)) in enumerate(
                zip(values, outcomes)):
            if status == "error":
                if on_error == "raise":
                    raise payload
                tspan.event("point-failed", index=index, value=value,
                            why=str(payload))
                tspan.inc("sweep_points_failed")
                failures.append((index, str(payload)))
                rows.append(None)
                continue
            if not payload:
                raise AnalysisError("metric function returned no metrics")
            rows.append({name: float(metric)
                         for name, metric in payload.items()})
        tspan.annotate(n_failures=len(failures))
    evaluated = [row for row in rows if row is not None]
    if not evaluated:
        raise AnalysisError(
            f"every sweep point failed ({len(failures)} of "
            f"{values_array.size})")
    names = set(evaluated[0])
    if any(set(row) != names for row in evaluated):
        raise AnalysisError("metric function returned inconsistent sets")
    metrics_out = {
        name: np.array([row[name] if row is not None else float("nan")
                        for row in rows])
        for name in evaluated[0]}
    return SweepTable(parameter=parameter, values=values_array,
                      metrics=metrics_out, failures=tuple(failures))
