"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing convergence problems from modelling problems.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable


class ReproError(Exception):
    """Base class for all errors raised by this library."""


def evaluate(fn: Callable[..., Any], *args: Any) -> tuple[str, Any]:
    """One population member's outcome: ``("ok", fn(*args))``, or
    ``("error", error)`` when ``fn`` raises a :class:`ReproError`.

    Library errors -- a non-converging chip above all -- become data,
    so every route (serial, process pool, stacked lanes) hands its
    caller the same outcome stream to apply an ``on_error`` policy to.
    Any other exception is a bug and propagates.  Module-level so pool
    workers can run it.
    """
    try:
        return ("ok", fn(*args))
    except ReproError as error:
        return ("error", error)


class UnitError(ReproError, ValueError):
    """A quantity string or unit could not be parsed."""


class ModelError(ReproError, ValueError):
    """A device or behavioural model received invalid parameters."""


class NetlistError(ReproError, ValueError):
    """A circuit netlist is malformed (unknown node, duplicate name, ...)."""


class ConvergenceError(ReproError, RuntimeError):
    """A nonlinear or transient solve failed to converge.

    Attributes:
        iterations: Newton iterations spent before giving up.
        residual: Max-abs residual at the last iterate, when known.
        diagnostics: Forensic record of the solve, when available --
            a :class:`repro.spice.strategies.SolverDiagnostics` for DC
            ladder failures, a
            :class:`repro.spice.transient.TransientTelemetry` for
            transient stalls.
        stage: Name of the last strategy / phase attempted.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None,
                 diagnostics: object | None = None,
                 stage: str | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.diagnostics = diagnostics
        self.stage = stage

    def __reduce__(self):
        """Pickle with the forensic payload intact.

        Process pools ship worker failures back as pickled exception
        objects (``analysis/parallel.py`` returns library errors as
        *data*), so the reconstruction must preserve ``iterations`` /
        ``residual`` / ``diagnostics`` / ``stage`` exactly -- relying
        on ``BaseException``'s default reduction makes that an
        implementation detail.  A diagnostics object that itself cannot
        pickle (a foreign strategy's report holding a lambda, say) must
        not poison the transport and take the whole pool down with an
        obscure mid-IPC ``PicklingError``: it degrades to its ``repr``
        string, keeping the exception -- and every other attribute --
        deliverable.
        """
        state = dict(self.__dict__)
        diagnostics = state.get("diagnostics")
        if diagnostics is not None:
            try:
                pickle.dumps(diagnostics)
            except Exception:
                state["diagnostics"] = (
                    f"<unpicklable diagnostics {diagnostics!r}>")
        return (type(self), self.args, state)


class FaultInjectionError(ReproError, ValueError):
    """A fault model could not be applied to its target."""


class AnalysisError(ReproError, RuntimeError):
    """An analysis (sweep, Monte-Carlo, metric extraction) failed."""


class TelemetryError(ReproError, RuntimeError):
    """The tracing layer was misused (nested traces, malformed trace
    files) -- never raised while tracing is disabled."""


class DesignError(ReproError, ValueError):
    """A design-level constraint cannot be met (headroom, swing, depth)."""
