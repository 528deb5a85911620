"""The converge-or-diagnose fuzz harness.

Every generated circuit is driven through the full analysis gauntlet --
``op -> dc_sweep -> short transient -> batched transient -> fault
campaign`` -- under hard per-phase iteration and wall-clock budgets.
The invariant under test:

    Every circuit either converges or raises a
    :class:`~repro.errors.ReproError` subclass carrying its forensic
    payload.  Never a hang, never a raw ``numpy.linalg.LinAlgError``,
    never an unexplained NaN in a converged result, never a Python
    crash.

Outcomes are classified per case:

* ``"ok"`` -- every phase converged with finite results;
* ``"diagnosed"`` -- some phase failed *cleanly* (a ``ReproError``
  subclass with diagnostics attached where the contract promises
  them).  This is a *passing* outcome: hard circuits are supposed to
  fail with forensics;
* ``"violation"`` -- the invariant broke: a foreign exception type, a
  NaN in converged results, a convergence error with no diagnostics,
  or a phase overrunning its wall-clock budget by more than the grace
  factor (the hang proxy).

Survivors additionally feed a seeded characterization smoke across
supply x threshold corners (:func:`characterize_survivor`), mirroring
how a production flow would immediately stress every new topology.

Telemetry: under an active trace the campaign increments
``fuzz_circuits``, ``fuzz_clean_failures`` and
``fuzz_invariant_violations`` on the campaign span -- the counters the
CI smoke job asserts on.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..errors import ConvergenceError, ReproError
from ..spice.dc import NewtonOptions, dc_sweep, operating_point
from ..spice.elements import MosElement, Resistor, VoltageSource
from ..spice.netlist import Circuit
from ..spice.transient import TransientOptions, transient
from .generator import GeneratorConfig, generate

#: Phase names, in gauntlet order.
PHASES = ("op", "dc_sweep", "transient", "batched_transient", "faults",
          "characterize")

#: A phase exceeding ``budget * HANG_GRACE`` wall-clock is a violation
#: even if it eventually returned: the deadline plumbing failed.
HANG_GRACE = 10.0


@dataclass(frozen=True)
class FuzzBudgets:
    """Per-phase hard budgets.

    Attributes:
        max_iterations: Newton iteration cap per solve.
        op_wall / sweep_wall / tran_wall / fault_wall: Wall-clock
            budget [s] per phase.
        sweep_points: DC sweep length.
        t_stop: Transient horizon [s].
        max_rejections: Transient step-rejection budget.
    """

    max_iterations: int = 80
    op_wall: float = 5.0
    sweep_wall: float = 10.0
    tran_wall: float = 10.0
    fault_wall: float = 10.0
    sweep_points: int = 5
    t_stop: float = 2.0e-7
    max_rejections: int = 200

    def newton(self, wall: float) -> NewtonOptions:
        return NewtonOptions(max_iterations=self.max_iterations,
                             max_wall_time=wall)


@dataclass
class FuzzCaseResult:
    """Outcome of one fuzz case.

    ``status`` is ``"ok"`` / ``"diagnosed"`` / ``"violation"``;
    ``phase`` names where the gauntlet ended (``"all"`` for clean
    passes) and ``detail`` the failure one-liner.
    """

    seed: int
    mode: str
    circuit_name: str
    status: str
    phase: str = "all"
    detail: str = ""
    wall_time: float = 0.0


@dataclass
class FuzzReport:
    """Aggregate of one fuzz campaign."""

    cases: list[FuzzCaseResult] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return sum(1 for c in self.cases if c.status == "ok")

    @property
    def n_diagnosed(self) -> int:
        return sum(1 for c in self.cases if c.status == "diagnosed")

    @property
    def violations(self) -> list[FuzzCaseResult]:
        return [c for c in self.cases if c.status == "violation"]

    def describe(self) -> str:
        lines = [f"{len(self.cases)} circuits: {self.n_ok} converged, "
                 f"{self.n_diagnosed} failed with diagnostics, "
                 f"{len(self.violations)} invariant violations"]
        for case in self.violations:
            lines.append(f"  VIOLATION seed={case.seed} "
                         f"{case.circuit_name} [{case.phase}]: "
                         f"{case.detail}")
        return "\n".join(lines)


class InvariantViolation(Exception):
    """Internal marker: the converge-or-diagnose contract broke.

    Deliberately NOT a :class:`ReproError` -- the harness must treat
    its own verdicts and genuine foreign exceptions identically.
    """


def _check_finite(values, where: str) -> None:
    array = np.asarray(list(values), dtype=float)
    if array.size and not np.all(np.isfinite(array)):
        raise InvariantViolation(
            f"non-finite value in converged results ({where})")


def _first_source(circuit: Circuit) -> VoltageSource | None:
    for element in circuit.elements:
        if isinstance(element, VoltageSource):
            return element
    return None


def _phase_op(circuit: Circuit, budgets: FuzzBudgets) -> None:
    result = operating_point(circuit, budgets.newton(budgets.op_wall))
    if result.converged:
        _check_finite(result.voltages.values(), "operating point")


def _phase_dc_sweep(circuit: Circuit, budgets: FuzzBudgets) -> None:
    source = _first_source(circuit)
    if source is None:
        return
    center = float(source.waveform(0.0))
    span = max(abs(center) * 0.1, 0.05)
    values = np.linspace(center - span, center + span,
                         budgets.sweep_points)
    # The whole sweep shares one wall budget: an absolute deadline is
    # threaded through every point's ladder.
    options = NewtonOptions(
        max_iterations=budgets.max_iterations,
        deadline=_time.perf_counter() + budgets.sweep_wall)
    result = dc_sweep(circuit, source.name, values, options=options,
                      on_error="raise")
    for point in result.points:
        if point.converged:
            _check_finite(point.voltages.values(), "dc_sweep point")


def _phase_transient(circuit: Circuit, budgets: FuzzBudgets) -> None:
    result = transient(
        circuit, budgets.t_stop,
        TransientOptions(newton=NewtonOptions(
                             max_iterations=budgets.max_iterations),
                         max_rejections=budgets.max_rejections,
                         max_wall_time=budgets.tran_wall))
    for name, wave in result.voltages.items():
        _check_finite(wave, f"transient waveform {name}")


def _phase_batched_transient(circuit: Circuit,
                             budgets: FuzzBudgets) -> None:
    """Three perturbed twins of the case integrate in lockstep.

    Exercises the batched transient engine's own converge-or-diagnose
    contract: lanes that leave the shared grid must surface as recorded
    clean failures (never a hang -- the wall budget threads into the
    stacked Newton loop and the serial fallbacks alike), and every lane
    that does converge must return finite waveforms.  A run the batched
    engine refuses with :class:`~repro.errors.AnalysisError` (a lane it
    cannot realize on the case) skips the phase; the serial transient
    phase already covered the circuit.
    """
    from ..errors import AnalysisError
    from ..spice.batch import LaneSpec, batch_transient

    n_mos = len(circuit.mos_elements())
    lanes = [LaneSpec(label="nominal")]
    for shift in (-0.01, 0.01):
        lanes.append(LaneSpec(
            vt_delta=(np.full(n_mos, shift) if n_mos else None),
            label=f"vt{shift:+g}"))
    options = TransientOptions(
        newton=NewtonOptions(max_iterations=budgets.max_iterations),
        max_rejections=budgets.max_rejections,
        max_wall_time=budgets.tran_wall)
    try:
        batch = batch_transient(circuit, lanes, budgets.t_stop, options,
                                on_error="skip")
    except AnalysisError:
        return
    for result in batch.results:
        if result is None:  # a recorded clean per-lane failure
            continue
        for name, wave in result.voltages.items():
            _check_finite(wave, f"batched transient waveform {name}")


def _fault_metric(circuit: Circuit, options: NewtonOptions) -> dict:
    """Campaign metric: solve the faulted twin's operating point."""
    result = operating_point(circuit, options)
    voltages = list(result.voltages.values())
    return {"v_max_abs": max((abs(v) for v in voltages), default=0.0)}


def _phase_faults(circuit: Circuit, budgets: FuzzBudgets) -> None:
    """A small fault campaign over the case's own devices.

    Faults target the first MOS (VT outlier) and the first resistor
    (drift); circuits with neither skip the phase.  The campaign's
    ``build`` re-derives a fresh twin from the deck, so faulted runs
    never mutate the case under test.
    """
    from ..faults.campaign import FaultCampaign
    from ..faults.models import ResistorDrift, VtOutlier
    from ..spice.io import read_netlist, write_netlist

    # The campaign rebuilds its target from the deck (fresh twin per
    # fault, the case under test never mutates) -- and the deck
    # round-trip renames elements (cards keep their SPICE designator),
    # so faults target the *rebuilt* names.
    deck = write_netlist(circuit)
    twin = read_netlist(deck)
    faults = []
    mos = next((e for e in twin.elements
                if isinstance(e, MosElement)), None)
    if mos is not None:
        faults.append(VtOutlier(mos.name, shift=0.1))
    resistor = next((e for e in twin.elements
                     if isinstance(e, Resistor)), None)
    if resistor is not None:
        faults.append(ResistorDrift(resistor.name, factor=10.0))
    if not faults:
        return
    options = budgets.newton(budgets.fault_wall)
    report = FaultCampaign(
        build=lambda: read_netlist(deck),
        metric_fn=lambda twin: _fault_metric(twin, options),
        faults=faults).run()
    _check_finite(report.baseline.values(), "fault baseline")
    for outcome in report.outcomes:
        if outcome.error is None:
            _check_finite(outcome.metrics.values(),
                          f"fault {outcome.fault}")


def characterize_survivor(circuit: Circuit,
                          budgets: FuzzBudgets) -> None:
    """Corners x supply smoke for a circuit that passed the gauntlet.

    Two supply corners x two global-VT corners solved as one batched
    ensemble.  The same converge-or-diagnose invariant applies: every
    corner either converges with finite voltages or is a recorded clean
    failure.
    """
    from ..spice.batch import LaneSpec, batch_operating_point

    supply = _first_source(circuit)
    if supply is None:
        return
    nominal = float(supply.waveform(0.0))
    n_mos = len(circuit.mos_elements())
    lanes = []
    for supply_scale in (0.95, 1.05):
        for vt_shift in (-0.02, 0.02):
            lanes.append(LaneSpec(
                vt_delta=(np.full(n_mos, vt_shift) if n_mos else None),
                source_values=((supply.name, nominal * supply_scale),),
                label=f"vdd{supply_scale:g}/vt{vt_shift:+g}"))
    batch = batch_operating_point(circuit, lanes,
                                  options=budgets.newton(budgets.op_wall),
                                  on_error="skip")
    for point in batch.points:
        if point.converged:
            _check_finite(point.voltages.values(), "characterization")


_PHASE_FUNCS = {
    "op": _phase_op,
    "dc_sweep": _phase_dc_sweep,
    "transient": _phase_transient,
    "batched_transient": _phase_batched_transient,
    "faults": _phase_faults,
    "characterize": characterize_survivor,
}


def run_case(circuit: Circuit, budgets: FuzzBudgets | None = None,
             seed: int = 0, mode: str = "manual") -> FuzzCaseResult:
    """Drive one circuit through the gauntlet; classify the outcome.

    Never raises: every exception -- expected or foreign -- is folded
    into the returned :class:`FuzzCaseResult`.
    """
    budgets = budgets or FuzzBudgets()
    start = _time.perf_counter()
    wall_limits = {"op": budgets.op_wall, "dc_sweep": budgets.sweep_wall,
                   "transient": budgets.tran_wall,
                   "batched_transient": budgets.tran_wall,
                   "faults": budgets.fault_wall,
                   "characterize": budgets.op_wall}

    def finish(status: str, phase: str, detail: str) -> FuzzCaseResult:
        return FuzzCaseResult(
            seed=seed, mode=mode, circuit_name=circuit.name,
            status=status, phase=phase, detail=detail,
            wall_time=_time.perf_counter() - start)

    for phase in PHASES:
        phase_start = _time.perf_counter()
        try:
            # Degenerate circuits legitimately walk the solver through
            # overflow territory; the invariant is about *results*, so
            # intermediate FP warnings must not escalate into errors
            # under stricter caller configurations.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _PHASE_FUNCS[phase](circuit, budgets)
        except InvariantViolation as violation:
            return finish("violation", phase, str(violation))
        except ConvergenceError as error:
            if error.diagnostics is None:
                return finish(
                    "violation", phase,
                    f"ConvergenceError without diagnostics: {error}")
            return finish("diagnosed", phase,
                          f"{type(error).__name__}: {error}")
        except ReproError as error:
            return finish("diagnosed", phase,
                          f"{type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 -- the invariant
            return finish(
                "violation", phase,
                f"foreign exception {type(error).__name__}: {error}")
        spent = _time.perf_counter() - phase_start
        if spent > wall_limits[phase] * HANG_GRACE:
            return finish(
                "violation", phase,
                f"phase overran its {wall_limits[phase]:g}s budget "
                f"({spent:.1f}s spent): deadline plumbing failed")
    return finish("ok", "all", "")


def run_campaign(n_circuits: int, seed: int = 0, mode: str = "mixed",
                 budgets: FuzzBudgets | None = None,
                 config: GeneratorConfig | None = None,
                 on_case=None) -> FuzzReport:
    """Generate and gauntlet ``n_circuits`` cases from ``seed``.

    ``on_case(result, circuit)`` is called after each case (corpus
    capture, progress printing).  Generation itself is also under the
    invariant: a generator crash is a violation, not a harness crash.
    """
    budgets = budgets or FuzzBudgets()
    report = FuzzReport()
    with telemetry.span("fuzz-campaign", n_circuits=n_circuits,
                        seed=seed, mode=mode) as tspan:
        for k in range(n_circuits):
            case_seed = seed + k
            try:
                circuit = generate(case_seed, mode, config)
            except Exception as error:  # noqa: BLE001
                result = FuzzCaseResult(
                    seed=case_seed, mode=mode, circuit_name="<generator>",
                    status="violation", phase="generate",
                    detail=f"{type(error).__name__}: {error}")
                circuit = None
            else:
                result = run_case(circuit, budgets, seed=case_seed,
                                  mode=mode)
            report.cases.append(result)
            tspan.inc("fuzz_circuits")
            if result.status == "diagnosed":
                tspan.inc("fuzz_clean_failures")
            elif result.status == "violation":
                tspan.inc("fuzz_invariant_violations")
                tspan.event("fuzz-violation", seed=case_seed,
                            phase=result.phase, detail=result.detail)
            if on_case is not None:
                on_case(result, circuit)
        tspan.annotate(n_ok=report.n_ok, n_diagnosed=report.n_diagnosed,
                       n_violations=len(report.violations))
    return report
