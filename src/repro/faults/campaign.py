"""Fault campaigns: apply a fault catalogue, measure the blast radius.

A :class:`FaultCampaign` rebuilds the target fresh for every fault
(faults never contaminate each other), runs the same metric function on
the healthy and each faulted instance, and reports per-fault metric
deltas.  A fault whose evaluation fails -- a non-converging faulted
circuit is *expected* for severe faults -- is recorded with its error
message instead of aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .. import telemetry
from ..analysis.parallel import run_items
from ..errors import AnalysisError
from .models import FaultModel


def _coerce_metrics(raw: Mapping[str, float]) -> dict[str, float]:
    metrics = {name: float(value) for name, value in raw.items()}
    if not metrics:
        raise AnalysisError("metric function returned no metrics")
    return metrics


@dataclass(frozen=True)
class FaultOutcome:
    """What one fault did to the metrics.

    Attributes:
        fault: Fault name.
        metrics: Metric name -> faulted value (None when the evaluation
            failed).
        deltas: Metric name -> faulted minus baseline.
        error: Failure message when the faulted target could not be
            evaluated.
    """

    fault: str
    metrics: dict[str, float] | None = None
    deltas: dict[str, float] | None = None
    error: str | None = None

    @property
    def evaluated(self) -> bool:
        return self.error is None


@dataclass
class CampaignReport:
    """Blast-radius report of one campaign run.

    Attributes:
        baseline: Healthy-target metrics.
        outcomes: One :class:`FaultOutcome` per fault, in catalogue
            order.
    """

    baseline: dict[str, float]
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def failed(self) -> list[FaultOutcome]:
        """Faults whose evaluation itself broke down."""
        return [o for o in self.outcomes if not o.evaluated]

    def outcome(self, fault: str) -> FaultOutcome:
        for candidate in self.outcomes:
            if candidate.fault == fault:
                return candidate
        raise AnalysisError(f"no fault {fault!r} in campaign report")

    def worst(self, metric: str) -> FaultOutcome:
        """The evaluated fault with the largest |delta| on ``metric``."""
        evaluated = [o for o in self.outcomes
                     if o.evaluated and metric in (o.deltas or {})]
        if not evaluated:
            raise AnalysisError(
                f"no evaluated fault carries metric {metric!r}")
        return max(evaluated, key=lambda o: abs(o.deltas[metric]))

    def describe(self) -> str:
        """Human-readable blast-radius table."""
        names = list(self.baseline)
        width = max([len(o.fault) for o in self.outcomes] + [8])
        header = f"{'fault':{width}}  " + "  ".join(
            f"{f'd({name})':>12}" for name in names)
        lines = [header]
        lines.append(f"{'baseline':{width}}  " + "  ".join(
            f"{self.baseline[name]:>12.3f}" for name in names))
        for outcome in self.outcomes:
            if not outcome.evaluated:
                lines.append(f"{outcome.fault:{width}}  "
                             f"FAILED: {outcome.error}")
                continue
            lines.append(f"{outcome.fault:{width}}  " + "  ".join(
                f"{outcome.deltas.get(name, float('nan')):>+12.3f}"
                for name in names))
        return "\n".join(lines)


class FaultCampaign:
    """Run a fault catalogue against a rebuildable target.

    Example -- blast radius of comparator faults on a chip::

        campaign = FaultCampaign(
            build=lambda: FaiAdc(seed=3),
            metric_fn=lambda adc: {
                "inl": linearity_test(adc, samples_per_code=4).inl_max},
            faults=[StuckComparator("fine", 9, True),
                    BiasBranchOpen("coarse")])
        report = campaign.run()
        print(report.describe())

    Attributes:
        build: Zero-argument factory producing a *fresh* healthy target
            (circuit or converter); called once per fault plus once for
            the baseline.
        metric_fn: Target -> metric dict; must return the same keys for
            every target it can evaluate.
        faults: The fault catalogue, evaluated one fault at a time in
            catalogue order.
    """

    def __init__(self, build: Callable[[], object],
                 metric_fn: Callable[[object], Mapping[str, float]],
                 faults: Sequence[FaultModel]) -> None:
        if not faults:
            raise AnalysisError("campaign needs at least one fault")
        self.build = build
        self.metric_fn = metric_fn
        self.faults = list(faults)

    def _evaluate(self, target) -> dict[str, float]:
        return _coerce_metrics(self.metric_fn(target))

    def _fault_metrics(self, fault: FaultModel) -> dict[str, float]:
        """Metrics of ``fault`` applied to a fresh target."""
        return self._evaluate(fault.apply(self.build()))

    def run(self) -> CampaignReport:
        """Baseline plus one outcome per fault."""
        with telemetry.span("fault-campaign",
                            n_faults=len(self.faults)) as tspan:
            return self._run(tspan)

    def _run(self, tspan) -> CampaignReport:
        with telemetry.span("baseline"):
            baseline = self._evaluate(self.build())
        outcomes = run_items(
            self._fault_metrics, self.faults,
            [(f"fault-{fault.name}", {"fault": fault.name})
             for fault in self.faults], 1)
        report = CampaignReport(baseline=baseline)
        for fault, (status, payload) in zip(self.faults, outcomes):
            if status == "error":
                tspan.event("fault-eval-failed", fault=fault.name,
                            why=str(payload))
                tspan.inc("faults_failed")
                report.outcomes.append(FaultOutcome(
                    fault=fault.name, error=str(payload)))
                continue
            metrics = payload
            deltas = {name: metrics[name] - baseline[name]
                      for name in baseline if name in metrics}
            report.outcomes.append(FaultOutcome(
                fault=fault.name, metrics=metrics, deltas=deltas))
        tspan.annotate(n_failed=len(report.failed))
        return report
