"""Unit tests for the fault-campaign runner."""

import pytest

from repro.errors import AnalysisError, ConvergenceError
from repro.faults import (BridgedNodes, FaultCampaign, FaultModel,
                         ResistorDrift, standard_adc_campaign,
                         standard_adc_faults)
from repro.spice import Circuit, operating_point


def divider() -> Circuit:
    circuit = Circuit("divider")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 10e3)
    circuit.add_resistor("R2", "mid", "0", 10e3)
    return circuit


def mid_voltage(circuit: Circuit) -> dict[str, float]:
    return {"v_mid": operating_point(circuit).voltage("mid")}


class _Explosive(FaultModel):
    """A fault whose evaluation always blows up in the solver."""

    @property
    def name(self) -> str:
        return "explosive"

    def apply(self, target):
        raise ConvergenceError("simulated blow-up")


class TestFaultCampaign:
    def test_deltas_against_a_fresh_baseline(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0),
                    BridgedNodes("mid", "0", resistance=1.0)])
        report = campaign.run()
        assert report.baseline["v_mid"] == pytest.approx(0.5)
        drift = report.outcome("r-drift-R2-x3")
        assert drift.evaluated
        assert drift.metrics["v_mid"] == pytest.approx(0.75)
        assert drift.deltas["v_mid"] == pytest.approx(0.25)
        bridge = report.outcome("bridge-mid-0")
        assert bridge.deltas["v_mid"] == pytest.approx(-0.5, abs=1e-3)

    def test_each_fault_gets_a_fresh_target(self):
        """Two drifts on the same resistor must not compound."""
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0), ResistorDrift("R2", 3.0)])
        report = campaign.run()
        first, second = report.outcomes
        assert first.metrics == second.metrics

    def test_failing_fault_is_recorded_not_fatal(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[_Explosive(), ResistorDrift("R2", 3.0)])
        report = campaign.run()
        assert [o.fault for o in report.failed] == ["explosive"]
        bad = report.outcome("explosive")
        assert not bad.evaluated
        assert "simulated blow-up" in bad.error
        assert bad.metrics is None and bad.deltas is None
        # The survivor was still evaluated.
        assert report.outcome("r-drift-R2-x3").evaluated

    def test_worst_ranks_by_absolute_delta(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 1.5),
                    BridgedNodes("mid", "0", resistance=1.0)])
        assert campaign.run().worst("v_mid").fault == "bridge-mid-0"

    def test_worst_requires_an_evaluated_fault(self):
        campaign = FaultCampaign(build=divider, metric_fn=mid_voltage,
                                 faults=[_Explosive()])
        with pytest.raises(AnalysisError):
            campaign.run().worst("v_mid")

    def test_describe_tables_every_fault(self):
        campaign = FaultCampaign(
            build=divider, metric_fn=mid_voltage,
            faults=[ResistorDrift("R2", 3.0), _Explosive()])
        text = campaign.run().describe()
        assert "baseline" in text
        assert "r-drift-R2-x3" in text
        assert "FAILED: simulated blow-up" in text
        assert "d(v_mid)" in text

    def test_empty_catalogue_rejected(self):
        with pytest.raises(AnalysisError):
            FaultCampaign(build=divider, metric_fn=mid_voltage, faults=[])

    def test_unknown_fault_lookup_rejected(self):
        campaign = FaultCampaign(build=divider, metric_fn=mid_voltage,
                                 faults=[ResistorDrift("R2", 2.0)])
        with pytest.raises(AnalysisError):
            campaign.run().outcome("no-such-fault")


class TestStandardAdcCampaign:
    def test_blast_radius_is_physically_ordered(self):
        """A dead coarse bank must hurt far more than one stuck fine
        comparator -- the headline claim of the blast-radius report."""
        report = standard_adc_campaign(seed=1, samples_per_code=4).run()
        assert len(report.outcomes) == len(standard_adc_faults())
        assert not report.failed
        stuck_fine = report.outcome("stuck-fine[9]-high")
        dead_coarse = report.outcome("bias-open-coarse")
        assert abs(dead_coarse.deltas["enob"]) > 3.0
        assert abs(stuck_fine.deltas["enob"]) < abs(
            dead_coarse.deltas["enob"])
        assert report.worst("inl").fault in (
            "bias-open-coarse", "bias-open-fine",
            "stuck-coarse[3]-low", "stuck-coarse[5]-high")
