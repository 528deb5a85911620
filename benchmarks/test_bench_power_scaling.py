"""E3 / Sec. III-C in-text table: power scales linearly with sampling
rate under the single bias knob.

Paper: f_s adjustable 800 S/s -> 80 kS/s with power 44 nW -> 4 uW
(digital part 2 nW -> 200 nW), ENOB 6.5; power dissipation of the
digital part negligible against the total.
"""

import numpy as np
import pytest

from _util import fmt, print_table
from repro.adc import FaiAdc, dynamic_test
from repro.analysis.noise import adc_noise_budget
from repro.pmu import PowerManagementUnit


@pytest.fixture(scope="module")
def pmu():
    return PowerManagementUnit(FaiAdc(ideal=False, seed=1))


@pytest.fixture(scope="module")
def scaling_rows(pmu):
    rates = [800.0, 2e3, 8e3, 20e3, 80e3]
    return [pmu.operating_point(f) for f in rates]


def test_bench_power_vs_sample_rate(benchmark, pmu, scaling_rows):
    benchmark(pmu.operating_point, 8e3)

    rows = []
    for op in scaling_rows:
        rows.append([
            fmt(op.f_sample, "S/s"), fmt(op.total_power, "W"),
            fmt(op.digital_power, "W"),
            f"{100 * op.digital_fraction:.1f}%",
            fmt(op.energy_per_sample, "J")])
    print_table(
        "Sec. III-C -- power vs sampling rate "
        "(paper: 44nW@800S/s -> 4uW@80kS/s, digital 2nW -> 200nW)",
        ["f_s", "P_total", "P_digital", "dig. share", "E/sample"],
        rows)

    low, high = scaling_rows[0], scaling_rows[-1]
    # Paper anchors (rough magnitude; exact silicon overheads differ).
    assert low.total_power == pytest.approx(44e-9, rel=0.35)
    assert high.total_power == pytest.approx(4e-6, rel=0.35)
    assert high.digital_power == pytest.approx(200e-9, rel=0.5)
    # Exact linearity of the scaling law.
    assert (high.total_power / low.total_power
            == pytest.approx(100.0, rel=0.02))
    # "power dissipation of digital part is negligible"
    assert all(op.digital_fraction < 0.10 for op in scaling_rows)

    benchmark.extra_info["p_800Ss_nW"] = low.total_power * 1e9
    benchmark.extra_info["p_80kSs_uW"] = high.total_power * 1e6


def test_bench_enob_across_rates(benchmark, pmu):
    """ENOB 6.5 must hold across the whole scaled range, not just at
    one point -- the essence of 'power-scalable performance'."""
    def measure(f_s: float) -> float:
        tuned = pmu.tuned_adc(f_s)
        return dynamic_test(tuned, f_sample=f_s, n_samples=2048,
                            cycles=67).enob

    enob_80k = benchmark.pedantic(measure, args=(80e3,), rounds=1,
                                  iterations=1)
    enob_800 = measure(800.0)
    floor = adc_noise_budget()["total"]
    fitted = pmu.adc.noise_rms
    print(f"\nENOB @80kS/s: {enob_80k:.2f}   ENOB @800S/s: {enob_800:.2f}"
          f"   (paper: 6.5)"
          f"\ninput noise: fitted {fitted * 1e3:.2f} mV vs first-principles"
          f" floor {floor * 1e3:.2f} mV ({fitted / floor:.1f}x, "
          f"known deviation 4)")
    assert enob_80k == pytest.approx(6.5, abs=0.4)
    assert enob_800 == pytest.approx(6.5, abs=0.4)
    benchmark.extra_info["enob_80k"] = float(enob_80k)
    benchmark.extra_info["enob_800"] = float(enob_800)
