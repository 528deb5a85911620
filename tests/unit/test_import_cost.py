"""scipy and networkx load where the library first uses them.

Importing scipy.optimize, scipy.sparse, scipy.linalg and networkx costs
a fresh interpreter about 0.4 s: more than importing the rest of the
library, and more than one chip of the behavioural converter flow,
whose pool workers start fresh with every population.  Each test runs a
flow in a fresh interpreter and reads which of those packages it left
in ``sys.modules``.  The module-level side of the rule is checked
statically in ``test_module_reach.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
HEAVY = ("scipy", "networkx")

ALL_MODULES = """
import pkgutil
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
"""

ADC_CHIP_FLOW = """
from repro import adc, pmu
chip = adc.FaiAdc(ideal=False, seed=3)
adc.linearity_test(chip, samples_per_code=4)
unit = pmu.PowerManagementUnit(chip)
adc.dynamic_test(unit.tuned_adc(8e3), f_sample=8e3, n_samples=512)
unit.operating_point(8e3).total_power
"""

LATCH_ENSEMBLE = """
import numpy as np
from repro import spice, stscl
design = stscl.StsclGateDesign.default(1e-9)
t_d, vdd = design.delay(), 0.4
high, low = vdd, vdd - design.v_sw

def pulse(v0, v1, delay, width, period):
    return spice.pulse_wave(v0, v1, delay=delay, rise=t_d / 5,
                            fall=t_d / 5, width=width, period=period)

circuit, _ = stscl.stscl_latch_circuit(
    design, vdd, pulse(low, high, 2 * t_d, 4 * t_d, 8 * t_d),
    pulse(high, low, 2 * t_d, 4 * t_d, 8 * t_d),
    pulse(low, high, t_d, 2 * t_d, 4 * t_d),
    pulse(high, low, t_d, 2 * t_d, 4 * t_d))
n_devices = len(circuit.mos_elements())
lanes = [spice.LaneSpec.mismatch(
    np.random.default_rng(seed).normal(0.0, 2e-3, n_devices))
    for seed in range(4)]
result = spice.batch_transient(
    circuit, lanes, 3 * t_d,
    spice.TransientOptions(reltol=4e-3, abstol=1e-4, dt_max=t_d / 2.5))
assert not result.diagnostics.fallback_lanes, result.diagnostics
"""

INVERTER = """
import numpy as np
from repro import spice, stscl
design = stscl.StsclGateDesign.default(1e-9)
inverter, _ = stscl.stscl_inverter_circuit(design, 0.4)
"""

SERIAL_GATE_FLOW = INVERTER + """
spice.operating_point(inverter)
spice.dc_sweep(inverter, "vinp", np.linspace(0.0, 0.4, 11))
inverter.element("vinp").ac_mag = 1.0
spice.ac_analysis(inverter, np.logspace(2.0, 9.0, 32))
spice.transient(inverter, 2 * design.delay())
"""

SPARSE_SOLVE = INVERTER + """
inverter.matrix_backend = "sparse"
spice.operating_point(inverter)
"""


def _heavy_packages_after(code: str) -> set[str]:
    """The scipy and networkx (sub)packages a fresh interpreter holds
    after running ``code``, as their first two name components."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted({'.'.join(name.split('.')[:2])"
        f" for name in sys.modules if name.split('.')[0] in {HEAVY!r}}})))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code + report], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_every_module_loads_neither():
    assert _heavy_packages_after(ALL_MODULES) == set()


def test_the_converter_chip_flow_loads_neither():
    """The adc_yield flow: linearity, the PMU-tuned chip's sine test and
    its power.  Pool workers run it in fresh processes, so a library
    import on this route would be paid by every population."""
    assert _heavy_packages_after(ADC_CHIP_FLOW) == set()


def test_a_lockstep_latch_ensemble_loads_neither():
    """Stacked dense solves go through numpy alone."""
    assert _heavy_packages_after(LATCH_ENSEMBLE) == set()


def test_the_serial_gate_flow_loads_only_scipy_linalg():
    """Nothing beyond what importing scipy.linalg itself loads (no
    scipy.sparse in current scipy), and never scipy.optimize."""
    loaded = _heavy_packages_after(SERIAL_GATE_FLOW)
    assert "scipy.linalg" in loaded
    assert loaded <= _heavy_packages_after("import scipy.linalg")
    assert "scipy.optimize" not in loaded


def test_a_sparse_solve_loads_scipy_sparse_but_not_optimize():
    loaded = _heavy_packages_after(SPARSE_SOLVE)
    assert "scipy.sparse" in loaded
    assert loaded <= _heavy_packages_after(
        "import scipy.linalg, scipy.sparse.linalg")
    assert "scipy.optimize" not in loaded
