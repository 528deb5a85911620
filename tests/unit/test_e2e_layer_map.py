"""The end-to-end benchmark's layer map still binds to the library.

``benchmarks/e2e/layers.py`` wraps library entry points by name and
looks each method up in the body of the class it names.  A method that
moves to a base class or is renamed makes ``Ledger.install`` raise
``StaleWrapperError``; this test surfaces that in tier-1 instead of
only in the traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import ladder_hard_delay_chain

LAYERS_PY = (Path(__file__).resolve().parents[2]
             / "benchmarks" / "e2e" / "layers.py")


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_binds_every_entry_point_and_uninstall_restores_it():
    layers = _load_layers()
    ledger = layers.Ledger()
    try:
        try:
            ledger.install()
        except layers.StaleWrapperError as error:
            pytest.fail(f"stale layer map: {error}")
        patches = list(ledger._patches)
        assert all(vars(site)[name] is not original
                   for site, name, original in patches)
    finally:
        ledger.uninstall()
    assert patches
    for site, name, original in patches:
        assert vars(site)[name] is original, (site, name)


def _inverter():
    from repro.stscl import StsclGateDesign, stscl_inverter_circuit
    return stscl_inverter_circuit(StsclGateDesign.default(1e-9), 0.4)[0]


@pytest.mark.parametrize("build, rescued_by", [
    (_inverter, "newton"),
    (ladder_hard_delay_chain, "pseudo-transient"),
], ids=["inverter-1nA", "delay-chain-316pA"])
def test_the_wrappers_see_every_rung_newton_solve(build, rescued_by):
    """The ledger must count every Newton solve of both rungs: a rung
    that reached ``newton_solve`` through a reference taken at import
    would bypass the wrapper and leave its layer's time unattributed."""
    from repro import telemetry
    from repro.spice import operating_point

    circuit = build()
    layers = _load_layers()
    ledger = layers.Ledger()
    try:
        ledger.install()
        with telemetry.tracing("ladder") as trace:
            op = operating_point(circuit)
    finally:
        ledger.uninstall()
    assert op.diagnostics.rescued_by == rescued_by
    assert ledger.calls["repro.spice.strategies:run_ladder"] == 1
    assert ledger.calls["repro.spice.strategies:newton_solve"] == len(
        trace.root.find_all("newton"))


FIRST_USE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("e2e_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
from repro import spice, stscl
from repro.spice import sparse, strategies

bindings = [(strategies, "_getrf"), (strategies, "_getrs"), (sparse, "_splu")]
originals = [vars(site)[name] for site, name in bindings]


def solve(backend):
    circuit, _ = stscl.stscl_inverter_circuit(
        stscl.StsclGateDesign.default(1e-9), 0.4)
    circuit.matrix_backend = backend
    return spice.operating_point(circuit).x


ledger = layers.Ledger().install()
try:
    cold = sorted(name for name in sys.modules if name.startswith("scipy"))
    wrappers = [vars(site)[name] for site, name in bindings]
    solved = {backend: solve(backend) for backend in ("dense", "sparse")}
    kept = [vars(site)[name] is wrapper and wrapper is not original
            for (site, name), wrapper, original
            in zip(bindings, wrappers, originals)]
finally:
    ledger.uninstall()
restored = [vars(site)[name] is original
            for (site, name), original in zip(bindings, originals)]
again = {backend: bool((solve(backend) == x).all())
         for backend, x in solved.items()}
print(json.dumps({"cold": cold, "calls": ledger.calls, "kept": kept,
                  "restored": restored, "again": again}))
"""


def test_the_solver_bindings_fire_on_first_use():
    """The ledger goes in before scipy is loaded, so the dense LAPACK
    pair and SuperLU are first used through its wrappers: a binding made
    on first use must not replace a wrapped name.  Uninstalling restores
    the originals, which still solve."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FIRST_USE, str(LAYERS_PY)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["cold"] == []
    for entry in ("repro.spice.strategies:_getrf",
                  "repro.spice.strategies:_getrs",
                  "repro.spice.sparse:_splu", "SuperLU.solve"):
        assert report["calls"][entry] >= 1, entry
    assert report["kept"] == [True, True, True]
    assert report["restored"] == [True, True, True]
    assert report["again"] == {"dense": True, "sparse": True}
