"""The end-to-end benchmark's layer map still binds to the library.

``benchmarks/e2e/layers.py`` wraps library entry points by name and
looks each method up in the body of the class it names.  A method that
moves to a base class or is renamed makes ``Ledger.install`` raise
``StaleWrapperError``; this test surfaces that in tier-1 instead of
only in the traced benchmark run.
"""

import importlib.util
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
