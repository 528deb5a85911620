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
