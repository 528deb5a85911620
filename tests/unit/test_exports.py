"""Every name a ``repro`` package exports in ``__all__`` resolves.

A stale ``__all__`` entry -- a name whose definition left the package
-- breaks only ``from repro.<package> import *``, which no other test
runs; this one runs it for the top-level package and every
subpackage.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
