"""Per-layer time, measured from outside the library.

The traced run wraps each layer's entry points in timing wrappers kept
here, in the benchmark, so the library itself is unchanged.  A
module-level function is wrapped at *every* ``repro`` module attribute
bound to it: callers reach ``run_ladder`` through ``spice.strategies``,
``spice.dc`` and ``spice.batch``, and wrapping only the defining module
would miss the other two.  A method is wrapped on its class.

Wrappers share one span stack.  A span's *self* time is its duration
minus the time of the wrapped spans it encloses, so the self times of
all layers add up to the time spent inside any wrapped span; the rest
of the traced wall time is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time

#: Layer -> entry points, as ``"module:qualname"``.  ``module:*`` wraps
#: every public function defined in that module.
LAYERS: dict[str, tuple[str, ...]] = {
    "analysis.montecarlo": ("repro.analysis.montecarlo:MonteCarlo.run",),
    "analysis.parallel": ("repro.analysis.parallel:run_ordered",),
    "analog": ("repro.adc.fai:FaiAdc.__init__",
               "repro.adc.fai:FaiAdc.with_bias",
               "repro.pmu.controller:PowerManagementUnit.tuned_adc",
               "repro.pmu.controller:PowerManagementUnit.operating_point"),
    "adc": ("repro.adc.fai:FaiAdc.convert_batch",
            "repro.adc.metrics:inl_dnl_from_codes",
            "repro.adc.metrics:sine_test"),
    "spice.netlist": ("repro.spice.netlist:Circuit.compile",),
    "spice.strategies": ("repro.spice.strategies:run_ladder",
                         "repro.spice.strategies:newton_solve"),
    "spice.transient": ("repro.spice.transient:transient",),
    "spice.batch": ("repro.spice.batch:batch_operating_point",
                    "repro.spice.batch:batch_transient"),
    "spice.assembly": (
        "repro.spice.assembly:CircuitAssembler.assemble",
        "repro.spice.assembly:CircuitAssembler.stamp_charges",
        "repro.spice.assembly:CircuitAssembler.stamp_charges_batch",
        "repro.spice.batch:BatchAssembler.assemble_batch",
        "repro.spice.batch:BatchAssembler.assemble_batch_sparse"),
    "devices": ("repro.devices.mosfet:MosBank.evaluate",
                "repro.devices.diode:DiodeBank.current",
                "repro.devices.diode:DiodeBank.charge"),
    # getrf/getrs are the dense serial factor and solve; the batched
    # engine reaches its stacked numpy.linalg.solve via _solve_stacked.
    "scipy.linalg.lapack": ("repro.spice.strategies:_getrf",
                            "repro.spice.strategies:_getrs",
                            "repro.spice.batch:_solve_stacked"),
    # SuperLU.solve is timed through the proxy the wrapped splu returns.
    "scipy.sparse.linalg": ("repro.spice.sparse:_splu", "SuperLU.solve"),
    "spice.ac": ("repro.spice.ac:ac_analysis",),
    "scope": ("repro.scope.capture:ScopeSession._on_sample",
              "repro.scope.measure:*"),
}

SPLU = "repro.spice.sparse:_splu"
SUPERLU_SOLVE = "SuperLU.solve"
RUN_ORDERED = "repro.analysis.parallel:run_ordered"


class StaleWrapperError(RuntimeError):
    """An entry point is gone, or a wrapper listed for a workload never
    fired there: a binding site moved or was renamed."""


def _expand(entry: str) -> list[str]:
    """``module:*`` -> every public function defined in ``module``."""
    module_name, _, qualname = entry.partition(":")
    if qualname != "*":
        return [entry]
    module = importlib.import_module(module_name)
    return sorted(f"{module_name}:{name}"
                  for name, value in vars(module).items()
                  if not name.startswith("_") and callable(value)
                  and not isinstance(value, type)
                  and getattr(value, "__module__", None) == module_name)


def layer_of(entry: str) -> str:
    """The layer an (expanded) entry point belongs to."""
    for layer, entries in LAYERS.items():
        if entry in entries or entry.partition(":")[0] + ":*" in entries:
            return layer
    raise KeyError(entry)


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class _TimedSuperLU:
    """A SuperLU factorization whose ``solve`` is timed."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve) -> None:
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Ledger:
    """Calls per entry point and self time per layer, for one process.

    :meth:`install` patches every entry point and :meth:`uninstall`
    restores the originals.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.tasks = 0
        self.task_bytes = 0
        # _stack[0] accumulates the duration of outermost spans: the
        # time spent inside any wrapped entry point.
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    @property
    def attributed_s(self) -> float:
        return self._stack[0]

    def timed(self, layer: str, entry: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        calls.setdefault(entry, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[entry] += 1
        return wrapper

    def _recording(self, entry: str, fn):
        """The callable to time for ``entry``: ``fn`` itself, or ``fn``
        plus the extra bookkeeping that entry point needs."""
        if entry == SPLU:
            def splu(*args, **kwargs):
                lu = fn(*args, **kwargs)
                return _TimedSuperLU(lu, self.timed(
                    layer_of(SUPERLU_SOLVE), SUPERLU_SOLVE, lu.solve))
            return splu
        if entry == RUN_ORDERED:
            def run_ordered(worker, tasks, *args, **kwargs):
                self.tasks += len(tasks)
                self.task_bytes += sum(len(pickle.dumps(task))
                                       for task in tasks)
                return fn(worker, tasks, *args, **kwargs)
            return run_ordered
        return fn

    def install(self) -> "Ledger":
        global ACTIVE
        self.calls.setdefault(SUPERLU_SOLVE, 0)
        for layer, entries in LAYERS.items():
            for entry in entries:
                if entry != SUPERLU_SOLVE:
                    for name in _expand(entry):
                        self._patch(layer, name)
        ACTIVE = self
        return self

    def _patch(self, layer: str, entry: str) -> None:
        module_name, _, qualname = entry.partition(":")
        owner_path, _, attr = qualname.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_path:
            owner = functools.reduce(getattr, owner_path.split("."), owner)
        original = vars(owner).get(attr)
        if original is None:
            raise StaleWrapperError(f"entry point {entry} no longer exists")
        if owner_path:
            bindings = [(owner, attr)]
        else:
            bindings = [(module, name) for module in _repro_modules()
                        for name, value in list(vars(module).items())
                        if value is original]
        wrapper = self.timed(layer, entry, self._recording(entry, original))
        for site, name in bindings:
            self._patches.append((site, name, original))
            setattr(site, name, wrapper)

    def uninstall(self) -> None:
        global ACTIVE
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()
        ACTIVE = None

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.self_s)

    def since(self, before, layers: tuple[str, ...]) -> dict[str, float]:
        """Calls and self time of ``layers`` since ``before``, as extra
        metric keys a pool worker returns to the parent."""
        calls, self_s = before
        keys = {f"self_s:{layer}": self.self_s[layer] - self_s[layer]
                for layer in layers}
        keys.update({f"calls:{entry}": float(count - calls.get(entry, 0))
                     for entry, count in self.calls.items()
                     if layer_of(entry) in layers})
        return keys

    def add_worker_keys(self, totals: dict[str, float]) -> None:
        """Fold summed :meth:`since` keys from pool workers in."""
        for key, value in totals.items():
            kind, _, name = key.partition(":")
            if kind == "self_s":
                self.self_s[name] += value
            elif kind == "calls":
                self.calls[name] = self.calls.get(name, 0) + int(value)


#: The installed ledger.  Pool workers forked during a traced run inherit
#: it, which is how a metric function running in a worker reaches it.
ACTIVE: Ledger | None = None
