"""The root finder under the STSCL design equations.

Every root the library returns is checked for a sign change of its own
function around it, which holds whatever finder sits underneath; the
port is then held to ``scipy.optimize.brentq`` bit for bit, on the
library's calls and on random brackets.  Only this file imports
scipy.optimize.
"""

import contextlib
import math
import sys

import numpy as np
import pytest

from repro.errors import ConvergenceError, DesignError, ModelError
from repro.stscl import StsclGateDesign, load, minimum_supply, roots, supply
from repro.stscl.load import HighValueLoad, ReplicaBias

#: The e2e gate_char workload's tail currents, 100 pA .. 10 nA.
CURRENTS = np.logspace(-10.0, -8.0, 9)
SUPPLIES = (0.4, 0.5, 1.0)


def _design_calls(design: StsclGateDesign) -> None:
    """Every library route to the root finder, at every supply."""
    device = HighValueLoad(params=design.tech.pmos_thick, w=design.load_w,
                           l=design.load_l, temperature=design.temperature)
    for vdd in SUPPLIES:
        with contextlib.suppress(DesignError):
            device.required_gate_bias(design.i_ss, design.v_sw, vdd)
        with contextlib.suppress(DesignError):
            supply._level_source_voltage(design, vdd - design.v_sw, vdd)
    ReplicaBias(device).swing_across_supply(design.i_ss, design.v_sw,
                                            SUPPLIES)
    minimum_supply(design)


def _check_grid(monkeypatch, check) -> list[float]:
    """Run ``check(f, a, b, xtol, root)`` on every root the grid solves,
    as it is returned (a closure over a loop variable changes after);
    returns the ``xtol`` of every call."""
    tolerances = []

    def checked(f, a, b, xtol):
        root = roots.brentq(f, a, b, xtol)
        check(f, a, b, xtol, root)
        tolerances.append(xtol)
        return root

    monkeypatch.setattr(load, "brentq", checked)
    monkeypatch.setattr(supply, "brentq", checked)
    for i_ss in CURRENTS:
        _design_calls(StsclGateDesign.default(float(i_ss)))
    return tolerances


def test_every_library_root_is_bracketed(monkeypatch):
    """At each root x, f is zero or changes sign across x +- delta,
    delta = 2 (xtol + 4 eps |x|): twice the finder's bracket width."""
    loose = []

    def bracketed(f, a, b, xtol, x):
        assert min(a, b) <= x <= max(a, b)
        delta = 2.0 * (xtol + 4.0 * sys.float_info.epsilon * abs(x))
        below, above = f(x - delta), f(x + delta)
        if f(x) != 0.0 and np.sign(below) == np.sign(above) != 0.0:
            loose.append((x, below, above))

    tolerances = _check_grid(monkeypatch, bracketed)
    assert len(tolerances) > 200
    assert set(tolerances) == {1e-9, 1e-6}
    assert loose == []


def test_library_roots_equal_scipy_brentq_bit_for_bit(monkeypatch):
    from scipy.optimize import brentq

    def same(f, a, b, xtol, root):
        want = brentq(f, a, b, xtol=xtol)
        assert root == want, (a, b, xtol)
        assert math.copysign(1.0, root) == math.copysign(1.0, want)

    _check_grid(monkeypatch, same)


def _smooth(rng: np.random.Generator):
    """A random smooth function with a root at or near ``c`` in (-3, 3)."""
    c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0)
    shape = rng.integers(5)
    if shape == 0:
        return c, lambda x: math.tanh(s * (x - c))
    if shape == 1:
        power = 2 * int(rng.integers(1, 6)) + 1
        return c, lambda x: (x - c) ** power
    if shape == 2:
        return c, lambda x: math.expm1(s * (x - c))
    if shape == 3:
        return c, lambda x: s * (x - c) + (x - c) ** 3
    return c, lambda x: math.atan(s * (x - c)) + 1e-3 * math.sin(7.0 * x)


def _outcome(finder, f, a, b, xtol):
    """The root, or the error kind, and every abscissa ``f`` saw."""
    seen = []

    def spy(x):
        seen.append(x)
        return f(x)
    try:
        return finder(spy, a, b, xtol), seen
    except (ValueError, RuntimeError) as error:
        kind = ValueError if isinstance(error, ValueError) else RuntimeError
        return kind, seen


def test_random_brackets_equal_scipy_brentq_bit_for_bit():
    """Same root and the same sequence of evaluations, non-converging
    brackets (a high odd power's flat root at a tight xtol) included."""
    from scipy.optimize import brentq

    def scipy_finder(f, a, b, xtol):
        return brentq(f, a, b, xtol=xtol)

    rng = np.random.default_rng(0)
    outcomes = set()
    for _ in range(2000):
        c, f = _smooth(rng)
        a, b = c - rng.uniform(0.01, 4.0), c + rng.uniform(0.01, 4.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-12.0, -3.0)
        got = _outcome(roots.brentq, f, a, b, xtol)
        want = _outcome(scipy_finder, f, a, b, xtol)
        assert got == want, (a, b, xtol)
        if isinstance(got[0], float):
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
        outcomes.add(got[0] if isinstance(got[0], type) else float)
    assert {float, RuntimeError} <= outcomes


class TestErrors:
    def test_same_sign_bracket(self):
        with pytest.raises(DesignError, match="different signs"):
            roots.brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-9)

    def test_nan(self):
        with pytest.raises(ModelError, match="NaN"):
            roots.brentq(lambda x: x if x < 0.5 else math.nan,
                         -1.0, 1.0, 1e-9)

    def test_no_convergence(self):
        with pytest.raises(ConvergenceError, match="100 iterations"):
            roots.brentq(lambda x: (x - 0.3) ** 11, -3.0, 2.0, 1e-12)

    def test_an_endpoint_root_returns_at_once(self):
        assert roots.brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-9) == 1.0
        assert roots.brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-9) == 3.0
