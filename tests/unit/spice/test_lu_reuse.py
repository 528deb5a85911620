"""LuReuseState lifecycle: rung isolation and key invalidation.

The chord-Newton factorization cache must never leak across solves
whose Jacobians differ -- a pseudo-transient rung factors a *different*
matrix at every continuation step (the anchor conductance and the
anchor state both move), so a factor cached by an earlier rung (or an
earlier step of the same rung) must not be consumed as if it were
current.  Two mechanisms guarantee that:

* each :func:`~repro.spice.strategies.newton_solve` call without an
  explicit ``lu_state`` gets a fresh private cache, so strategy rungs
  are isolated by construction;
* callers that *do* share a state across solves (the transient engine)
  key it with :meth:`LuReuseState.ensure_key` and the cache drops
  itself whenever the key -- the companion-model coefficient -- moves.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.devices.diode import Diode, DiodeParameters
from repro.spice import (
    Circuit,
    NewtonOptions,
    NewtonStrategy,
    PseudoTransientStrategy,
    operating_point,
)
from repro.spice.strategies import LuReuseState, newton_solve

DIODE = Diode(DiodeParameters(name="junction", i_s=1e-16))

#: Enough for the easy points, far too little for the 8 V walk.
TIGHT = NewtonOptions(max_iterations=20)


def hard_diode() -> Circuit:
    """8 V into a diode through 10 ohms: a 27-iteration Newton walk."""
    circuit = Circuit("hard_diode")
    circuit.add_vsource("V1", "in", "0", 8.0)
    circuit.add_resistor("RS", "in", "a", 10.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


def mild_diode() -> Circuit:
    circuit = Circuit("mild_diode")
    circuit.add_vsource("V1", "in", "0", 1.0)
    circuit.add_resistor("RS", "in", "a", 100.0)
    circuit.add_diode("D1", "a", "0", DIODE)
    return circuit


class TestStateSemantics:
    def test_ensure_key_keeps_factor_while_key_is_stable(self):
        state = LuReuseState()
        state.key, state.lu = 1e-9, object()
        state.ensure_key(1e-9)
        assert state.lu is not None

    def test_ensure_key_drops_factor_on_key_change(self):
        """The transient engine's dt-change discipline: a new companion
        coefficient means a new Jacobian, so the cache must clear."""
        state = LuReuseState()
        state.key, state.lu = 1e-9, object()
        state.ensure_key(2e-9)
        assert state.lu is None
        assert state.key == 2e-9

    def test_invalidate_clears_factor_only(self):
        state = LuReuseState()
        state.key, state.lu = "k", object()
        state.invalidate()
        assert state.lu is None
        assert state.key == "k"


def _newton_spans(root):
    return root.find_all("newton")


class TestRungIsolation:
    def test_every_solve_opens_with_a_fresh_factorization(self):
        """Two back-to-back solves of the same compiled circuit: the
        second must factor anew on its first iteration, never chord-step
        off the first solve's cached factor (no ``lu_state`` passed
        means a private, solve-scoped cache)."""
        circuit = mild_diode()
        compiled = circuit.compile()
        x0 = circuit.initial_guess(compiled)
        options = NewtonOptions()
        with telemetry.tracing("isolation") as trace:
            x1, _ = newton_solve(compiled, x0, None, options)
            newton_solve(compiled, x1, None, options)
        spans = _newton_spans(trace.root)
        assert len(spans) == 2
        for span in spans:
            first_iter = span.events_of("newton-iter")[0]
            assert first_iter["lu_reused"] is False

    def test_gmin_rung_never_consumes_a_foreign_factor(self):
        """Newton fails, the pseudo-transient rung rescues.  Every
        continuation step solves a different Jacobian (the anchor
        conductance falls a decade at a time), so each step's opening
        iteration must be a fresh factorization -- chord steps may only
        appear *within* one step's iterations."""
        with telemetry.tracing("ladder") as trace:
            op = operating_point(hard_diode(), TIGHT, strategies=(
                NewtonStrategy(),
                PseudoTransientStrategy(max_iterations=80)))
        assert op.diagnostics.rescued_by == "pseudo-transient"
        rung_span = trace.root.find("strategy:pseudo-transient")
        assert rung_span is not None
        spans = _newton_spans(rung_span)
        assert len(spans) > 2  # one per continuation step
        for span in spans:
            first_iter = span.events_of("newton-iter")[0]
            assert first_iter["lu_reused"] is False

    def test_rescued_solution_matches_an_unconstrained_solve(self):
        """Isolation is not just hygiene: the rescued answer must equal
        plain Newton given a generous budget."""
        reference = operating_point(
            hard_diode(), NewtonOptions(max_iterations=400),
            strategies=(NewtonStrategy(),))
        rescued = operating_point(hard_diode(), TIGHT, strategies=(
            NewtonStrategy(), PseudoTransientStrategy(max_iterations=80)))
        for node, value in reference.voltages.items():
            assert rescued.voltages[node] == pytest.approx(value,
                                                           abs=1e-9)

    def test_shared_state_survives_within_one_key(self):
        """Transient-style sharing: with an explicit ``lu_state`` the
        factor persists across calls while the key holds, and dies on
        ``ensure_key`` when the companion coefficient moves."""
        circuit = mild_diode()
        compiled = circuit.compile()
        x0 = circuit.initial_guess(compiled)
        options = NewtonOptions()
        state = LuReuseState()
        state.ensure_key(1e-9)
        x1, _ = newton_solve(compiled, x0, None, options, lu_state=state)
        assert state.lu is not None
        state.ensure_key(2e-9)  # dt change
        assert state.lu is None
        x2, _ = newton_solve(compiled, x1, None, options, lu_state=state)
        np.testing.assert_allclose(x2, x1, atol=1e-9)


class TestWorkerBoundaries:
    """The cached handle is C-level state (possibly a SuperLU object):
    it must never travel into a worker payload -- a pickled state
    degrades to empty instead."""

    def test_pickle_round_trip_ships_an_empty_state(self):
        import pickle

        state = LuReuseState()
        state.ensure_key(("dt", 1e-9))
        state.lu = object()  # stand-in for an unpicklable SuperLU handle
        restored = pickle.loads(pickle.dumps(state))
        assert isinstance(restored, LuReuseState)
        assert restored.lu is None
        assert restored.key is None
        # The original is untouched: degradation happens in the copy.
        assert state.lu is not None

    def test_unpicklable_handle_never_blocks_the_payload(self):
        """Pickling must succeed *regardless* of what the handle is --
        __reduce__ drops it before the pickler ever sees it."""
        import pickle

        class _Unpicklable:
            def __reduce__(self):
                raise TypeError("C-level handle")

        state = LuReuseState()
        state.lu = _Unpicklable()
        pickle.dumps(state)  # must not raise
