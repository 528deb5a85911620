"""Accounting identities of a recorded trace, as library checks.

Each check takes a :class:`~repro.telemetry.core.Trace` -- live, or read
back with :func:`~repro.telemetry.export.read_jsonl` -- or any
:class:`~repro.telemetry.core.Span` subtree, and returns one message per
violation; an empty list means the identity holds.  :func:`violations`
runs every check; the tests, ``python -m repro trace`` and every bench
warmup run the same checks, so a drifting counter fails everywhere at
once.
"""

from __future__ import annotations

from .core import Span, Trace


def lane_sample_violations(trace: Trace | Span) -> list[str]:
    """Check every ``batch-transient`` span of the lockstep engine.

    Every committed lane sample belongs either to the shared grid or to
    a named serial fallback:

    * ``lane_samples == steps_accepted * lanes_lockstep +
      fallback_serial_steps``;
    * the span's own ``batch_transient_steps`` counter equals its
      ``steps_accepted``;
    * the serial ``transient_steps_accepted`` counted inside the span
      (the fallback reruns) equals ``fallback_serial_steps``.

    A span whose run raised before packaging its lanes carries no
    ``lane_samples`` and has nothing to reconcile.
    """
    root = trace.root if isinstance(trace, Trace) else trace
    violations = []
    for span in root.find_all("batch-transient"):
        attrs = span.attrs
        if "lane_samples" not in attrs:
            continue
        checks = (
            ("lane_samples", attrs["lane_samples"],
             attrs["steps_accepted"] * attrs["lanes_lockstep"]
             + attrs["fallback_serial_steps"]),
            ("batch_transient_steps", span.counter("batch_transient_steps"),
             attrs["steps_accepted"]),
            ("nested transient_steps_accepted",
             span.total_counter("transient_steps_accepted"),
             attrs["fallback_serial_steps"]))
        violations.extend(
            f"batch-transient span of {attrs.get('circuit')!r}: {name} is "
            f"{got}, expected {expected}"
            for name, got, expected in checks if got != expected)
    return violations


def scope_sample_violations(trace: Trace | Span) -> list[str]:
    """Check every serial ``transient`` span that fed a scope session.

    The engine offers the session the t = 0 sample and every committed
    step, and nothing else -- a run that a complete capture ends early
    included -- so ``scope_samples_seen == transient_steps_accepted +
    1`` on the span's own counters.  A span without scope counters (no
    session, or a run that raised before finishing it) is skipped.
    """
    root = trace.root if isinstance(trace, Trace) else trace
    violations = []
    for span in root.find_all("transient"):
        if "scope_samples_seen" not in span.counters:
            continue
        seen = span.counter("scope_samples_seen")
        expected = span.counter("transient_steps_accepted") + 1
        if seen != expected:
            violations.append(
                f"transient span of {span.attrs.get('circuit')!r}: "
                f"scope_samples_seen is {seen}, expected "
                f"transient_steps_accepted + 1 = {expected}")
    return violations


def factorization_violations(trace: Trace | Span) -> list[str]:
    """Check that the Newton kernels counted every SuperLU factorization.

    Trace-wide, ``sparse_numeric_refactorizations`` (counted by
    :meth:`~repro.spice.sparse.SparseSystem.factorize` for every numeric
    factorization SuperLU runs) equals ``sparse_factorizations``
    (counted by the serial and the stacked Newton kernels for every
    factorization they request).  A factorization outside a kernel, or
    a kernel path that skips its count, breaks the identity; so does a
    non-finite Jacobian, which a kernel requests but ``factorize``
    refuses before SuperLU.
    """
    root = trace.root if isinstance(trace, Trace) else trace
    numeric = root.total_counter("sparse_numeric_refactorizations")
    requested = root.total_counter("sparse_factorizations")
    if numeric == requested:
        return []
    return [f"sparse_numeric_refactorizations is {numeric}, expected "
            f"sparse_factorizations = {requested}"]


def violations(trace: Trace | Span) -> list[str]:
    """The messages of every check in this module, in order."""
    return (lane_sample_violations(trace) + scope_sample_violations(trace)
            + factorization_violations(trace))
