"""``repro.telemetry``: solver/analysis observability.

A hierarchical span/trace layer threaded through the whole solver stack
-- per-Newton-iteration records, homotopy-ladder events, per-analysis
counters (device-bank evaluations, Jacobian factorizations, rejected
transient steps, compile-cache hits/misses) -- with a module-level
no-op fast path so disabled tracing costs nothing measurable.

Counters are free-form names incremented via ``span.inc``; the batched
engines add population-level ones that reconcile against their serial
twins: ``batch_transient_steps`` counts accepted *shared* lockstep
steps (each worth ``lanes_lockstep`` lane-samples, so
``lane_samples == batch_transient_steps * lanes_lockstep +
fallback_serial_steps`` where the fallback steps surface as nested
serial ``transient_steps_accepted``), and
``batch_transient_lane_rejections`` counts per-lane attributed
rejections of the shared grid (the kick-out budget's currency).
:mod:`repro.telemetry.invariants` checks such identities over any
recorded trace.

Quick taste::

    from repro import telemetry
    from repro.spice.dc import operating_point

    with telemetry.tracing("one-op") as trace:
        operating_point(circuit)
    print(telemetry.tree_summary(trace))
    telemetry.write_jsonl(trace, "trace.jsonl")

See :mod:`repro.telemetry.core` for the recording API and
:mod:`repro.telemetry.export` for the JSONL schema.
"""

from .core import (
    MAX_EVENTS_PER_SPAN,
    NULL_SPAN,
    Span,
    TRACE_SCHEMA,
    Trace,
    active,
    current_span,
    is_enabled,
    reset,
    span,
    start_trace,
    stop_trace,
    tracing,
)
from .export import (
    read_jsonl,
    trace_to_jsonl,
    tree_summary,
    write_jsonl,
)

__all__ = [
    "MAX_EVENTS_PER_SPAN",
    "NULL_SPAN",
    "Span",
    "TRACE_SCHEMA",
    "Trace",
    "active",
    "current_span",
    "is_enabled",
    "reset",
    "span",
    "start_trace",
    "stop_trace",
    "tracing",
    "read_jsonl",
    "trace_to_jsonl",
    "tree_summary",
    "write_jsonl",
]
