"""One route from a population of independent items to ordered outcomes.

Monte-Carlo populations and fault campaigns evaluate independent (seed
/ fault) items.  :func:`run_items` turns such a population into one
outcome per item -- ``("ok", value)`` or ``("error", ReproError)``, see
:func:`~repro.errors.evaluate` -- in item order, whether it runs

* serially: lazily, one item at a time under its own child span, so a
  caller that stops at the first error never evaluates later items
  (the fault campaign's route); or
* on a process pool (:func:`run_ordered`, Monte-Carlo's
  ``n_workers``): tasks are submitted in item order and collected in
  that same order (never completion order), and under an active trace
  each worker's private span tree is grafted under the caller's span
  in item order -- exactly where the serial child span would have
  gone.

Library errors travel as *data*, so the front-end applies the same
``on_error`` policy on either route; any other exception propagates.

Workers run in separate processes, so everything shipped to them must
pickle.  :func:`ensure_picklable` turns the obscure mid-pool pickling
failure into an actionable error before any process is spawned (the
usual culprit: a lambda or closure metric function -- use a
module-level function with ``functools.partial`` instead).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Sequence

from .. import telemetry
from ..errors import AnalysisError, evaluate


def ensure_picklable(obj: Any, role: str) -> None:
    """Raise an actionable :class:`AnalysisError` when ``obj`` cannot be
    shipped to worker processes."""
    try:
        pickle.dumps(obj)
    except Exception as error:
        raise AnalysisError(
            f"{role} cannot be sent to worker processes ({error}); "
            f"parallel execution pickles its work items -- use a "
            f"module-level function (functools.partial is fine) instead "
            f"of a lambda or closure, or drop n_workers") from None


def validate_workers(n_workers: int | None) -> int:
    """Normalise an ``n_workers`` option: None -> 1, reject < 1."""
    if n_workers is None:
        return 1
    if n_workers < 1:
        raise AnalysisError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


def default_chunksize(n_tasks: int, n_workers: int) -> int:
    """How many tasks one pool submission should carry.

    One submission per task maximises scheduling freedom but pays the
    full pickle-and-IPC round trip per item -- for a Monte-Carlo seed
    that solves in ten milliseconds, that overhead is a measurable
    fraction of the work.  Chunks amortise it.  Four chunks per worker
    (the heuristic ``multiprocessing.pool.Pool.map`` uses) keeps enough
    slack for load balancing when chunk durations vary.
    """
    if n_tasks <= 0:
        return 1
    return max(1, -(-n_tasks // (n_workers * 4)))


def _run_chunk(worker: Callable[..., Any],
               chunk: Sequence[tuple]) -> list[Any]:
    """Evaluate one chunk of tasks inside a worker process.

    Module-level so it pickles; results keep the chunk's task order.
    """
    return [worker(*task) for task in chunk]


def run_ordered(worker: Callable[..., Any],
                tasks: Sequence[tuple],
                n_workers: int,
                chunksize: int | None = None) -> list[Any]:
    """Map ``worker(*task)`` over ``tasks`` in a process pool.

    Results come back in **task order** regardless of which worker
    finishes first, so downstream reductions see the exact sequence the
    serial loop would have produced.  Tasks ship in chunks of
    ``chunksize`` (default: :func:`default_chunksize`) to amortise the
    per-submission pickle/IPC cost; chunking only regroups submissions,
    the result list is identical element-for-element to the unchunked
    pool.  The worker and every task must be picklable; preflight them
    with :func:`ensure_picklable` for a clear error message.
    """
    if chunksize is None:
        chunksize = default_chunksize(len(tasks), n_workers)
    elif chunksize < 1:
        raise AnalysisError(f"chunksize must be >= 1, got {chunksize}")
    chunks = [tasks[k:k + chunksize]
              for k in range(0, len(tasks), chunksize)]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(_run_chunk, worker, chunk)
                   for chunk in chunks]
        return [result for future in futures
                for result in future.result()]


def _evaluate_traced(fn: Callable[[Any], Any], item: Any, name: str,
                     attrs: dict[str, Any]) -> tuple[tuple, dict]:
    """Pool-worker twin of the serial child span: the outcome of one
    item plus the private trace recorded around it.

    A fork-started worker inherits the parent's trace as a dead copy
    (its mutations never propagate back), so it is dropped first.
    """
    telemetry.reset()
    with telemetry.tracing(name, **attrs) as trace:
        outcome = evaluate(fn, item)
    return outcome, trace.root.to_dict()


def _serial_outcomes(fn: Callable[[Any], Any], items: Sequence,
                     spans: Sequence[tuple[str, dict]]) -> Iterator[tuple]:
    for item, (name, attrs) in zip(items, spans):
        with telemetry.span(name, **attrs):
            outcome = evaluate(fn, item)
        yield outcome


def run_items(fn: Callable[[Any], Any], items: Sequence,
              spans: Sequence[tuple[str, dict]],
              n_workers: int) -> Iterable[tuple[str, Any]]:
    """``evaluate(fn, item)`` for every item, in item order.

    ``spans`` gives one ``(name, attrs)`` per item: the child span the
    item's evaluation runs under.  With ``n_workers`` of 1 the stream
    is a lazy generator.  Otherwise ``fn`` and every item must pickle:
    the whole population runs on a :func:`run_ordered` pool before the
    first outcome is returned, and under an active trace each item's
    worker-side span is adopted under the current span, in item order.
    """
    if n_workers <= 1:
        return _serial_outcomes(fn, items, spans)
    ensure_picklable(fn, "the metric function")
    ensure_picklable(items, "the population items")
    if not telemetry.is_enabled():
        return run_ordered(evaluate, [(fn, item) for item in items],
                           n_workers)
    tspan = telemetry.current_span()
    results = run_ordered(_evaluate_traced,
                          [(fn, item, name, attrs) for item, (name, attrs)
                           in zip(items, spans)], n_workers)
    for _, worker_span in results:
        tspan.adopt(worker_span)
    return [outcome for outcome, _ in results]
