"""One workload in one fresh Python process; ``run.py`` starts it.

    python3 benchmarks/e2e/child.py --workload W --seed S \
        --mode setup|timed|trace [--seconds T] [--jobs N]

Every mode times set-up first: from just before the first import of the
library to the end of one untimed warm-up job.  ``timed`` then runs jobs
back to back (a closed loop: the next job starts when the last one
ends) for ``--seconds`` or exactly ``--jobs`` jobs, and checks the
outputs.  Set-up and every job are timed between two timings of the
calibration kernel (``calibration.py``), which convert them to
reference seconds.  ``trace`` then replays the first jobs, each once plain and
once with the layer wrappers installed, and runs one more job under
``repro.telemetry`` for event counts.  The last line of standard output
is one JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import layers

ROOT = Path(__file__).resolve().parents[2]

#: A traced run fails when more of its wall time than this share falls
#: outside every wrapped layer.
MAX_UNATTRIBUTED_SHARE = 0.10
#: ... or when the ledger's self times miss the wrapped time by more.
RECONCILE_TOLERANCE_S = 1e-3


def tail(durations: list[float]) -> tuple[float, float]:
    """(job time, percentile) of the highest percentile that has at
    least ten jobs beyond it; never below the median."""
    ordered = sorted(durations)
    n = len(ordered)
    k = max(n - 11, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n


def timed_phase(workload, seconds: float, jobs: int | None) -> dict:
    """Jobs back to back, each between two calibration samples; a job's
    kernel time is the mean of the samples on either side of it."""
    results, durations, samples = [], [], [calibration.sample()]
    start = time.perf_counter()
    index = 1
    while True:
        t0 = time.perf_counter()
        results.append(workload.job(index))
        durations.append(time.perf_counter() - t0)
        samples.append(calibration.sample())
        index += 1
        if (len(durations) >= jobs if jobs is not None
                else time.perf_counter() - start >= seconds):
            break
    kernel_s = [0.5 * (a + b) for a, b in zip(samples, samples[1:])]
    return {"durations": durations, "kernel_s": kernel_s,
            "ref_durations": [calibration.to_reference(d, k)
                              for d, k in zip(durations, kernel_s)],
            "results": results}


def peak_rss_mb(n_workers: int) -> float:
    """This process's peak RSS plus, for a pool, the largest worker's
    peak times the worker count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * worker) / 1024.0


def traced_phase(workload, n_jobs: int) -> dict:
    """Replay jobs 1..n_jobs, each once plain and once with every layer
    wrapper installed; the overhead compares the two runs of a job,
    which are neighbours in time on a host whose speed drifts."""
    pooled = workload.n_workers > 1
    worker_totals: dict[str, float] = {}
    ledger = layers.Ledger()
    ratios, traced = [], []
    for index in range(1, n_jobs + 1):
        t0 = time.perf_counter()
        workload.job(index)
        plain = time.perf_counter() - t0
        ledger.install()
        workload.traced = True
        try:
            t0 = time.perf_counter()
            result = workload.job(index)
            traced.append(time.perf_counter() - t0)
        finally:
            workload.traced = False
            ledger.uninstall()
        ratios.append(traced[-1] / plain)
        if pooled:
            for key, value in workload.worker_keys(result).items():
                worker_totals[key] = worker_totals.get(key, 0.0) + value
    # The wall-time identity holds for this process only: worker-side
    # layer time runs concurrently on other cores.
    wall = sum(traced)
    unattributed = wall - ledger.attributed_s
    reconcile_error = abs(sum(ledger.self_s.values()) + unattributed - wall)
    worker_busy = worker_totals.pop("busy_s", 0.0)
    ledger.add_worker_keys(worker_totals)
    return {"ledger": ledger, "wall_s": wall,
            "overhead": statistics.median(ratios),
            "unattributed_s": unattributed,
            "reconcile_error_s": reconcile_error,
            "worker_busy_s": worker_busy}


def counted_job(workload) -> dict[str, int]:
    from repro import telemetry
    with telemetry.tracing("e2e-counts") as trace:
        workload.job(1)
    return trace.total_counters()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(traced: dict, counts: dict[str, int], timed: dict,
                      n_workers: int, check_error: float) -> dict[str, dict]:
    ledger = traced["ledger"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        if layer == "analysis.parallel":
            continue
        metrics[f"{layer}.calls"] = (sum(
            count for entry, count in ledger.calls.items()
            if layers.layer_of(entry) == layer), "count")
        metrics[f"{layer}.self_s"] = (ledger.self_s[layer], "s")

    def count(name: str) -> int:
        return counts.get(name, 0)

    parallel_wall = ledger.self_s["analysis.parallel"]
    factorizations = count("jacobian_factorizations")
    accepted = count("transient_steps_accepted")
    rejected = count("transient_steps_rejected")
    lanes = count("batch_lanes")
    job_tail, tail_pct = tail(timed["ref_durations"])
    metrics.update({
        "analysis.parallel.wall_s": (parallel_wall, "s"),
        "analysis.parallel.worker_busy_s": (traced["worker_busy_s"], "s"),
        "analysis.parallel.utilization": (_share(
            traced["worker_busy_s"], n_workers * parallel_wall), "ratio"),
        "analysis.parallel.task_bytes": (
            _share(ledger.task_bytes, ledger.tasks), "B"),
        "analysis.parallel.shm_plan_hits": (count("shm_plan_hits"), "count"),
        "analysis.parallel.shm_plan_misses": (
            count("shm_plan_misses"), "count"),
        "spice.netlist.compile_cache_misses": (
            count("compile_cache_misses"), "count"),
        "spice.strategies.jacobian_factorizations": (factorizations, "count"),
        "spice.strategies.lu_reuses": (count("lu_reuses"), "count"),
        "spice.strategies.lu_reuse_ratio": (_share(
            count("lu_reuses"), count("lu_reuses") + factorizations),
            "ratio"),
        "spice.transient.steps_accepted": (accepted, "count"),
        "spice.transient.steps_rejected": (rejected, "count"),
        "spice.transient.accept_ratio": (
            _share(accepted, accepted + rejected), "ratio"),
        "spice.batch.lanes": (lanes, "count"),
        "spice.batch.lane_fallbacks": (count("batch_lane_fallbacks"), "count"),
        "spice.batch.lanes_kept_ratio": (_share(
            lanes - count("batch_lane_fallbacks"), lanes), "ratio"),
        "spice.batch.transient_steps": (
            count("batch_transient_steps"), "count"),
        "spice.batch.lane_rejections": (
            count("batch_transient_lane_rejections"), "count"),
        "devices.bank_evals": (count("device_bank_evals"), "count"),
        "scipy.sparse.linalg.numeric_refactorizations": (
            count("sparse_numeric_refactorizations"), "count"),
        "scipy.sparse.linalg.symbolic_factorizations": (
            count("sparse_symbolic_factorizations"), "count"),
        "scope.samples_seen": (count("scope_samples_seen"), "count"),
        "scope.samples_stored": (count("scope_samples_stored"), "count"),
        "bench.unattributed_s": (traced["unattributed_s"], "s"),
        "bench.trace_overhead": (traced["overhead"], "ratio"),
        "bench.job_s_tail": (job_tail, "s"),
        "bench.job_wall_s_p50": (statistics.median(timed["durations"]), "s"),
        "bench.kernel_s_p50": (statistics.median(timed["kernel_s"]), "s"),
        "bench.tail_pct": (tail_pct, "%"),
        "bench.n_jobs": (len(timed["durations"]), "count"),
        "bench.check_error": (check_error, "ratio"),
    })
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run exactly this many timed (and traced) "
                             "jobs instead of --seconds")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # The vCPUs change speed independently: set-up, and the jobs of a
    # serial workload, run on the vCPU that times the calibration kernel.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    before = calibration.settled()
    t0 = time.perf_counter()
    import workloads  # the first import of the library
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.job(0)
    setup = time.perf_counter() - t0
    kernel_s = 0.5 * (before + calibration.settled())
    record: dict = {"setup_s": setup, "setup_kernel_s": kernel_s,
                    "setup_ref_s": calibration.to_reference(setup, kernel_s),
                    "item": workload.item}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    if workload.n_workers > 1:
        # Pool workers start with each job and inherit this affinity.
        os.sched_setaffinity(0, cpus)
    timed = timed_phase(workload, args.seconds, args.jobs)
    results = timed["results"]
    record.update(
        durations=timed["durations"], kernel_s=timed["kernel_s"],
        ref_durations=timed["ref_durations"],
        attempted=sum(r.attempted for r in results),
        failed=sum(r.failed for r in results),
        peak_rss_mb=peak_rss_mb(workload.n_workers))
    problems = []
    if args.mode == "trace":
        n_traced = min(args.jobs or workload.TRACED_JOBS, len(results))
        traced = traced_phase(workload, n_traced)
        if traced["reconcile_error_s"] > RECONCILE_TOLERANCE_S:
            problems.append(f"layer self times miss the wrapped time by "
                            f"{traced['reconcile_error_s']:.3g} s")
        if traced["unattributed_s"] > MAX_UNATTRIBUTED_SHARE * traced["wall_s"]:
            problems.append(
                f"unattributed {traced['unattributed_s']:.3g} s is more than "
                f"{MAX_UNATTRIBUTED_SHARE:.0%} of the traced "
                f"{traced['wall_s']:.3g} s")
        missing = [entry for entry in workload.traced_entries
                   if not traced["ledger"].calls.get(entry)]
        if missing:
            problems.append("wrappers that never fired: " + ", ".join(missing))
        counts = counted_job(workload)

    checks = workload.check(results)
    record["checks"] = checks
    record["check_error"] = max(checks.values())
    if args.mode == "trace":
        record["per_layer"] = per_layer_metrics(
            traced, counts, timed, workload.n_workers, record["check_error"])
    record["problems"] = problems
    from repro.bench import runtime_provenance
    record["provenance"] = dict(runtime_provenance(),
                                python=platform.python_version())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
