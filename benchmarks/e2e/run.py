"""End-to-end design-flow benchmark: every metric, by name and unit.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--runs N] [--trace [0|1]] [--jobs N]
                                  [--save FILE] [--compare FILE]

Each workload runs in fresh Python processes with BLAS/OpenMP pinned to
one thread: two that only time set-up, then one that times set-up, runs
jobs back to back for ``--seconds`` and checks the outputs.  Times are
reported in reference seconds, calibrated against a fixed kernel timed
beside them (``calibration.py``).  With ``--trace`` that last process
also replays the first jobs with per-layer wrappers installed and
reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when an output check failed, and 2 when
the benchmark could not run at all (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("adc_yield", "gate_char", "latch_mc", "adder_mc")
#: End-to-end metric -> (unit, better, bound).  The bound is the share of
#: the baseline median by which a metric may worsen before a change
#: counts as a regression.  Times are in reference seconds
#: (``calibration.py``); even so, runs of one commit on a shared 2-vCPU
#: host spread by up to ~8 %, which sets the time bounds.  One set-up
#: sample varies by 10-15 %, so set-up is the median of three processes
#: and gets the loosest bound.
END_TO_END = {
    "throughput": ("items/s", "higher", 0.20),
    "job_s_p50": ("s", "lower", 0.20),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROCESSES = 3
#: Wall budget of one workload run, every process included.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(workload: str, seed: int, mode: str, seconds: float,
           jobs: int | None, deadline: float) -> dict:
    """Run child.py in a fresh process and return its JSON record."""
    command = [sys.executable, str(HERE / "child.py"), "--workload",
               workload, "--seed", str(seed), "--mode", mode,
               "--seconds", str(seconds)]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    # A session of its own, so a timeout also stops the child's pool.
    with subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as process:
        try:
            out, err = process.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchError(f"{workload} {mode} process ran out of time")
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} process failed "
                         f"(exit {process.returncode})")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 jobs: int | None) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        record = _child(workload, seed, "trace", seconds, jobs, deadline)
        metrics = record["per_layer"]
    else:
        setups = [_child(workload, seed, "setup", seconds, jobs,
                         deadline)["setup_ref_s"]
                  for _ in range(SETUP_PROCESSES - 1)]
        record = _child(workload, seed, "timed", seconds, jobs, deadline)
        setups.append(record["setup_ref_s"])
        completed = record["attempted"] - record["failed"]
        values = {
            "throughput": completed / sum(record["ref_durations"]),
            "job_s_p50": statistics.median(record["ref_durations"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in values.items()}
    problems = list(record["problems"])
    if record["failed"]:
        problems.append(f"{record['failed']} of {record['attempted']} "
                        f"items failed")
    if record["check_error"] > 1.0:
        worst = max(record["checks"], key=record["checks"].get)
        problems.append(f"check {worst} is {record['checks'][worst]:.3g} "
                        f"times its tolerance")
    quality = {
        "fail_rate": {"value": record["failed"] / record["attempted"],
                      "unit": "fraction"},
        "check_error": {"value": record["check_error"], "unit": "ratio"}}
    return {"workload": workload, "seed": seed,
            "correct": not problems, "problems": problems,
            "attempted": record["attempted"], "failed": record["failed"],
            "item": record["item"], "n_jobs": len(record["durations"]),
            "wall_job_s_p50": statistics.median(record["durations"]),
            "kernel_s_p50": statistics.median(record["kernel_s"]),
            "checks": record["checks"],
            "provenance": record["provenance"], "metrics": metrics,
            "quality": quality}


def print_run(result: dict) -> None:
    print(f"{result['workload']}  seed {result['seed']}  "
          f"({result['attempted']} {result['item']}s in {result['n_jobs']} "
          f"jobs)")
    for name, metric in {**result["metrics"], **result["quality"]}.items():
        print(f"  {name:46s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  host: calibration kernel {1e3 * result['kernel_s_p50']:.3g} ms "
          f"(reference {1e3 * calibration.REFERENCE_S:.3g} ms), "
          f"wall job time {result['wall_job_s_p50']:.4g} s")
    print("  checks (error / tolerance): " + "  ".join(
        f"{name}={value:.3g}" for name, value in result["checks"].items()))
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(results: list[dict]) -> dict:
    """Per workload and metric: unit, every value, median and quartiles."""
    summary: dict[str, dict] = {}
    for result in results:
        for name, metric in {**result["metrics"],
                             **result["quality"]}.items():
            entry = summary.setdefault(result["workload"], {}).setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])
    for metrics in summary.values():
        for entry in metrics.values():
            entry["q1"], entry["median"], entry["q3"] = _quartiles(
                entry["values"])
    return summary


def print_summary(summary: dict, n_runs: int) -> None:
    print(f"== median [q1, q3] over {n_runs} runs ==")
    for workload, metrics in summary.items():
        print(workload)
        for name, entry in metrics.items():
            print(f"  {name:46s} {entry['median']:12.6g} "
                  f"[{entry['q1']:.6g}, {entry['q3']:.6g}] {entry['unit']}")


def compare(summary: dict, baseline: dict) -> bool:
    """Print each metric's median against the baseline; False when an
    end-to-end metric got worse by more than its bound."""
    ok = True
    print("== against baseline ==")
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            base = baseline.get(workload, {}).get(name)
            if base is None or not base["median"]:
                continue
            ratio = entry["median"] / base["median"]
            verdict = ""
            if name in END_TO_END:
                _, better, bound = END_TO_END[name]
                worse = 1.0 / ratio - 1.0 if better == "higher" else ratio - 1.0
                verdict = "REGRESSED" if worse > bound else "ok"
                ok = ok and worse <= bound
            print(f"  {workload:10s} {name:46s} x{ratio:8.4f} {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed phase of one run")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat, alternating the workload order, and "
                             "print median and quartiles")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--jobs", type=int,
                        help="exactly this many jobs per run, not --seconds")
    parser.add_argument("--save", type=Path,
                        help="write the summary of all runs as JSON")
    parser.add_argument("--compare", type=Path,
                        help="a summary written by --save to compare with")
    args = parser.parse_args(argv)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"library sources not found under {ROOT / 'src'}")
        results = []
        for run in range(args.runs):
            for workload in (workloads if run % 2 == 0 else workloads[::-1]):
                result = run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace), args.jobs)
                print_run(result)
                results.append(result)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = summarize(results)
    correct = all(result["correct"] for result in results)
    if args.runs > 1:
        print_summary(summary, args.runs)
    if args.compare:
        baseline = json.loads(args.compare.read_text())["workloads"]
        correct = compare(summary, baseline) and correct
    if args.save:
        args.save.write_text(json.dumps({
            "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
            "trace": bool(args.trace),
            "provenance": results[0]["provenance"],
            "workloads": summary}, indent=2) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{workload}.{name}": {"value": entry["median"],
                                          "unit": entry["unit"]}
                   for workload, entries in summary.items()
                   for name, entry in entries.items()
                   if name in results[0]["metrics"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
