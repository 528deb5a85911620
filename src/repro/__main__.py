"""Command-line front end: quick platform reports without writing code.

Usage:

    python -m repro report --rate 8k            # platform at a rate
    python -m repro characterize --seed 3       # INL/DNL/ENOB of a chip
    python -m repro gate --iss 1n               # one gate's numbers
    python -m repro sweep                       # the power-scaling table
    python -m repro faults                      # fault blast-radius table
    python -m repro bench --quick               # time the solver hot paths
    python -m repro trace --scenario op_chain   # run a scenario traced
    python -m repro scope --vcd edge.vcd        # triggered edge capture

Library failures (:class:`~repro.errors.ReproError`) are reported as a
one-line diagnosis with exit status 2 instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConvergenceError, ReproError
from .units import format_quantity, parse_quantity


def _cmd_report(args: argparse.Namespace) -> int:
    from .platform_msys import MixedSignalPlatform

    platform = MixedSignalPlatform.build(seed=args.seed)
    report = platform.set_sample_rate(parse_quantity(args.rate))
    print(report.describe())
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .adc import FaiAdc, dynamic_test, linearity_test

    adc = FaiAdc(ideal=args.ideal, seed=args.seed)
    linearity = linearity_test(adc, samples_per_code=args.density)
    dynamic = dynamic_test(adc, f_sample=80e3, n_samples=2048, cycles=67)
    print(f"chip seed {args.seed}"
          f"{' (ideal)' if args.ideal else ''}:")
    print(f"  INL  : {linearity.inl_max:.2f} LSB   (paper 1.0)")
    print(f"  DNL  : {linearity.dnl_max:.2f} LSB   (paper 0.4)")
    print(f"  ENOB : {dynamic.enob:.2f}       (paper 6.5)")
    print(f"  SNDR : {dynamic.sndr_db:.1f} dB")
    if linearity.missing_codes:
        print(f"  missing codes: {linearity.missing_codes}")
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from .stscl import StsclGateDesign, minimum_supply

    gate = StsclGateDesign.default(parse_quantity(args.iss))
    for key, value in gate.summary().items():
        print(f"  {key:22}: {value:.4g}")
    print(f"  {'minimum_supply':22}: {minimum_supply(gate):.4g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .adc import FaiAdc
    from .pmu import PowerManagementUnit

    pmu = PowerManagementUnit(FaiAdc(ideal=False, seed=args.seed))
    print(f"{'f_s':>10} {'P_total':>10} {'P_digital':>10} {'E/sample':>10}")
    for f_s in (800.0, 2e3, 8e3, 20e3, 80e3):
        point = pmu.operating_point(f_s)
        print(f"{format_quantity(f_s, 'S/s'):>10} "
              f"{format_quantity(point.total_power, 'W'):>10} "
              f"{format_quantity(point.digital_power, 'W'):>10} "
              f"{format_quantity(point.energy_per_sample, 'J'):>10}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .faults import standard_adc_campaign

    campaign = standard_adc_campaign(seed=args.seed,
                                     samples_per_code=args.density)
    report = campaign.run()
    print(f"fault blast radius, chip seed {args.seed} "
          f"(metric deltas vs healthy chip):")
    print(report.describe())
    if report.failed:
        print(f"{len(report.failed)} fault(s) could not be evaluated")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_benchmarks, write_report

    results = run_benchmarks(quick=args.quick, repeats=args.repeats,
                             n_workers=args.workers)
    for result in results:
        print(f"  {result.name:18}: {result.wall_s * 1e3:8.1f} ms "
              f"(best of {result.repeats})")
    path = write_report(results, args.output, quick=args.quick)
    print(f"report written to {path}")
    if args.compare is None:
        return 0
    from .bench.compare import (compare_results, load_baseline,
                                regression_allowed)
    report = compare_results(results, load_baseline(args.compare),
                             max_ratio=args.max_ratio,
                             require_cases=args.require_cases,
                             min_wall_s=args.min_wall_ms / 1e3)
    print(report.describe())
    if report.passed:
        return 0
    if regression_allowed():
        print("regression tolerated (REPRO_BENCH_ALLOW_REGRESSION set); "
              "refresh the committed baseline in this change")
        return 0
    return 1


#: Scenarios the ``trace`` subcommand can run (bench cases + faults;
#: ``ac`` is the stacked-frequency ``ac_sweep`` bench case,
#: ``batched_tran`` the lockstep ``batched_transient_montecarlo`` one,
#: ``scope`` the triggered ``scope_capture`` one, ``sparse_mc`` the
#: sparse adder ensemble ``sparse_batched_montecarlo``).
TRACE_SCENARIOS = ("op_chain", "dc_sweep", "transient", "transient_lte",
                   "ac", "montecarlo", "batched_tran", "faults", "scope",
                   "sparse_mc")


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import telemetry
    from .bench.perf import default_cases
    from .telemetry.invariants import violations

    scenarios = dict(default_cases(quick=not args.full,
                                   n_workers=args.workers))

    def faults_case() -> dict:
        from .faults import standard_adc_campaign

        report = standard_adc_campaign(seed=args.seed,
                                       samples_per_code=4).run()
        return {"n_faults": len(report.outcomes),
                "n_failed": len(report.failed)}

    scenarios["faults"] = faults_case
    scenarios["ac"] = scenarios["ac_sweep"]
    scenarios["batched_tran"] = scenarios["batched_transient_montecarlo"]
    scenarios["scope"] = scenarios["scope_capture"]
    scenarios["sparse_mc"] = scenarios["sparse_batched_montecarlo"]
    case = scenarios[args.scenario]
    with telemetry.tracing(f"scenario-{args.scenario}",
                           scenario=args.scenario) as trace:
        meta = case()
    path = telemetry.write_jsonl(trace, args.output)
    max_depth = None if args.max_depth < 0 else args.max_depth
    print(telemetry.tree_summary(trace, max_depth=max_depth))
    detail = " ".join(f"{k}={v}" for k, v in meta.items())
    if detail:
        print(f"scenario detail: {detail}")
    print(f"trace written to {path}")
    broken = violations(trace)
    for violation in broken:
        print(f"invariant violated: {violation}")
    return 1 if broken else 0


def _cmd_scope(args: argparse.Namespace) -> int:
    from .stscl import StsclGateDesign, buffer_chain_capture, characterize_gate
    from .stscl.testbench import DELAY_TESTBENCH_T_STOP
    from .units import parse_quantity as pq

    design = StsclGateDesign.default(pq(args.iss))
    vdd = float(args.vdd)
    print(f"triggered capture: {args.stages}-stage STSCL buffer chain, "
          f"I_SS {format_quantity(design.i_ss, 'A')}, VDD {vdd} V")
    session = buffer_chain_capture(design, vdd, n_stages=args.stages)
    segment = session.segment()
    print(f"  window   : {len(segment)} samples "
          f"({segment.nbytes} bytes), trigger at "
          f"{format_quantity(segment.trigger_time, 's')}")
    # The session sees t = 0 and every committed step, and the run ends
    # on the window's last sample once that sample closes it.
    t_stop = DELAY_TESTBENCH_T_STOP * design.delay()
    t_end = float(segment.time[-1])
    print(f"  run      : ended at t_end {format_quantity(t_end, 's')} "
          f"after {session.samples_seen - 1} steps "
          f"({t_end / t_stop:.0%} of t_stop "
          f"{format_quantity(t_stop, 's')})")
    report = characterize_gate(design, vdd, segment=segment)
    print(f"  delay    : {report.delay.describe()}")
    print(f"  slew     : {report.rise.describe()}")
    print(f"  swing    : {report.swing.describe()}")
    print(f"  analytic : t_d = {format_quantity(report.delay_analytic, 's')}"
          f" (measured/analytic = {report.delay_ratio:.2f})")
    if args.vcd is None and not args.check:
        return 0
    text = segment.to_vcd(scope="stscl")
    if args.vcd is not None:
        with open(args.vcd, "w", encoding="ascii") as stream:
            stream.write(text)
        print(f"  VCD written to {args.vcd}")
    if args.check:
        from .scope.vcd import parse_vcd

        document = parse_vcd(text)
        n_changes = len(document.changes)
        expected = len(segment) * len(segment.signals)
        if n_changes > expected:
            raise ReproError(
                f"VCD round-trip: {n_changes} changes > "
                f"{expected} stored samples")
        print(f"  VCD round-trip OK: timescale {document.timescale}, "
              f"{len(document.variables)} variables, "
              f"{n_changes} value changes")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import telemetry
    from .fuzz import (FuzzBudgets, FuzzReport, load_corpus, replay_entry,
                       run_campaign, save_entry, shrink_case)
    from .fuzz.corpus import CorpusEntry

    budgets = FuzzBudgets(max_iterations=args.max_iterations,
                          op_wall=args.phase_wall,
                          sweep_wall=2 * args.phase_wall,
                          tran_wall=2 * args.phase_wall,
                          fault_wall=2 * args.phase_wall)

    def replay() -> FuzzReport:
        report = FuzzReport()
        entries = load_corpus(args.corpus_dir)
        print(f"replaying {len(entries)} corpus case(s) "
              f"from {args.corpus_dir}")
        for path, entry in entries:
            result = replay_entry(entry, budgets)
            report.cases.append(result)
            print(f"  {path.name:40s} {result.status:10s} "
                  f"[{result.phase}]")
        return report

    def fresh() -> FuzzReport:
        def on_case(result, circuit) -> None:
            if args.verbose or result.status == "violation":
                print(f"  seed={result.seed} {result.circuit_name:24s} "
                      f"{result.status:10s} [{result.phase}] "
                      f"{result.detail[:100]}")
            if (args.save_failures and circuit is not None
                    and result.status != "ok"):
                deck, evals = shrink_case(circuit, result, budgets)
                entry = CorpusEntry.from_result(
                    result, deck, note=f"shrunk in {evals} evals")
                path = save_entry(entry, args.corpus_dir)
                print(f"    -> saved {path}")

        return run_campaign(args.circuits, seed=args.seed,
                            mode=args.mode, budgets=budgets,
                            on_case=on_case)

    runner = replay if args.replay_corpus else fresh
    if args.telemetry_out:
        with telemetry.tracing("fuzz-cli", mode=args.mode,
                               seed=args.seed) as trace:
            report = runner()
        path = telemetry.write_jsonl(trace, args.telemetry_out)
        print(f"telemetry written to {path}")
    else:
        report = runner()
    print(report.describe())
    return 1 if report.violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Subthreshold source-coupled mixed-signal platform "
                    "(Tajalli & Leblebici, DATE 2010 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="platform operating point")
    p_report.add_argument("--rate", default="8k",
                          help="sampling rate, e.g. 8k or 80kS/s")
    p_report.add_argument("--seed", type=int, default=7)
    p_report.set_defaults(func=_cmd_report)

    p_char = sub.add_parser("characterize",
                            help="INL/DNL/ENOB of one chip")
    p_char.add_argument("--seed", type=int, default=1)
    p_char.add_argument("--ideal", action="store_true")
    p_char.add_argument("--density", type=int, default=16,
                        help="ramp samples per code")
    p_char.set_defaults(func=_cmd_characterize)

    p_gate = sub.add_parser("gate", help="one STSCL gate's numbers")
    p_gate.add_argument("--iss", default="1n",
                        help="tail current, e.g. 1n or 10pA")
    p_gate.set_defaults(func=_cmd_gate)

    p_sweep = sub.add_parser("sweep", help="the power-scaling table")
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_faults = sub.add_parser(
        "faults", help="fault-injection blast-radius table")
    p_faults.add_argument("--seed", type=int, default=1)
    p_faults.add_argument("--density", type=int, default=8,
                          help="ramp samples per code")
    p_faults.set_defaults(func=_cmd_faults)

    p_bench = sub.add_parser(
        "bench", help="time the solver hot paths, emit BENCH_perf.json")
    p_bench.add_argument("--quick", action="store_true",
                         help="smaller workloads, single repeat "
                              "(CI smoke)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="timed repetitions per case "
                              "(default: 1 quick, 3 full)")
    p_bench.add_argument("--workers", type=int, default=1,
                         help="process-pool width for the Monte-Carlo "
                              "case")
    p_bench.add_argument("--compare", default=None, metavar="BASELINE",
                         help="gate against a committed BENCH_perf.json: "
                              "exit 1 when any shared case got more than "
                              "--max-ratio slower (escape hatch: set "
                              "REPRO_BENCH_ALLOW_REGRESSION=1)")
    p_bench.add_argument("--require-cases", action="store_true",
                         help="fail --compare when a baseline case is "
                              "missing from the fresh run (a dropped "
                              "case is a dropped regression check)")
    p_bench.add_argument("--max-ratio", type=float, default=2.0,
                         help="slowdown factor tolerated by --compare "
                              "(default 2.0)")
    p_bench.add_argument("--min-wall-ms", type=float, default=20.0,
                         help="absolute floor for --compare: cases where "
                              "both sides run under this many ms are "
                              "reported but never fail the ratio gate "
                              "(default 20; 0 gates everything)")
    p_bench.add_argument("--output", default="BENCH_perf.json",
                         help="report path (default: BENCH_perf.json)")
    p_bench.set_defaults(func=_cmd_bench)

    p_trace = sub.add_parser(
        "trace", help="run a bench/fault scenario under telemetry "
                      "tracing; write a JSONL trace + tree summary; exit "
                      "1 when a trace accounting identity fails")
    p_trace.add_argument("--scenario", choices=TRACE_SCENARIOS,
                         default="op_chain")
    p_trace.add_argument("--output", default="trace.jsonl",
                         help="JSONL trace path (default: trace.jsonl)")
    p_trace.add_argument("--full", action="store_true",
                         help="full-size workload (default: quick sizes)")
    p_trace.add_argument("--workers", type=int, default=1,
                         help="process-pool width for the Monte-Carlo "
                              "scenario (worker spans are merged)")
    p_trace.add_argument("--seed", type=int, default=1,
                         help="chip seed for the faults scenario")
    p_trace.add_argument("--max-depth", type=int, default=3,
                         help="summary tree depth (-1: unlimited; "
                              "the JSONL always keeps everything)")
    p_trace.set_defaults(func=_cmd_trace)

    p_scope = sub.add_parser(
        "scope", help="triggered waveform capture of an STSCL edge: "
                      "measure delay/slew/swing, optionally export VCD")
    p_scope.add_argument("--iss", default="1n",
                         help="tail current, e.g. 1n or 10pA")
    p_scope.add_argument("--vdd", type=float, default=0.4,
                         help="supply voltage [V] (default 0.4)")
    p_scope.add_argument("--stages", type=int, default=3,
                         help="buffer-chain length (default 3)")
    p_scope.add_argument("--vcd", default=None, metavar="PATH",
                         help="write the captured window as VCD")
    p_scope.add_argument("--check", action="store_true",
                         help="parse the VCD back and verify the "
                              "round-trip (CI smoke)")
    p_scope.set_defaults(func=_cmd_scope)

    p_fuzz = sub.add_parser(
        "fuzz", help="constrained-random circuit fuzzing under the "
                     "converge-or-diagnose invariant")
    p_fuzz.add_argument("--circuits", type=int, default=60,
                        help="number of fresh cases (default 60)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first case seed (case k uses seed+k)")
    p_fuzz.add_argument("--mode", choices=("random", "stscl", "mixed"),
                        default="mixed")
    p_fuzz.add_argument("--max-iterations", type=int, default=80,
                        help="Newton iteration cap per solve")
    p_fuzz.add_argument("--phase-wall", type=float, default=5.0,
                        help="wall-clock budget [s] for the op phase "
                             "(sweep/transient/faults get 2x)")
    p_fuzz.add_argument("--replay-corpus", action="store_true",
                        help="replay the committed corpus instead of "
                             "fuzzing fresh seeds")
    p_fuzz.add_argument("--corpus-dir", default="tests/corpus",
                        help="corpus directory (default: tests/corpus)")
    p_fuzz.add_argument("--save-failures", action="store_true",
                        help="shrink every non-ok fresh case and save "
                             "it to --corpus-dir")
    p_fuzz.add_argument("--telemetry-out", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace of the run")
    p_fuzz.add_argument("--verbose", action="store_true",
                        help="print every case, not just violations")
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def _diagnose(error: ReproError) -> str:
    """One-line diagnosis of a library failure."""
    kind = type(error).__name__
    line = f"error: {kind}: {error}"
    if isinstance(error, ConvergenceError) and error.stage:
        line += f" [last stage: {error.stage}]"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(_diagnose(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
