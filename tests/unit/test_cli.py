"""Unit tests for the ``python -m repro`` command-line front end."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.rate == "8k"
        assert args.seed == 7


class TestCommands:
    def test_gate(self, capsys):
        assert main(["gate", "--iss", "1n"]) == 0
        out = capsys.readouterr().out
        assert "delay" in out
        assert "minimum_supply" in out

    def test_gate_units(self, capsys):
        assert main(["gate", "--iss", "10pA"]) == 0
        out = capsys.readouterr().out
        assert "1e-11" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "80kS/s" in out
        assert "uW" in out

    def test_report(self, capsys):
        assert main(["report", "--rate", "2k", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "total power" in out

    def test_characterize_ideal(self, capsys):
        assert main(["characterize", "--ideal", "--seed", "0",
                     "--density", "4"]) == 0
        out = capsys.readouterr().out
        assert "INL" in out and "ENOB" in out

    def test_faults(self, capsys):
        assert main(["faults", "--seed", "1", "--density", "4"]) == 0
        out = capsys.readouterr().out
        assert "blast radius" in out
        assert "baseline" in out
        assert "bias-open-coarse" in out
        assert "d(enob)" in out

    def test_trace_writes_jsonl_and_summary(self, capsys, tmp_path):
        from repro.telemetry import read_jsonl

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--scenario", "op_chain",
                     "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace 'scenario-op_chain'" in printed
        assert "strategy:" in printed
        assert f"trace written to {out}" in printed
        trace = read_jsonl(out)
        totals = trace.total_counters()
        assert totals["jacobian_factorizations"] > 0
        assert totals["compile_cache_misses"] == 1
        assert trace.root.find("newton") is not None

    def test_trace_leaves_telemetry_disabled(self, tmp_path):
        from repro import telemetry

        assert main(["trace", "--scenario", "op_chain", "--output",
                     str(tmp_path / "t.jsonl"), "--max-depth", "1"]) == 0
        assert not telemetry.is_enabled()

    def test_trace_reconciles_the_batched_transient(self, tmp_path):
        from repro.telemetry import read_jsonl
        from repro.telemetry.invariants import lane_sample_violations

        out = tmp_path / "bt.jsonl"
        assert main(["trace", "--scenario", "batched_tran",
                     "--output", str(out)]) == 0
        trace = read_jsonl(out)
        assert trace.root.find("batch-transient") is not None
        assert lane_sample_violations(trace) == []

    def test_trace_scope_scenario_checks_the_scope_samples(self, capsys,
                                                          tmp_path):
        from repro.telemetry import read_jsonl
        from repro.telemetry.invariants import scope_sample_violations

        out = tmp_path / "scope.jsonl"
        assert main(["trace", "--scenario", "scope", "--output", str(out),
                     "--max-depth", "1"]) == 0
        assert "t_end_over_t_stop=" in capsys.readouterr().out
        trace = read_jsonl(out)
        run = trace.root.find("transient")
        assert run.events_of("capture-complete")
        assert run.counter("scope_samples_seen") == \
            run.counter("transient_steps_accepted") + 1
        assert scope_sample_violations(trace) == []

    def test_trace_sparse_mc_reconciles_pilot_and_stacked_phase(
            self, capsys, tmp_path):
        """The sparse ensemble scenario factors in the serial pilot and
        in the stacked phase, every factorization through one COLAMD
        ordering, and the printed tree names the pilot's rung."""
        from repro.telemetry import read_jsonl
        from repro.telemetry.invariants import factorization_violations

        out = tmp_path / "sparse.jsonl"
        assert main(["trace", "--scenario", "sparse_mc",
                     "--output", str(out)]) == 0
        trace = read_jsonl(out)
        campaign = trace.root.find("montecarlo")
        pilot = campaign.find("operating-point")
        assert f"converged_via={pilot.attrs['converged_via']}" in \
            capsys.readouterr().out
        stacked = campaign.find("batch-operating-point")
        assert stacked.attrs["matrix_backend"] == "sparse"
        for phase in (pilot, stacked):
            assert phase.total_counter("sparse_numeric_refactorizations") \
                == phase.total_counter("sparse_factorizations") > 0
        assert campaign.total_counter("sparse_symbolic_factorizations") == 1
        assert factorization_violations(trace) == []

    def test_scope_prints_where_the_run_ended(self, capsys):
        import re

        assert main(["scope", "--iss", "1n"]) == 0
        printed = capsys.readouterr().out
        match = re.search(r"run +: ended at t_end \S+ after (\d+) steps "
                          r"\((\d+)% of t_stop \S+\)", printed)
        assert match is not None, printed
        assert int(match.group(1)) > 0
        assert 50 < int(match.group(2)) < 100

    def test_trace_exits_1_on_a_violated_identity(self, capsys, tmp_path,
                                                  monkeypatch):
        from repro.telemetry import invariants

        monkeypatch.setattr(invariants, "lane_sample_violations",
                            lambda trace: ["lane_samples drifted"])
        assert main(["trace", "--scenario", "op_chain", "--output",
                     str(tmp_path / "t.jsonl")]) == 1
        assert "invariant violated: lane_samples drifted" in \
            capsys.readouterr().out

    def test_trace_runs_the_factorization_check(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.telemetry import invariants

        monkeypatch.setattr(invariants, "factorization_violations",
                            lambda trace: ["factorizations drifted"])
        assert main(["trace", "--scenario", "op_chain", "--output",
                     str(tmp_path / "t.jsonl")]) == 1
        assert "invariant violated: factorizations drifted" in \
            capsys.readouterr().out


class TestFuzzCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.circuits == 60
        assert args.mode == "mixed"
        assert args.corpus_dir == "tests/corpus"
        assert not args.replay_corpus

    def test_small_campaign(self, capsys, tmp_path):
        assert main(["fuzz", "--circuits", "2", "--seed", "0",
                     "--verbose", "--phase-wall", "2",
                     "--telemetry-out",
                     str(tmp_path / "fuzz.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "2 circuits" in out
        assert "0 invariant violations" in out
        assert (tmp_path / "fuzz.jsonl").exists()

    def test_replay_committed_corpus(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).resolve().parents[2] / "tests" / "corpus"
        assert main(["fuzz", "--replay-corpus", "--phase-wall", "2",
                     "--corpus-dir", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "0 invariant violations" in out

    def test_save_failures_writes_corpus(self, capsys, tmp_path):
        # Seed 1 is the known-hard STSCL mutant: diagnosed, so saved.
        assert main(["fuzz", "--circuits", "1", "--seed", "1",
                     "--phase-wall", "2", "--save-failures",
                     "--corpus-dir", str(tmp_path)]) == 0
        saved = list(tmp_path.glob("*.json"))
        assert len(saved) == 1
        assert "fuzz_stscl_1" in saved[0].name


class TestErrorReporting:
    def test_library_error_is_one_line_and_exit_2(self, capsys):
        assert main(["report", "--rate", "zzz"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: UnitError:")
        assert "\n" == captured.err[-1]
        assert captured.err.count("\n") == 1

    def test_convergence_error_names_the_last_stage(self):
        from repro.__main__ import _diagnose
        from repro.errors import ConvergenceError

        line = _diagnose(ConvergenceError("no luck",
                                          stage="pseudo-transient"))
        assert line == ("error: ConvergenceError: no luck "
                        "[last stage: pseudo-transient]")

    def test_programming_errors_still_raise(self, monkeypatch):
        """Only library errors are swallowed; bugs must stay loud."""
        import repro.__main__ as cli

        def boom(args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "_cmd_gate", boom)
        with pytest.raises(RuntimeError):
            cli.main(["gate"])
