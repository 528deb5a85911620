"""Smoke test of the end-to-end benchmark: every workload at 2 jobs, then
a traced pass.  Not part of tier-1; run it with

    python -m pytest benchmarks/e2e -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--jobs", "2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _declared(kind: str) -> dict[str, str]:
    return {f"{workload}.{metric['name']}": metric["unit"]
            for workload in WORKLOADS for metric in SPEC[kind]}


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_declaration_matches_the_code():
    sys.path.insert(0, str(HERE))
    try:
        import run
    finally:
        sys.path.remove(str(HERE))
    assert list(run.WORKLOADS) == WORKLOADS
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]} == run.END_TO_END


def test_every_workload_runs_and_checks_its_outputs():
    result = _result(_run())
    assert result["correct"] and result["failed"] == 0
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == _declared("end_to_end")


def test_traced_pass_reconciles_every_layer():
    result = _result(_run("--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: metric["unit"]
            for name, metric in metrics.items()} == _declared("per_layer")
    for workload in WORKLOADS:
        assert metrics[f"{workload}.bench.check_error"]["value"] <= 1.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
