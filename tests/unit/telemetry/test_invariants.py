"""The bench warmup runs every trace identity of the library."""

import pytest

from repro import telemetry
from repro.bench.perf import _traced_warmup
from repro.errors import AnalysisError


def test_bench_warmup_fails_on_a_drifted_counter():
    def drifted_case() -> dict:
        # A kernel requested a sparse factorization SuperLU never ran.
        telemetry.current_span().inc("sparse_factorizations")
        return {}

    with pytest.raises(AnalysisError) as info:
        _traced_warmup("drifted_stub", drifted_case)
    assert str(info.value) == (
        "bench case 'drifted_stub' broke a trace invariant: "
        "sparse_numeric_refactorizations is 0, expected "
        "sparse_factorizations = 1")
    assert not telemetry.is_enabled()
