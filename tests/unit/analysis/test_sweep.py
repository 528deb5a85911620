"""Unit tests for the sweep helper."""

import numpy as np
import pytest

from repro.analysis import sweep_1d
from repro.errors import AnalysisError, ConvergenceError


class TestSweep:
    def test_columns_aligned(self):
        table = sweep_1d("x", [1.0, 2.0, 3.0],
                         lambda x: {"square": x * x, "double": 2 * x})
        assert np.array_equal(table.column("square"), [1.0, 4.0, 9.0])
        assert np.array_equal(table.column("double"), [2.0, 4.0, 6.0])

    def test_rows_iteration(self):
        table = sweep_1d("x", [1.0, 2.0], lambda x: {"y": x + 1})
        rows = list(table.rows())
        assert rows == [(1.0, {"y": 2.0}), (2.0, {"y": 3.0})]

    def test_unknown_column(self):
        table = sweep_1d("x", [1.0], lambda x: {"y": x})
        with pytest.raises(AnalysisError):
            table.column("z")

    def test_empty_sweep_rejected(self):
        with pytest.raises(AnalysisError):
            sweep_1d("x", [], lambda x: {"y": x})

    def test_empty_metrics_rejected(self):
        with pytest.raises(AnalysisError):
            sweep_1d("x", [1.0], lambda x: {})


def _fragile(x):
    """Metric that breaks down at x == 2."""
    if x == 2.0:
        raise ConvergenceError("no dice at 2")
    return {"y": x * 10.0}


class TestSweepErrorPolicy:
    def test_default_policy_propagates(self):
        """The serial route is lazy: points after the failure never
        run."""
        seen = []

        def metric(x):
            seen.append(x)
            return _fragile(x)

        with pytest.raises(ConvergenceError):
            sweep_1d("x", [1.0, 2.0, 3.0], metric)
        assert seen == [1.0, 2.0]

    def test_skip_backfills_nan_and_stays_aligned(self):
        table = sweep_1d("x", [1.0, 2.0, 3.0], _fragile,
                         on_error="skip")
        column = table.column("y")
        assert column[0] == 10.0 and column[2] == 30.0
        assert np.isnan(column[1])
        (index, message), = table.failures
        assert index == 1 and "no dice" in message

    def test_all_points_failing_is_fatal(self):
        with pytest.raises(AnalysisError, match="every sweep point"):
            sweep_1d("x", [2.0, 2.0], _fragile, on_error="skip")

    def test_skip_survives_first_point_failing(self):
        """Column names come from the first *evaluated* point, so a
        failure at index 0 must still yield aligned NaN-backed
        columns."""
        table = sweep_1d("x", [2.0, 3.0, 4.0], _fragile,
                         on_error="skip")
        column = table.column("y")
        assert np.isnan(column[0])
        assert column[1] == 30.0 and column[2] == 40.0
        (index, _), = table.failures
        assert index == 0

    def test_skip_with_only_last_point_surviving(self):
        table = sweep_1d("x", [2.0, 2.0, 3.0], _fragile,
                         on_error="skip")
        column = table.column("y")
        assert np.isnan(column[0]) and np.isnan(column[1])
        assert column[2] == 30.0
        assert [index for index, _ in table.failures] == [0, 1]

    def test_policy_validated(self):
        with pytest.raises(AnalysisError):
            sweep_1d("x", [1.0], _fragile, on_error="ignore")
