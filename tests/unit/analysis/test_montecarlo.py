"""Unit tests for the Monte-Carlo runner."""

import numpy as np
import pytest

from repro.analysis import MonteCarlo, MonteCarloRun, MonteCarloSummary
from repro.errors import AnalysisError, ConvergenceError


class TestSummary:
    def test_moments(self):
        summary = MonteCarloSummary.from_values("x", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.median == pytest.approx(2.0)
        assert summary.p05 <= summary.median <= summary.p95

    def test_std_is_the_sample_std(self):
        """ddof=1: the values estimate the spread of the population the
        seeds were drawn from, not of the finite sample itself."""
        summary = MonteCarloSummary.from_values("x", [1.0, 2.0, 3.0])
        assert summary.std == pytest.approx(1.0)  # not sqrt(2/3)

    def test_single_sample_std_is_zero(self):
        summary = MonteCarloSummary.from_values("x", [4.2])
        assert summary.std == 0.0
        assert summary.mean == pytest.approx(4.2)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarloSummary.from_values("x", [])


class TestRunner:
    def test_seeds_are_sequential(self):
        seen = []

        def metric(seed):
            seen.append(seed)
            return {"v": float(seed)}

        MonteCarlo(metric, n_runs=5, seed_base=100).run()
        assert seen == [100, 101, 102, 103, 104]

    def test_statistics_of_known_distribution(self):
        def metric(seed):
            rng = np.random.default_rng(seed)
            return {"g": float(rng.normal(5.0, 1.0))}

        results = MonteCarlo(metric, n_runs=400).run()
        assert results["g"].mean == pytest.approx(5.0, abs=0.2)
        assert results["g"].std == pytest.approx(1.0, abs=0.2)

    def test_multiple_metrics(self):
        def metric(seed):
            return {"a": seed, "b": 2.0 * seed}

        results = MonteCarlo(metric, n_runs=10).run()
        assert set(results) == {"a", "b"}
        assert results["b"].mean == pytest.approx(2.0 * results["a"].mean)

    def test_inconsistent_metrics_rejected(self):
        def metric(seed):
            return {"a": 1.0} if seed % 2 else {"b": 1.0}

        with pytest.raises(AnalysisError):
            MonteCarlo(metric, n_runs=4).run()

    def test_empty_metrics_rejected(self):
        with pytest.raises(AnalysisError):
            MonteCarlo(lambda seed: {}, n_runs=2).run()

    def test_run_count_validation(self):
        with pytest.raises(AnalysisError):
            MonteCarlo(lambda s: {"x": 1.0}, n_runs=0)


def _flaky(bad_seeds):
    """A metric whose listed seeds fail to converge."""

    def metric(seed):
        if seed in bad_seeds:
            raise ConvergenceError(f"seed {seed} diverged")
        return {"v": float(seed)}

    return metric


class TestErrorPolicy:
    def test_default_policy_propagates(self):
        """The serial route is lazy: seeds after the failure never
        run."""
        flaky, seen = _flaky({2}), []

        def metric(seed):
            seen.append(seed)
            return flaky(seed)

        with pytest.raises(ConvergenceError):
            MonteCarlo(metric, n_runs=5).run()
        assert seen == [0, 1, 2]

    def test_skip_records_the_failed_seed(self):
        """One non-converging chip must not destroy the campaign: the
        summary covers the survivors and names the casualty."""
        results = MonteCarlo(_flaky({2}), n_runs=5, on_error="skip").run()
        assert isinstance(results, MonteCarloRun)
        assert results.n_failed == 1
        (seed, message), = results.failed_seeds
        assert seed == 2
        assert "diverged" in message
        # Survivors only -- no NaN contamination of the moments.
        np.testing.assert_allclose(results["v"].values, [0, 1, 3, 4])
        assert "failed seeds (1): 2" in results.describe()

    def test_skip_keeps_dict_compatibility(self):
        results = MonteCarlo(_flaky(set()), n_runs=3,
                             on_error="skip").run()
        assert results.failed_seeds == []
        assert set(results) == {"v"}
        assert dict(results) == {"v": results["v"]}

    def test_all_seeds_failing_is_fatal(self):
        with pytest.raises(AnalysisError, match="every seed failed"):
            MonteCarlo(_flaky({0, 1, 2}), n_runs=3,
                       on_error="skip").run()

    def test_non_library_errors_always_propagate(self):
        def metric(seed):
            raise RuntimeError("a bug, not a convergence failure")

        with pytest.raises(RuntimeError):
            MonteCarlo(metric, n_runs=2, on_error="skip").run()

    def test_policy_validated(self):
        with pytest.raises(AnalysisError):
            MonteCarlo(lambda s: {"x": 1.0}, on_error="ignore")


def _seeded_gaussian(seed):
    """Module-level (picklable) metric for the process-pool tests."""
    rng = np.random.default_rng(seed)
    return {"v": float(rng.normal(0.0, 1.0))}


def _flaky_every_third(seed):
    if seed % 3 == 1:
        raise ConvergenceError(f"seed {seed} diverged")
    return {"v": float(seed)}


class TestParallel:
    def test_parallel_matches_serial_bit_for_bit(self):
        """Seeds fully determine the chips, so the pool must reproduce
        the serial population exactly -- values and order."""
        serial = MonteCarlo(_seeded_gaussian, n_runs=6).run()
        parallel = MonteCarlo(_seeded_gaussian, n_runs=6,
                              n_workers=2).run()
        np.testing.assert_array_equal(serial["v"].values,
                                      parallel["v"].values)
        assert serial["v"].std == parallel["v"].std
        assert serial["v"].mean == parallel["v"].mean

    def test_parallel_skip_records_match_serial(self):
        serial = MonteCarlo(_flaky_every_third, n_runs=7,
                            on_error="skip").run()
        parallel = MonteCarlo(_flaky_every_third, n_runs=7,
                              on_error="skip", n_workers=3).run()
        np.testing.assert_array_equal(serial["v"].values,
                                      parallel["v"].values)
        assert serial.failed_seeds == parallel.failed_seeds

    def test_parallel_raise_policy_propagates(self):
        with pytest.raises(ConvergenceError):
            MonteCarlo(_flaky_every_third, n_runs=4, n_workers=2).run()

    def test_unpicklable_metric_diagnosed_upfront(self):
        mc = MonteCarlo(lambda s: {"x": 1.0}, n_runs=2, n_workers=2)
        with pytest.raises(AnalysisError, match="worker processes"):
            mc.run()

    def test_workers_validated(self):
        with pytest.raises(AnalysisError):
            MonteCarlo(_seeded_gaussian, n_workers=0)

    def test_single_worker_stays_serial(self):
        """n_workers=1 must not spin up a pool (lambdas keep working)."""
        results = MonteCarlo(lambda s: {"x": float(s)}, n_runs=3,
                             n_workers=1).run()
        assert results["x"].mean == pytest.approx(1.0)
