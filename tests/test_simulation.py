import math

import numpy as np
import pytest

from geomrel.data import parse_dataset, to_cumulative_csv
from geomrel.model import GeometricModelParams, fault_cdf, failure_intensity, mean_failures
from geomrel.simulation import SimulationConfig, _draw_failure_times, simulate
from empirical_intensity import empirical_intensity


class TestConfig:
    def test_validation(self):
        params = GeometricModelParams(0.1, 0.9)
        with pytest.raises(ValueError):
            SimulationConfig(params, horizon=0, seed=1)
        with pytest.raises(ValueError):
            SimulationConfig(params, horizon=10, seed=1, replications=0)
        with pytest.raises(ValueError):
            SimulationConfig(params, horizon=10, seed=-1)

    def test_horizon_stays_below_the_draw_cap(self):
        params = GeometricModelParams(0.1, 0.9)
        SimulationConfig(params, horizon=2**62 - 1, seed=1)
        with pytest.raises(ValueError, match="below 2\\*\\*62"):
            SimulationConfig(params, horizon=2**62, seed=1)


class TestSimulate:
    def test_deterministic_given_seed(self):
        config = SimulationConfig(GeometricModelParams(0.05, 0.9), horizon=200, seed=42, replications=4)
        first = simulate(config)
        second = simulate(config)
        assert [ds.points for ds in first] == [ds.points for ds in second]

    def test_replications_differ_from_each_other(self):
        config = SimulationConfig(GeometricModelParams(0.05, 0.9), horizon=200, seed=42, replications=2)
        a, b = simulate(config)
        assert a.points != b.points

    def test_failure_count_bounded_by_truncation(self):
        params = GeometricModelParams(0.3, 0.8)
        for ds in simulate(SimulationConfig(params, horizon=10_000, seed=3, replications=10)):
            assert ds.final_count <= params.truncation

    def test_saturation_with_large_rates(self):
        # Two faults with rates 0.5 and 0.25 both fail almost surely well
        # inside a long horizon.
        params = GeometricModelParams(0.5, 0.5, 2)
        for ds in simulate(SimulationConfig(params, horizon=5000, seed=11, replications=20)):
            assert ds.final_count == 2

    def test_vanishing_rates_give_empty_history(self):
        params = GeometricModelParams(1e-12, 0.5, 3)
        (ds,) = simulate(SimulationConfig(params, horizon=100, seed=5))
        assert ds.final_count == 0
        assert ds.points == ((100.0, 0),)

    @pytest.mark.parametrize("p1", [5e-324, 1e-300, 1e-19])
    def test_draws_past_int64_are_held_at_the_cap(self, p1):
        # At p1 = 5e-324 every rate after the first rounds to 0, and the
        # draws overflow or divide 0 by 0; at 1e-19 most lie past 2**63.
        params = GeometricModelParams(p1, 0.5, 20)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            times = _draw_failure_times(params, np.random.default_rng(0))
        assert times.dtype == np.int64
        assert np.all((times >= 1) & (times <= 2**62))
        (ds,) = simulate(SimulationConfig(params, horizon=2**62 - 1, seed=5))
        assert ds.final_count == 0

    def test_draw_failure_times_one_per_fault(self):
        params = GeometricModelParams(0.2, 0.9, 25)
        rng = np.random.default_rng(0)
        times = _draw_failure_times(params, rng)
        assert times.shape == (25,)
        assert times.dtype == np.int64
        assert np.all(times >= 1)

    def test_mean_count_matches_model_mean(self):
        # Monte-Carlo against the closed-form mean at three checkpoints.
        params = GeometricModelParams(0.05, 0.95)
        reps = 2000
        datasets = simulate(SimulationConfig(params, horizon=100, seed=123, replications=reps))
        for t in (10, 50, 100):
            counts = np.array([ds.count_at(t) for ds in datasets], dtype=float)
            stderr = counts.std(ddof=1) / math.sqrt(reps)
            assert abs(counts.mean() - mean_failures(params, float(t))) <= 3 * stderr

    def test_csv_roundtrip(self):
        params = GeometricModelParams(0.1, 0.8)
        (ds,) = simulate(SimulationConfig(params, horizon=300, seed=9))
        again = parse_dataset(to_cumulative_csv(ds).encode(), "cumulative_csv", label=ds.label)
        assert again.points == ds.points


class TestEmpiricalIntensity:
    def test_matches_model_intensity(self):
        params = GeometricModelParams(0.05, 0.95)
        reps = 2000
        datasets = simulate(SimulationConfig(params, horizon=60, seed=77, replications=reps))
        for t in (1, 5, 20):
            per_rep = np.array(
                [ds.count_at(t) - ds.count_at(t - 1) for ds in datasets], dtype=float
            )
            stderr = per_rep.std(ddof=1) / math.sqrt(reps)
            estimate = empirical_intensity(datasets, t, horizon=60)
            assert estimate == pytest.approx(per_rep.mean())
            assert abs(estimate - failure_intensity(params, float(t))) <= 3 * stderr

    def test_non_negative_and_zero_cases(self):
        params = GeometricModelParams(1e-10, 0.5, 2)
        datasets = simulate(SimulationConfig(params, horizon=50, seed=1, replications=5))
        assert empirical_intensity(datasets, 10, horizon=50) == 0.0

    def test_beyond_horizon_rejected(self):
        params = GeometricModelParams(0.1, 0.9)
        datasets = simulate(SimulationConfig(params, horizon=50, seed=1, replications=2))
        with pytest.raises(ValueError):
            empirical_intensity(datasets, 51, horizon=50)
        with pytest.raises(ValueError):
            empirical_intensity(datasets, 0, horizon=50)
        with pytest.raises(ValueError):
            empirical_intensity([], 5, horizon=50)


class TestSingleFaultDistribution:
    def test_kolmogorov_smirnov_against_fault_cdf(self):
        # With one fault the failure time is plain geometric; compare the
        # empirical CDF with the model CDF at the 1% significance level.
        p = 0.15
        params = GeometricModelParams(p, 0.5, 1)
        n = 10_000
        rng = np.random.default_rng(2024)
        times = np.array([_draw_failure_times(params, rng)[0] for _ in range(n)])
        grid = np.arange(1, times.max() + 1)
        empirical = np.searchsorted(np.sort(times), grid, side="right") / n
        theoretical = np.array([fault_cdf(p, float(t)) for t in grid])
        d_stat = np.max(np.abs(empirical - theoretical))
        critical = 1.6276 / math.sqrt(n)  # 1% significance
        assert d_stat <= critical
