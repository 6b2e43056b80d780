import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomrel.estimation as estimation
from geomrel.comparison import LittlewoodVerrall
from geomrel.data import FailureDataset
from geomrel.estimation import (
    FitResult,
    OptimizerConfig,
    fit,
    least_squares_objective,
    nelder_mead,
)
from geomrel.model import GeometricModelParams, mean_failures
from geomrel.simulation import SimulationConfig, simulate


def straight_line_objective(p1, d, n, points):
    """Independent longhand evaluation of the fit objective."""
    total = 0.0
    for t, r in points:
        if r < 1:
            continue
        mu = 0.0
        for a in range(1, n + 1):
            pa = p1 * d ** (a - 1)
            mu += 1.0 - (1.0 - pa) ** t
        total += (math.log(r) - math.log(mu)) ** 2
    return total


def forward_dataset(params, times, label="forward"):
    """Rounded mean-value data generated from the model itself."""
    mus = mean_failures(params, np.asarray(times, dtype=float))
    points = tuple((float(t), int(round(m))) for t, m in zip(times, mus))
    return FailureDataset(points, label)


class TestObjective:
    def test_perfect_fit_is_zero(self):
        params = GeometricModelParams(0.2, 0.8, 30)
        times = [5.0, 10.0, 20.0]
        # Non-integer counts are not constructible, so check through the
        # array core: residuals of exact mean values vanish identically.
        mus = mean_failures(params, np.array(times))
        residuals = np.log(mus) - np.log(mus)
        assert float(residuals @ residuals) == 0.0

    def test_single_point_unit_residual(self):
        # A count of exp(1) * mu(t) leaves a residual of exactly 1 in log
        # space; pick parameters so that exp(1) * mu(t) is the integer 2.
        params = GeometricModelParams(0.5, 0.5, 2)
        t = 0.9748459771216045  # solves e * mu(t) = 2 for these parameters
        assert math.e * mean_failures(params, t) == pytest.approx(2.0, rel=1e-12)
        ds = FailureDataset(((t, 2),))
        assert least_squares_objective(params, ds) == pytest.approx(1.0, rel=1e-9)

    def test_matches_independent_reimplementation(self):
        params = GeometricModelParams(0.1, 0.94, 100)
        points = ((10.0, 4), (20.0, 7))
        ds = FailureDataset(points)
        expected = straight_line_objective(0.1, 0.94, 100, points)
        assert least_squares_objective(params, ds) == pytest.approx(expected, rel=1e-9)

    def test_zero_count_points_skipped(self):
        params = GeometricModelParams(0.1, 0.94, 100)
        with_zero = FailureDataset(((1.0, 0), (10.0, 4), (20.0, 7)))
        without = FailureDataset(((10.0, 4), (20.0, 7)))
        assert least_squares_objective(params, with_zero) == least_squares_objective(
            params, without
        )

    def test_all_points_skipped_is_an_error(self):
        params = GeometricModelParams(0.1, 0.94, 100)
        with pytest.raises(ValueError, match="usable"):
            least_squares_objective(params, FailureDataset(((1.0, 0), (2.0, 0))))

    def test_unit_scale_is_bit_exact(self):
        # Multiplying every count by c = 1 is the identity; the objective
        # must not merely be close but identical to the bit.
        params = GeometricModelParams(0.1, 0.94, 100)
        ds = FailureDataset(((10.0, 4), (20.0, 7)))
        scaled = FailureDataset(tuple((t, 1 * c) for t, c in ds.points))
        assert least_squares_objective(params, ds) == least_squares_objective(params, scaled)

    def test_scaling_counts_shifts_residuals(self):
        # With counts multiplied by c each residual moves by ln c.
        params = GeometricModelParams(0.1, 0.94, 100)
        points = ((10.0, 4), (20.0, 7))
        ds = FailureDataset(points)
        tripled = FailureDataset(tuple((t, 3 * c) for t, c in points))
        mus = mean_failures(params, np.array([10.0, 20.0]))
        base_residuals = np.log([4.0, 7.0]) - np.log(mus)
        expected = float(np.sum((base_residuals + math.log(3.0)) ** 2))
        assert least_squares_objective(params, tripled) == pytest.approx(expected, rel=1e-12)

    def test_non_negative(self):
        params = GeometricModelParams(0.05, 0.9)
        ds = FailureDataset(((3.0, 1), (9.0, 2), (30.0, 9)))
        assert least_squares_objective(params, ds) >= 0.0


class TestNelderMead:
    def test_quadratic_bowl(self):
        best, diag = nelder_mead(
            lambda z: (z[0] - 2.0) ** 2 + (z[1] - 3.0) ** 2,
            OptimizerConfig(),
            np.array([0.0, 0.0]),
        )
        assert best == pytest.approx([2.0, 3.0], abs=1e-4)
        assert diag.converged

    def test_absolute_value_plateau(self):
        # Non-smooth kink: the symmetric vertex tie must not be mistaken
        # for convergence even though the value spread is exactly zero.
        best, diag = nelder_mead(lambda z: abs(z[0]), OptimizerConfig(), np.array([5.0]))
        assert abs(best[0]) <= 1e-4
        assert diag.value <= 1e-4

    def test_rosenbrock(self):
        rosen = lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
        best, diag = nelder_mead(rosen, OptimizerConfig(), np.array([-1.2, 1.0]))
        assert best == pytest.approx([1.0, 1.0], abs=1e-3)
        assert diag.iterations <= 2000

    def test_nonfinite_probes_counted_not_fatal(self):
        # The unconstrained minimum sits inside a nan region starting at
        # 4.7; the walk must tally the bad probes and settle against the
        # boundary instead of blowing up.
        def objective(z):
            if z[0] < 4.7:
                return math.nan
            return (z[0] - 4.6) ** 2

        best, diag = nelder_mead(objective, OptimizerConfig(), np.array([5.0]))
        assert diag.nonfinite_evaluations >= 1
        assert best[0] == pytest.approx(4.7, abs=1e-2)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="initial simplex"):
            nelder_mead(lambda z: math.inf, OptimizerConfig(), np.array([0.0]))

    def test_never_worse_than_best_initial_vertex(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.1, 5.0, size=3)
            c = rng.uniform(-4.0, 4.0, size=3)
            shift = rng.uniform(-3.0, 3.0, size=3)
            objective = lambda z, a=a, c=c: float(np.sum(a * (z - c) ** 2)) + float(
                np.sum(np.abs(z))
            )
            config = OptimizerConfig(max_iterations=rng.integers(1, 60))
            start = shift
            initial = [objective(start)]
            for i in range(3):
                vertex = start.copy()
                vertex[i] += config.initial_step
                initial.append(objective(vertex))
            _, diag = nelder_mead(objective, config, start)
            assert diag.value <= min(initial)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(reflection=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(expansion=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(contraction=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(shrink=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(initial_step=0.0)

    def test_converged_implies_tight_spread(self):
        _, diag = nelder_mead(
            lambda z: (z[0] - 1.0) ** 2, OptimizerConfig(), np.array([4.0])
        )
        assert diag.converged
        assert diag.simplex_spread <= OptimizerConfig().tolerance


class TestFit:
    def test_noise_free_forward_recovery(self):
        true = GeometricModelParams(0.05, 0.95)
        ds = forward_dataset(true, np.arange(10.0, 201.0, 10.0))
        result = fit(ds)
        assert result.converged
        assert result.params.p1 == pytest.approx(0.05, rel=0.10)
        assert result.params.d == pytest.approx(0.95, abs=0.01)

    def test_objective_value_matches_recomputation(self):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), np.arange(10.0, 201.0, 10.0))
        result = fit(ds)
        assert result.objective_value == pytest.approx(
            least_squares_objective(result.params, ds), abs=1e-12
        )

    def test_bounds_always_respected(self):
        # Even on awkward data the returned parameters stay inside (0,1)^2.
        ds = FailureDataset(((1.0, 1), (2.0, 500)))
        result = fit(ds)
        assert 0.0 < result.params.p1 < 1.0
        assert 0.0 < result.params.d < 1.0

    def test_restart_from_optimum_does_not_regress(self):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), np.arange(10.0, 201.0, 10.0))
        first = fit(ds)
        again = fit(
            ds,
            OptimizerConfig(initial_guess=(first.params.p1, first.params.d)),
        )
        assert again.objective_value <= first.objective_value + 1e-15

    def test_skipped_points_counted(self):
        ds = FailureDataset(((1.0, 0), (10.0, 4), (20.0, 7), (30.0, 9)))
        result = fit(ds)
        assert result.skipped_points == 1

    def test_degenerate_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit(FailureDataset(((10.0, 4),)))
        with pytest.raises(ValueError):
            fit(FailureDataset(((1.0, 0), (10.0, 4))))

    def test_non_convergence_reported_not_raised(self):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), np.arange(10.0, 201.0, 10.0))
        result = fit(ds, OptimizerConfig(max_iterations=1, tolerance=1e-15))
        assert result.converged is False

    def test_bad_initial_guess_rejected(self):
        ds = FailureDataset(((10.0, 4), (20.0, 7)))
        with pytest.raises(ValueError):
            fit(ds, OptimizerConfig(initial_guess=(0.5, 1.2)))

    def test_json_serialization_schema(self):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), np.arange(10.0, 101.0, 10.0))
        result = fit(ds)
        payload = json.loads(result.to_json())
        assert set(payload) == {
            "p1",
            "d",
            "truncation",
            "objective",
            "iterations",
            "converged",
            "skipped_points",
            "boundary",
        }
        assert payload["converged"] is True

    def test_boundary_names_the_truncation_cap(self):
        # A history without reliability growth, one failure every 25
        # incidents, drives d towards 1 until the fit stops on the cap; a
        # seeded growth history ends inside it.
        flat = FailureDataset(tuple((25.0 * c, c) for c in range(1, 33)))
        capped = fit(flat)
        assert capped.params.truncation == estimation.MAX_FIT_TRUNCATION
        assert capped.boundary == "truncation-cap"
        assert json.loads(capped.to_json())["boundary"] == "truncation-cap"

        growth = simulate(
            SimulationConfig(GeometricModelParams(0.05, 0.95), horizon=800, seed=11, replications=1)
        )[0]
        interior = fit(growth)
        assert interior.params.truncation < estimation.MAX_FIT_TRUNCATION
        assert interior.boundary is None
        assert json.loads(interior.to_json())["boundary"] is None

    def test_median_d_recovery_on_simulated_histories(self):
        # Consistency on stochastic data: 20 independent histories with a
        # few hundred failures each pin the decay ratio to about a percent.
        true = GeometricModelParams(0.15, 0.98)
        errors = []
        for rep in range(20):
            ds = simulate(
                SimulationConfig(true, horizon=3000, seed=1234 + 1000 * rep, replications=1)
            )[0]
            assert ds.final_count >= 300
            errors.append(abs(fit(ds).params.d - true.d))
        assert float(np.median(errors)) < 0.02


@given(
    p1=st.floats(0.02, 0.3),
    d=st.floats(0.5, 0.96),
)
@settings(max_examples=10, deadline=None)
def test_fit_result_recomputes_for_random_truth(p1, d):
    true = GeometricModelParams(p1, d)
    times = np.arange(10.0, 151.0, 10.0)
    mus = mean_failures(true, times)
    points = tuple((float(t), int(round(m))) for t, m in zip(times, mus))
    try:
        ds = FailureDataset(points, "prop")
    except ValueError:
        return  # all-zero rounded counts carry no information
    counts = [c for _, c in points if c >= 1]
    if len(counts) < 2:
        return
    result = fit(ds)
    assert isinstance(result, FitResult)
    assert result.objective_value == pytest.approx(
        least_squares_objective(result.params, ds), abs=1e-12
    )


class TestEvaluationCount:
    """``SimplexResult.evaluations`` matches an independent tally of the
    objective calls of real fits, the initial vertices included."""

    @pytest.fixture
    def tallied(self, monkeypatch):
        runs = []
        original = estimation.nelder_mead

        def counting_nelder_mead(objective, config, start):
            tally = [0]

            def counted(x):
                tally[0] += 1
                return objective(x)

            best, diag = original(counted, config, start)
            runs.append((tally[0], diag))
            return best, diag

        monkeypatch.setattr(estimation, "nelder_mead", counting_nelder_mead)
        return runs

    def test_geometric_fit(self, tallied):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), [10.0 * k for k in range(1, 21)])
        fit(ds)
        (tally, diag), = tallied
        assert diag.evaluations == tally
        assert tally >= 3 + diag.iterations

    def test_littlewood_verrall_fit(self, tallied):
        tbf = np.random.default_rng(5).exponential(3.0, size=40)
        fitted = LittlewoodVerrall.fit(FailureDataset.from_tbf(tbf))
        (tally, diag), = tallied
        assert diag is fitted.diagnostics
        assert diag.evaluations == tally
        assert tally >= 4 + diag.iterations
