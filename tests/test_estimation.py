import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomrel.estimation as estimation
import geomrel.model as model
from geomrel.comparison import LittlewoodVerrall, fit_model
from geomrel.data import FailureDataset
from geomrel.errors import FitError
from geomrel.estimation import (
    FitResult,
    OptimizerResult,
    fit,
    least_squares_objective,
    levenberg_marquardt,
)
from geomrel.model import (
    DIRECT_SUM_MAX_TERMS,
    GeometricModelParams,
    default_truncation,
    failure_intensity,
    mean_failures,
)
from geomrel.simulation import SimulationConfig, simulate
from reference_simplex import reference_nelder_mead
from regenerate_golden import GRID, constant_rate_history, two_basin_history


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
    """The reference simplex of the objective gates reaches the optimum of
    smooth, kinked and partly undefined objectives."""

    def test_quadratic_bowl(self):
        best, run = reference_nelder_mead(
            lambda z: (z[0] - 2.0) ** 2 + (z[1] - 3.0) ** 2,
            np.array([0.0, 0.0]),
        )
        assert best == pytest.approx([2.0, 3.0], abs=1e-4)
        assert run.converged

    def test_absolute_value_plateau(self):
        # Non-smooth kink: the symmetric vertex tie must not be mistaken
        # for convergence even though the value spread is exactly zero.
        best, run = reference_nelder_mead(lambda z: abs(z[0]), np.array([5.0]))
        assert abs(best[0]) <= 1e-4
        assert run.value <= 1e-4

    def test_rosenbrock(self):
        rosen = lambda z: (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2
        best, run = reference_nelder_mead(rosen, np.array([-1.2, 1.0]))
        assert best == pytest.approx([1.0, 1.0], abs=1e-3)
        assert run.iterations <= 2000

    def test_nonfinite_probes_counted_not_fatal(self):
        # The unconstrained minimum sits inside a nan region starting at
        # 4.7; the walk must tally the bad probes and settle against the
        # boundary instead of blowing up.
        def objective(z):
            if z[0] < 4.7:
                return math.nan
            return (z[0] - 4.6) ** 2

        best, run = reference_nelder_mead(objective, np.array([5.0]))
        assert run.nonfinite_evaluations >= 1
        assert best[0] == pytest.approx(4.7, abs=1e-2)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError, match="initial simplex"):
            reference_nelder_mead(lambda z: math.inf, np.array([0.0]))

    def test_never_worse_than_best_initial_vertex(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(0.1, 5.0, size=3)
            c = rng.uniform(-4.0, 4.0, size=3)
            shift = rng.uniform(-3.0, 3.0, size=3)
            objective = lambda z, a=a, c=c: float(np.sum(a * (z - c) ** 2)) + float(
                np.sum(np.abs(z))
            )
            start = shift
            initial = [objective(start)]
            for i in range(3):
                vertex = start.copy()
                vertex[i] += 0.25
                initial.append(objective(vertex))
            _, run = reference_nelder_mead(objective, start)
            assert run.value <= min(initial)

    def test_converged_implies_tight_spread(self):
        _, run = reference_nelder_mead(lambda z: (z[0] - 1.0) ** 2, np.array([4.0]))
        assert run.converged
        assert run.spread <= 1e-8


class TestNelderMeadErrorState:
    """The reference simplex's ``np.errstate`` hides numpy warnings from the
    objective and leaves the caller's error state as it found it."""

    def test_objective_runs_without_numpy_warnings(self):
        seen = []

        def objective(z):
            seen.append(np.geterr())
            return float(np.log(np.abs(z)).sum() ** 2)

        before = np.geterr()
        reference_nelder_mead(objective, np.array([1.0, 2.0]))
        assert np.geterr() == before
        assert all(
            state["over"] == state["invalid"] == state["divide"] == "ignore" for state in seen
        )

    def test_state_restored_when_objective_raises(self):
        calls = [0]

        def objective(z):
            calls[0] += 1
            if calls[0] > 5:
                raise RuntimeError("stop")
            return float(z @ z)

        before = np.geterr()
        with pytest.raises(RuntimeError, match="stop"):
            reference_nelder_mead(objective, np.array([1.0, 2.0]))
        assert np.geterr() == before


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
        with mock.patch.object(estimation, "_LM_MAX_ITERATIONS", 1):
            result = fit(ds)
        assert result.converged is False
        assert result.diagnostics.iterations == 1

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
    """The record's evaluation counts match an independent tally of the
    objective and derivatives calls of real fits, the start included."""

    def test_geometric_fit(self, loop_runs):
        ds = forward_dataset(GeometricModelParams(0.05, 0.95), [10.0 * k for k in range(1, 21)])
        fit(ds)
        (run,) = loop_runs
        evaluations, jacobians, diag = run.objective_calls, run.derivative_calls, run.result
        assert diag.optimizer == "levenberg-marquardt"
        assert (diag.evaluations, diag.jacobian_evaluations) == (evaluations, jacobians)
        # One objective call for the start and at most one per step tried.
        assert diag.iterations <= evaluations <= 1 + diag.iterations
        assert 1 <= jacobians <= evaluations

    def test_littlewood_verrall_fit(self, loop_runs):
        tbf = np.random.default_rng(5).exponential(3.0, size=40)
        fitted = LittlewoodVerrall.fit(FailureDataset.from_tbf(tbf))
        (run,) = loop_runs
        evaluations, jacobians, diag = run.objective_calls, run.derivative_calls, run.result
        assert diag is fitted.diagnostics
        assert diag.optimizer == "levenberg-marquardt"
        assert (diag.evaluations, diag.jacobian_evaluations) == (evaluations, jacobians)
        # A step refused for a damped Hessian that is not positive definite
        # counts as a step tried without a probe.
        assert evaluations <= 1 + diag.iterations
        assert 1 <= jacobians <= evaluations


def reference_initial_p1(t_q, q):
    """The start as first written: 80 bisection steps on p1, each through
    ``mean_failures`` on new params at d = 0.94."""
    lo, hi = 1e-12, 1.0 - 1e-12
    if start_excess(hi, t_q, q) <= 0:
        return hi
    if start_excess(lo, t_q, q) >= 0:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if start_excess(mid, t_q, q) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def start_excess(p1, t_q, q):
    """The modelled mean at d = 0.94 less the final count, through
    ``mean_failures``."""
    return mean_failures(GeometricModelParams(p1, 0.94, default_truncation(0.94)), t_q) - q


@settings(max_examples=300, deadline=None)
@given(
    t_q=st.floats(1e-3, 1e7),
    # Tiny counts reach the lower end of the bracket, counts above the
    # 224 faults at d = 0.94 its upper end.
    q=st.one_of(st.floats(1e-12, 1e-6), st.floats(0.5, 400.0)),
)
def test_initial_p1_meets_the_count(t_q, q):
    """The start is an end of [1e-12, 1/2] exactly when no p1 inside meets
    the final count; otherwise the mean at the start meets it to 1e-12
    relative, tiny roots included.  The two end checks and the Newton
    steps take at most the step cap + 2 mean evaluations."""
    calls = [0]
    original = estimation._occurrence_sum

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with mock.patch.object(estimation, "_occurrence_sum", counted):
        start = estimation._initial_p1(t_q, q)
    lo, hi = 1e-12, 0.5
    if start_excess(hi, t_q, q) <= 0:
        assert start == hi
    elif start_excess(lo, t_q, q) >= 0:
        assert start == lo
    else:
        assert lo <= start <= hi
        assert abs(start_excess(start, t_q, q)) <= 1e-12 * q
    assert calls[0] <= estimation._START_STEPS + 2


def test_initial_p1_mean_evaluations():
    """Starts for histories like the release-planning ones (800 incidents,
    tens of failures) take 4.19 mean evaluations on average: one for a
    count beyond the mean at p1 = 1/2, else the two end checks and about
    five Newton steps.  The bound leaves a margin of about a fifth; the
    bisection took about 60."""
    rng = np.random.default_rng(11)
    calls = [0]
    original = estimation._occurrence_sum

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with mock.patch.object(estimation, "_occurrence_sum", counted):
        for _ in range(100):
            estimation._initial_p1(rng.uniform(600.0, 1000.0), rng.uniform(10.0, 200.0))
    assert calls[0] / 100 <= 5.0


def reference_geometric_fit(ds):
    """The geometric fit as first written: logit-mapped (p1, d), probes past
    10,000 fault terms rejected as +inf, and a start that meets the final
    log count at d = 0.94 by bisection on p1."""
    mask = ds.counts >= 1
    times = ds.times[mask]
    log_counts = np.log(ds.counts[mask].astype(float))

    def expit(z):
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    def logit(p):
        return math.log(p / (1.0 - p))

    d_start = 0.94
    p1_start = reference_initial_p1(float(times[-1]), float(math.exp(log_counts[-1])))

    def objective(z):
        p1, d = expit(float(z[0])), expit(float(z[1]))
        if not (0.0 < p1 < 1.0 and 0.0 < d < 1.0):
            return math.inf
        n = default_truncation(d)
        if n > 10_000:
            return math.inf
        mu = np.atleast_1d(mean_failures(GeometricModelParams(p1, d, n), times))
        if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
            return math.inf
        residuals = log_counts - np.log(mu)
        return float(residuals @ residuals)

    start = np.array([logit(p1_start), logit(d_start)])
    best, run = reference_nelder_mead(objective, start)
    d = expit(float(best[1]))
    return GeometricModelParams(expit(float(best[0])), d, default_truncation(d)), run


class TestGeometricReference:
    """Objective gate: the fit ends at or below the reference simplex fit
    on the same objective, within 5.5e-7.  The objective jumps where
    the truncation re-derived from d steps, by up to 5.5e-7 as measured on
    fitted histories, so either search can stop on the favourable side of
    a step.  Histories the reference fits at the truncation cap stay
    there."""

    def test_fit_at_or_below_reference(self, gate_histories):
        capped_histories = 0
        for ds in gate_histories:
            result = fit(ds)
            params, run = reference_geometric_fit(ds)
            assert result.converged, ds.label
            assert result.objective_value <= run.value + 5.5e-7, ds.label
            assert result.objective_value == least_squares_objective(result.params, ds), ds.label
            capped = params.truncation == estimation.MAX_FIT_TRUNCATION
            capped_histories += capped
            assert (result.params.truncation == estimation.MAX_FIT_TRUNCATION) == capped, ds.label
            assert result.boundary == ("truncation-cap" if capped else None), ds.label
        assert capped_histories >= 10


def reference_log_count_objective(mean, x, times, log_counts):
    """The objective as first written: +inf unless the mean is finite and
    positive at every time, checked before the residuals are formed."""
    mu = mean(x, times)
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
        return math.inf
    residuals = log_counts - np.log(mu)
    return float(residuals @ residuals)


class TestLogCountObjective:
    times = np.array([1.0, 2.0, 5.0, 9.0])
    log_counts = np.log(np.array([1.0, 3.0, 4.0, 7.0]))

    def value(self, objective, mu):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return objective(lambda x, t: np.asarray(mu, dtype=float), None, self.times,
                             self.log_counts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300])
    @pytest.mark.parametrize("where", [0, 3])
    def test_invalid_mean_gives_inf(self, bad, where):
        mu = [1.0, 2.5, 4.0, 8.0]
        mu[where] = bad
        assert self.value(estimation._log_count_objective, mu) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(5e-324, 1.7976931348623157e308), st.floats(1e-3, 1e3)),
            min_size=4,
            max_size=4,
        )
    )
    def test_valid_mean_equals_checked_objective(self, mu):
        value = self.value(estimation._log_count_objective, mu)
        assert math.isfinite(value)
        assert value == self.value(reference_log_count_objective, mu)


def _rosenbrock_residuals(x):
    x0, x1 = x.tolist()
    return np.array([1.0 - x0, 10.0 * (x1 - x0 * x0)])


def _rosenbrock_jacobian(x, r):
    return [np.array([-1.0, -20.0 * x[0]]), np.array([0.0, 10.0])]


def _bounded_residuals(x):
    # The unconstrained minimum (3, 1) lies below x0 >= 4.
    return np.array([x[0] - 3.0, x[1] - 1.0, 0.1 * x[0] * x[1]])


def _bounded_jacobian(x, r):
    return [np.array([1.0, 0.0, 0.1 * x[1]]), np.array([0.0, 1.0, 0.1 * x[0]])]


_COUPLING = 0.1


def _coupled_residuals(x):
    # The minimum (1, -1) lies below x0 >= 2, across strongly coupled
    # coordinates.
    return np.array([x[0] + x[1], _COUPLING * (x[0] - x[1] - 2.0)])


def _coupled_jacobian(x, r):
    return [np.array([1.0, _COUPLING]), np.array([1.0, -_COUPLING])]


def _holed_residuals(x):
    # The minimum at 3 lies beyond a region outside the domain from 2.
    return None if x[0] > 2.0 else np.array([x[0] - 3.0])


def _holed_jacobian(x, r):
    return [np.array([1.0])]


def _bowl_residuals(x):
    # A bowl around (3, 3), mildly coupled.
    return np.array([x[0] - 3.0, x[1] - 3.0, 0.5 * (x[0] - x[1])])


def _bowl_jacobian(x, r):
    return [np.array([1.0, 0.0, 0.5]), np.array([0.0, 1.0, -0.5])]


def _arctan_residuals(x):
    # 1-d and nonlinear, with a flat tail either way.
    return np.array([math.atan(x[0]) - 0.5, 0.1 * x[0] * x[0]])


def _arctan_jacobian(x, r):
    return [np.array([1.0 / (1.0 + x[0] * x[0]), 0.2 * x[0]])]


def _least_squares(residuals, jacobian):
    """The callbacks of :func:`levenberg_marquardt` for ``sum(r**2)``, with
    ``r = residuals(x)``: the objective, and ``J^T r`` and ``J^T J`` from
    the columns ``jacobian(x, r)`` at the latest probe."""
    latest = []

    def objective(x):
        r = residuals(x)
        latest[:] = [r]
        return None if r is None else float(r.dot(r))

    def derivatives(x):
        (r,) = latest
        columns = jacobian(x, r)
        gradient = [float(c.dot(r)) for c in columns]
        return gradient, [[float(a.dot(b)) for b in columns] for a in columns]

    return objective, derivatives


# name -> (residuals, jacobian, number of coordinates)
_LM_PROBLEMS = {
    "rosenbrock": (_rosenbrock_residuals, _rosenbrock_jacobian, 2),
    "bounded": (_bounded_residuals, _bounded_jacobian, 2),
    "coupled": (_coupled_residuals, _coupled_jacobian, 2),
    "holed": (_holed_residuals, _holed_jacobian, 1),
    "bowl": (_bowl_residuals, _bowl_jacobian, 2),
    "arctan": (_arctan_residuals, _arctan_jacobian, 1),
}

_LM_BRANCHES = {
    "hold-gradient", "hold-resolve", "cross", "cross-both", "reject", "nonfinite",
    "small-step", "small-decrease", "all-held", "cap",
}


def _reference_solve(matrix, rhs):
    if len(rhs) == 1:
        return [rhs[0] / matrix[0][0]]
    (a, b), (c, d) = matrix
    det = a * d - b * c
    if not det > 0.0:
        return [math.nan, math.nan]
    return [(rhs[0] * d - b * rhs[1]) / det, (a * rhs[1] - c * rhs[0]) / det]


def _reference_damped_step(normal, gradient, damping, free, at_bound, hit):
    step = [0.0] * len(gradient)
    while free:
        solved = _reference_solve(
            [[normal[i][j] * (1.0 + damping if i == j else 1.0) for j in free] for i in free],
            [-gradient[i] for i in free],
        )
        outward = [i for i, s in zip(free, solved) if at_bound[i] and s > 0.0]
        if not outward:
            for i, s in zip(free, solved):
                step[i] = s
            break
        hit("hold-resolve")
        free = [i for i in free if i not in outward]
    return step


def reference_levenberg_marquardt(objective, derivatives, start, upper=None, branches=None):
    """The loop as first written, with list-of-lists matrices, a dict of
    crossing shares and generator sums, upper bounds, and without the
    checks on ``upper``.  It takes the value, and half the gradient and the
    whole of half the Hessian, from the callbacks of
    :func:`levenberg_marquardt`.  Adds the name of every branch it takes to
    ``branches`` if given.  Its constants are read from the module, so that
    patching them moves both loops alike."""
    hit = branches.add if branches is not None else (lambda name: None)
    x = [float(v) for v in np.asarray(start, dtype=float)]
    if not 1 <= len(x) <= 2:
        raise ValueError("start must have 1 or 2 coordinates")
    k = len(x)
    bounds = [math.inf] * k if upper is None else [float(u) for u in upper]

    nonfinite = 0
    evaluations = 0
    jacobians = 0

    def evaluate(point):
        nonlocal nonfinite, evaluations
        evaluations += 1
        value = objective(np.array(point))
        if value is None or not math.isfinite(value):
            hit("nonfinite")
            nonfinite += 1
            return math.inf
        return value

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = evaluate(x)
        if value == math.inf:
            raise ValueError("objective is not finite at the start")

        damping, growth = estimation._LM_DAMPING, 2.0
        iterations = 0
        converged = False
        fresh = True
        while True:
            if fresh:
                gradient, normal = derivatives(np.array(x))
                jacobians += 1
                free = [
                    i for i in range(k)
                    if normal[i][i] > 0.0 and not (x[i] >= bounds[i] and gradient[i] < 0.0)
                ]
                if any(x[i] >= bounds[i] and gradient[i] < 0.0 for i in range(k)):
                    hit("hold-gradient")
            if not free:
                hit("all-held")
                converged = True
                break
            if iterations >= estimation._LM_MAX_ITERATIONS:
                hit("cap")
                break
            iterations += 1

            at_bound = [v >= b for v, b in zip(x, bounds)]
            step = _reference_damped_step(normal, gradient, damping, free, at_bound, hit)
            crossing = {
                i: (b - v) / s for i, (v, s, b) in enumerate(zip(x, step, bounds)) if v + s > b
            }
            if crossing:
                hit("cross-both" if len(crossing) == 2 else "cross")
            share = min(crossing.values(), default=1.0)
            trial = [
                b if crossing.get(i) == share else v + share * s
                for i, (v, s, b) in enumerate(zip(x, step, bounds))
            ]
            step = [t - v for t, v in zip(trial, x)]
            if all(abs(s) <= estimation._LM_STEP * (1.0 + abs(v)) for s, v in zip(step, x)):
                hit("small-step")
                converged = True
                break

            value_trial = evaluate(trial)
            if value_trial < value:
                decrease = value - value_trial
                predicted = -sum(
                    s * (2.0 * g + sum(a * u for a, u in zip(row, step)))
                    for s, g, row in zip(step, gradient, normal)
                )
                small = decrease <= estimation._LM_DECREASE * value
                x, value = trial, value_trial
                if small:
                    hit("small-decrease")
                    converged = True
                    break
                if predicted > 0.0:
                    gain = 2.0 * decrease / predicted - 1.0
                    damping *= max(1.0 / 3.0, 1.0 - gain * gain * gain)
                growth = 2.0
                fresh = True
            else:
                hit("reject")
                damping *= growth
                growth *= 2.0
                fresh = False

    result = OptimizerResult(
        optimizer="levenberg-marquardt",
        x=tuple(x),
        value=value,
        iterations=iterations,
        converged=converged,
        nonfinite_evaluations=nonfinite,
        evaluations=evaluations,
        jacobian_evaluations=jacobians,
    )
    return np.array(x), result


def reference_on_negated(objective, derivatives, start, lower=None, branches=None):
    """:func:`reference_levenberg_marquardt` on the negated problem: in
    y = -x, with ``upper = -lower``, the gradient negated and the Hessian
    as it is.  Its point, as a list, and its record come back in x."""

    def negated_objective(y):
        return objective(-y)

    def negated_derivatives(y):
        gradient, hessian = derivatives(-y)
        return [-g for g in gradient], hessian

    upper = None if lower is None else [-b for b in lower]
    best, result = reference_levenberg_marquardt(
        negated_objective, negated_derivatives, [-v for v in start], upper, branches
    )
    return (-best).tolist(), dataclasses.replace(result, x=tuple(-v for v in result.x))


def _assert_same(outcomes, signed_zeros=True):
    """Coordinate by coordinate and field by field, with ==, and with
    ``signed_zeros`` zeros of the same sign.  A run on the negated problem
    cannot keep the sign of a zero: a coordinate at -0 or +0 that takes a
    zero step ends at +0 in either loop."""
    live, reference = outcomes
    if isinstance(reference, str):
        assert live == reference
        return
    (best, result), (best_ref, result_ref) = live, reference
    assert best == best_ref
    if signed_zeros:
        assert [math.copysign(1.0, v) for v in best] == [math.copysign(1.0, v) for v in best_ref]
    for field in dataclasses.fields(OptimizerResult):
        assert getattr(result, field.name) == getattr(result_ref, field.name), field.name


def _assert_same_as_reference(objective, derivatives, start, lower=None, branches=None):
    """The live loop and the reference give the same outcome on one
    problem: ``(best, result)`` or the message of the ``ValueError``
    raised.  The reference runs on the problem itself when no bound is
    finite, and on the negated problem otherwise."""
    negated = lower is not None and any(b > -math.inf for b in lower)

    def reference(objective, derivatives, start, lower):
        if negated:
            return reference_on_negated(objective, derivatives, start, lower, branches)
        return reference_levenberg_marquardt(objective, derivatives, start, None, branches)

    outcomes = []
    for run in (levenberg_marquardt, reference):
        try:
            best, result = run(objective, derivatives, start, lower)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            if isinstance(best, np.ndarray):
                assert best.dtype == float and best.ndim == 1
                best = best.tolist()
            outcomes.append((best, result))
    _assert_same(outcomes, signed_zeros=not negated)


# The fixed cases of TestLevenbergMarquardt: (problem, start, lower, cap).
_LM_CASES = {
    "rosenbrock": ("rosenbrock", [-1.2, 1.0], None, None),
    "held-bound": ("bounded", [6.0, 0.0], [4.0, -math.inf], None),
    "coupled-resolve": ("coupled", [2.0, -5.0], [2.0, -math.inf], None),
    "nonfinite-probes": ("holed", [0.0], None, None),
    "iteration-cap": ("rosenbrock", [-1.2, 1.0], None, 1),
    "both-cross": ("bowl", [6.0, 6.0], [5.0, 5.0], None),
    "one-crosses-first": ("bowl", [6.0, 6.0], [5.0, 4.0], None),
    "arctan": ("arctan", [3.0], None, None),
}


def _lm_cap(cap):
    return mock.patch.object(
        estimation, "_LM_MAX_ITERATIONS", estimation._LM_MAX_ITERATIONS if cap is None else cap
    )


@pytest.mark.parametrize("case", sorted(_LM_CASES))
def test_levenberg_marquardt_equals_frozen_reference(case):
    """Each fixed case gives the same point and the same record, field by
    field, as the loop it replaced, run on the negated problem."""
    problem, start, lower, cap = _LM_CASES[case]
    residuals, jacobian, _ = _LM_PROBLEMS[problem]
    with _lm_cap(cap):
        _assert_same_as_reference(*_least_squares(residuals, jacobian), start, lower)


def test_levenberg_marquardt_cases_reach_every_branch():
    branches = set()
    for problem, start, lower, cap in _LM_CASES.values():
        residuals, jacobian, _ = _LM_PROBLEMS[problem]
        with _lm_cap(cap):
            _assert_same_as_reference(*_least_squares(residuals, jacobian), start, lower, branches)
    assert branches == _LM_BRANCHES


_COORDINATE = st.floats(-4.0, 4.0, allow_nan=False)


@st.composite
def _lm_problems(draw):
    name = draw(st.sampled_from(sorted(_LM_PROBLEMS)))
    residuals, jacobian, k = _LM_PROBLEMS[name]
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3, draw(st.floats(1e-2, 1e2))]))
    start = draw(st.lists(_COORDINATE, min_size=k, max_size=k))
    # Each coordinate unbounded, on its bound, or above it.
    margins = st.one_of(st.just(math.inf), st.just(0.0), st.floats(0.0, 4.0))
    lower = [v - m for v, m in zip(start, draw(st.lists(margins, min_size=k, max_size=k)))]
    cap = draw(st.sampled_from([None, draw(st.integers(1, 30))]))

    def scaled_residuals(x):
        r = residuals(x)
        return None if r is None else scale * r

    def scaled_jacobian(x, r):
        return [scale * c for c in jacobian(x, r / scale)]

    return (*_least_squares(scaled_residuals, scaled_jacobian), start, lower, cap)


@settings(max_examples=300, deadline=None)
@given(_lm_problems())
def test_levenberg_marquardt_equals_frozen_reference_on_random_problems(problem):
    objective, derivatives, start, lower, cap = problem
    with _lm_cap(cap):
        _assert_same_as_reference(objective, derivatives, start, lower)


class TestLevenbergMarquardt:
    def test_rosenbrock_least_squares(self):
        best, diag = levenberg_marquardt(
            *_least_squares(_rosenbrock_residuals, _rosenbrock_jacobian), [-1.2, 1.0]
        )
        assert best == pytest.approx([1.0, 1.0], abs=1e-6)
        assert diag.converged
        assert diag.optimizer == "levenberg-marquardt"
        assert diag.value == float(_rosenbrock_residuals(best) @ _rosenbrock_residuals(best))
        assert diag.x == tuple(best.tolist())

    def test_only_lower_points_are_accepted(self):
        # The derivatives are taken at the start and at every accepted
        # point, so the objective falls strictly along those calls.
        values = []
        objective, derivatives = _least_squares(_rosenbrock_residuals, _rosenbrock_jacobian)

        def recorded(x):
            r = _rosenbrock_residuals(x)
            values.append(float(r @ r))
            return derivatives(x)

        _, diag = levenberg_marquardt(objective, recorded, [-1.2, 1.0])
        assert len(values) == diag.jacobian_evaluations >= 2
        assert all(b < a for a, b in zip(values, values[1:]))
        assert diag.value <= values[-1]

    def test_upper_bound_holds_a_coordinate(self):
        # The unconstrained minimum (3, 1) lies beyond x0 <= 2.  The search
        # runs on y0 = -x0 >= -2, ends on that bound, with the free
        # coordinate at its optimum.
        def residuals(y):
            return _bounded_residuals(np.array([-y[0], y[1]]))

        def jacobian(y, r):
            by_x0, by_x1 = _bounded_jacobian(np.array([-y[0], y[1]]), r)
            return [-by_x0, by_x1]

        best, diag = levenberg_marquardt(
            *_least_squares(residuals, jacobian), [0.0, 0.0], lower=[-2.0, -math.inf]
        )
        assert best[0] == -2.0
        assert best[1] == pytest.approx(1.0 / 1.04, rel=1e-6)
        assert diag.converged

    def test_coupled_step_across_the_bound_is_solved_again(self):
        # From (2, -5), on the bound x0 >= 2, the gradient in x0 points
        # inward, but the joint step heads for the minimum (1, -1) beyond
        # the bound.  x0 is held, and x1 reaches the optimum on the bound.
        eps = _COUPLING
        best, diag = levenberg_marquardt(
            *_least_squares(_coupled_residuals, _coupled_jacobian),
            [2.0, -5.0],
            lower=[2.0, -math.inf],
        )
        assert best[0] == 2.0
        assert best[1] == pytest.approx(-2.0 / (1.0 + eps**2), rel=1e-6)
        assert diag.converged

    def test_nonfinite_probes_counted_not_fatal(self):
        # The minimum at 3 lies beyond a region outside the domain from 2:
        # the walk tallies the rejected probes and settles below 2.
        best, diag = levenberg_marquardt(*_least_squares(_holed_residuals, _holed_jacobian), [0.0])
        assert diag.nonfinite_evaluations >= 1
        assert 1.9 < best[0] <= 2.0
        assert diag.converged

    def test_iteration_cap_reported(self):
        with mock.patch.object(estimation, "_LM_MAX_ITERATIONS", 1):
            _, diag = levenberg_marquardt(
                *_least_squares(_rosenbrock_residuals, _rosenbrock_jacobian), [-1.2, 1.0]
            )
        assert diag.iterations == 1
        assert not diag.converged

    def test_invalid_starts_rejected(self):
        _, derivatives = _least_squares(_rosenbrock_residuals, _rosenbrock_jacobian)
        with pytest.raises(ValueError, match="start"):
            levenberg_marquardt(lambda x: None, derivatives, [0.0, 0.0])
        with pytest.raises(ValueError, match="1 to 3 coordinates"):
            levenberg_marquardt(
                *_least_squares(_rosenbrock_residuals, _rosenbrock_jacobian), [0.0] * 4
            )

    @pytest.mark.parametrize(
        "problem, start, lower, message",
        [
            ("rosenbrock", [0.0, 0.0], [-1.0], "one bound per coordinate"),
            ("rosenbrock", [0.0, 0.0], [-1.0] * 3, "one bound per coordinate"),
            ("rosenbrock", [0.0, 0.0], [math.nan, -1.0], "NaN"),
            ("bounded", [0.0, 3.0], [1.0, 2.0], "start must lie within lower"),
        ],
        ids=["too-few", "too-many", "nan", "start-below"],
    )
    def test_invalid_lower_rejected(self, problem, start, lower, message):
        residuals, jacobian, _ = _LM_PROBLEMS[problem]
        with pytest.raises(ValueError, match=message):
            levenberg_marquardt(*_least_squares(residuals, jacobian), start, lower)

    def test_numpy_state_restored_and_silenced(self):
        seen = []

        def residuals(x):
            seen.append(np.geterr())
            return _rosenbrock_residuals(x)

        before = np.geterr()
        levenberg_marquardt(*_least_squares(residuals, _rosenbrock_jacobian), [-1.2, 1.0])
        assert np.geterr() == before
        assert all(s["over"] == s["invalid"] == s["divide"] == "ignore" for s in seen)


def _rosenbrock_value(x):
    x0, x1 = x.tolist()
    return (1.0 - x0) ** 2 + 100.0 * (x1 - x0 * x0) ** 2


def _rosenbrock_halves(x):
    # Half the gradient and half the Hessian of _rosenbrock_value.
    x0, x1 = x.tolist()
    bend = x1 - x0 * x0
    return (
        [-(1.0 - x0) - 200.0 * x0 * bend, 100.0 * bend],
        [[1.0 - 200.0 * bend + 400.0 * x0 * x0, -200.0 * x0], [-200.0 * x0, 100.0]],
    )


class TestLevenbergMarquardtWidened:
    """Lower bounds, a third coordinate, and Hessians that are not
    Gauss-Newton products."""

    def test_lower_bound_is_reached_exactly(self):
        # The minimum (3, 1) lies below x0 >= 4: the step that crosses the
        # bound ends on it, and x0 is then held there.
        best, diag = levenberg_marquardt(
            *_least_squares(_bounded_residuals, _bounded_jacobian),
            [6.0, 0.0],
            lower=[4.0, -math.inf],
        )
        assert best[0] == 4.0
        assert diag.converged

    def test_invalid_lower_rejected(self):
        holed = _least_squares(_holed_residuals, _holed_jacobian)
        with pytest.raises(ValueError, match="lower must give one bound per coordinate"):
            levenberg_marquardt(*holed, [0.0], lower=[0.0, 1.0])
        with pytest.raises(ValueError, match="lower must not contain NaN"):
            levenberg_marquardt(*holed, [0.0], lower=[math.nan])
        with pytest.raises(ValueError, match="start must lie within lower"):
            levenberg_marquardt(*holed, [0.0], lower=[1.0])

    def test_third_coordinate_held_gives_the_smaller_solve(self):
        # A third coordinate with a zero Jacobian column is held: its
        # identity row and column leave the 2-d floats.
        def residuals(x):
            return _bowl_residuals(x[:2])

        def jacobian(x, r):
            return [*_bowl_jacobian(x[:2], r), np.zeros(3)]

        for start, lower in [([6.0, 6.0], [5.0, 4.0]), ([-1.2, 1.0], None)]:
            bowl = _least_squares(_bowl_residuals, _bowl_jacobian)
            two = levenberg_marquardt(*bowl, start, lower)
            three = levenberg_marquardt(
                *_least_squares(residuals, jacobian),
                start + [5.0],
                None if lower is None else lower + [1.0],
            )
            assert three[0].tolist() == two[0].tolist() + [5.0]
            assert dataclasses.replace(three[1], x=three[1].x[:2]) == two[1]

    def test_hessian_form_refuses_an_indefinite_matrix(self):
        # At (0, 1) the Rosenbrock Hessian is indefinite: the first steps are
        # refused without a probe until the damping makes it positive
        # definite, and the walk still reaches (1, 1).
        best, diag = levenberg_marquardt(_rosenbrock_value, _rosenbrock_halves, [0.0, 1.0])
        assert best == pytest.approx([1.0, 1.0], abs=1e-6)
        assert diag.converged
        assert diag.value == _rosenbrock_value(best)
        assert diag.iterations >= diag.evaluations  # refused steps take no probe
        assert diag.jacobian_evaluations >= 2

    def test_every_probe_descends_on_an_indefinite_quadratic(self):
        # x'Ax on x >= -1 with A indefinite: its first minor is positive,
        # its second negative and its determinant positive, so only the
        # full leading-minor check refuses it.  A has no negative entry,
        # so x'Ax is bounded below there, with its least value -10 where
        # two coordinates are -1 and the third 4.  Every probe lies along
        # a descent direction from the point whose derivatives it was
        # solved from.
        a = np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
        probes, solved_from = [], []

        def value(x):
            probes.append((x.copy(), solved_from[-1] if solved_from else None))
            return float(x @ a @ x)

        def halves(x):
            solved_from.append((x.copy(), a @ x))
            return (a @ x).tolist(), a.tolist()

        best, diag = levenberg_marquardt(value, halves, [0.3, -0.2, 0.1], lower=[-1.0] * 3)
        assert diag.converged
        assert diag.value == pytest.approx(-10.0)
        assert sorted(best.tolist()) == pytest.approx([-1.0, -1.0, 4.0])
        assert diag.iterations >= diag.evaluations  # some steps were refused
        for probe, origin in probes[1:]:
            x, g = origin
            assert float(g @ (probe - x)) < 0.0

    def test_hessian_form_lower_bound_on_one_coordinate(self):
        # A 1-d objective whose minimum at -0.7 lies below x >= 0: each
        # search ends on the bound exactly, not a rounding error away from
        # it (x plus the shortened step misses 0 from 4 of these starts),
        # and is held there with its gradient pointing outward.
        for start in np.linspace(0.05, 3.0, 40).tolist():
            best, diag = levenberg_marquardt(
                lambda x: float((x[0] + 0.7) ** 2),
                lambda x: ([float(x[0] + 0.7)], [[1.0]]),
                [start],
                lower=[0.0],
            )
            assert best.tolist() == [0.0], start
            assert diag.converged and diag.value == 0.7**2, start


@pytest.fixture(scope="module")
def least_squares_gate(gate_histories) -> list[FailureDataset]:
    """The gate histories, the flat history 25 c (no growth at all), and
    twelve seeded histories read on a 40-point grid, their truths
    stratified over p1 in [0.01, 0.05] and d in [0.92, 0.96]."""
    histories = list(gate_histories)
    histories.append(FailureDataset(tuple((25.0 * c, c) for c in range(1, 33)), "flat"))
    grid = np.arange(1, 41) * 25.0
    rng = np.random.default_rng(1601)
    for seed in range(12):
        p1 = 0.01 + 0.04 * (seed + rng.random()) / 12
        d = 0.92 + 0.04 * rng.random()
        config = SimulationConfig(GeometricModelParams(p1, d), horizon=1000, seed=1601 + seed)
        (simulated,) = simulate(config)
        counts = [simulated.count_at(t) for t in grid]
        histories.append(FailureDataset(tuple(zip(grid.tolist(), counts)), f"grid-{seed}"))
    return histories


class TestFrozenReferenceFits:
    """Every least-squares fit of the gate histories hands the loop its
    objective and derivatives; the reference, run on the same functions
    negated, from the negated start and bounds, gives the same point and
    record, field by field, negated back."""

    @pytest.mark.parametrize("model_name", ["geometric", "musa-basic", "musa-okumoto", "nhpp"])
    def test_fits_equal_reference(self, loop_runs, least_squares_gate, model_name):
        for ds in least_squares_gate:
            fit_model(model_name, ds)
        # A geometric search abandoned off the d bound returns nothing.
        completed = [run for run in loop_runs if run.result is not None]
        assert len(completed) == len(least_squares_gate)
        for run in completed:
            reference = reference_on_negated(run.objective, run.derivatives, run.start, run.lower)
            _assert_same([(run.best, run.result), reference], signed_zeros=False)


def test_fit_returns_the_params_of_its_best_point(least_squares_gate):
    # The params come from the probe at the loop's best point, with the
    # caches its route built (the head of fault terms when it has one, the
    # tail sums when it has a tail), and read as freshly built params do.
    saturated = FailureDataset(((6.0, 220), (605860300011.447, 596)), "saturated")
    for ds in [*least_squares_gate, saturated]:
        result = fit(ds)
        # The loop searches (logit p1, -logit d).
        x0, x1 = result.diagnostics.x
        p1, d = estimation._expit(x0), estimation._expit(-x1)
        fresh = GeometricModelParams(p1, d, default_truncation(d))
        assert result.params == fresh
        assert (result.params.p1, result.params.d) == (p1, d)
        k = model._series_head(fresh, ds.final_time)
        if k:
            assert result.params.__dict__["_head"][0].size >= k
        if k < fresh.truncation:
            assert k in result.params.__dict__["_tails"]
        t = np.linspace(1.0, 3.0 * ds.final_time, 50)
        for read in (mean_failures, failure_intensity):
            assert read(result.params, t).tobytes() == read(fresh, t).tobytes()
        assert least_squares_objective(result.params, ds) == result.objective_value


def test_probes_at_one_decay_ratio_share_their_tail_sums(least_squares_gate):
    # Every probe builds fresh params.  Those at one d (as the probes held
    # on the truncation bound are) read one dict of tail sums, which the
    # fitted params carry; probes at different d never share one.
    at_cap = 0
    for ds in least_squares_gate:
        probes = []
        original = estimation._mean_terms

        def recording(params, t, t_max):
            probes.append(params)
            return original(params, t, t_max)

        with mock.patch.object(estimation, "_mean_terms", recording):
            result = fit(ds)
        tails = [(params.d, params.__dict__.get("_tails")) for params in probes]
        for i, (d, shared) in enumerate(tails):
            for other_d, other in tails[i + 1 :]:
                if shared is not None and other is not None:
                    assert (shared is other) == (d == other_d)
        if result.boundary == "truncation-cap":
            at_cap += 1
            firsts = {d: shared for d, shared in reversed(tails)}
            assert result.params.__dict__["_tails"] is firsts[result.params.d]
            assert sum(d == result.params.d for d, _ in tails) > 1
    assert at_cap >= 3


def growth_histories():
    """Seeded growth histories, as failure times and read on the 32-point
    grid, their truths stratified over p1 in [0.01, 0.05] and d in
    [0.92, 0.96]."""
    rng = np.random.default_rng(2201)
    histories = []
    for seed in range(12):
        p1 = 0.01 + 0.04 * (seed + rng.random()) / 12
        d = 0.92 + 0.04 * rng.random()
        config = SimulationConfig(GeometricModelParams(p1, d), horizon=800, seed=2201 + seed)
        (simulated,) = simulate(config)
        counts = [simulated.count_at(t) for t in GRID]
        histories.append(simulated)
        histories.append(FailureDataset(tuple(zip(GRID.tolist(), counts)), f"grid-{seed}"))
    return histories


class TestFitEvaluationCount:
    """``diagnostics.evaluations`` is the number of objective evaluations the
    fit made, its start candidates and both runs of a two-run fit included:
    each one sums the mean (``_mean_terms``) once, unless its p1 or d rounds
    out of (0, 1) and it is refused before any sum.
    ``nonfinite_evaluations`` is the number of those refused probes plus
    the probes whose sum of squares is not finite, and
    ``jacobian_evaluations`` the number of derivatives calls, each of which
    forms the intensity sums once."""

    histories = {
        "growth": forward_dataset(GeometricModelParams(0.05, 0.95), GRID),
        "constant-rate": constant_rate_history(0.05),
        "saturated": FailureDataset(((6.0, 220), (605860300011.447, 596)), "saturated"),
        "two-basin": two_basin_history(),
    }

    @pytest.mark.parametrize("name", list(histories))
    def test_counts_equal_the_sums_made(self, monkeypatch, loop_runs, name):
        calls = {"_mean_terms": 0, "_intensity_sums": 0, "nonfinite_sums": 0}
        ds = self.histories[name]
        _, log_counts, _ = ds._usable_points()

        def counted(fn_name):
            original = getattr(estimation, fn_name)

            def wrapper(*args):
                calls[fn_name] += 1
                result = original(*args)
                if fn_name == "_mean_terms":
                    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                        r = log_counts - np.log(result[0])
                        calls["nonfinite_sums"] += not math.isfinite(float(r @ r))
                return result

            return wrapper

        for fn_name in ("_mean_terms", "_intensity_sums"):
            monkeypatch.setattr(estimation, fn_name, counted(fn_name))
        diag = fit(ds).diagnostics
        refused = sum(run.refused for run in loop_runs)
        assert diag.evaluations == calls["_mean_terms"] + refused
        assert diag.jacobian_evaluations == calls["_intensity_sums"]
        assert diag.nonfinite_evaluations == refused + calls["nonfinite_sums"]
        if name == "saturated":
            assert refused > 0


class TestNoGrowthStart:
    """Deterministic counts of the two-candidate start: a history without
    growth starts on the d bound and ends there in a few evaluations, and
    a growth history keeps the growth start and the loop's floats."""

    def test_constant_rate_fits_start_and_end_on_the_bound(self, loop_runs):
        evaluations = []
        for rate in (0.04 + 0.06 * (np.arange(20) + 0.5) / 20).tolist():
            result = fit(constant_rate_history(rate))
            assert result.boundary == "truncation-cap", rate
            assert result.converged, rate
            assert loop_runs[-1].start[1] == -estimation._MAX_DECAY_LOGIT, rate
            evaluations.append(result.diagnostics.evaluations)
        # From the growth start alone they took 17 evaluations at the median.
        assert float(np.median(evaluations)) <= 6

    def test_growth_fits_equal_the_reference_from_the_growth_start(self, loop_runs):
        for ds in growth_histories():
            fitted = fit(ds)
            (run,) = loop_runs
            loop_runs.clear()
            times, log_counts, _ = ds._usable_points()
            p1_start = estimation._initial_p1(float(times[-1]), float(math.exp(log_counts[-1])))
            assert run.start == [estimation._logit(p1_start), -estimation._logit(0.94)], ds.label
            reference = reference_on_negated(run.objective, run.derivatives, run.start, run.lower)
            _assert_same([(run.best, run.result), reference], signed_zeros=False)
            best, result = reference
            # The bound candidate, when the screen lets it be probed, is the
            # one evaluation the fit adds to the loop's.
            extra = fitted.diagnostics.evaluations - result.evaluations
            assert extra in (0, 1), ds.label
            assert fitted.diagnostics == dataclasses.replace(
                result, evaluations=result.evaluations + extra
            ), ds.label
            assert (fitted.params.p1, fitted.params.d) == (
                estimation._expit(best[0]), estimation._expit(-best[1])
            )

    @pytest.mark.parametrize(
        "points, boundary",
        [
            (((373611.4763673414, 2025828), (525929889.8679433, 701534667)), "saturated-rate"),
            (((142.90885093928463, 17235314948830), (1276439968.515827, 42129848259582)),
             "truncation-cap"),
        ],
    )
    def test_a_clipped_growth_start_is_the_only_candidate(self, loop_runs, points, boundary):
        # Counts that the mean at d = 0.94 cannot reach clip the growth
        # start's p1 at 1/2.  The bound candidate is then not probed: on the
        # first history it would end the fit on the cap instead of the
        # saturated corner, on the second its p1 would pass 1.
        fitted = fit(FailureDataset(points))
        (run,) = loop_runs
        assert run.start == [estimation._logit(0.5), -estimation._logit(0.94)]
        assert fitted.diagnostics == run.result
        assert fitted.boundary == boundary

    def test_a_search_that_probes_off_the_bound_restarts_from_the_growth_start(
        self, loop_runs
    ):
        # The bound candidate has the lower objective here, but a search
        # from it leaves the bound for a worse basin (objective 0.7799, near
        # p1 = 0.86 and d = 1e-4).  It is abandoned at its first probe off
        # the bound, and the fit is the growth start's search, which ends
        # at 0.7133 as it did when that start was the only one.
        fitted = fit(two_basin_history())
        abandoned, run = loop_runs
        assert abandoned.start[1] == -estimation._MAX_DECAY_LOGIT
        assert abandoned.result is None
        assert run.start[1] == -estimation._logit(0.94)
        best, growth = run.best, run.result
        assert fitted.objective_value == growth.value
        assert fitted.objective_value == pytest.approx(0.7133040226312284, rel=1e-12)
        assert (fitted.params.p1, fitted.params.d) == (
            estimation._expit(best[0]), estimation._expit(-best[1])
        )
        # The bound candidate and the abandoned search are counted too.
        diag = fitted.diagnostics
        assert diag.evaluations > growth.evaluations
        assert diag.jacobian_evaluations > growth.jacobian_evaluations
        assert diag == dataclasses.replace(
            growth,
            evaluations=diag.evaluations,
            jacobian_evaluations=diag.jacobian_evaluations,
        )


class TestSharedUsableArrays:
    """A prefix slices its usable points from its history's, built once;
    they equal, bit for bit, those of the prefix built as a history of its
    own, whichever prefixes were read, and models fitted, before."""

    zero_led = [
        [0, 0, 3, 3, 8, 9, 9, 14, 2**62, 2**63 - 1],
        [0, 0, 0, 1, 1, 2, 5, 5, 6],
        [0, 1, 1],
        [0, 0, 0],
    ]

    @pytest.fixture(scope="class")
    def histories(self, gate_histories) -> list[tuple]:
        """The points of each history: the gate histories, and histories
        that start with zero counts."""
        return [ds.points for ds in gate_histories] + [
            tuple((2.5 * (i + 1), c) for i, c in enumerate(counts)) for counts in self.zero_led
        ]

    @staticmethod
    def usable(ds):
        """The history's usable points as cached, and as a fit checks them
        (or the reason it refuses them)."""
        try:
            checked = estimation._usable_arrays(ds, fewest=2)
        except ValueError as exc:
            checked = str(exc)
        return ds._usable_points(), checked

    @staticmethod
    def assert_same(live, rebuilt):
        for got, expected in zip(live, rebuilt):
            assert type(got) is type(expected)
            if isinstance(expected, str):
                assert got == expected
                continue
            for arr, built in zip(got[:2], expected[:2]):
                assert arr.dtype == built.dtype == float
                assert arr.tobytes() == built.tobytes()
                assert not arr.flags.writeable
            assert got[2] == expected[2]

    @pytest.mark.parametrize("order", ["rising", "falling", "history-first", "nested"])
    def test_prefix_arrays_equal_the_rebuilt_history(self, histories, order):
        for points in histories:
            ds = FailureDataset(points)
            lengths = list(range(1, len(points) + 1))
            if order == "falling":
                lengths.reverse()
            if order == "history-first":
                self.usable(ds)
            for n in lengths:
                sub = ds.prefix(len(points)).prefix(n) if order == "nested" else ds.prefix(n)
                self.assert_same(self.usable(sub), self.usable(FailureDataset(points[:n])))

    def test_fits_leave_the_arrays_as_built(self, histories):
        for points in histories[::4] + histories[-len(self.zero_led):]:
            ds = FailureDataset(points)
            for n in range(1, len(points) + 1):
                sub = ds.prefix(n)
                for name in ("geometric", "musa-basic", "musa-okumoto", "nhpp"):
                    try:
                        fit_model(name, sub)
                    except FitError:
                        pass
                    rebuilt = FailureDataset(points[:n])
                    self.assert_same(self.usable(sub), self.usable(rebuilt))
                    self.assert_same(self.usable(ds.prefix(n)), self.usable(rebuilt))

    def test_too_few_usable_points_still_raise(self):
        ds = FailureDataset(tuple((2.5 * (i + 1), c) for i, c in enumerate(self.zero_led[1])))
        with pytest.raises(ValueError, match="^no usable points: every cumulative count is zero$"):
            estimation._usable_arrays(ds.prefix(3))
        with pytest.raises(ValueError, match="^need at least 2 usable points to fit, got 1$"):
            estimation._usable_arrays(ds.prefix(4), fewest=2)
        for n, message in [(3, "no usable points"), (4, "need at least 2 usable points")]:
            for name in ("geometric", "musa-basic", "musa-okumoto", "nhpp"):
                with pytest.raises(FitError, match=f"^{name}: {message}"):
                    fit_model(name, ds.prefix(n))
        times, log_counts, skipped = estimation._usable_arrays(ds.prefix(6), fewest=2)
        assert times.tolist() == [10.0, 12.5, 15.0] and skipped == 3
        assert log_counts.tolist() == [0.0, 0.0, math.log(2.0)]


class TestDecayBound:
    def test_bound_is_the_largest_within_the_cap(self):
        cap = estimation.MAX_FIT_TRUNCATION
        d = 0.9986194028465246
        assert default_truncation(d) == cap < default_truncation(math.nextafter(d, 1.0))
        z = estimation._MAX_DECAY_LOGIT
        assert default_truncation(estimation._expit(z)) == cap
        assert default_truncation(estimation._expit(math.nextafter(z, math.inf))) > cap


class TestGeometricJacobian:
    """The fit's derivatives, ``J^T r`` and ``J^T J``, against those formed
    from central differences of the residuals in (logit p1, w = -logit d)
    at a fixed truncation N."""

    times = np.array([3.0, 40.0, 150.0, 400.0, 800.0])

    @pytest.mark.parametrize(
        "p1, d, series",
        # N = 270 and 684, summed directly; N = 5,000 and 10,000, a head
        # summed directly and a series tail.
        [
            (0.05, 0.95, False),
            (0.01, 0.98, False),
            (0.02, 0.99724, True),
            (5e-5, 0.9986194028465245, True),
        ],
    )
    def test_columns_match_central_differences(self, loop_runs, p1, d, series):
        ds = FailureDataset(tuple((float(t), k + 1) for k, t in enumerate(self.times)))
        fit(ds)
        run = loop_runs[-1]
        z = np.array([estimation._logit(p1), -estimation._logit(d)])
        n = default_truncation(estimation._expit(-z[1]))
        value = run.objective(z)
        gradient, hessian = run.derivatives(z)
        params = GeometricModelParams(estimation._expit(z[0]), estimation._expit(-z[1]), n)
        assert (n > DIRECT_SUM_MAX_TERMS) == series
        assert (model._series_head(params, float(self.times.max())) < n) == series

        def log_mean(z0, w):
            params = GeometricModelParams(estimation._expit(z0), estimation._expit(-w), n)
            return np.log(mean_failures(params, self.times))

        r = np.log(np.arange(1.0, 6.0)) - log_mean(z[0], z[1])
        assert value == pytest.approx(float(r @ r), rel=1e-13)
        h = 1e-5
        columns = [
            -(log_mean(z[0] + h, z[1]) - log_mean(z[0] - h, z[1])) / (2 * h),
            -(log_mean(z[0], z[1] + h) - log_mean(z[0], z[1] - h)) / (2 * h),
        ]
        np.testing.assert_allclose(gradient, [c @ r for c in columns], rtol=1e-6)
        np.testing.assert_allclose(
            hessian, [[a @ b for b in columns] for a in columns], rtol=1e-6
        )

        # The p1 column is -(1 - p1) t lambda(t) / mu(t).
        column = (
            -(1.0 - params.p1) * self.times * failure_intensity(params, self.times)
            / mean_failures(params, self.times)
        )
        assert gradient[0] == pytest.approx(float(column @ r), rel=1e-13)
        assert hessian[0][0] == pytest.approx(float(column @ column), rel=1e-13)
