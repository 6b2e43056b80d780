import math
from pathlib import Path

import numpy as np
import pytest

from geomrel.comparison import (
    ALL_MODEL_NAMES,
    ClosedFormModel,
    GeometricRates,
    LittlewoodVerrall,
    LittlewoodVerrallParams,
    fit_model,
)
from geomrel.data import FailureDataset, parse_dataset
from geomrel.errors import FitError, PredictionError
from geomrel.estimation import OptimizerConfig, nelder_mead
from geomrel.model import GeometricModelParams, mean_failures
from geomrel.simulation import SimulationConfig, simulate

REPO_DATA = Path(__file__).resolve().parent.parent / "data"
CLOSED_FORM_NAMES = ("musa-basic", "musa-okumoto", "nhpp")


def rounded_mean_dataset(fitted, times, label):
    points = tuple((float(t), int(round(fitted.predict_mean(float(t))))) for t in times)
    return FailureDataset(points, label)


class TestMeanFunctions:
    def test_musa_basic_hand_values(self):
        model = ClosedFormModel("musa-basic", (100.0, 0.01))
        assert model.predict_mean(0.0) == 0.0
        assert model.predict_mean(100.0) == pytest.approx(100 * (1 - math.exp(-1)))
        assert model.predict_mean(1e9) == pytest.approx(100.0)

    def test_musa_okumoto_hand_values(self):
        model = ClosedFormModel("musa-okumoto", (10.0, 0.1))
        assert model.predict_mean(0.0) == 0.0
        assert model.predict_mean(10.0) == pytest.approx(10 * math.log(11.0))

    def test_musa_okumoto_initial_slope_is_lambda0(self):
        model = ClosedFormModel("musa-okumoto", (10.0, 0.1))
        h = 1e-8
        slope = model.predict_mean(h) / h
        assert slope == pytest.approx(10.0, rel=1e-6)

    def test_musa_okumoto_unbounded(self):
        lambda0, theta = 10.0, 0.1
        model = ClosedFormModel("musa-okumoto", (lambda0, theta))
        for target in (1e2, 1e3, 5e3):
            t = (math.exp(theta * target) - 1) / (lambda0 * theta)
            assert model.predict_mean(t * 1.01) > target

    def test_nhpp_hand_values(self):
        model = ClosedFormModel("nhpp", (50.0, 0.02))
        assert model.predict_mean(0.0) == 0.0
        assert model.predict_mean(50.0) == pytest.approx(50 * (1 - math.exp(-1)))

    def test_nhpp_defining_ode(self):
        # Detections in a small interval are proportional to the faults
        # still undetected: m'(t) = b (a - m(t)).
        a, b = 50.0, 0.02
        model = ClosedFormModel("nhpp", (a, b))
        h = 1e-4
        for t in (0.5, 10.0, 80.0):
            derivative = (model.predict_mean(t + h) - model.predict_mean(t - h)) / (2 * h)
            assert derivative == pytest.approx(b * (a - model.predict_mean(t)), abs=1e-6)

    def test_musa_basic_and_nhpp_coincide_pointwise(self):
        mb = ClosedFormModel("musa-basic", (80.0, 0.03))
        nh = ClosedFormModel("nhpp", (80.0, 0.03))
        grid = np.linspace(0.0, 500.0, 64)
        assert np.allclose(mb.predict_mean(grid), nh.predict_mean(grid), rtol=0, atol=0)

    def test_means_monotone_and_zero_at_origin(self):
        grid = np.linspace(0.0, 400.0, 128)
        curves = [
            ClosedFormModel("musa-basic", (60.0, 0.02)).predict_mean(grid),
            ClosedFormModel("musa-okumoto", (5.0, 0.05)).predict_mean(grid),
            ClosedFormModel("nhpp", (90.0, 0.01)).predict_mean(grid),
        ]
        for vals in curves:
            assert vals[0] == 0.0
            assert np.all(np.diff(vals) >= 0)

    def test_bounds(self):
        grid = np.linspace(0.0, 1e5, 50)
        assert np.all(ClosedFormModel("musa-basic", (60.0, 0.02)).predict_mean(grid) <= 60.0)
        assert np.all(ClosedFormModel("nhpp", (90.0, 0.01)).predict_mean(grid) <= 90.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ClosedFormModel("musa-basic", (0.0, 0.1))
        with pytest.raises(ValueError):
            ClosedFormModel("musa-okumoto", (1.0, -0.1))
        with pytest.raises(ValueError):
            ClosedFormModel("nhpp", (-1.0, 0.1))
        with pytest.raises(ValueError, match="musa-basic"):
            ClosedFormModel("weibull", (1.0, 1.0))
        with pytest.raises(ValueError):
            LittlewoodVerrallParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LittlewoodVerrallParams(2.0, 0.0, 1.0)

    def test_prediction_time_validated(self):
        model = ClosedFormModel("nhpp", (50.0, 0.02))
        for bad in (-1.0, math.inf, math.nan, [1.0, -2.0]):
            with pytest.raises(ValueError, match="nhpp"):
                model.predict_mean(bad)


class TestLittlewoodVerrall:
    def test_expected_tbf_increases_with_quadratic_trend(self):
        params = LittlewoodVerrallParams(2.0, 10.0, 1.0)
        tbfs = [params.expected_tbf(i) for i in range(1, 30)]
        assert all(b > a for a, b in zip(tbfs, tbfs[1:]))

    def test_nearly_constant_trend_predicts_linearly(self):
        # With beta1 -> 0 the expected interval is essentially constant
        # beta0/(alpha-1), so the prediction grows linearly in t.
        params = LittlewoodVerrallParams(3.0, 10.0, 1e-12)
        model = LittlewoodVerrall(params)
        interval = 10.0 / 2.0
        assert model.predict_mean(0.0) == 0.0
        for k in (1.0, 7.5, 40.0):
            assert model.predict_mean(k * interval) == pytest.approx(k, rel=1e-6)

    def test_recovers_synthetic_parameters(self):
        # Hazards drawn from the gamma prior, intervals from the implied
        # exponentials; the marginal likelihood is flat, so the tolerance
        # on the shape is deliberately loose.
        rng = np.random.default_rng(99)
        alpha, beta0, beta1 = 2.0, 10.0, 1.0
        idx = np.arange(1, 201)
        lam = rng.gamma(shape=alpha, scale=1.0 / (beta0 + beta1 * idx**2))
        tbf = rng.exponential(1.0 / lam)
        fitted = LittlewoodVerrall.fit(FailureDataset.from_tbf(tbf, "lv"))
        assert fitted.params.alpha == pytest.approx(alpha, rel=0.25)

    def test_fit_predict_wrapper(self):
        rng = np.random.default_rng(5)
        tbf = rng.exponential(3.0, size=40)
        fitted = LittlewoodVerrall.fit(FailureDataset.from_tbf(tbf))
        assert fitted.params.beta0 > 0
        assert fitted.predict_mean(0.0) == 0.0
        grid = np.linspace(0.0, 100.0, 20)
        vals = [fitted.predict_mean(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_too_few_failures_rejected(self):
        ds = FailureDataset.from_tbf([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(FitError, match="at least 5"):
            LittlewoodVerrall.fit(ds)

    def test_alpha_at_most_one_refuses_prediction(self):
        model = LittlewoodVerrall(LittlewoodVerrallParams(0.9, 10.0, 1.0))
        with pytest.raises(PredictionError, match="alpha"):
            model.predict_mean(5.0)


class TestFitComparison:
    def test_musa_basic_self_consistency(self):
        true = ClosedFormModel("musa-basic", (100.0, 0.01))
        ds = rounded_mean_dataset(true, np.arange(10.0, 401.0, 10.0), "mb")
        fitted = fit_model("musa-basic", ds)
        assert fitted.params_dict()["beta0"] == pytest.approx(100.0, rel=0.05)

    def test_nhpp_loses_to_musa_okumoto_on_logarithmic_data(self):
        true = ClosedFormModel("musa-okumoto", (10.0, 0.1))
        ds = rounded_mean_dataset(true, np.arange(10.0, 501.0, 10.0), "mo")
        mo = fit_model("musa-okumoto", ds)
        nh = fit_model("nhpp", ds)
        assert nh.diagnostics.value > mo.diagnostics.value

    def test_unknown_name_listed(self):
        ds = FailureDataset(((1.0, 1), (2.0, 2)))
        with pytest.raises(ValueError, match="musa-basic"):
            fit_model("jelinski", ds)
        with pytest.raises(ValueError):
            ClosedFormModel("geometric", (0.5, 0.5))  # not a closed-form model

    def test_single_point_dataset_rejected(self):
        ds = FailureDataset(((1.0, 1),))
        with pytest.raises(FitError, match="musa-basic"):
            fit_model("musa-basic", ds)

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_history_without_failures_rejected(self, name):
        # A prefix whose counts are all zero has no usable point; the start,
        # which divides by the final count, must not be reached.
        ds = FailureDataset(((1.0, 0), (2.0, 0)))
        with pytest.raises(FitError, match=f"{name}: no usable points"):
            fit_model(name, ds)

    def test_registry_names(self):
        # This order is the order of evaluate's outputs.
        assert ALL_MODEL_NAMES == (
            "geometric",
            "musa-basic",
            "musa-okumoto",
            "littlewood-verrall",
            "nhpp",
        )

    def test_fit_model_covers_geometric(self):
        true = GeometricModelParams(0.05, 0.95)
        times = np.arange(10.0, 201.0, 10.0)
        points = tuple(
            (float(t), int(round(mean_failures(true, float(t))))) for t in times
        )
        fitted = fit_model("geometric", FailureDataset(points, "geo"))
        assert isinstance(fitted, GeometricRates)
        assert fitted.params.d == pytest.approx(0.95, abs=0.01)
        assert fitted.predict_mean(0.0) == 0.0
        with pytest.raises(ValueError, match="choose from"):
            fit_model("weibull", FailureDataset(points))

    def test_fit_is_deterministic(self):
        ds = rounded_mean_dataset(
            ClosedFormModel("musa-basic", (100.0, 0.01)), np.arange(10.0, 401.0, 10.0), "mb"
        )
        a = fit_model("musa-basic", ds)
        b = fit_model("musa-basic", ds)
        assert a.params == b.params

    def test_params_dict_keyed_by_parameter_names(self):
        ds = rounded_mean_dataset(
            ClosedFormModel("musa-basic", (100.0, 0.01)), np.arange(10.0, 401.0, 10.0), "mb"
        )
        expected = {"musa-basic": {"beta0", "beta1"}, "musa-okumoto": {"lambda0", "theta"},
                    "nhpp": {"a", "b"}}
        for name, keys in expected.items():
            fitted = fit_model(name, ds)
            assert fitted.model_name == name
            assert set(fitted.params_dict()) == keys
            assert tuple(fitted.params_dict().values()) == fitted.params


def reference_closed_form_fit(name, ds):
    """The closed-form fits as first written: one mean and one start per
    model, with each parameter exponentiated on its own."""
    mask = ds.counts >= 1
    times = ds.times[mask]
    log_counts = np.log(ds.counts[mask].astype(float))
    t_q = ds.final_time
    q = float(ds.final_count)
    if name == "musa-okumoto":
        theta0 = 1.0 / q
        lambda0 = math.expm1(theta0 * q) / (theta0 * t_q)
        start = np.log([lambda0, theta0])

        def mean(z, t):
            return np.log1p(np.exp(z[0]) * np.exp(z[1]) * t) / np.exp(z[1])
    else:
        start = np.log([q / -math.expm1(-1.0), 1.0 / t_q])

        def mean(z, t):
            return np.exp(z[0]) * -np.expm1(-np.exp(z[1]) * t)

    def objective(z):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = mean(z, times)
            if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
                return math.inf
            residuals = log_counts - np.log(mu)
            return float(residuals @ residuals)

    best, diag = nelder_mead(objective, OptimizerConfig(), start)
    vec = np.exp(best)
    return (float(vec[0]), float(vec[1])), diag


class TestClosedFormReference:
    """The table-driven fits reproduce the reference fits bit for bit."""

    @staticmethod
    def histories():
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        (simulated,) = simulate(
            SimulationConfig(GeometricModelParams(0.05, 0.95), horizon=400, seed=42)
        )
        return ntds, simulated

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_fit_equals_reference(self, name):
        for ds in self.histories():
            fitted = fit_model(name, ds)
            params, diag = reference_closed_form_fit(name, ds)
            assert fitted.params == params, ds.label
            assert fitted.diagnostics == diag, ds.label


class TestPredictInterface:
    def test_all_models_zero_at_origin_and_monotone(self):
        rng = np.random.default_rng(17)
        tbf = rng.exponential(5.0, size=60) * (1 + 0.05 * np.arange(60))
        ds = FailureDataset.from_tbf(tbf, "mixed")
        grid = np.linspace(0.0, ds.final_time * 1.5, 40)
        for name in ALL_MODEL_NAMES:
            fitted = fit_model(name, ds)
            values = [fitted.predict_mean(float(t)) for t in grid]
            assert values[0] == 0.0
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), name
