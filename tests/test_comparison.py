import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrel import comparison
from geomrel.comparison import (
    _LOG_FLOAT_MAX,
    _SERIES_SWITCH,
    ALL_MODEL_NAMES,
    ClosedFormModel,
    LittlewoodVerrall,
    LittlewoodVerrallParams,
    ReliabilityModel,
    _log1p_ratio_slopes,
    fit_model,
)
from geomrel.data import FailureDataset, parse_dataset
from geomrel.errors import FitError, PredictionError
from geomrel import estimation
from geomrel.estimation import FitResult, OptimizerResult, fit
from geomrel.evaluation import default_cut_points
from geomrel.model import GeometricModelParams, mean_failures
from exact_likelihood import fault_cdf, log_likelihood_small
from reference_simplex import SimplexRun, reference_nelder_mead
from regenerate_golden import prefixes as golden_prefixes

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
            LittlewoodVerrallParams(math.inf, 1.0, 1.0)  # alpha = 0
        with pytest.raises(ValueError):
            LittlewoodVerrallParams(-0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            LittlewoodVerrallParams(0.5, 0.0, 0.5)

    def test_prediction_time_validated(self):
        model = ClosedFormModel("nhpp", (50.0, 0.02))
        for bad in (-1.0, math.inf, math.nan, [1.0, -2.0]):
            with pytest.raises(ValueError, match="nhpp"):
                model.predict_mean(bad)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
@given(
    first=st.floats(1e-3, 1e6),
    second=st.floats(1e-9, 10.0),
    t=st.one_of(st.just(0.0), st.floats(0.0, 1e9)),
)
@settings(max_examples=150, deadline=None)
def test_scalar_read_is_element_zero_of_the_array_read(name, first, second, t):
    """A scalar time skips the array checks, and its read is a float
    equal, bit for bit, to element 0 of the read at ``[t]``."""
    model = ClosedFormModel(name, (first, second))
    value = model.predict_mean(t)
    assert type(value) is float
    assert same_bits(value, model.predict_mean(np.array([t]))[0])


@pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
@pytest.mark.parametrize("t", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
def test_scalar_read_refused_like_the_array_read(name, t):
    model = ClosedFormModel(name, (50.0, 0.02))
    messages = []
    for read in (t, np.float64(t), np.array([t])):
        with pytest.raises(ValueError) as refused:
            model.predict_mean(read)
        messages.append(str(refused.value).split(", got ")[0])
    assert messages == [f"{name}: predict_mean requires finite t >= 0.0"] * 3


# Every reader of a time checks it with model._checked_times, and refuses a
# bad one with a ValueError that names the reader.
_TIME_READERS = {
    "geometric": (
        FitResult(GeometricModelParams(0.05, 0.95), None, 0).predict_mean,
        "mean_failures",
    ),
    **{
        name: (ClosedFormModel(name, (50.0, 0.02)).predict_mean, f"{name}: predict_mean")
        for name in CLOSED_FORM_NAMES
    },
    "littlewood-verrall": (
        LittlewoodVerrall(LittlewoodVerrallParams(0.5, 5.0, 0.5)).predict_mean,
        "littlewood-verrall: predict_mean",
    ),
    "fault_cdf": (lambda t: fault_cdf(0.5, t), "fault_cdf"),
    "log_likelihood_small": (
        lambda t: log_likelihood_small(GeometricModelParams(0.5, 0.5, 2), 1, t),
        "log_likelihood_small",
    ),
}


@pytest.mark.parametrize("reader", sorted(_TIME_READERS))
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
def test_every_time_reader_refuses_a_bad_time(reader, t):
    read, caller = _TIME_READERS[reader]
    with pytest.raises(ValueError) as refused:
        read(t)
    assert str(refused.value) == f"{caller} requires finite t >= 0.0, got {t!r}"


@pytest.mark.parametrize("reader", ["littlewood-verrall", "fault_cdf", "log_likelihood_small"])
def test_scalar_readers_refuse_an_array_time(reader):
    read, caller = _TIME_READERS[reader]
    for t in (np.array([3.0]), np.array([1.0, 2.0]), np.zeros((1, 1))):
        with pytest.raises(ValueError) as refused:
            read(t)
        assert str(refused.value) == f"{caller} requires a scalar t"
    assert read(np.float64(3.0)) == read(np.array(3.0)) == read(3) == read(3.0)


_NO_FAILURES = FailureDataset(((1.0, 0), (2.0, 0)))
_ONE_POINT = FailureDataset(((10.0, 3),))
_SUBNORMAL = FailureDataset.from_tbf([5e-324, 1e-323, 1.5e-323, 2e-323, 3e-323, 4e-323])
_FAR_APART = FailureDataset(((1e-300, 1), (1e300, 2)))


# fit_model's refusals, each with its full text.
FIT_REFUSALS = [
    ("geometric", _NO_FAILURES, "no usable points: every cumulative count is zero"),
    ("musa-basic", _NO_FAILURES, "no usable points: every cumulative count is zero"),
    ("musa-okumoto", _NO_FAILURES, "no usable points: every cumulative count is zero"),
    ("nhpp", _NO_FAILURES, "no usable points: every cumulative count is zero"),
    ("littlewood-verrall", _NO_FAILURES, "needs at least 5 failures, got 0"),
    ("geometric", _ONE_POINT, "need at least 2 usable points to fit, got 1"),
    ("musa-okumoto", _ONE_POINT, "need at least 2 usable points to fit, got 1"),
    (
        "littlewood-verrall",
        FailureDataset.from_tbf([1.0, 2.0, 3.0, 4.0]),
        "needs at least 5 failures, got 4",
    ),
    (
        "littlewood-verrall",
        _SUBNORMAL,
        "the start's mean interval 2e-323 is not a positive normal float; "
        "the intervals are too small to fit",
    ),
    ("musa-basic", _SUBNORMAL, "objective is not finite at the start"),
    ("musa-okumoto", _FAR_APART, "objective is not finite at the start"),
    ("nhpp", _FAR_APART, "objective is not finite at the start"),
    ("geometric", FailureDataset(((5e-324, 1), (1.0, 2))), "objective is not finite at the start"),
]


@pytest.mark.parametrize("name, ds, reason", FIT_REFUSALS)
def test_fit_model_alone_names_the_refusal(name, ds, reason):
    """fit_model refuses with a FitError that names the model; the route
    it calls refuses with a ValueError that gives the bare reason."""
    with pytest.raises(FitError) as refused:
        fit_model(name, ds)
    assert str(refused.value) == f"{name}: {reason}"
    route = {"geometric": fit, "littlewood-verrall": LittlewoodVerrall.fit}.get(
        name, lambda ds: ClosedFormModel.fit(name, ds)
    )
    with pytest.raises(ValueError) as bare:
        route(ds)
    assert str(bare.value) == reason


# Histories that start at subnormal times, where a closed-form level can
# overflow.
_SUBNORMAL_STARTS = [
    FailureDataset(((5e-324, 1), (1.0, 2)), "subnormal-pair"),
    FailureDataset(
        tuple((1e-310 * i, i) for i in range(1, 101)) + ((1.0, 101),), "subnormal-run"
    ),
]


@pytest.mark.parametrize("ds", _SUBNORMAL_STARTS, ids=lambda ds: ds.label)
@pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
def test_closed_form_fit_is_finite_or_refused(name, ds):
    """A closed-form fit has finite parameters and a finite mean, or
    fit_model refuses it: Musa-Okumoto's level overflows on both histories.
    Musa basic's rate, finite at 1.8e308 or 5.7e307, stands."""
    if name == "musa-okumoto":
        with pytest.raises(FitError, match=r"^musa-okumoto: musa-okumoto parameters must be "
                           r"finite and positive, got \(inf, "):
            fit_model(name, ds)
        return
    fitted = fit_model(name, ds)
    assert all(0.0 < p < math.inf for p in fitted.params)
    assert math.isfinite(fitted.predict_mean(ds.final_time))


@pytest.mark.parametrize("params", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, 0.0)])
def test_closed_form_model_refuses_params_that_are_not_finite_and_positive(params):
    with pytest.raises(ValueError, match="^nhpp parameters must be finite and positive, got"):
        ClosedFormModel("nhpp", params)


def loop_prediction(params, t):
    """Littlewood-Verrall prediction by accumulating expected intervals
    one failure at a time."""
    if t == 0:
        return 0.0
    covered = 0.0
    i = 1
    while True:
        interval = params.expected_tbf(i)
        if covered + interval >= t:
            return (i - 1) + (t - covered) / interval
        covered += interval
        i += 1


def lv_terms(params, tbf):
    """Per-interval negative log marginal likelihood, in plain floats."""
    u = params.inverse_shape
    terms = []
    for i, t in enumerate(tbf, start=1):
        s = params.scale0 + params.scale1 * i * i
        ratio = t / s
        x = u * ratio
        terms.append(math.log(s) + (1.0 + u) * ratio * (math.log1p(x) / x if x > 0 else 1.0))
    return terms


class TestLittlewoodVerrall:
    def test_expected_tbf_increases_with_quadratic_trend(self):
        params = LittlewoodVerrallParams(0.5, 5.0, 0.5)
        tbfs = [params.expected_tbf(i) for i in range(1, 30)]
        assert all(b > a for a, b in zip(tbfs, tbfs[1:]))

    def test_nearly_constant_trend_predicts_linearly(self):
        # With scale1 -> 0 the expected interval is essentially constant
        # scale0/(1 - u), so the prediction grows linearly in t.
        params = LittlewoodVerrallParams(1.0 / 3.0, 10.0 / 3.0, 1e-12 / 3.0)
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
        assert 1.0 / fitted.params.inverse_shape == pytest.approx(alpha, rel=0.25)

    def test_fit_predict_wrapper(self):
        rng = np.random.default_rng(5)
        tbf = rng.exponential(3.0, size=40)
        fitted = LittlewoodVerrall.fit(FailureDataset.from_tbf(tbf))
        assert fitted.params.scale0 > 0
        assert fitted.predict_mean(0.0) == 0.0
        grid = np.linspace(0.0, 100.0, 20)
        vals = [fitted.predict_mean(t) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_too_few_failures_rejected(self):
        # The route refuses with the bare reason; fit_model names the model.
        ds = FailureDataset.from_tbf([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="^needs at least 5 failures, got 4$"):
            LittlewoodVerrall.fit(ds)
        with pytest.raises(FitError, match="^littlewood-verrall: needs at least 5"):
            fit_model("littlewood-verrall", ds)

    def test_underflowing_start_refused(self):
        # Subnormal intervals: the start's scale0 would be their subnormal
        # mean, whose logarithm has lost its digits.
        ds = FailureDataset.from_tbf([5e-324, 1e-323, 1.5e-323, 2e-323, 3e-323, 4e-323])
        with pytest.raises(FitError) as refused:
            fit_model("littlewood-verrall", ds)
        assert str(refused.value) == (
            "littlewood-verrall: the start's mean interval 2e-323 is not a positive normal "
            "float; the intervals are too small to fit"
        )

    @pytest.mark.parametrize("interval", [3.0, 3e-308])
    def test_equal_intervals_converge_at_the_start(self, interval):
        # The start is the nested exponential model's optimum, u = scale1 =
        # 0 and scale0 the mean interval; equal intervals show neither
        # varying hazards nor a trend, so the fit ends where it starts.  At
        # 3e-308 half the earlier start's intercept was subnormal, and that
        # start was refused.
        ds = FailureDataset.from_tbf([interval] * 12)
        fitted = LittlewoodVerrall.fit(ds)
        assert_converged_at_the_start(fitted, ds)

    def test_fit_counts_over_the_golden_histories(self):
        # A deterministic count gate over every Littlewood-Verrall fit of
        # the objective gate's prefixes (298 fits): 6.49 evaluations and
        # 4.67 gradient-and-Hessian passes in the mean, where the earlier
        # moment-style start took 11.73 and 9.39.
        evaluations, passes = [], []
        for _, _, ds in golden_prefixes():
            if ds.time_between_failures().size < LittlewoodVerrall.min_failures:
                continue
            diagnostics = LittlewoodVerrall.fit(ds).diagnostics
            evaluations.append(diagnostics.evaluations)
            passes.append(diagnostics.jacobian_evaluations)
        assert len(evaluations) == 298
        assert sum(evaluations) / len(evaluations) <= 7.0
        assert sum(passes) / len(passes) <= 5.0

    def test_alpha_at_most_one_refuses_prediction(self):
        model = LittlewoodVerrall(LittlewoodVerrallParams(1.0 / 0.9, 10.0 / 0.9, 1.0 / 0.9))
        with pytest.raises(PredictionError, match="alpha"):
            model.predict_mean(5.0)

    def test_exponential_limit_is_a_finite_point(self):
        # u = 0 and scale1 = 0: exponential intervals with constant mean.
        params = LittlewoodVerrallParams(0.0, 4.0, 0.0)
        assert LittlewoodVerrall(params).boundary == "exponential-limit"
        assert LittlewoodVerrall(LittlewoodVerrallParams(1e-6, 4.0, 0.0)).boundary is None
        assert params.expected_tbf(3) == 4.0


def assert_converged_at_the_start(fitted, ds: FailureDataset) -> None:
    """The fit converged at its first point, the nested exponential model's
    optimum: one evaluation, one gradient-and-Hessian pass, u = scale1 = 0
    and scale0 the mean interval through its logarithm."""
    mean = float(np.mean(ds.time_between_failures()))
    assert fitted.diagnostics.converged, ds
    assert fitted.diagnostics.evaluations == 1, ds
    assert fitted.diagnostics.jacobian_evaluations == 1, ds
    assert fitted.params == LittlewoodVerrallParams(0.0, math.exp(math.log(mean)), 0.0), ds


class TestLittlewoodVerrallPrediction:
    PARAMS = (
        LittlewoodVerrallParams(0.5, 5.0, 0.5),
        LittlewoodVerrallParams(0.27361907936598856, 5.276616322923474, 0.0049848215837968385),
        LittlewoodVerrallParams(0.0, 5.7126652289885484, 0.005459348864276504),
        LittlewoodVerrallParams(0.9, 0.01, 3.0),
        LittlewoodVerrallParams(0.1, 2.0, 0.0),
    )

    def test_flat_trend_is_linear_at_long_horizons(self):
        u, s0 = 0.25, 3.7
        model = LittlewoodVerrall(LittlewoodVerrallParams(u, s0, 0.0))
        for t in (1e12, 1e200):
            assert model.predict_mean(t) == pytest.approx(t * (1.0 - u) / s0, rel=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_matches_interval_loop(self, params):
        model = LittlewoodVerrall(params)
        grid = np.concatenate([np.linspace(0.0, 50.0, 41), np.geomspace(1e-3, 2e4, 60)])
        for t in grid:
            expected = loop_prediction(params, float(t))
            assert model.predict_mean(float(t)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("params", PARAMS)
    def test_zero_at_origin_and_never_decreasing(self, params):
        model = LittlewoodVerrall(params)
        assert model.predict_mean(0.0) == 0.0
        # Dense grid plus every interval boundary and its float neighbours.
        ends = [params.expected_time_to(n) for n in range(1, 60)]
        grid = sorted(
            {0.0, *np.linspace(0.0, ends[-1], 997).tolist(), *ends,
             *(math.nextafter(e, 0.0) for e in ends), *(math.nextafter(e, math.inf) for e in ends)}
        )
        values = [model.predict_mean(t) for t in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert [model.predict_mean(e) for e in ends] == pytest.approx(range(1, 60), rel=1e-12)

    @pytest.mark.parametrize(
        "params, t",
        [
            (LittlewoodVerrallParams(0.0, 1e-300, 0.0), 1e10),
            (LittlewoodVerrallParams(0.0, 1e-300, 0.0), 1e300),
            (LittlewoodVerrallParams(0.0, 1e-10, 0.0), 1e300),
            (LittlewoodVerrallParams(0.5, 1e-300, 0.0), 1e300),
            (LittlewoodVerrallParams(0.0, 1.0, 1.0), 1e308),
        ],
    )
    def test_overflowing_sums_refused(self, params, t):
        # At scale1 = 0 the count at t exceeds the largest float and the
        # sum turns nan (0 * inf); at scale1 = 1 the sum n(n+1)(2n+1)/6
        # overflows near t = 1e308 although the count (6.7e102) would not.
        with pytest.raises(PredictionError, match="overflows"):
            LittlewoodVerrall(params).predict_mean(t)

    def test_finite_sums_near_float_range_predict(self):
        model = LittlewoodVerrall(LittlewoodVerrallParams(0.0, 1.0, 1.0))
        assert model.predict_mean(1e307) == pytest.approx((3e307) ** (1 / 3), rel=1e-12)


    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 0.99),
        st.floats(1e-3, 1e3),
        st.one_of(st.just(0.0), st.floats(1e-6, 1e2)),
        st.integers(1, 10**9),
    )
    def test_never_decreasing_across_interval_ends(self, u, scale0, scale1, n):
        # Around the expected time to failure n the prediction passes n;
        # rounding must not make it step back there.
        model = LittlewoodVerrall(LittlewoodVerrallParams(u, scale0, scale1))
        end = model.params.expected_time_to(n)
        around = (math.nextafter(end, 0.0), end, math.nextafter(end, math.inf))
        values = [model.predict_mean(t) for t in around]
        assert values[0] <= values[1] <= values[2]
        assert values[1] == pytest.approx(n, rel=1e-12)


class TestLittlewoodVerrallOnNtds:
    # The negative log marginal likelihood at the parameters the earlier
    # fit in (log alpha, log beta0, log beta1) reached on each distinct
    # NTDS prefix (keyed by failure count), computed at 50 digits.  That
    # fit stopped on its 4,000-iteration budget on every prefix but the
    # full history.
    EARLIER_NLL = {
        7: 20.762790451077282,
        8: 23.848011885178221,
        11: 31.512631503549787,
        13: 36.292874735101616,
        16: 43.987197879992593,
        18: 48.502723089607817,
        20: 53.164561957098357,
        21: 56.890423215196971,
        22: 63.718690314211058,
        23: 67.030321398639570,
        26: 81.319942560066518,
    }

    @pytest.fixture(scope="class")
    def fits(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        prefixes = {
            n: FailureDataset(ntds.points[:n], ntds.label, ntds.native_unit)
            for n in self.EARLIER_NLL
        }
        harness_prefixes = {
            int(np.searchsorted(ntds.times, t, side="right")) for t in default_cut_points(ntds)
        }
        assert harness_prefixes == set(prefixes)
        return {n: (sub, LittlewoodVerrall.fit(sub)) for n, sub in prefixes.items()}

    def test_every_prefix_converges(self, fits):
        for n, (_, fitted) in fits.items():
            assert fitted.diagnostics.converged, n
            assert fitted.diagnostics.iterations <= 200, n

    def test_no_worse_than_earlier_fit(self, fits):
        for n, (_, fitted) in fits.items():
            assert fitted.diagnostics.value <= self.EARLIER_NLL[n] + 1e-9, n

    def test_value_is_the_likelihood_at_the_fitted_params(self, fits):
        for n, (sub, fitted) in fits.items():
            terms = lv_terms(fitted.params, sub.time_between_failures().tolist())
            assert fitted.diagnostics.value == pytest.approx(math.fsum(terms), rel=1e-12), n

    def test_exponential_prefixes_converge_at_the_start(self, fits):
        # Prefixes 7 to 21 show neither varying hazards nor a trend.
        for n in (7, 8, 11, 13, 16, 18, 20, 21):
            sub, fitted = fits[n]
            assert_converged_at_the_start(fitted, sub)

    def test_diagnostics_x_reads_back_to_the_params(self, fits):
        # The loop searches (u, ln scale0, scale1 / mean interval).
        for n, (sub, fitted) in fits.items():
            u, log_scale0, trend = fitted.diagnostics.x
            scale = float(np.mean(sub.time_between_failures()))
            expected = LittlewoodVerrallParams(u, math.exp(log_scale0), trend * scale)
            assert fitted.params == expected, n

    def test_exponential_limit_named(self, fits):
        flagged = {n for n, (_, fitted) in fits.items() if fitted.boundary == "exponential-limit"}
        assert flagged == {7, 8, 11, 13, 16, 18, 20, 21, 22, 23}
        full = fits[26][1]
        assert full.boundary is None
        assert full.params.inverse_shape == pytest.approx(0.27, abs=0.01)
        assert set(full.params_dict()) == {"inverse_shape", "scale0", "scale1"}



def reference_lv_nelder_mead(ds: FailureDataset) -> SimplexRun:
    """The Littlewood-Verrall fit before the derivative route: the
    reference simplex over (sqrt u, ln scale0, sqrt scale1) on the same terms.

    It keeps its own copy of the fit's earlier moment-style start (the
    intervals regressed on i**2, u = 1/2, half the trend) on purpose: the
    fit now starts at its nested exponential model's optimum, and the gate
    then compares that fit with the old start's basin."""
    tbf = ds.time_between_failures()
    squared = np.square(np.arange(1, tbf.size + 1, dtype=float))

    def negative_log_likelihood(z):
        z0, z1, z2 = z.tolist()
        if abs(z1) > _LOG_FLOAT_MAX:
            return math.inf
        u, scale0, scale1 = z0 * z0, math.exp(z1), z2 * z2
        scales = scale0 + scale1 * squared
        ratios = tbf / scales
        x = u * ratios
        log1p_ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x > 0)
        return float((np.log(scales) + (1.0 + u) * ratios * log1p_ratio).sum())

    slope, intercept = np.polyfit(squared, tbf, 1)
    scale = float(np.mean(tbf))
    beta1_start = max(float(slope), 1e-6 * scale / squared[-1])
    beta0_start = max(float(intercept), 1e-3 * scale)
    start = np.array(
        [math.sqrt(0.5), math.log(beta0_start / 2.0), math.sqrt(beta1_start / 2.0)]
    )
    return reference_nelder_mead(negative_log_likelihood, start)[1]


def simulated_lv_histories(count: int, seed: int) -> list[FailureDataset]:
    """Intervals drawn from the Littlewood-Verrall model itself: hazards
    from gamma priors with shape alpha and scale trend beta0 + beta1 i**2,
    intervals from the implied exponentials; 5 to 500 failures, alpha from
    0.7 (u > 1) to 200 (near the exponential limit), a third of the
    histories without trend."""
    rng = np.random.default_rng(seed)
    histories = []
    for k in range(count):
        n = int(rng.integers(5, 501)) if k % 3 else int(rng.integers(5, 40))
        alpha = float(rng.choice([0.7, 1.05, 1.5, 2.0, 5.0, 20.0, 200.0]))
        beta0 = float(10 ** rng.uniform(-2, 3))
        beta1 = float(beta0 * 10 ** rng.uniform(-6, -1)) if k % 3 else 0.0
        i = np.arange(1, n + 1)
        hazards = rng.gamma(shape=alpha, scale=1.0 / (beta0 + beta1 * i**2))
        histories.append(FailureDataset.from_tbf(rng.exponential(1.0 / hazards), f"lv-{k}"))
    return histories


class TestLittlewoodVerrallGate:
    """Objective gate: on every distinct NTDS prefix and on a seeded set of
    simulated Littlewood-Verrall histories, the fit's negative log
    likelihood is at most the reference simplex's, within 1e-12 of its
    magnitude (at least 1)."""

    @pytest.fixture(scope="class")
    def histories(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        prefixes = [
            FailureDataset(ntds.points[:n], f"ntds[:{n}]")
            for n in range(LittlewoodVerrall.min_failures, len(ntds.points) + 1)
        ]
        return prefixes + simulated_lv_histories(60, 1602)

    def test_fit_at_or_below_reference(self, histories):
        for ds in histories:
            fitted = LittlewoodVerrall.fit(ds)
            reference = reference_lv_nelder_mead(ds)
            assert fitted.diagnostics.converged, ds.label
            bound = reference.value + 1e-12 * max(1.0, abs(reference.value))
            assert fitted.diagnostics.value <= bound, ds.label
            terms = lv_terms(fitted.params, ds.time_between_failures().tolist())
            assert fitted.diagnostics.value == pytest.approx(math.fsum(terms), rel=1e-12)


class TestLittlewoodVerrallDerivatives:
    """The fit's half-gradient and half-Hessian in (u, ln scale0, scale1)
    against differences of its value and of its gradient: central ones,
    and one-sided ones of second order in u at u = 0, where the terms are
    only defined on one side."""

    @pytest.fixture(scope="class")
    def ntds(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            return parse_dataset(handle, "tbf_csv", label="ntds")

    @pytest.mark.parametrize(
        "z, straddles",
        [
            ((0.3, math.log(5.0), 0.005), True),
            ((0.01, math.log(5.0), 0.005), False),
            ((0.0, math.log(5.0), 0.005), False),
            ((0.3, math.log(5.0), 0.0), True),
            ((0.0, math.log(7.0), 0.0), False),
        ],
        ids=["interior", "interior-series-only", "u=0", "scale1=0", "both-zero"],
    )
    def test_against_differences(self, loop_runs, ntds, z, straddles):
        LittlewoodVerrall.fit(ntds)
        objective, derivatives = loop_runs[-1].objective, loop_runs[-1].derivatives
        tbf = ntds.time_between_failures()
        x = z[0] * tbf / (math.exp(z[1]) + z[2] * np.arange(1, tbf.size + 1) ** 2)
        # Whether the terms' x lie on both sides of the series switch.
        assert ((x < _SERIES_SWITCH).any() and (x >= _SERIES_SWITCH).any()) == straddles

        def at(point):
            point = np.array(point, dtype=float)
            value = objective(point)
            half_gradient, half_hessian = derivatives(point)
            return value, 2.0 * np.array(half_gradient), 2.0 * np.array(half_hessian)

        def moved(j, steps):
            point = list(z)
            point[j] += steps
            return at(point)

        centre, gradient, hessian = at(z)
        numeric_gradient = np.empty(3)
        numeric_hessian = np.empty((3, 3))
        for j, h in enumerate([1e-5, 1e-5, 1e-7]):
            if j == 0 and z[0] == 0.0:
                # (-3 f(0) + 4 f(h) - f(2h)) / 2h, with the gradient alike.
                (f1, g1, _), (f2, g2, _) = moved(0, h), moved(0, 2 * h)
                numeric_gradient[j] = (-3 * centre + 4 * f1 - f2) / (2 * h)
                numeric_hessian[:, j] = (-3 * gradient + 4 * g1 - g2) / (2 * h)
            else:
                (f_below, g_below, _), (f_above, g_above, _) = moved(j, -h), moved(j, h)
                numeric_gradient[j] = (f_above - f_below) / (2 * h)
                numeric_hessian[:, j] = (g_above - g_below) / (2 * h)
        np.testing.assert_allclose(gradient, numeric_gradient, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(
            hessian, numeric_hessian, rtol=1e-6, atol=1e-7 * np.abs(hessian).max()
        )
        np.testing.assert_array_equal(hessian, hessian.T)


def _power_series_slopes(x: float) -> tuple[float, float]:
    """L'(x) and L''(x) of L(x) = log1p(x)/x from its power series
    sum (-1)**k x**k / (k + 1), for 0 <= x <= 1/2."""
    slope = math.fsum((-1) ** k * k * x ** (k - 1) / (k + 1) for k in range(1, 80))
    bend = math.fsum((-1) ** k * k * (k - 1) * x ** (k - 2) / (k + 1) for k in range(2, 80))
    return slope, bend


class TestLog1pRatioSlopes:
    def test_zero_is_the_exponential_limit_constants(self):
        slope, bend = _log1p_ratio_slopes(np.zeros(1))
        assert slope[0] == -0.5
        assert bend[0] == pytest.approx(2.0 / 3.0, rel=2 ** -52)

    def test_series_branch_against_power_series(self):
        xs = np.concatenate([[1e-300, 1e-12], np.geomspace(1e-8, 0.5, 60)])
        slope, bend = _log1p_ratio_slopes(xs)
        for x, s, b in zip(xs.tolist(), slope.tolist(), bend.tolist()):
            reference_slope, reference_bend = _power_series_slopes(x)
            assert s == pytest.approx(reference_slope, rel=8 * 2 ** -52), x
            assert b == pytest.approx(reference_bend, rel=8 * 2 ** -52), x

    def test_series_branch_against_closed_forms(self):
        # From x = 1 on, the closed forms lose at most about ten ulps.
        xs = np.linspace(1.0, _SERIES_SWITCH, 40)
        slope, bend = _log1p_ratio_slopes(xs)
        closed_slope = (1.0 / (1.0 + xs) - np.log1p(xs) / xs) / xs
        closed_bend = -(1.0 / (1.0 + xs) ** 2 + 2.0 * closed_slope) / xs
        np.testing.assert_allclose(slope, closed_slope, rtol=1e-14)
        np.testing.assert_allclose(bend, closed_bend, rtol=1e-14)

    def test_continuous_across_the_switch(self):
        # L itself is log1p(x)/x on both sides: only its derivatives switch.
        # Each side is within about 5 ulps of the exact values there.
        below = math.nextafter(_SERIES_SWITCH, 0.0)
        xs = np.array([below, _SERIES_SWITCH, math.nextafter(_SERIES_SWITCH, 3.0)])
        for values in _log1p_ratio_slopes(xs):
            near, at, above = values.tolist()
            assert abs(near - at) <= 8 * math.ulp(at)
            assert abs(above - at) <= 8 * math.ulp(at)

    def test_mixed_array_takes_each_side(self):
        # Each x gets the same floats in any array, whatever its length.
        xs = np.array([0.0, 0.1, 1.9, 2.0, 7.0, 1e8])
        together = _log1p_ratio_slopes(xs)
        for i in range(xs.size):
            alone = _log1p_ratio_slopes(xs[i : i + 1])
            for mixed, single in zip(together, alone):
                assert mixed[i] == single[0]


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

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_history_without_growth_stops_at_the_linear_limit(self, name):
        # One failure every 25 incidents: the objective falls as the rate c
        # goes to 0, and the search stops on its bound c t_q = 1e-12 with
        # a finite level instead of wandering off.
        ds = FailureDataset(tuple((25.0 * c, c) for c in range(1, 33)), "flat")
        fitted = fit_model(name, ds)
        first, second = fitted.params
        rate = second if name != "musa-okumoto" else first * second
        assert rate * ds.final_time == pytest.approx(1e-12, rel=1e-9, abs=0.0)
        assert fitted.diagnostics.converged
        assert math.isfinite(first) and math.isfinite(second)
        assert fitted.predict_mean(ds.final_time) == pytest.approx(32.0, rel=1e-6)

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_flat_pair_fits_without_numpy_warnings(self, name):
        # Two points with the same count: Musa-Okumoto's search ends at a
        # rate so high that the shape's slope overflows, at the returned
        # point as at its probes, and no warning may escape the fit.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit_model(name, FailureDataset(((25.0, 3), (50.0, 3))))
        assert math.isfinite(fitted.diagnostics.value)

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
        assert isinstance(fitted, FitResult)
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
    """The closed-form fits as first written: the reference simplex over the
    log of each parameter, from a start that interpolates the final point."""
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

    best, run = reference_nelder_mead(objective, start)
    vec = np.exp(best)
    return (float(vec[0]), float(vec[1])), run


class TestClosedFormReference:
    """Objective gate: the variable-projection fits end at or below the
    reference simplex fits, within 1e-12, and report the objective at
    the parameters they return."""

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_fit_at_or_below_reference(self, name, gate_histories):
        for ds in gate_histories:
            fitted = fit_model(name, ds)
            _, run = reference_closed_form_fit(name, ds)
            assert fitted.diagnostics.converged, ds.label
            assert fitted.diagnostics.value <= run.value + 1e-12, ds.label
            mask = ds.counts >= 1
            residuals = np.log(ds.counts[mask].astype(float)) - np.log(
                fitted.predict_mean(ds.times[mask])
            )
            assert fitted.diagnostics.value == float(residuals @ residuals), ds.label


class TestVariableProjectionJacobian:
    """The closed-form fits' derivatives in ln c = -u, ``J^T r`` and
    ``J^T J`` for the centred residuals r, against those formed from
    central differences of those residuals."""

    @pytest.mark.parametrize("name", ["musa-basic", "musa-okumoto"])
    @pytest.mark.parametrize("u", [9.0, 5.0, 2.0])
    def test_matches_central_differences(self, loop_runs, name, u):
        times = np.array([5.0, 30.0, 90.0, 200.0, 420.0])
        counts = [2 * k + 1 for k in range(times.size)]
        fit_model(name, FailureDataset(tuple(zip(times.tolist(), counts))))
        run = loop_runs[-1]
        value = run.objective(np.array([-u]))
        (gradient,), ((curvature,),) = run.derivatives(np.array([-u]))

        def residuals(v):
            r = np.log(counts) - comparison._CLOSED_FORMS[name].log_shape(math.exp(v), times)[0]
            return r - r.mean()

        r = residuals(-u)
        assert value == pytest.approx(float(r @ r), rel=1e-12)
        h = 1e-5
        column = (residuals(-u + h) - residuals(-u - h)) / (2 * h)
        assert gradient == pytest.approx(float(column @ r), rel=1e-6)
        assert curvature == pytest.approx(float(column @ column), rel=1e-6)


class TestFitDiagnostics:
    def test_every_model_reports_one_record(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        for name in ALL_MODEL_NAMES:
            fitted = fit_model(name, ntds)
            assert isinstance(fitted.diagnostics, OptimizerResult), name
            assert fitted.diagnostics.optimizer == "levenberg-marquardt", name
            assert fitted.diagnostics.jacobian_evaluations > 0, name
            assert fitted.boundary in (
                None, "truncation-cap", "saturated-rate", "exponential-limit", "no-growth"
            ), name
        result = fit(ntds)
        geometric = fit_model("geometric", ntds)
        assert geometric.diagnostics == result.diagnostics
        assert geometric.boundary == result.boundary

    def test_geometric_boundary_names_the_truncation_cap(self):
        flat = FailureDataset(tuple((25.0 * c, c) for c in range(1, 33)), "flat")
        assert fit_model("geometric", flat).boundary == "truncation-cap"
        assert fit_model("musa-basic", flat).boundary == "no-growth"

    def test_geometric_boundary_names_the_saturated_rate(self):
        # The search runs into p1 -> 1 (1 - p1 is one float step), where the
        # residuals' derivative in logit p1 vanishes, and stops there.
        ds = FailureDataset(((6.0, 220), (605860300011.447, 596)), "saturated")
        fitted = fit_model("geometric", ds)
        assert 1.0 - fitted.params.p1 < estimation.SATURATED_RATE_GAP
        assert fitted.params.truncation < estimation.MAX_FIT_TRUNCATION
        assert fitted.converged
        assert fitted.boundary == "saturated-rate"
        assert fitted.to_dict()["boundary"] == "saturated-rate"

    def test_truncation_cap_named_before_the_saturated_rate(self):
        diagnostics = fit(FailureDataset(((1.0, 1), (2.0, 2)), "pair")).diagnostics
        gap = estimation.SATURATED_RATE_GAP
        both = GeometricModelParams(1.0 - gap / 2, 0.5, estimation.MAX_FIT_TRUNCATION)
        assert FitResult(both, diagnostics, 0).boundary == "truncation-cap"
        saturated = GeometricModelParams(1.0 - gap / 2, 0.5, 10)
        assert FitResult(saturated, diagnostics, 0).boundary == "saturated-rate"
        interior = GeometricModelParams(1.0 - 2 * gap, 0.5, 10)
        assert FitResult(interior, diagnostics, 0).boundary is None

    @pytest.mark.parametrize("name", CLOSED_FORM_NAMES)
    def test_closed_forms_name_their_no_growth_bound(self, name):
        # NTDS prefixes 5 to 25 end exactly on the bound c t_q = 1e-12 of
        # the rate; prefixes 2 to 4 and the whole history fit inside it.
        # The loop searches ln c, from which the fitted rate reads back.
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        for n in range(2, len(ntds) + 1):
            prefix = ntds.prefix(n)
            fitted = fit_model(name, prefix)
            (x0,) = fitted.diagnostics.x
            first, second = fitted.params
            if name == "musa-okumoto":
                assert math.exp(x0) == pytest.approx(first * second, rel=1e-14), n
            else:
                assert math.exp(x0) == second, n
            bound = math.log(comparison._LINEAR_LIMIT / prefix.final_time)
            on_bound = x0 == bound
            assert on_bound == (5 <= n <= 25), n
            assert fitted.boundary == ("no-growth" if on_bound else None), n
            assert fitted.diagnostics.converged, n
        assert ClosedFormModel(name, (50.0, 0.02)).boundary is None


class TestGeometricFitIsTheModel:
    def test_fit_model_returns_the_fit_record(self):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            ntds = parse_dataset(handle, "tbf_csv", label="ntds")
        for n in range(2, len(ntds.points) + 1, 3):
            prefix = ntds.prefix(n)
            fitted = fit_model("geometric", prefix)
            assert fitted == fit(prefix)
            assert isinstance(fitted, ReliabilityModel)
            assert fitted.model_name == "geometric"
            params = fitted.params
            assert fitted.params_dict() == {
                "p1": params.p1, "d": params.d, "truncation": params.truncation
            }
            assert fitted.predict_mean(prefix.final_time) == mean_failures(
                params, prefix.final_time
            )
        assert "model_name" not in fitted.to_dict()

    def test_one_point_history_refused(self):
        with pytest.raises(
            FitError, match="^geometric: need at least 2 usable points to fit, got 1$"
        ):
            fit_model("geometric", FailureDataset(((10.0, 3),), "one"))


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
