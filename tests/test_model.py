import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomrel.model import (
    DIRECT_SUM_MAX_TERMS,
    GeometricModelParams,
    _series_head,
    additional_time,
    default_truncation,
    failure_intensity,
    fault_cdf,
    fault_rate,
    log_likelihood_small,
    mean_failures,
    time_for_intensity,
    time_for_intensity_exact,
)

HALVING = GeometricModelParams(0.5, 0.5, 2)

# Decay ratios up to about where the default truncation reaches the fitting
# cap of 10,000 terms.  Above d ~= 0.9863 the default population exceeds
# DIRECT_SUM_MAX_TERMS and the sums take the head-plus-series route.
WIDE_D = st.floats(0.3, 0.99862)


def direct_sums(p1, d, n, t):
    """Term-by-term mean and intensity over n faults at each time of ``t``
    (the intensity at max(t, 1)), one time at a time."""
    rates = p1 * d ** np.arange(n, dtype=float)
    log_survival = np.log1p(-rates)
    flat = np.ravel(np.asarray(t, dtype=float))
    mean = [np.sum(-np.expm1(s * log_survival)) for s in flat]
    intensity = [np.sum(rates * np.exp((max(s, 1.0) - 1.0) * log_survival)) for s in flat]
    shape = np.shape(t)
    return np.reshape(mean, shape), np.reshape(intensity, shape)


class TestParams:
    def test_rejects_out_of_range_p1(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                GeometricModelParams(bad, 0.9)

    def test_rejects_out_of_range_d(self):
        for bad in (0.0, 1.0, -0.2, 1.01):
            with pytest.raises(ValueError):
                GeometricModelParams(0.3, bad)

    def test_observed_decay_band_is_accepted(self):
        # Ratios around 0.92..0.96 are the practically observed band and
        # must construct without any fuss.
        for d in (0.92, 0.94, 0.96):
            params = GeometricModelParams(0.3, d)
            assert params.d == d

    def test_default_truncation_rule(self):
        assert default_truncation(0.95) == math.ceil(math.log(1e-6) / math.log(0.95))
        assert default_truncation(0.5) == 20
        params = GeometricModelParams(0.3, 0.95)
        assert params.truncation == default_truncation(0.95)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            GeometricModelParams(0.3, 0.9, 0)
        with pytest.raises(ValueError):
            GeometricModelParams(0.3, 0.9, -3)

    def test_rates_strictly_decreasing(self):
        params = GeometricModelParams(0.4, 0.9, 50)
        assert np.all(np.diff(params.rates) < 0)


class TestFaultRate:
    def test_first_fault_is_p1(self):
        assert fault_rate(GeometricModelParams(0.3, 0.9, 10), 1) == 0.3

    def test_hand_value(self):
        # 0.5 * 0.5**2 = 0.125
        assert fault_rate(GeometricModelParams(0.5, 0.5, 3), 3) == pytest.approx(0.125)

    def test_out_of_range(self):
        params = GeometricModelParams(0.3, 0.9, 4)
        for n in (0, 5, -1):
            with pytest.raises(ValueError):
                fault_rate(params, n)
        with pytest.raises(ValueError):
            fault_rate(params, 1.5)


class TestFaultCdf:
    def test_single_trial(self):
        assert fault_cdf(0.5, 1.0) == pytest.approx(0.5)

    def test_zero_time(self):
        for p in (0.01, 0.5, 0.99):
            assert fault_cdf(p, 0.0) == 0.0

    def test_two_trials(self):
        # 1 - 0.25
        assert fault_cdf(0.5, 2.0) == pytest.approx(0.75)

    def test_tiny_rate_no_cancellation(self):
        p = 1e-12
        # For p*t << 1 the probability is p*t to first order.
        assert fault_cdf(p, 10.0) == pytest.approx(10.0 * p, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fault_cdf(0.0, 1.0)
        with pytest.raises(ValueError):
            fault_cdf(0.5, -1.0)


class TestMeanFailures:
    def test_zero_time(self):
        assert mean_failures(HALVING, 0.0) == 0.0

    def test_two_fault_hand_value(self):
        # (1 - 0.5^2) + (1 - 0.75^2) = 0.75 + 0.4375
        assert mean_failures(HALVING, 2.0) == pytest.approx(1.1875, abs=1e-15)

    def test_saturates_at_truncation(self):
        assert mean_failures(HALVING, 1e6) == pytest.approx(2.0)

    def test_accepts_arrays(self):
        ts = np.array([0.0, 1.0, 2.0])
        out = mean_failures(HALVING, ts)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(1.1875)

    @given(
        p1=st.floats(0.001, 0.9),
        d=WIDE_D,
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_bounded(self, p1, d):
        params = GeometricModelParams(p1, d)
        grid = np.linspace(0.0, 400.0, 60)
        vals = mean_failures(params, grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals >= 0)
        assert np.all(vals <= params.truncation)

    def test_truncation_tail_is_negligible(self):
        # Adding 50% more fault terms moves the mean by at most the
        # analytic tail bound: each extra fault contributes <= t * rate.
        params = GeometricModelParams(0.1, 0.95)
        bigger = GeometricModelParams(0.1, 0.95, int(params.truncation * 1.5))
        extra = bigger.truncation - params.truncation
        for t in (1.0, 10.0, 100.0, 1000.0):
            bound = extra * fault_rate(params, params.truncation) * t
            delta = mean_failures(bigger, t) - mean_failures(params, t)
            assert 0 <= delta <= bound + 1e-15


class TestFailureIntensity:
    def test_initial_value_closed_form(self):
        # At t=1 the intensity is the plain rate sum p1 (1 - d^N) / (1 - d).
        params = GeometricModelParams(0.3, 0.9, 40)
        closed = 0.3 * (1 - 0.9**40) / 0.1
        assert failure_intensity(params, 1.0) == pytest.approx(closed, rel=1e-14)

    def test_hand_values(self):
        assert failure_intensity(HALVING, 1.0) == pytest.approx(0.75)
        # 0.5*0.5 + 0.25*0.75
        assert failure_intensity(HALVING, 2.0) == pytest.approx(0.4375)

    @given(p1=st.floats(0.001, 0.9), d=WIDE_D)
    @settings(max_examples=30, deadline=None)
    def test_strictly_decreasing(self, p1, d):
        params = GeometricModelParams(p1, d)
        grid = np.linspace(1.0, 300.0, 80)
        vals = failure_intensity(params, grid)
        assert np.all(np.diff(vals) < 0)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            failure_intensity(HALVING, 0.5)

    @given(p1=st.floats(0.001, 0.9), d=WIDE_D)
    @settings(max_examples=30, deadline=None)
    def test_first_difference_of_mean(self, p1, d):
        params = GeometricModelParams(p1, d)
        for t in (1, 2, 7, 40, 200):
            diff = mean_failures(params, float(t)) - mean_failures(params, float(t - 1))
            assert diff == pytest.approx(failure_intensity(params, float(t)), abs=1e-10)


class TestSeriesTail:
    """The head-plus-series route against the term-by-term sums."""

    @given(
        p1=st.floats(1e-6, 0.9),
        d=st.floats(0.3, 0.99999),
        truncation=st.one_of(st.none(), st.integers(1, 50_000)),
        shape=st.sampled_from([(), (0,), (1,), (5,), (2, 3)]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_sum(self, p1, d, truncation, shape, data):
        params = GeometricModelParams(p1, d, truncation)
        size = int(np.prod(shape))
        values = data.draw(st.lists(st.floats(0.0, 1e5), min_size=size, max_size=size))
        t = np.reshape(np.array(values, dtype=float), shape)
        mean_ref, intensity_ref = direct_sums(p1, d, params.truncation, t)

        mean = mean_failures(params, t)
        intensity = failure_intensity(params, np.maximum(t, 1.0))
        assert np.shape(mean) == np.shape(intensity) == shape
        np.testing.assert_allclose(mean, mean_ref, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(intensity, intensity_ref, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize(
        "p1, d, n, t_max, k",
        [
            # No head: 250 * p1 <= 1.
            (2e-4, 0.99862, 10_000, 250.0, 0),
            # A head of some hundred terms.
            (0.05, 0.995, 10_000, 250.0, 504),
            # Times below SERIES_ORDER: the head still runs until
            # 24 * p_k <= 1, which keeps the series converging fast.
            (0.5, 0.999, 10_000, 1.5, 2484),
        ],
    )
    def test_series_route_taken(self, p1, d, n, t_max, k):
        params = GeometricModelParams(p1, d, n)
        t = np.linspace(0.0, t_max, 7)
        assert _series_head(params, t) == k
        scale = max(t_max, 24.0)
        assert scale * p1 * d**k <= 1.0
        assert k == 0 or scale * p1 * d ** (k - 1) > 1.0
        mean_ref, intensity_ref = direct_sums(p1, d, n, t)
        np.testing.assert_allclose(mean_failures(params, t), mean_ref, rtol=1e-12)
        np.testing.assert_allclose(
            failure_intensity(params, np.maximum(t, 1.0)), intensity_ref, rtol=1e-12
        )

    def test_population_beyond_memory(self):
        # 10^9 terms would take 8 GB one float per fault; faults past the
        # 5,000th add less than 1e-200 to either sum at t = 250.
        huge = GeometricModelParams(0.05, 0.9, 10**9)
        assert _series_head(huge, np.array(250.0)) == 24
        small = GeometricModelParams(0.05, 0.9, 5_000)
        assert mean_failures(huge, 250.0) == pytest.approx(mean_failures(small, 250.0), rel=1e-12)
        assert failure_intensity(huge, 250.0) == pytest.approx(
            failure_intensity(small, 250.0), rel=1e-12
        )

    @pytest.mark.parametrize(
        "p1, d, n, t_max",
        [
            (0.3, 0.95, 270, 400.0),
            (0.01, 0.999, DIRECT_SUM_MAX_TERMS, 100.0),
            # Past the gate, but at t = 1e5 the head would run to about
            # 11,400 terms, leaving a tail shorter than the gate.
            (0.9, 0.999, 12_000, 1e5),
        ],
    )
    def test_small_populations_bit_identical(self, p1, d, n, t_max):
        params = GeometricModelParams(p1, d, n)
        t = np.array([0.0, 1.0, 17.25, t_max])
        assert _series_head(params, t) is None
        rates = p1 * d ** np.arange(n, dtype=float)
        log_survival = np.log1p(-rates)
        mean = (-np.expm1(t[:, np.newaxis] * log_survival)).sum(axis=-1)
        intensity = (rates * np.exp((t[1:, np.newaxis] - 1.0) * log_survival)).sum(axis=-1)
        assert np.array_equal(mean_failures(params, t), mean)
        assert np.array_equal(failure_intensity(params, t[1:]), intensity)


class TestReleaseTimes:
    def test_denominator_series_identity(self):
        # sum(p_a - p_a^2) has the closed form
        # p1 (1-d^N)/(1-d) - p1^2 (1-d^{2N})/(1-d^2); the term-by-term sum
        # must agree with it to near machine precision.
        for p1, d, n in [(0.5, 0.5, 2), (0.3, 0.9, 50), (0.05, 0.95, 270)]:
            params = GeometricModelParams(p1, d, n)
            term_sum = float(np.sum(params.rates - params.rates**2))
            closed = p1 * (1 - d**n) / (1 - d) - p1**2 * (1 - d ** (2 * n)) / (1 - d**2)
            assert term_sum == pytest.approx(closed, abs=1e-12)

    def test_log_zero_target_gives_t_one(self):
        # A target of exactly 1 zeroes the logarithm; pick parameters whose
        # initial intensity exceeds 1 so the target is admissible.
        params = GeometricModelParams(0.9, 0.9, 10)
        assert failure_intensity(params, 1.0) > 1.0
        assert time_for_intensity(params, 1.0) == pytest.approx(1.0)

    def test_hand_value_negative_output_surfaced(self):
        # ln(0.5)/0.4375 + 1 = -0.5843...; the raw value must come back
        # unclamped even though it is an impossible time.
        t = time_for_intensity(HALVING, 0.5)
        assert t == pytest.approx(math.log(0.5) / 0.4375 + 1.0)
        assert t < 0

    def test_target_above_initial_intensity_rejected(self):
        with pytest.raises(ValueError):
            time_for_intensity(HALVING, 0.76)
        with pytest.raises(ValueError):
            time_for_intensity(HALVING, 0.0)

    def test_exact_inversion_roundtrip(self):
        params = GeometricModelParams(0.05, 0.95)
        for target_frac in (0.9, 0.5, 0.1, 0.01):
            target = target_frac * failure_intensity(params, 1.0)
            t = time_for_intensity_exact(params, target)
            assert failure_intensity(params, t) == pytest.approx(target, rel=1e-12)

    def test_closed_form_differs_from_exact_inverse(self):
        # The printed shortcut is not the true inverse of the intensity for
        # more than one fault; both are exposed and they disagree.
        params = GeometricModelParams(0.05, 0.95)
        target = 0.5 * failure_intensity(params, 1.0)
        shortcut = time_for_intensity(params, target)
        exact = time_for_intensity_exact(params, target)
        assert shortcut != pytest.approx(exact, rel=1e-3)

    def test_additional_time_zero_when_equal(self):
        assert additional_time(HALVING, 0.75, 0.75) == 0.0

    def test_additional_time_hand_value(self):
        dt = additional_time(HALVING, 0.75, 0.375)
        assert dt == pytest.approx(math.log(0.5) / 0.4375)
        assert dt < 0

    def test_additional_time_is_additive(self):
        params = GeometricModelParams(0.1, 0.9)
        lam = failure_intensity(params, 1.0)
        whole = additional_time(params, lam, lam / 4)
        split = additional_time(params, lam, lam / 2) + additional_time(params, lam / 2, lam / 4)
        assert split == pytest.approx(whole, abs=1e-12)

    def test_objective_above_current_rejected(self):
        with pytest.raises(ValueError):
            additional_time(HALVING, 0.5, 0.6)


class TestLogLikelihoodSmall:
    def test_zero_failures_closed_form(self):
        params = GeometricModelParams(0.3, 0.7, 4)
        t = 3.0
        expected = t * sum(math.log1p(-r) for r in params.rates)
        assert log_likelihood_small(params, 0, t) == pytest.approx(expected, rel=1e-14)

    def test_two_fault_hand_enumeration(self):
        # subsets of size 1: {1}: 0.5*0.75, {2}: 0.25*0.5 -> sum 0.5
        assert log_likelihood_small(HALVING, 1, 1.0) == pytest.approx(math.log(0.5))

    def test_total_probability_sums_to_one(self):
        params = GeometricModelParams(0.4, 0.6, 3)
        total = math.fsum(
            math.exp(log_likelihood_small(params, x, 2.0)) for x in range(0, 4)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_time(self):
        assert log_likelihood_small(HALVING, 0, 0.0) == 0.0
        assert log_likelihood_small(HALVING, 1, 0.0) == -math.inf

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            log_likelihood_small(GeometricModelParams(0.3, 0.9, 21), 1, 1.0)
        with pytest.raises(ValueError):
            log_likelihood_small(GeometricModelParams(0.3, 0.9, 10), 6, 1.0)
        with pytest.raises(ValueError):
            log_likelihood_small(HALVING, 3, 1.0)  # more failures than faults
