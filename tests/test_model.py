import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomrel import model
from geomrel.model import (
    DIRECT_SUM_MAX_TERMS,
    GeometricModelParams,
    _checked_times,
    _direct_terms,
    _occurrence_sum,
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

    def test_truncation_beyond_the_float_range_rejected(self):
        # The sums convert N - k to a float; beyond the float range that
        # raised OverflowError from inside a sum.  The largest accepted N
        # sums without a warning.
        for n in (10**400, int(sys.float_info.max) + 2**971):
            with pytest.raises(ValueError, match="float range"):
                GeometricModelParams(0.05, 0.95, n)
        largest = GeometricModelParams(0.05, 0.95, int(sys.float_info.max))
        assert 0.0 < failure_intensity(largest, 250.0) < mean_failures(largest, 250.0)

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


def reference_accepts_times(t, minimum):
    """The time check as first written, with numpy's any/all."""
    arr = np.asarray(t, dtype=float)
    return not (np.any(arr < minimum) or not np.all(np.isfinite(arr)))


_SPECIAL_TIMES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, np.nextafter(0.0, -1.0),
     np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 5e-324, 1e308]
)
_TIME = st.one_of(_SPECIAL_TIMES, st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=500, deadline=None)
@given(
    times=st.one_of(
        _TIME,
        st.lists(_TIME, max_size=6),
        st.lists(st.lists(_TIME, min_size=2, max_size=2), max_size=3),
    ),
    minimum=st.sampled_from([0.0, 1.0]),
)
def test_time_check_accepts_what_the_any_all_check_accepts(times, minimum):
    """Scalars (0-d), empty, 1-d and 2-d input: accepted exactly when no
    time is below ``minimum`` and every time is finite, and then returned
    unchanged, a scalar as a float and an array with a last axis of
    length 1, with the largest time (0 when there is none)."""
    accepted = reference_accepts_times(times, minimum)
    if accepted:
        checked, t_max = _checked_times(times, minimum, "f")
        arr = np.asarray(times, dtype=float)
        if arr.ndim == 0:
            assert type(checked) is float
            assert checked == t_max == arr
            assert math.copysign(1.0, checked) == math.copysign(1.0, arr)
        else:
            assert checked.shape == (*arr.shape, 1)
            assert np.array_equal(checked[..., 0], arr)
            assert t_max == arr.max(initial=0.0)
    else:
        with pytest.raises(ValueError, match=f"f requires finite t >= {minimum}"):
            _checked_times(times, minimum, "f")


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
        assert _series_head(params, t_max) == k
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
        assert _series_head(huge, 250.0) == 24
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
        assert _series_head(params, t_max) == n
        rates = p1 * d ** np.arange(n, dtype=float)
        log_survival = np.log1p(-rates)
        mean = (-np.expm1(t[:, np.newaxis] * log_survival)).sum(axis=-1)
        intensity = (rates * np.exp((t[1:, np.newaxis] - 1.0) * log_survival)).sum(axis=-1)
        assert np.array_equal(mean_failures(params, t), mean)
        assert np.array_equal(failure_intensity(params, t[1:]), intensity)


@given(
    times=st.lists(st.floats(0.0, 1e6), max_size=6),
    p1=st.floats(1e-300, 0.9),
    d=st.floats(1e-3, 0.9999),
    n=st.integers(0, 400),
)
@settings(max_examples=200, deadline=None)
def test_occurrence_sum_equals_negated_terms(times, p1, d, n):
    """Negating the row sums gives the floats of summing negated terms, the
    sign of an all-zero sum included; the terms come back as computed."""
    log_survival = np.log1p(-(p1 * d ** np.arange(n, dtype=float)))
    for t in (np.array(times)[:, np.newaxis], times[0] if times else 0.0):
        expected = (-np.expm1(t * log_survival)).sum(axis=-1)
        got, terms = _occurrence_sum(t, log_survival)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert np.array_equal(terms, np.expm1(t * log_survival))


class TestSeriesHeadCache:
    """Every sum, and ``rates``, slices its head from the longest one built
    on the params; results never depend on the calls made before."""

    def test_rates_are_the_cached_head(self):
        params = GeometricModelParams(0.05, 0.999, 20_000)
        mean_failures(params, 250.0)  # the series route builds a short head
        rates, log_survival = params.rates, params.log_survival
        fresh = 0.05 * 0.999 ** np.arange(20_000, dtype=float)
        assert np.array_equal(rates, fresh)
        assert np.array_equal(log_survival, np.log1p(-fresh))
        assert not rates.flags.writeable and not log_survival.flags.writeable
        head, _ = _direct_terms(params, 10)
        assert np.shares_memory(head, rates)

    @given(
        d=st.floats(0.3, 0.99999),
        lengths=st.lists(st.integers(0, 20_000), min_size=2, max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_slice_of_longer_powers_is_exact(self, d, lengths):
        k, longest = sorted(lengths)
        assert np.array_equal(
            (d ** np.arange(longest, dtype=float))[:k], d ** np.arange(k, dtype=float)
        )

    @given(p1=st.floats(1e-6, 0.9), d=st.floats(0.3, 0.99999), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_direct_terms_equal_a_fresh_head(self, p1, d, data):
        params = GeometricModelParams(p1, d, 50_000)
        for k in data.draw(st.lists(st.integers(0, 5_000), min_size=1, max_size=8)):
            rates, log_survival = _direct_terms(params, k)
            fresh = p1 * d ** np.arange(k, dtype=float)
            assert np.array_equal(rates, fresh)
            assert np.array_equal(log_survival, np.log1p(-fresh))

    @given(
        p1=st.floats(1e-3, 0.5),
        d=st.floats(0.999, 0.99995),
        times=st.lists(st.floats(1.0, 5_000.0), min_size=2, max_size=12, unique=True),
        order=st.sampled_from(["rising", "falling", "shuffled"]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_call_order_equals_fresh_params(self, p1, d, times, order, data):
        if order == "shuffled":
            times = data.draw(st.permutations(times))
        else:
            times = sorted(times, reverse=order == "falling")
        shared = GeometricModelParams(p1, d, 200_000)
        for t in times:
            assert _series_head(shared, t) < shared.truncation
            fresh = GeometricModelParams(p1, d, 200_000)
            assert failure_intensity(shared, t) == failure_intensity(fresh, t)
            fresh = GeometricModelParams(p1, d, 200_000)
            assert mean_failures(shared, t) == mean_failures(fresh, t)
        fresh = GeometricModelParams(p1, d, 200_000)
        assert np.array_equal(mean_failures(shared, times), mean_failures(fresh, times))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Populations summed term by term, and populations whose head, at times up
# to 1e5 and d <= 0.9999, stays far below N: the series route.
ROUTE_TRUNCATION = {"direct": DIRECT_SUM_MAX_TERMS, "series": 10**7}


@pytest.mark.parametrize("route", sorted(ROUTE_TRUNCATION))
@given(p1=st.floats(1e-6, 0.9), d=st.floats(0.3, 0.9999), t=st.floats(1.0, 1e5))
@settings(max_examples=150, deadline=None)
def test_scalar_read_is_element_zero_of_the_array_read(route, p1, d, t):
    """A scalar time skips the array checks, and its read is a float
    equal, bit for bit, to element 0 of the read at ``[t]``."""
    params = GeometricModelParams(p1, d, ROUTE_TRUNCATION[route])
    assert (_series_head(params, t) < params.truncation) == (route == "series")
    for read in (mean_failures, failure_intensity):
        value = read(params, t)
        assert type(value) is float
        assert same_bits(value, read(params, np.array([t]))[0])


def exp_pass_intensity_sums(params, t):
    """``_intensity_sums`` as it was before it reused the mean's terms: its
    own exp pass over the head for ``(1 - p_a)**(t - 1)``, at each time of
    the 1-d array ``t``."""
    k = _series_head(params, float(t.max(initial=0.0)))
    rates, log_survival = _direct_terms(params, k)
    survival = np.exp((t[:, np.newaxis] - 1.0) * log_survival)
    intensity = survival @ rates
    weighted = survival @ (np.arange(k, dtype=float) * rates)
    if k < params.truncation:
        p_k = params.p1 * params.d**k
        g = model._tail_sums(params, k)[0]
        x = math.log(params.d) * model._SERIES_POWERS
        m = min(params.truncation - k, 2.0**63)
        g_weighted = k * g + (np.exp(x) * g - m * np.exp(m * x)) / -np.expm1(x)
        terms = model._binomial_terms((t - 1.0)[:, np.newaxis], p_k)
        intensity = intensity + p_k * (g[0] + terms @ g[1:])
        weighted = weighted + p_k * (g_weighted[0] + terms @ g_weighted[1:])
    return intensity, weighted


# Decay ratios whose default truncation the fit sums term by term, and
# ratios up to the fit's cap whose default truncation, at times up to 1e4,
# leaves a series tail.
FIT_DECAY = {"direct": st.floats(0.3, 0.986), "series": st.floats(0.998, 0.99862)}


def assert_sums_match_the_exp_pass(params, t):
    """Each intensity and weighted sum formed from the mean's ``expm1``
    terms is within 1e-11 relative of the exp pass's (the bound of the
    docstring is about 2e-12)."""
    column, t_max = _checked_times(t, 0.0, "t")
    _, terms = model._mean_terms(params, column, t_max)
    sums = model._intensity_sums(params, column, terms)
    for new, old in zip(sums, exp_pass_intensity_sums(params, t)):
        assert np.all(np.abs(new - old) <= 1e-11 * np.abs(old))
    return terms


@pytest.mark.parametrize("route", sorted(FIT_DECAY))
@given(
    p1=st.one_of(st.floats(1e-6, 0.99), st.floats(1e-12, 0.01).map(lambda q: 1.0 - q)),
    data=st.data(),
    times=st.lists(st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e4)), min_size=1, max_size=8),
)
@settings(max_examples=150, deadline=None)
def test_intensity_sums_match_the_exp_pass(route, p1, data, times):
    """On the populations the fit sums (the default truncation), the
    logit coordinates' p1 up to 1 - 1e-12 included, every sum agrees with
    the exp pass: where ``1 + expm1`` has lost its relative accuracy the
    row takes the exp pass itself."""
    params = GeometricModelParams(p1, data.draw(FIT_DECAY[route], label="d"))
    terms = assert_sums_match_the_exp_pass(params, np.array(sorted(times)))
    assert (terms.shape[-1] < params.truncation) == (route == "series")


@given(
    p1=st.floats(1e-3, 0.99),
    d=FIT_DECAY["direct"],
    times=st.lists(st.floats(1e7, 1e12), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_intensity_sums_far_beyond_the_rates(p1, d, times):
    """At times far beyond 1 / p_a for every fault, where each
    ``(1 - p_a)**t`` is tiny or 0 and ``1 + expm1`` keeps none of it, the
    sums still agree with the exp pass: a fit probed there keeps its
    slope."""
    assert_sums_match_the_exp_pass(GeometricModelParams(p1, d), np.array(sorted(times)))


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

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_rejected(self, target):
        params = GeometricModelParams(0.05, 0.95)
        lam = failure_intensity(params, 10.0)
        for call in (
            lambda: time_for_intensity(params, target),
            lambda: time_for_intensity_exact(params, target),
            lambda: additional_time(params, lam, target),
            lambda: additional_time(params, target, lam),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_vanishing_denominator_rejected(self):
        """A subnormal p1 rounds sum(p_a - p_a**2) to zero: the closed-form
        release times refuse it instead of dividing by zero."""
        params = GeometricModelParams(5e-324, 0.75, 2)
        lam = failure_intensity(params, 1.0)
        for call in (
            lambda: time_for_intensity(params, lam),
            lambda: additional_time(params, lam, 5e-324),
        ):
            with pytest.raises(ValueError, match="denominator"):
                call()


def reference_time_for_intensity_exact(params, target):
    """The exact inverse as first written: double t from 2 while the
    intensity lies above the target, then halve the bracket until its
    midpoint equals an end.  Also returns how many intensities it
    evaluates."""
    evaluations = 1
    if target == failure_intensity(params, 1.0):
        return 1.0, evaluations

    def above(t):
        nonlocal evaluations
        evaluations += 1
        return failure_intensity(params, t) > target

    lo, hi = 1.0, 2.0
    while above(hi):
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), evaluations


def counted_inverse(params, target):
    """``time_for_intensity_exact`` and how many intensities it evaluates,
    counted through the module attribute the tracer also replaces."""
    calls = [0]
    original = model.failure_intensity

    def counting(*args):
        calls[0] += 1
        return original(*args)

    with mock.patch.object(model, "failure_intensity", counting):
        t = time_for_intensity_exact(params, target)
    return t, calls[0]


def inverse_case(p1, d, n, log_t, share):
    """Params and a target between the intensity at t = 10**log_t and
    ``share`` of it, or None when the target is not below the initial
    intensity."""
    params = GeometricModelParams(p1, d, n)
    target = share * failure_intensity(params, 10.0**log_t)
    return (params, target) if 0.0 < target < failure_intensity(params, 1.0) else None


class TestExactInverse:
    """``time_for_intensity_exact`` returns a float at which the computed
    intensity crosses the target, on both summation routes, with a
    fraction of the bisection's evaluations."""

    @pytest.mark.parametrize(
        "truncations, max_d",
        [
            (st.integers(1, DIRECT_SUM_MAX_TERMS), 0.99999),
            # Heads stay below about 25,000 terms: t <= 1e5 and d <= 0.9995.
            (st.integers(DIRECT_SUM_MAX_TERMS + 1, 10**12), 0.9995),
        ],
        ids=["direct", "series"],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_meets_the_contract(self, truncations, max_d, data):
        case = inverse_case(
            data.draw(st.floats(1e-6, 0.9), label="p1"),
            data.draw(st.floats(0.3, max_d), label="d"),
            data.draw(truncations, label="n"),
            data.draw(st.floats(0.0, 5.0), label="log_t"),
            data.draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)), label="share"),
        )
        assume(case is not None)
        params, target = case
        t, _ = counted_inverse(params, target)
        # The intensity at the float below the answer lies above the
        # target, and at the answer it does not.
        assert failure_intensity(params, math.nextafter(t, 0.0)) > target
        assert target >= failure_intensity(params, t)

    @pytest.mark.parametrize(
        "kind, ceiling",
        # Release planning: fitted-like params, objectives at 0.1-0.5 of
        # the intensity after 800 incidents (the bisection takes about 66).
        [("planning", 18.0), ("wide", 22.0)],
    )
    def test_mean_evaluations(self, kind, ceiling):
        rng = np.random.default_rng(7)
        counts, reference = [], []
        while len(counts) < 150:
            if kind == "planning":
                case = inverse_case(
                    rng.uniform(0.01, 0.05), rng.uniform(0.92, 0.96), None,
                    math.log10(800.0), rng.choice([0.5, 0.25, 0.1]),
                )
            else:
                case = inverse_case(
                    10.0 ** rng.uniform(-6, 0), rng.uniform(0.3, 0.9995),
                    int(rng.choice([rng.integers(1, 1001), rng.integers(1001, 10**12)])),
                    rng.uniform(0.0, 5.0), rng.uniform(0.5, 1.0),
                )
            if case is not None:
                counts.append(counted_inverse(*case)[1])
                reference.append(reference_time_for_intensity_exact(*case)[1])
        assert np.mean(counts) <= ceiling
        assert np.mean(counts) < np.mean(reference) / 3.0

    def test_target_too_small_for_any_finite_time_refused(self):
        # The intensity at t = 2**1023 still lies above the target: the
        # doubling would reach t = inf, which the intensity refuses.
        params = GeometricModelParams(1e-310, 0.5, 1)
        assert failure_intensity(params, 2.0**1023) > 5e-324
        with pytest.raises(ValueError, match="finite"):
            time_for_intensity_exact(params, 5e-324)


# The release-time search as five helpers and a (below, gap) probe, as it
# stood before it was folded into time_for_intensity_exact, with its
# constants.  The fold must give the same float after the same probes.
REF_BRACKET_ULPS = 4
REF_MAX_DOUBLING = 2.0**1023
REF_LN2 = math.log(2.0)
REF_LN16 = math.log(16.0)
REF_GAP_NOISE = 4.0 * sys.float_info.epsilon


def ref_log_ratio(diff, target):
    share = diff / target
    if share > -0.5:
        return math.log1p(share)
    value = target + diff
    return math.log(value) - math.log(target) if value > 0.0 else -math.inf


def ref_midpoint(lo, hi):
    x = math.sqrt(lo) * math.sqrt(hi)
    return x if lo < x < hi else 0.5 * (lo + hi)


def ref_chord_root(lo, lo_gap, hi, hi_gap):
    drop = lo_gap - hi_gap
    if not 0.0 < drop < math.inf:
        return ref_midpoint(lo, hi), 0.0
    width = math.log(hi / lo)
    x = lo * math.exp(lo_gap / drop * width)
    return (
        min(max(x, lo + 2.0 * math.ulp(lo)), hi - 2.0 * math.ulp(hi)),
        REF_GAP_NOISE / drop * width,
    )


def ref_narrowed(probe, x, lo, lo_gap, hi, hi_gap):
    below, gap = probe(x)
    return (x, gap, hi, hi_gap) if below else (lo, lo_gap, x, gap)


def ref_bracket(probe, lo, lo_gap):
    slope = -1.0
    while True:
        reach = lo_gap / -slope if slope < 0.0 else math.inf
        if lo < REF_MAX_DOUBLING:
            x = min(lo * math.exp(min(max(reach, REF_LN2), REF_LN16)), REF_MAX_DOUBLING)
        else:
            x = 2.0 * lo
        below, gap = probe(x)
        if not below:
            break
        slope = (gap - lo_gap) / math.log(x / lo)
        lo, lo_gap = x, gap
    ends = (lo, lo_gap, x, gap)
    while ends[2] - ends[0] > REF_BRACKET_ULPS * math.ulp(ends[0]):
        width = math.log(ends[2] / ends[0])
        first, noise = ref_chord_root(*ends)
        ends = ref_narrowed(probe, first, *ends)
        lo, hi = ends[0], ends[2]
        if hi - lo <= REF_BRACKET_ULPS * math.ulp(lo):
            break
        root, _ = ref_chord_root(*ends)
        step = max(abs(root - first), first * noise)
        across = root + step if first == lo else root - step
        ends = ref_narrowed(probe, across if lo < across < hi else ref_midpoint(lo, hi), *ends)
        lo, hi = ends[0], ends[2]
        if hi - lo > REF_BRACKET_ULPS * math.ulp(lo) and math.log(hi / lo) > 0.5 * width:
            if math.log(hi / lo) <= 8.0 * noise:
                break
            ends = ref_narrowed(probe, ref_midpoint(lo, hi), *ends)
    return ends[0], ends[2]


def ref_sign_change(probe, lo, lo_gap):
    lo, hi = ref_bracket(probe, lo, lo_gap)
    while hi - lo > REF_BRACKET_ULPS * math.ulp(lo):
        mid = 0.5 * (lo + hi)
        if probe(mid)[0]:
            lo = mid
        else:
            hi = mid
    x = math.nextafter(lo, math.inf)
    while x < hi and probe(x)[0]:
        x = math.nextafter(x, math.inf)
    return x


def ref_time_for_intensity_exact(params, target):
    lam1 = model._initial_intensity(params, target)
    if target == lam1:
        return 1.0

    def probe(t):
        lam = model.failure_intensity(params, t)
        return lam > target, ref_log_ratio(lam - target, target)

    return ref_sign_change(probe, 1.0, math.log(lam1 / target))


def probed(search, params, target):
    """What ``search`` returns (or the message of the ValueError it
    raises), and every time at which it evaluates the intensity through
    ``model.failure_intensity``, on a fresh copy of ``params``: a search on
    params that an earlier one probed reads those probes from the params'
    memo, t = 1 included."""
    params = GeometricModelParams(params.p1, params.d, params.truncation)
    times = []
    original = model.failure_intensity

    def recording(p, t):
        times.append(t)
        return original(p, t)

    with mock.patch.object(model, "failure_intensity", recording):
        try:
            return search(params, target), times
        except ValueError as exc:
            return str(exc), times


class TestExactInverseMatchesItsReference:
    @pytest.mark.parametrize(
        "truncations, max_d",
        [
            (st.integers(1, DIRECT_SUM_MAX_TERMS), 0.99999),
            (st.integers(DIRECT_SUM_MAX_TERMS + 1, 10**12), 0.9995),
        ],
        ids=["direct", "series"],
    )
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_float_after_the_same_probes(self, truncations, max_d, data):
        case = inverse_case(
            data.draw(st.floats(1e-6, 0.9), label="p1"),
            data.draw(st.floats(0.3, max_d), label="d"),
            data.draw(truncations, label="n"),
            data.draw(st.floats(0.0, 5.0), label="log_t"),
            data.draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0)), label="share"),
        )
        assume(case is not None)
        live = probed(time_for_intensity_exact, *case)
        assert live == probed(ref_time_for_intensity_exact, *case)

    def test_flat_intensity(self):
        # The gap rounds to 0 next to the root, so the bracket closes by
        # slow steps: 41 evaluations.
        params = GeometricModelParams(2.5964450905555218e-05, 0.5616567247889013, 458417780524)
        target = 5.923156367984212e-05
        t, times = probed(time_for_intensity_exact, params, target)
        assert (t, times) == probed(ref_time_for_intensity_exact, params, target)
        assert len(times) == 41

    def test_same_refusal_of_an_unreachable_target(self):
        params = GeometricModelParams(1e-310, 0.5, 1)
        message, times = probed(time_for_intensity_exact, params, 5e-324)
        assert (message, times) == probed(ref_time_for_intensity_exact, params, 5e-324)
        assert "finite" in message and times[-1] == math.inf


def release_reads(params, lambda_now, target):
    """The three release-time reads of a planning request, as floats."""
    return (
        time_for_intensity_exact(params, target),
        time_for_intensity(params, target),
        additional_time(params, lambda_now, target),
    )


class TestWarmParams:
    """Params that earlier release-time reads left their memo on answer
    every read with the floats that fresh params give."""

    @pytest.mark.parametrize(
        "truncations, max_d",
        [
            (st.integers(1, DIRECT_SUM_MAX_TERMS), 0.99999),
            (st.integers(DIRECT_SUM_MAX_TERMS + 1, 10**12), 0.9995),
        ],
        ids=["direct", "series"],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reads_in_any_order_equal_cold_reads(self, truncations, max_d, data):
        p1 = data.draw(st.floats(1e-6, 0.9), label="p1")
        d = data.draw(st.floats(0.3, max_d), label="d")
        n = data.draw(truncations, label="n")
        t_now = 10.0 ** data.draw(st.floats(0.0, 4.0), label="log_t")
        shares = data.draw(
            st.lists(st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.01]), min_size=1, max_size=8),
            label="shares",
        )
        lambda_now = failure_intensity(GeometricModelParams(p1, d, n), t_now)
        targets = [share * lambda_now for share in shares]
        assume(0.0 < min(targets))
        warm = GeometricModelParams(p1, d, n)
        calls = []
        original = model.failure_intensity

        def recording(params, t):
            calls.append((params, t))
            return original(params, t)

        with mock.patch.object(model, "failure_intensity", recording):
            for target in data.draw(st.permutations(targets), label="order"):
                cold = release_reads(GeometricModelParams(p1, d, n), lambda_now, target)
                got = release_reads(warm, lambda_now, target)
                assert [v.hex() for v in got] == [v.hex() for v in cold]
        warm_times = [t for params, t in calls if params is warm]
        assert warm_times.count(1.0) == 1
        # Each time is evaluated once on the warm params.
        assert len(warm_times) == len(set(warm_times)) == len(warm.__dict__["_probes"])
        assert len(warm.__dict__["_probes"]) <= model._PROBE_MEMO_SIZE

    def test_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(model, "_PROBE_MEMO_SIZE", 5)
        warm = GeometricModelParams(0.03, 0.95)
        lambda_now = failure_intensity(warm, 800.0)
        for share in (0.5, 0.25, 0.1, 0.25, 0.5):
            cold = GeometricModelParams(0.03, 0.95)
            got = release_reads(warm, lambda_now, share * lambda_now)
            assert got == release_reads(cold, lambda_now, share * lambda_now)
            assert len(warm.__dict__["_probes"]) == 5
        assert 1.0 in warm.__dict__["_probes"]

    def test_refused_target_keeps_what_was_probed(self):
        params = GeometricModelParams(1e-310, 0.5, 1)
        with pytest.raises(ValueError, match="finite"):
            time_for_intensity_exact(params, 5e-324)
        memo = params.__dict__["_probes"]
        assert math.inf not in memo and len(memo) <= model._PROBE_MEMO_SIZE
        assert all(memo[t] == failure_intensity(params, t) for t in memo)


def read_intensity_sums(params, t):
    """``_intensity_sums`` at the times of ``t`` from the terms of the mean
    at them, as the geometric fit's Jacobian reads them."""
    column, t_max = _checked_times(np.atleast_1d(t), 0.0, "t")
    _, terms = model._mean_terms(params, column, t_max)
    return model._intensity_sums(params, column, terms)


def read_bits(value):
    """Type, shape and bytes of a read: a float, an array or a tuple of them."""
    if isinstance(value, tuple):
        return [read_bits(v) for v in value]
    return type(value), np.shape(value), np.asarray(value).tobytes()


# The truncation, leading rates and times of the reads of each route: term
# by term; the series with an empty head (p1 max(t, 24) <= 1); the series
# with a head of at least one fault (p1 SERIES_ORDER > 1).
TAIL_ROUTES = {
    "direct": (DIRECT_SUM_MAX_TERMS, st.floats(1e-6, 0.9), st.floats(1.0, 1e5)),
    "series-empty-head": (10**7, st.floats(1e-7, 1e-5), st.floats(1.0, 1e5)),
    "series-head": (10**7, st.floats(0.05, 0.9), st.floats(1.0, 1e5)),
}


class TestWarmTails:
    """Params whose caches earlier reads at other times, and other heads,
    filled read every sum with the floats that fresh params give."""

    @pytest.mark.parametrize("route", sorted(TAIL_ROUTES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sums_on_warm_params_equal_cold_sums(self, route, data):
        n, rates, times = TAIL_ROUTES[route]
        p1 = data.draw(rates, label="p1")
        d = data.draw(st.floats(0.3, 0.9999), label="d")
        warm = GeometricModelParams(p1, d, n)
        for t in data.draw(st.lists(st.floats(1.0, 1e6), max_size=4), label="earlier"):
            mean_failures(warm, t)
            read_intensity_sums(warm, np.array([t, 0.5 * t]))
        for _ in range(3):
            t = data.draw(
                st.one_of(times, st.lists(times, min_size=1, max_size=5).map(np.array)),
                label="t",
            )
            cold = GeometricModelParams(p1, d, n)
            k = _series_head(cold, float(np.max(t)))
            heads = {"direct": k == n, "series-empty-head": k == 0, "series-head": 0 < k < n}
            assert heads[route]
            reads = [mean_failures, failure_intensity, read_intensity_sums]
            for read in reads if isinstance(t, np.ndarray) else reads[:2]:
                fresh = read_bits(read(GeometricModelParams(p1, d, n), t))
                # The first read may build the entry for k, the second reads it.
                assert read_bits(read(warm, t)) == fresh
                assert read_bits(read(warm, t)) == fresh
            if k < n:
                assert k in warm.__dict__["_tails"]

    @given(
        p1=TAIL_ROUTES["series-empty-head"][1],
        d=st.floats(0.3, 0.9999),
        times=st.lists(TAIL_ROUTES["series-empty-head"][2], min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_empty_head_reads_equal_sums_over_an_empty_head(self, p1, d, times):
        """With no fault in the head, the reads skip the head's passes and
        give the floats that sums over an empty head give."""
        params = GeometricModelParams(p1, d, 10**7)
        t = np.array(times)
        assert _series_head(params, float(t.max())) == 0
        g = model._tail_sums(params, 0)[0]
        empty = np.empty(0)

        def sums(column):
            mean = _occurrence_sum(column, empty)[0]
            mean = mean - model._binomial_terms(column, p1) @ g[:-1]
            intensity = (np.exp((column - 1.0) * empty) * empty).sum(axis=-1)
            intensity = intensity + p1 * (g[0] + model._binomial_terms(column - 1.0, p1) @ g[1:])
            return mean, intensity

        mean, intensity = sums(t[:, np.newaxis])
        assert read_bits(mean_failures(params, t)) == read_bits(mean)
        assert read_bits(failure_intensity(params, t)) == read_bits(intensity)
        assert read_bits(read_intensity_sums(params, t)[0]) == read_bits(intensity)
        mean, intensity = sums(times[0])
        assert mean_failures(params, times[0]).hex() == float(mean).hex()
        assert failure_intensity(params, times[0]).hex() == float(intensity).hex()

    def test_tail_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(model, "_PROBE_MEMO_SIZE", 3)
        warm = GeometricModelParams(0.5, 0.999, 10**7)
        times = 10.0 ** np.arange(2, 9)
        assert len({_series_head(warm, t) for t in times}) == len(times)
        for t in times:
            cold = GeometricModelParams(0.5, 0.999, 10**7)
            for read in (failure_intensity, read_intensity_sums):
                assert read_bits(read(warm, t)) == read_bits(read(cold, t))
            assert len(warm.__dict__["_tails"]) <= 3
        assert sorted(warm.__dict__["_tails"]) == [_series_head(warm, t) for t in times[:3]]


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
