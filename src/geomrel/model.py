"""Core equations of the geometric-rates reliability growth model.

The faults present in a system are ordered by how likely each one is to
trigger a failure during a single incident (one usage task).  The rate of
the n-th fault decays geometrically, ``rate(n) = p1 * d**(n-1)``, and each
fault's time to first failure is geometrically distributed with its own
rate.  Expected failure counts and failure intensities are then finite
sums over a truncated fault population.

Those sums take time independent of the population size N.  Up to
``DIRECT_SUM_MAX_TERMS`` terms they are summed fault by fault.  Beyond
that, the first k faults, those with a rate above 1 / max(t_max, 24) for
the largest requested time t_max, are summed directly, and the remaining
N - k terms are replaced by a binomial power series.  Over a
geometric progression every power sum of the rates has the closed form
``sum_{a=k}^{N-1} p_a**j = p_k**j (1 - d**((N-k) j)) / (1 - d**j)``, which
generalises the paper's ``p1 (1 - d**N) / (1 - d)``.  The release-time
denominator ``sum(p_a - p_a**2)`` uses the j = 1 and j = 2 cases of the
same identity.

All operations here are pure functions of immutable inputs and safe for
unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DEFAULT_RATE_FLOOR",
    "GeometricModelParams",
    "additional_time",
    "default_truncation",
    "failure_intensity",
    "fault_cdf",
    "fault_rate",
    "log_likelihood_small",
    "mean_failures",
    "time_for_intensity",
    "time_for_intensity_exact",
]

# Faults whose rate falls below p1 * DEFAULT_RATE_FLOOR are dropped from the
# default truncation of the (conceptually unbounded) fault population.
DEFAULT_RATE_FLOOR = 1e-6

# Sums over at most this many fault terms are summed fault by fault, as is
# a longer sum whose series tail would be no longer than this.  It is the
# measured break-even for a call at a single time: there both routes cost
# about 30 us (2-vCPU x86_64, numpy 2.4), and below it the series' fixed
# per-call cost exceeds what it saves.  Small populations therefore keep
# bit-identical results.
DIRECT_SUM_MAX_TERMS = 1000

# Order of the binomial series that replaces the tail of a long sum.  The
# head ends where max(t, SERIES_ORDER) * p_k <= 1, so term j of the series
# is at most 1/j! relative to the first term; the first omitted one, j = 25,
# is below 1e-25.
SERIES_ORDER = 24
_SERIES_STEPS = np.arange(1, SERIES_ORDER + 1, dtype=float)
_SERIES_POWERS = np.arange(1, SERIES_ORDER + 2, dtype=float)

# Enumeration caps for the exact likelihood; the subset count C(N, x) blows
# up beyond desk scale otherwise.
MAX_LIKELIHOOD_TRUNCATION = 20
MAX_LIKELIHOOD_FAILURES = 5


def default_truncation(d: float, rate_floor: float = DEFAULT_RATE_FLOOR) -> int:
    """Number of fault terms kept by default for decay ratio ``d``.

    Returns the smallest N with ``d**N <= rate_floor``, i.e. the fault
    population is cut once rates drop below ``p1 * rate_floor``.  The tail
    beyond N contributes at most ``rate_floor * p1`` per dropped fault to
    any intensity value.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"d must lie in (0, 1) to derive a truncation, got {d}")
    if not 0.0 < rate_floor < 1.0:
        raise ValueError(f"rate_floor must lie in (0, 1), got {rate_floor}")
    return max(1, math.ceil(math.log(rate_floor) / math.log(d)))


@dataclass(frozen=True)
class GeometricModelParams:
    """Identity of a geometric-rates model.

    ``p1`` is the failure rate of the most failure-prone fault, ``d`` the
    constant ratio between the rates of consecutive faults, and
    ``truncation`` the number N of fault terms evaluated in every sum.
    When ``truncation`` is omitted it is derived with
    :func:`default_truncation`.

    ``d`` must lie strictly inside (0, 1): the release-time formulas and
    the truncation rule divide by ``1 - d`` or ``ln d``.

    Instances are immutable and hashable.
    """

    p1: float
    d: float
    truncation: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p1 < 1.0:
            raise ValueError(f"p1 must lie in (0, 1), got {self.p1}")
        if not 0.0 < self.d < 1.0:
            raise ValueError(f"d must lie in (0, 1), got {self.d}")
        if self.truncation is None:
            object.__setattr__(self, "truncation", default_truncation(self.d))
        n = self.truncation
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"truncation must be a positive integer, got {n!r}")
        object.__setattr__(self, "truncation", int(n))

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-fault rates ``p1 * d**(n-1)`` for n = 1..truncation (read-only)."""
        r = self.p1 * self.d ** np.arange(self.truncation, dtype=float)
        r.setflags(write=False)
        return r

    @cached_property
    def log_survival(self) -> np.ndarray:
        """``ln(1 - rate)`` per fault, evaluated cancellation-free (read-only)."""
        s = np.log1p(-self.rates)
        s.setflags(write=False)
        return s


def fault_rate(params: GeometricModelParams, n: int) -> float:
    """Failure rate of the n-th most failure-prone fault, ``p1 * d**(n-1)``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"fault index must be an integer, got {n!r}")
    if not 1 <= n <= params.truncation:
        raise ValueError(f"fault index {n} outside 1..{params.truncation}")
    return params.p1 * params.d ** (n - 1)


def fault_cdf(p: float, t: float) -> float:
    """Probability that a fault with rate ``p`` has occurred by time ``t``.

    Computes ``1 - (1 - p)**t`` as ``-expm1(t * log1p(-p))`` so that tiny
    rates do not cancel catastrophically.  The per-incident failure process
    is discrete, but real-valued ``t`` is accepted (and interpolates the
    integer-time values monotonically).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"rate must lie in (0, 1), got {p}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return -math.expm1(t * math.log1p(-p))


def _as_time_array(t, minimum: float, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < minimum) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} requires finite t >= {minimum}, got {t!r}")
    return arr, arr.ndim == 0


def _series_head(params: GeometricModelParams, arr: np.ndarray) -> int | None:
    """Number k of leading fault terms summed directly before the series
    tail, or ``None`` when all N terms are summed directly.

    k is the first index with ``max(t_max, SERIES_ORDER) * p_k <= 1``; the
    floor of SERIES_ORDER keeps ``p_k`` small enough for the series to
    converge fast when every requested time is small.
    """
    n = params.truncation
    if n <= DIRECT_SUM_MAX_TERMS:
        return None
    scale = params.p1 * max(float(arr.max(initial=0.0)), SERIES_ORDER)
    k = 0 if scale <= 1.0 else math.ceil(-math.log(scale) / math.log(params.d))
    return None if n - k <= DIRECT_SUM_MAX_TERMS else k


def _direct_terms(params: GeometricModelParams, k: int | None):
    """Rates and ``ln(1 - rate)`` of the faults summed term by term: all N
    (cached on ``params``) when ``k`` is None, else the first k."""
    if k is None:
        return params.rates, params.log_survival
    rates = params.p1 * params.d ** np.arange(k, dtype=float)
    return rates, np.log1p(-rates)


def _tail_power_sums(params: GeometricModelParams, k: int) -> np.ndarray:
    """``g_j = sum_{m=0}^{N-k-1} d**(m j)`` for j = 1..SERIES_ORDER + 1,
    as ``expm1((N - k) j ln d) / expm1(j ln d)`` (cancellation-free)."""
    x = math.log(params.d) * _SERIES_POWERS
    return np.expm1((params.truncation - k) * x) / np.expm1(x)


def _binomial_terms(s: np.ndarray, p: float) -> np.ndarray:
    """``C(s, j) (-p)**j`` for j = 1..SERIES_ORDER, as a running product
    over j, for each element of ``s`` (on a new last axis)."""
    return np.cumprod((_SERIES_STEPS - 1.0 - s[..., np.newaxis]) * (p / _SERIES_STEPS), axis=-1)


def mean_failures(params: GeometricModelParams, t):
    """Expected cumulative number of failures by time ``t`` (incidents).

    Sums each fault's occurrence probability ``1 - (1 - p_a)**t`` over the
    truncated population; non-decreasing in ``t`` and bounded above by the
    truncation count.  Accepts a scalar or an array of times.

    Populations of at most ``DIRECT_SUM_MAX_TERMS`` faults are summed term
    by term.  Larger ones sum the first k terms the same way and the
    remaining ones as ``-sum_j C(t, j) (-p_k)**j g_j`` for j = 1..24, with
    ``g_j`` the closed-form power sum of the tail (see the module
    docstring).  That costs O(points * (k + 24)) whatever N is, and agrees
    with the term-by-term sum to about 1e-15 relative (tests bound it by
    1e-12).
    """
    arr, scalar = _as_time_array(t, 0.0, "mean_failures")
    k = _series_head(params, arr)
    _, log_survival = _direct_terms(params, k)
    vals = (-np.expm1(arr[..., np.newaxis] * log_survival)).sum(axis=-1)
    if k is not None:
        p_k = params.p1 * params.d**k
        vals = vals - _binomial_terms(arr, p_k) @ _tail_power_sums(params, k)[:-1]
    return float(vals) if scalar else vals


def failure_intensity(params: GeometricModelParams, t):
    """Expected number of failures occurring at time ``t`` (per incident).

    Sums the per-fault probability masses ``p_a * (1 - p_a)**(t-1)``;
    strictly decreasing in ``t`` whenever ``d < 1``.  For integer ``t`` this
    equals ``mean_failures(t) - mean_failures(t - 1)``.

    Like :func:`mean_failures`, populations above ``DIRECT_SUM_MAX_TERMS``
    faults sum a head of k terms directly and the tail as
    ``p_k sum_j C(t - 1, j) (-p_k)**j g_(j+1)`` for j = 0..24, in
    O(points * (k + 24)) time and to about 1e-15 relative.
    """
    arr, scalar = _as_time_array(t, 1.0, "failure_intensity")
    k = _series_head(params, arr)
    rates, log_survival = _direct_terms(params, k)
    vals = (rates * np.exp((arr[..., np.newaxis] - 1.0) * log_survival)).sum(axis=-1)
    if k is not None:
        p_k = params.p1 * params.d**k
        g = _tail_power_sums(params, k)
        vals = vals + p_k * (g[0] + _binomial_terms(arr - 1.0, p_k) @ g[1:])
    return float(vals) if scalar else vals


def _occurrence_hazard_sum(params: GeometricModelParams) -> float:
    """``sum(p_a - p_a**2)`` over the fault population, in closed form:
    ``p1 (1 - d**N) / (1 - d) - p1**2 (1 - d**(2N)) / (1 - d**2)``, with
    ``1 - d**x`` taken as ``-expm1(x ln d)``."""
    p1, d = params.p1, params.d
    x = params.truncation * math.log(d)
    return p1 * -math.expm1(x) / (1.0 - d) - p1 * p1 * -math.expm1(2.0 * x) / (
        (1.0 - d) * (1.0 + d)
    )


def time_for_intensity(params: GeometricModelParams, lambda_target: float) -> float:
    """Closed-form time at which the intensity reaches ``lambda_target``.

    Evaluates ``ln(lambda_target) / sum(p_a - p_a**2) + 1`` verbatim.  This
    algebraic shortcut does not invert :func:`failure_intensity` exactly
    for more than one fault and can return values below 1 (even negative
    ones) for small targets; the raw value is returned unclamped so callers
    can decide how to interpret it.  Use :func:`time_for_intensity_exact`
    for the numerical inverse of the intensity curve.
    """
    lam1 = failure_intensity(params, 1.0)
    if lambda_target <= 0:
        raise ValueError(f"intensity target must be positive, got {lambda_target}")
    if lambda_target > lam1:
        raise ValueError(
            f"intensity target {lambda_target} exceeds the initial intensity {lam1}"
        )
    return math.log(lambda_target) / _occurrence_hazard_sum(params) + 1.0


def time_for_intensity_exact(params: GeometricModelParams, lambda_target: float) -> float:
    """Numerical inverse of :func:`failure_intensity` by bisection.

    Returns the t >= 1 with ``failure_intensity(params, t) == lambda_target``
    to floating-point resolution.  The intensity is strictly decreasing, so
    the root is unique.
    """
    lam1 = failure_intensity(params, 1.0)
    if lambda_target <= 0:
        raise ValueError(f"intensity target must be positive, got {lambda_target}")
    if lambda_target > lam1:
        raise ValueError(
            f"intensity target {lambda_target} exceeds the initial intensity {lam1}"
        )
    if lambda_target == lam1:
        return 1.0
    lo, hi = 1.0, 2.0
    while failure_intensity(params, hi) > lambda_target:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if failure_intensity(params, mid) > lambda_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def additional_time(
    params: GeometricModelParams, lambda_now: float, lambda_objective: float
) -> float:
    """Further time needed to move the intensity from ``lambda_now`` to
    ``lambda_objective``.

    Evaluates ``(ln lambda_objective - ln lambda_now) / sum(p_a - p_a**2)``
    and returns exactly 0 when the two intensities coincide.  With rates in
    (0, 1) the denominator is positive, so the printed formula yields a
    negative value whenever the objective lies below the current intensity;
    the raw signed value is surfaced unchanged, and planning arithmetic
    takes its magnitude.
    """
    if lambda_now <= 0 or lambda_objective <= 0:
        raise ValueError("intensities must be positive")
    if lambda_objective > lambda_now:
        raise ValueError(
            f"objective intensity {lambda_objective} exceeds current intensity {lambda_now}"
        )
    if lambda_objective == lambda_now:
        return 0.0
    return (math.log(lambda_objective) - math.log(lambda_now)) / _occurrence_hazard_sum(params)


def log_likelihood_small(params: GeometricModelParams, x: int, t: float) -> float:
    """Exact log-likelihood of observing ``x`` failures by time ``t``.

    Enumerates every size-x subset of the fault population: each subset
    contributes the product of occurrence probabilities for its faults and
    survival probabilities for the rest.  The subset count is C(N, x),
    hence the hard caps (N <= 20, x <= 5); this is a desk-scale
    cross-check, not a fitting route.
    """
    n = params.truncation
    if n > MAX_LIKELIHOOD_TRUNCATION:
        raise ValueError(
            f"truncation {n} exceeds the enumeration cap {MAX_LIKELIHOOD_TRUNCATION}"
        )
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"failure count must be an integer, got {x!r}")
    if not 0 <= x <= MAX_LIKELIHOOD_FAILURES:
        raise ValueError(
            f"failure count {x} outside 0..{MAX_LIKELIHOOD_FAILURES} (enumeration cap)"
        )
    if x > n:
        raise ValueError(f"cannot observe {x} distinct failures from {n} faults")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")

    log_surv = t * params.log_survival  # ln P(fault silent through t)
    base = float(log_surv.sum())
    if x == 0:
        return base
    with np.errstate(divide="ignore"):
        log_occ = np.log(-np.expm1(log_surv))  # ln P(fault occurred by t); -inf at t = 0
    weight = log_occ - log_surv

    best = -math.inf
    terms = []
    for subset in itertools.combinations(range(n), x):
        v = base + float(weight[list(subset)].sum())
        terms.append(v)
        if v > best:
            best = v
    if best == -math.inf:
        return -math.inf
    return best + math.log(math.fsum(math.exp(v - best) for v in terms))
