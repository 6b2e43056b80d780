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
generalises the paper's ``p1 (1 - d**N) / (1 - d)``; an empty head
(k = 0) costs no pass.  The release-time denominator ``sum(p_a - p_a**2)``
uses the j = 1 and j = 2 cases of the same identity.

All operations here are pure functions of immutable inputs and safe for
unrestricted concurrent use.  The params cache in their ``__dict__`` what
depends on them alone, so that a planning request pays once for each
quantity:

* one array of leading fault rates, with their ``ln(1 - rate)``: the
  longest head any sum (or ``rates``) has asked for, which is sliced for
  shorter ones;
* the tail sums of :func:`_tail_sums`, keyed by head length (at most
  ``_PROBE_MEMO_SIZE``), which the geometric fit's probes at one d share;
* the release-time denominator ``sum(p_a - p_a**2)``;
* a memo of the intensities that the release-time searches evaluated,
  keyed by time, t = 1 included, so that the searches for several
  targets share their common probes.  It holds at most
  ``_PROBE_MEMO_SIZE`` (1,024) times; once full, further probes are
  evaluated without being kept.

Each cached value is the float a fresh evaluation gives, so a read on
warm params equals the read on fresh ones.  A racing writer can only
replace a value with an equal one, and can push the memo past its bound
by at most one entry per racing thread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RATE_FLOOR",
    "GeometricModelParams",
    "additional_time",
    "default_truncation",
    "failure_intensity",
    "fault_rate",
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
_SERIES_OFFSETS = _SERIES_STEPS - 1.0
_SERIES_POWERS = np.arange(1, SERIES_ORDER + 2, dtype=float)

# Fault indices 0, 1, 2, ... as floats, sliced for every head up to this
# length (any head of a population of at most 10,000 faults, the largest a
# fit takes); a longer head builds its own.
_INDEX_TERMS = 10_000
_INDICES = np.arange(_INDEX_TERMS, dtype=float)
_INDICES.setflags(write=False)

# time_for_intensity_exact bisects its bracket down to at most this many
# floats, then probes the floats inside it one by one.
_BRACKET_ULPS = 4
# The last finite time doubling from 2 reaches.
_MAX_DOUBLING = 2.0**1023
_LN2 = math.log(2.0)
_LN16 = math.log(16.0)
# A gap within this of zero is rounding noise to the secant.
_GAP_NOISE = 4.0 * sys.float_info.epsilon
# The most times at which a params keeps the intensities its release-time
# searches evaluated.  A search probes about 13 times, t = 1 included, so
# the three searches of a planning request stay well inside it; a search
# whose bracket grows towards 2**1023 (up to 1,023 steps) fills it and
# evaluates its further probes afresh.  A full memo holds about 100 kB.
_PROBE_MEMO_SIZE = 1024


def default_truncation(d: float) -> int:
    """Number of fault terms kept by default for decay ratio ``d``.

    Returns the smallest N with ``d**N <= DEFAULT_RATE_FLOOR``, i.e. the
    fault population is cut once rates drop below
    ``p1 * DEFAULT_RATE_FLOOR``.  The tail beyond N contributes at most
    ``DEFAULT_RATE_FLOOR * p1`` per dropped fault to any intensity value.
    """
    if not 0.0 < d < 1.0:
        raise ValueError(f"d must lie in (0, 1) to derive a truncation, got {d}")
    return max(1, math.ceil(math.log(DEFAULT_RATE_FLOOR) / math.log(d)))


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
        if n > sys.float_info.max:
            raise ValueError(
                f"truncation must not exceed the float range ({sys.float_info.max:.4g})"
            )
        object.__setattr__(self, "truncation", int(n))

    @classmethod
    def _from_checked(cls, p1: float, d: float, truncation: int) -> "GeometricModelParams":
        """Params from values that already pass :meth:`__post_init__`'s
        checks (floats p1 and d in (0, 1), an int truncation from 1 to the
        float range), built without checking them again."""
        params = object.__new__(cls)
        params.__dict__.update(p1=p1, d=d, truncation=truncation)
        return params

    @property
    def rates(self) -> np.ndarray:
        """Per-fault rates ``p1 * d**(n-1)`` for n = 1..truncation (read-only)."""
        return _direct_terms(self, self.truncation)[0]

    @property
    def log_survival(self) -> np.ndarray:
        """``ln(1 - rate)`` per fault, evaluated cancellation-free (read-only)."""
        return _direct_terms(self, self.truncation)[1]


def fault_rate(params: GeometricModelParams, n: int) -> float:
    """Failure rate of the n-th most failure-prone fault, ``p1 * d**(n-1)``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"fault index must be an integer, got {n!r}")
    if not 1 <= n <= params.truncation:
        raise ValueError(f"fault index {n} outside 1..{params.truncation}")
    return params.p1 * params.d ** (n - 1)


def _checked_times(t, minimum: float, what: str):
    """``t`` once every time in it is checked to be finite and at least
    ``minimum``, and its largest time (0 when it has none): the one check
    of a time argument, whose refusal names the reader ``what``.

    A scalar (0-d) time is checked with float comparisons and returned as
    a float; an array gains a last axis of length 1.  Either form
    broadcasts against a head of fault terms, and a sum over that head has
    the shape of ``t``: a scalar read costs no array reductions, and a
    Python float no array at all."""
    if type(t) is float:
        # A NaN fails the first comparison, and +inf the second.
        if not (t >= minimum and t < math.inf):
            raise ValueError(f"{what} requires finite t >= {minimum}, got {t!r}")
        return t, t
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        value = float(arr)
        # A NaN fails the first comparison, and +inf the second.
        if not (value >= minimum and value < math.inf):
            raise ValueError(f"{what} requires finite t >= {minimum}, got {t!r}")
        return value, value
    if not arr.size:
        return arr[..., np.newaxis], 0.0
    t_max = float(arr.max())
    # A NaN fails the first comparison, and -inf or +inf one of the two.
    if not (arr.min() >= minimum and t_max < math.inf):
        raise ValueError(f"{what} requires finite t >= {minimum}, got {t!r}")
    return arr[..., np.newaxis], t_max


def _series_head(params: GeometricModelParams, t_max: float) -> int:
    """Number k of leading fault terms summed directly before the series
    tail, for requested times up to ``t_max``; k = N when all N terms are
    summed directly and there is no tail.

    k is the first index with ``max(t_max, SERIES_ORDER) * p_k <= 1``; the
    floor of SERIES_ORDER keeps ``p_k`` small enough for the series to
    converge fast when every requested time is small.
    """
    n = params.truncation
    if n <= DIRECT_SUM_MAX_TERMS:
        return n
    scale = params.p1 * max(t_max, SERIES_ORDER)
    k = 0 if scale <= 1.0 else math.ceil(-math.log(scale) / math.log(params.d))
    return n if n - k <= DIRECT_SUM_MAX_TERMS else k


def _fault_indices(k: int) -> np.ndarray:
    """The fault indices 0.0, 1.0, ..., k - 1 of a head of k faults."""
    return _INDICES[:k] if k <= _INDEX_TERMS else np.arange(k, dtype=float)


def _direct_terms(params: GeometricModelParams, k: int):
    """Rates and ``ln(1 - rate)`` of the first k faults, those summed term
    by term.  Both are cached on ``params``; a head is sliced from the
    longest one built so far, which gives the same floats as building it
    afresh (``d**n`` is elementwise), and returned as it is when k is its
    length."""
    head = params.__dict__.get("_head")
    if head is None or head[0].size < k:
        rates = params.p1 * params.d ** _fault_indices(k)
        log_survival = np.log1p(-rates)
        rates.setflags(write=False)
        log_survival.setflags(write=False)
        head = params.__dict__["_head"] = (rates, log_survival)
    if head[0].size == k:
        return head
    return head[0][:k], head[1][:k]


def _occurrence_sum(t, log_survival: np.ndarray):
    """``sum_a 1 - (1 - p_a)**t`` for each time of ``t`` (a float, or an
    array with a last axis of length 1), as ``-expm1(t ln(1 - p_a))``
    summed over the last axis, and the array of ``expm1`` terms.

    ``expm1`` overwrites the product ``t ln(1 - p_a)`` it is taken of, a
    fresh array, so the pass allocates one points x terms array, not two;
    ``log_survival`` is only read.  The sums are negated, not the terms,
    which saves a pass over that array and gives the same floats: rounding
    is symmetric in sign.  ``0.0 -`` keeps an all-zero sum (t = 0) at
    +0.0."""
    terms = t * log_survival
    np.expm1(terms, out=terms)
    return 0.0 - terms.sum(axis=-1), terms


def _tail_sums(params: GeometricModelParams, k: int) -> list:
    """``[g, weighted]`` for the tail after a head of k faults: the power
    sums ``g_j = sum_{m=0}^{N-k-1} d**(m j)`` for j = 1..SERIES_ORDER + 1,
    as ``expm1((N - k) j ln d) / expm1(j ln d)`` (cancellation-free), and
    the weighted sums of :func:`_intensity_sums`, None until it builds
    them.  Both depend on d, N and k alone; they are kept on ``params``
    while its cache holds fewer than ``_PROBE_MEMO_SIZE`` heads.

    Beyond 2**63 terms ``d**(m j)`` is 0 in floats for every float d < 1
    (``2**63 ln d < -1000``), so N - k is capped there: the product stays
    finite and the sums do not change."""
    tails = params.__dict__.setdefault("_tails", {})
    tail = tails.get(k)
    if tail is None:
        x = math.log(params.d) * _SERIES_POWERS
        tail = [np.expm1(min(params.truncation - k, 2.0**63) * x) / np.expm1(x), None]
        if len(tails) < _PROBE_MEMO_SIZE:
            tails[k] = tail
    return tail


def _binomial_terms(s, p: float) -> np.ndarray:
    """``C(s, j) (-p)**j`` for j = 1..SERIES_ORDER, as a running product
    over j, on a last axis of its own for a float ``s`` or in place of the
    length-1 last axis of an array ``s``."""
    return np.multiply.accumulate((_SERIES_OFFSETS - s) * (p / _SERIES_STEPS), axis=-1)


def _mean_terms(params: GeometricModelParams, t, t_max: float):
    """The mean at ``t``, a time checked by :func:`_checked_times` with
    largest value ``t_max``, and the head's ``expm1(t ln(1 - p_a))``
    array: the one transcendental pass of a mean, which the geometric fit
    reuses for its Jacobian (:func:`_intensity_sums`)."""
    k = _series_head(params, t_max)
    if k:
        vals, terms = _occurrence_sum(t, _direct_terms(params, k)[1])
    else:
        vals, terms = 0.0, np.empty(np.shape(t)[:-1] + (0,))
    if k < params.truncation:
        p_k = params.p1 * params.d**k
        vals = vals - _binomial_terms(t, p_k) @ _tail_sums(params, k)[0][:-1]
    return vals, terms


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
    t, t_max = _checked_times(t, 0.0, "mean_failures")
    vals, _ = _mean_terms(params, t, t_max)
    return float(vals) if isinstance(t, float) else vals


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
    t, t_max = _checked_times(t, 1.0, "failure_intensity")
    k = _series_head(params, t_max)
    vals = 0.0
    if k:
        rates, log_survival = _direct_terms(params, k)
        # exp and the product with the rates overwrite a fresh array.
        terms = (t - 1.0) * log_survival
        np.exp(terms, out=terms)
        terms *= rates
        vals = terms.sum(axis=-1)
    if k < params.truncation:
        p_k = params.p1 * params.d**k
        g = _tail_sums(params, k)[0]
        vals = vals + p_k * (g[0] + _binomial_terms(t - 1.0, p_k) @ g[1:])
    return float(vals) if isinstance(t, float) else vals


def _intensity_sums(params: GeometricModelParams, t: np.ndarray, terms: np.ndarray):
    """The intensity ``sum_a p_a (1 - p_a)**(t - 1)`` and its weighted sum
    ``sum_a a p_a (1 - p_a)**(t - 1)``, over faults a = 0..N-1, at each
    time of ``t`` (an array with a last axis of length 1), given the head
    array ``terms`` that :func:`_mean_terms` returned for the same params
    and times.  ``terms`` is overwritten with ``1 + terms``, the survivals
    ``(1 - p_a)**t``, so a mean's terms serve one call, and the fit calls
    it once per accepted point.

    They give the derivatives of the mean: ``d mu / d p1 = t lambda / p1``
    and ``d mu / d d = t W / d`` for the weighted sum W, as
    ``d p_a / d d = a p_a / d``.  Over the head, ``(1 - p_a)**(t - 1)`` is
    ``(1 + expm1(t ln(1 - p_a))) / (1 - p_a)``, so both sums weight the
    mean's own terms, plus 1, with ``p_a / (1 - p_a)`` and need no second
    exp pass.  Each ``1 + expm1`` is within about 1.5e-16 of
    ``(1 - p_a)**t``, so a head sum is within about 1.5e-16 times the sum
    of its weights.  A row whose intensity is below 1e-4 of its weights'
    sum (the survivals are all tiny, as at times far beyond 1 / p_a, or a
    p_a near 1 has a huge weight) takes its survivals from an exp pass
    instead, so every sum keeps about 2e-12 relative accuracy against the
    exp pass.  On the series route the tail of W is
    ``p_k sum_j C(t - 1, j) (-p_k)**j (k g_(j+1) + h_(j+1))`` with
    ``h_j = sum_{m=0}^{M-1} m d**(m j)`` for the M = N - k tail faults,
    ``(q g_j - M q**M) / (1 - q)`` in closed form with q = d**j; the sums
    ``k g_j + h_j`` are kept with ``g_j`` (:func:`_tail_sums`).
    """
    k = terms.shape[-1]
    intensity = weighted = 0.0
    if k:
        rates, log_survival = _direct_terms(params, k)
        indices = _fault_indices(k)
        weights = rates / (1.0 - rates)
        survival = np.add(terms, 1.0, out=terms)
        intensity = survival @ weights
        weighted = survival @ (indices * weights)
        # The survivals grow with a, so the weighted sum's share of its
        # weights is at least the intensity's: one check covers both.
        loose = intensity < 1e-4 * weights.sum()
        if loose.any():
            survival = np.exp((t[loose] - 1.0) * log_survival)
            intensity[loose] = survival @ rates
            weighted[loose] = survival @ (indices * rates)
    if k < params.truncation:
        p_k = params.p1 * params.d**k
        g, g_weighted = tail = _tail_sums(params, k)
        if g_weighted is None:
            x = math.log(params.d) * _SERIES_POWERS
            m = min(params.truncation - k, 2.0**63)
            g_weighted = tail[1] = k * g + (np.exp(x) * g - m * np.exp(m * x)) / -np.expm1(x)
        binomial = _binomial_terms(t - 1.0, p_k)
        intensity = intensity + p_k * (g[0] + binomial @ g[1:])
        weighted = weighted + p_k * (g_weighted[0] + binomial @ g_weighted[1:])
    return intensity, weighted


def _occurrence_hazard_sum(params: GeometricModelParams) -> float:
    """``sum(p_a - p_a**2)`` over the fault population, in closed form:
    ``p1 (1 - d**N) / (1 - d) - p1**2 (1 - d**(2N)) / (1 - d**2)``, with
    ``1 - d**x`` taken as ``-expm1(x ln d)``; kept on ``params`` once
    computed."""
    hazard = params.__dict__.get("_hazard")
    if hazard is not None:
        return hazard
    p1, d = params.p1, params.d
    x = params.truncation * math.log(d)
    hazard = p1 * -math.expm1(x) / (1.0 - d)
    hazard -= p1 * p1 * -math.expm1(2.0 * x) / ((1.0 - d) * (1.0 + d))
    if not hazard > 0.0:  # a subnormal p1
        raise ValueError(f"the release-time denominator sum(p_a - p_a**2) is {hazard} at p1 = {p1}")
    params.__dict__["_hazard"] = hazard
    return hazard


def _probe_intensity(params: GeometricModelParams, t: float) -> float:
    """``failure_intensity(params, t)`` at a float time, evaluated through
    the module attribute the first time t is asked for and read from the
    params' memo after that.  The memo keeps at most
    ``_PROBE_MEMO_SIZE`` times; beyond that a time is evaluated afresh.
    An evaluation that raises leaves the memo as it was."""
    memo = params.__dict__.setdefault("_probes", {})
    lam = memo.get(t)
    if lam is None:
        lam = failure_intensity(params, t)
        if len(memo) < _PROBE_MEMO_SIZE:
            memo[t] = lam
    return lam


def _initial_intensity(params: GeometricModelParams, lambda_target: float) -> float:
    """The intensity at t = 1, once ``lambda_target`` is checked to be a
    finite positive intensity not above it."""
    if not lambda_target > 0 or not math.isfinite(lambda_target):
        raise ValueError(f"intensity target must be finite and positive, got {lambda_target}")
    lam1 = _probe_intensity(params, 1.0)
    if lambda_target > lam1:
        raise ValueError(
            f"intensity target {lambda_target} exceeds the initial intensity {lam1}"
        )
    return lam1


def time_for_intensity(params: GeometricModelParams, lambda_target: float) -> float:
    """Closed-form time at which the intensity reaches ``lambda_target``.

    Evaluates ``ln(lambda_target) / sum(p_a - p_a**2) + 1`` verbatim.  This
    algebraic shortcut does not invert :func:`failure_intensity` exactly
    for more than one fault and can return values below 1 (even negative
    ones) for small targets; the raw value is returned unclamped so callers
    can decide how to interpret it.  Use :func:`time_for_intensity_exact`
    for the numerical inverse of the intensity curve.
    """
    _initial_intensity(params, lambda_target)
    return math.log(lambda_target) / _occurrence_hazard_sum(params) + 1.0


def time_for_intensity_exact(params: GeometricModelParams, lambda_target: float) -> float:
    """Numerical inverse of :func:`failure_intensity`.

    Returns the t >= 1 with ``failure_intensity(params, t) == lambda_target``
    to floating-point resolution: the float t with
    ``failure_intensity(params, prev) > lambda_target >=
    failure_intensity(params, t)``, where ``prev`` is the float just below
    t (t = 1 when the target is the initial intensity).  Every evaluation
    goes through the module attribute ``failure_intensity``, once per time
    and params: a time that an earlier search on the same params probed
    (t = 1 included) is read from the params' memo.

    The search runs on the gap ``ln intensity - ln lambda_target``, which
    is positive below the root and close to linear in ln t.  It grows a
    bracket from t = 1 by log-log extrapolation along the gap's slope
    (taken as -1 until two probes measure it), each step multiplying t by
    2 to 16.  Then rounds of two probes close it: the root of the chord of
    the gap, then a point just across the root re-estimated from the new
    ends, past it by its distance from the first probe and at least by the
    reach of the gap's rounding noise, so that both ends close in.  A
    round that fails to halve the bracket is followed by a bisection
    step, or ends the rounds once the bracket is within a few noise
    reaches, where the secant has nothing left to place.  Bisection then
    closes the bracket to ``_BRACKET_ULPS`` floats, and the floats above
    its lower end are probed one by one; the first one not above the
    target is the answer: about 12 evaluations for release-planning targets.

    The intensity is strictly decreasing, but its computed value can be
    non-monotone over a few floats next to the root; there the answer is
    the lowest such t in the final bracket.
    """
    lam1 = _initial_intensity(params, lambda_target)
    if lambda_target == lam1:
        return 1.0
    lo, lo_gap, hi, hi_gap = 1.0, math.log(lam1 / lambda_target), math.inf, -math.inf

    def narrow(t):
        """Probe t and move the end of the bracket on its side there; True
        when t lies below the root."""
        nonlocal lo, lo_gap, hi, hi_gap
        lam = _probe_intensity(params, t)
        # The gap as ln(1 + diff / target), to full precision when small.
        diff = lam - lambda_target
        share = diff / lambda_target
        if share > -0.5:
            gap = math.log1p(share)
        else:
            value = lambda_target + diff
            gap = math.log(value) - math.log(lambda_target) if value > 0.0 else -math.inf
        if lam > lambda_target:
            lo, lo_gap = t, gap
            return True
        hi, hi_gap = t, gap
        return False

    def midpoint():
        # The geometric midpoint, or the mean when rounding puts it on an end.
        x = math.sqrt(lo) * math.sqrt(hi)
        return x if lo < x < hi else 0.5 * (lo + hi)

    def chord():
        """Where the chord of the gap against ln t crosses zero, kept two
        floats inside the bracket, and how far in ln t the gap's rounding
        noise reaches along it; the midpoint and 0 when the chord does not
        fall."""
        drop = lo_gap - hi_gap
        if not 0.0 < drop < math.inf:
            return midpoint(), 0.0
        width = math.log(hi / lo)
        x = lo * math.exp(lo_gap / drop * width)
        x = min(max(x, lo + 2.0 * math.ulp(lo)), hi - 2.0 * math.ulp(hi))
        return x, _GAP_NOISE / drop * width

    # Grow the bracket until a probe lands above the root.
    slope = -1.0
    while True:
        reach = lo_gap / -slope if slope < 0.0 else math.inf
        if lo < _MAX_DOUBLING:
            t = min(lo * math.exp(min(max(reach, _LN2), _LN16)), _MAX_DOUBLING)
        else:
            t = 2.0 * lo  # infinite: the intensity refuses it
        last, last_gap = lo, lo_gap
        if not narrow(t):
            break
        slope = (lo_gap - last_gap) / math.log(lo / last)

    # Secant rounds.
    while hi - lo > _BRACKET_ULPS * math.ulp(lo):
        width = math.log(hi / lo)
        first, noise = chord()
        narrow(first)
        if hi - lo <= _BRACKET_ULPS * math.ulp(lo):
            break
        root, _ = chord()
        step = max(abs(root - first), first * noise)
        across = root + step if first == lo else root - step
        narrow(across if lo < across < hi else midpoint())
        if hi - lo > _BRACKET_ULPS * math.ulp(lo) and math.log(hi / lo) > 0.5 * width:
            if math.log(hi / lo) <= 8.0 * noise:
                break
            narrow(midpoint())

    # Bisection down to a few floats, then the floats one by one.
    while hi - lo > _BRACKET_ULPS * math.ulp(lo):
        narrow(0.5 * (lo + hi))
    t = math.nextafter(lo, math.inf)
    while t < hi and narrow(t):
        t = math.nextafter(t, math.inf)
    return t


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
    for lam in (lambda_now, lambda_objective):
        if not lam > 0 or not math.isfinite(lam):
            raise ValueError(f"intensities must be finite and positive, got {lam}")
    if lambda_objective > lambda_now:
        raise ValueError(
            f"objective intensity {lambda_objective} exceeds current intensity {lambda_now}"
        )
    if lambda_objective == lambda_now:
        return 0.0
    return (math.log(lambda_objective) - math.log(lambda_now)) / _occurrence_hazard_sum(params)
