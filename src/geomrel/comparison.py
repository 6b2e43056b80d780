"""The geometric-rates model and four reference models behind one
fit/predict interface.

Four classic models (Musa basic, Musa-Okumoto, Littlewood-Verrall in its
quadratic form, and an NHPP with exponentially bounded mean) are exposed
with the same contract as the geometric-rates model so that a validity
harness can treat all five uniformly; :func:`fit_model` fits any of them
by name, and every fit reports its optimizer run and boundary alike.  It
alone raises :class:`FitError`, naming the model, from the bare reason a
route's ``ValueError`` gives; every time a model reads goes through
:func:`geomrel.model._checked_times`, the one time check.  The fitted
geometric-rates model is the record of its fit,
:class:`geomrel.estimation.FitResult`, registered as a :class:`ReliabilityModel`.

Musa basic, Musa-Okumoto, and NHPP are rows of one table of closed-form
mean value functions, each with its parameter names, its mean written as a
level times a shape in one rate c, and a start for c.
:class:`ClosedFormModel` fits any row by minimizing the log-scale
least-squares objective of the geometric model (:mod:`geomrel.estimation`)
by variable projection: the best level for each c is a mean, which leaves
a 1-d Levenberg-Marquardt search in ln c.
Musa basic and NHPP share the exponential mean ``a(1 - exp(-bt))`` (Goel &
Okumoto 1979) and their start, and therefore fit identically; they keep
separate names, parameter names and outputs, but ``geomrel evaluate``
fits each prefix once for both (:func:`_fit_key` names the fits that are
equal).  Littlewood-Verrall is TBF-native and is fitted by maximizing its
marginal likelihood over the inverse gamma shape ``u = 1/alpha`` and
mean-interval scales, a parametrization in which the exponential limit
``alpha -> inf`` is the finite point ``u = 0``, by damped Newton steps of
the same in-house loop on the likelihood's analytic gradient and Hessian;
its predictions invert a closed-form expected time to failure n.  Every
route uses the package's own optimizer, so
cross-model comparisons reflect model shape rather than toolchain
differences.  Absolute fitted values therefore need not match those of
other estimation toolchains even on identical data.

Fitted models are immutable; independent fits may run concurrently.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import estimation
from .data import FailureDataset
from .errors import FitError, PredictionError
from .estimation import FitResult
from .model import _checked_times

__all__ = [
    "ALL_MODEL_NAMES",
    "ClosedFormModel",
    "LittlewoodVerrall",
    "LittlewoodVerrallParams",
    "ReliabilityModel",
    "fit_model",
]

# A Littlewood-Verrall fit whose inverse shape 1/alpha falls below this
# sits at the exponential limit alpha -> inf (LittlewoodVerrall.boundary).
EXPONENTIAL_LIMIT_INVERSE_SHAPE = 1e-6

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# A closed-form fit keeps its rate c at or above this over the history's
# last time t_q.  Below it every closed-form mean is linear in t to about
# this relative precision, so the objective stops falling by more than
# rounding, and a smaller rate would only inflate the level (up to
# overflow) on histories without growth.
_LINEAR_LIMIT = 1e-12


# Below this x, the derivatives of L(x) = log1p(x)/x come from their series
# in w = (x/(2 + x))**2 <= 1/4, summed over its first 30 powers (a remainder
# below 1e-16 of the sum); from it on, their closed forms lose at most a few
# ulps to cancellation, which grows as x falls (to 1e-10 at x = 1e-3).
_SERIES_SWITCH = 2.0
_SERIES_POWERS = np.arange(30.0)
# Coefficients of w**j in T(w) = atanh(sqrt w)/sqrt w = sum w**j/(2j + 1)
# and in its first two derivatives, one row each.
_SERIES_COEFFICIENTS = np.stack(
    [
        1.0 / (2.0 * _SERIES_POWERS + 1.0),
        (_SERIES_POWERS + 1.0) / (2.0 * _SERIES_POWERS + 3.0),
        (_SERIES_POWERS + 1.0) * (_SERIES_POWERS + 2.0) / (2.0 * _SERIES_POWERS + 5.0),
    ]
)


def _log1p_ratio_slopes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and second derivatives of ``L(x) = log1p(x)/x`` at each
    x >= 0 of a 1-d array: ``L' = (x/(1 + x) - log1p(x))/x**2`` and
    ``L'' = -(1/(1 + x)**2 + 2 L')/x``, with ``L'(0) = -1/2`` and
    ``L''(0) = 2/3``.

    Below ``_SERIES_SWITCH`` they come from ``L = (1 - y) T(y**2)`` with
    ``y = x/(2 + x)``, since ``log1p(x) = 2 atanh(y)``, differentiated
    through ``dy/dx = (1 - y)**2 / 2``; there the closed forms would
    cancel.  The series are summed by numpy's own reduction over each x's
    terms, not by a matrix product, so that their floats depend neither on
    the BLAS numpy is built with nor on the array's length.  Each branch
    runs on x clipped to its own side of the switch, and the closed forms
    only when some x reaches it.
    """
    near = np.minimum(x, _SERIES_SWITCH)
    y = near / (2.0 + near)
    w = y * y
    powers = np.empty((x.size, _SERIES_POWERS.size))
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, np.newaxis]
    np.multiply.accumulate(powers, axis=1, out=powers)
    t0, t1, t2 = (powers[:, np.newaxis, :] * _SERIES_COEFFICIENTS).sum(axis=2).T
    q = 1.0 - y
    # dL/dy = 2 y q T' - T and its derivative in y.
    by_y = 2.0 * y * q * t1 - t0
    by_yy = (2.0 - 6.0 * y) * t1 + 4.0 * w * q * t2
    slope_near = 0.5 * q * q * by_y
    bend_near = 0.5 * q * q * q * (0.5 * q * by_yy - by_y)

    small = x < _SERIES_SWITCH
    if small.all():
        return slope_near, bend_near
    far = np.maximum(x, _SERIES_SWITCH)
    inverse = 1.0 / (1.0 + far)
    slope_far = (inverse - np.log1p(far) / far) / far
    bend_far = -(inverse * inverse + 2.0 * slope_far) / far
    return np.where(small, slope_near, slope_far), np.where(small, bend_near, bend_far)


class ReliabilityModel(ABC):
    """Common contract of every fitted model.

    Fits (see :func:`fit_model`) are deterministic for a given dataset.
    ``predict_mean`` returns the expected cumulative failure count at a
    time, is 0 at t = 0, and never decreases.  Instances are immutable
    once constructed.

    ``diagnostics`` is the optimizer run of the fit (``None`` for given
    parameters).  ``boundary`` names the edge of the parameter space at
    which a fit stopped short of an interior optimum, or is ``None``.
    """

    model_name: str
    diagnostics: estimation.OptimizerResult | None
    boundary: str | None = None

    def __init__(self, params, diagnostics: estimation.OptimizerResult | None = None):
        self.params = params
        self.diagnostics = diagnostics

    @abstractmethod
    def predict_mean(self, t: float) -> float:
        """Expected cumulative failures at time ``t``."""

    @abstractmethod
    def params_dict(self) -> dict:
        """Fitted parameters as a plain mapping (for serialization)."""


# The geometric fit's record is the fitted geometric model.
ReliabilityModel.register(FitResult)


@dataclass(frozen=True)
class LittlewoodVerrallParams:
    """Inverse gamma shape ``inverse_shape`` (u) and quadratic mean-interval
    scales ``s(i) = scale0 + scale1*i**2``.

    In the gamma-shape form of Littlewood & Verrall (1973), with shape
    ``alpha`` and trend ``phi(i) = beta0 + beta1*i**2``, these are
    ``u = 1/alpha``, ``scale0 = beta0/alpha`` and ``scale1 = beta1/alpha``.
    ``u = 0`` is the exponential limit ``alpha -> inf``: intervals become
    exponential with mean ``s(i)``.  Expected times between failures are
    ``s(i) / (1 - u)``, finite only for ``u < 1`` (``alpha > 1``).
    Construction allows any finite ``u >= 0`` so that a fit landing at
    ``u >= 1`` can still be reported; predictions from such a fit are
    refused.
    """

    inverse_shape: float
    scale0: float
    scale1: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.inverse_shape, self.scale0, self.scale1)):
            raise ValueError("Littlewood-Verrall parameters must be finite")
        if not self.inverse_shape >= 0:
            raise ValueError("inverse_shape must be non-negative")
        if not (self.scale0 > 0 and self.scale1 >= 0):
            raise ValueError("scale0 must be positive and scale1 non-negative")

    def scale(self, i) -> float:
        return self.scale0 + self.scale1 * np.square(i)

    def expected_tbf(self, i) -> float:
        """Expected interval before failure ``i``; needs inverse_shape < 1."""
        if self.inverse_shape >= 1.0:
            raise PredictionError(
                f"inverse shape u={self.inverse_shape:.4g} >= 1 (gamma shape alpha <= 1) "
                "makes expected times between failures infinite; prediction refused"
            )
        return self.scale(i) / (1.0 - self.inverse_shape)

    def expected_time_to(self, n: int) -> float:
        """Expected time to failure ``n``: the sum of ``expected_tbf(i)``
        over i = 1..n, ``(n*scale0 + scale1*n(n+1)(2n+1)/6) / (1 - u)``."""
        self.expected_tbf(1)  # refuses u >= 1
        n = float(n)
        # scale1 multiplies first, so scale1 = 0 gives 0 where n**3 overflows.
        squares = self.scale1 * n * (n + 1.0) * (2.0 * n + 1.0) / 6.0
        return (n * self.scale0 + squares) / (1.0 - self.inverse_shape)


class _ClosedForm(NamedTuple):
    """One closed-form model: its two parameter names, its mean value
    function ``mean(p, t)``, and the same mean written as
    ``exp(level) * shape(c, t)`` for a rate c, which is how it is fitted:
    ``log_shape(c, t)`` returns ``ln shape`` and its derivative in ln c,
    ``params(c, level)`` the parameters of that mean, and ``start(t_q)``
    the rate to start from for a history ending at ``t_q``."""

    param_names: tuple[str, str]
    mean: Callable
    log_shape: Callable
    params: Callable
    start: Callable


def _exponential_mean(p, t):
    """Bounded mean ``p[0] * (1 - exp(-p[1] * t))`` (Goel & Okumoto 1979)."""
    return p[0] * -np.expm1(-p[1] * t)


def _exponential_log_shape(c, t):
    """``ln(1 - exp(-c t))``, and its derivative in ln c,
    ``c t / expm1(c t)``."""
    ct = c * t
    return np.log(-np.expm1(-ct)), ct / np.expm1(ct)


def _exponential_params(c, level):
    # a(1 - exp(-b t)) with a = exp(level) and b = c.
    return math.exp(level), c


def _logarithmic_mean(p, t):
    """Unbounded mean ``ln(lambda0 * theta * t + 1) / theta`` with initial
    slope ``lambda0``."""
    return np.log1p(p[0] * p[1] * t) / p[1]


def _logarithmic_log_shape(c, t):
    """``ln ln(1 + c t)``, and its derivative in ln c,
    ``c t / ((1 + c t) ln(1 + c t))``."""
    ct = c * t
    shape = np.log1p(ct)
    return np.log(shape), ct / ((1.0 + ct) * shape)


def _logarithmic_params(c, level):
    # ln(1 + c t) / theta with theta = exp(-level) and lambda0 = c / theta.
    return c * math.exp(level), math.exp(-level)


def _exponential_start(t_q: float) -> float:
    # The rate b of the exponential mean to start from, 1/t_q.
    return 1.0 / t_q


def _logarithmic_start(t_q: float) -> float:
    # lambda0 * theta of the logarithmic mean through the final point
    # (t_q, q) with theta = 1/q: expm1(1)/t_q, whatever q is.
    return math.expm1(1.0) / t_q


_EXPONENTIAL = (_exponential_mean, _exponential_log_shape, _exponential_params, _exponential_start)

_CLOSED_FORMS = {
    # Equally likely faults, piecewise exponential interfailure times,
    # intensity proportional to the faults remaining.
    "musa-basic": _ClosedForm(("beta0", "beta1"), *_EXPONENTIAL),
    # Logarithmic Poisson growth: intensity decays exponentially with the
    # failures experienced, so the mean grows without bound.
    "musa-okumoto": _ClosedForm(
        ("lambda0", "theta"),
        _logarithmic_mean,
        _logarithmic_log_shape,
        _logarithmic_params,
        _logarithmic_start,
    ),
    # Poisson-counted detections whose expected number in a small interval
    # stays proportional to the faults still undetected: Musa basic's mean
    # form without its stochastic story.
    "nhpp": _ClosedForm(("a", "b"), *_EXPONENTIAL),
}


class ClosedFormModel(ReliabilityModel):
    """A model with a closed-form mean value function, fitted by the same
    log-scale least squares as the geometric model.

    ``model_name`` is one of ``musa-basic`` (``beta0``, ``beta1``),
    ``musa-okumoto`` (``lambda0``, ``theta``) or ``nhpp`` (``a``, ``b``);
    ``params`` holds the two finite positive parameters in that order, so
    that a fit whose level overflows is refused.

    ``boundary`` is ``"no-growth"`` for a fit that ended on its bound on
    the rate, ``c t_q = 1e-12``: there the mean is linear in t to rounding,
    as for a history without reliability growth, and the objective would
    still fall, by no more than rounding, as c falls.  It is ``None`` for
    an interior fit and for given parameters.
    """

    def __init__(
        self,
        model_name: str,
        params,
        diagnostics: estimation.OptimizerResult | None = None,
        boundary: str | None = None,
    ):
        if model_name not in _CLOSED_FORMS:
            raise ValueError(
                f"unknown closed-form model {model_name!r}; choose from {sorted(_CLOSED_FORMS)}"
            )
        first, second = params
        if not (0 < first < math.inf and 0 < second < math.inf):
            raise ValueError(
                f"{model_name} parameters must be finite and positive, got {params!r}"
            )
        self.model_name = model_name
        self.boundary = boundary
        super().__init__((float(first), float(second)), diagnostics)

    @classmethod
    def fit(cls, model_name: str, ds: FailureDataset) -> "ClosedFormModel":
        """Least squares between log counts and the log mean, by variable
        projection (Golub & Pereyra 1973).  For a fixed rate c the best
        level is the mean of ``log_counts - ln shape(c, t)``, which leaves
        a 1-d Levenberg-Marquardt search in ln c on the centred residuals,
        bounded below at ``c t_q = _LINEAR_LIMIT``; their derivative is
        minus the centred derivative of ``ln shape`` in ln c.  A fit that
        ends on that bound is named ``"no-growth"`` (:attr:`boundary`).
        The reported objective is recomputed at the returned parameters."""
        form = _CLOSED_FORMS[model_name]
        times, log_counts, _ = estimation._usable_arrays(ds, fewest=2)
        # The latest probe's derivative of ln shape and centred residuals.
        slope = residuals = None

        # Each probe centres its own fresh arrays in place: np.add.reduce
        # is ndarray.sum() to the bit, and sum / size ndarray.mean(),
        # without their Python wrappers.
        def objective(z: np.ndarray):
            nonlocal slope, residuals
            v = float(z[0])  # ln c
            if not abs(v) < _LOG_FLOAT_MAX:
                return None
            residuals, slope = form.log_shape(math.exp(v), times)
            np.subtract(log_counts, residuals, out=residuals)
            residuals -= np.add.reduce(residuals) / residuals.size
            return float(residuals.dot(residuals))

        def derivatives(z: np.ndarray):
            column = np.subtract(np.add.reduce(slope) / slope.size, slope, out=slope)
            return [float(column.dot(residuals))], [[float(column.dot(column))]]

        t_q = ds.final_time
        lower = [math.log(_LINEAR_LIMIT / t_q)]
        best, diag = estimation.levenberg_marquardt(
            objective, derivatives, [math.log(form.start(t_q))], lower
        )
        v = float(best[0])
        c = math.exp(v)
        # The search's own probes ran with these warnings off; the shape at
        # the point it returns can overflow its slope just as they did.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            levels = log_counts - form.log_shape(c, times)[0]
            level = float(levels.sum() / levels.size)
            params = form.params(c, level)
            value = estimation._log_count_objective(form.mean, params, times, log_counts)
        boundary = "no-growth" if v == lower[0] else None
        return cls(model_name, params, replace(diag, value=value), boundary)

    def predict_mean(self, t):
        """Expected cumulative failures at ``t``, a scalar (read as a float) or an array."""
        t, _ = _checked_times(t, 0.0, f"{self.model_name}: predict_mean")
        mean = _CLOSED_FORMS[self.model_name].mean(self.params, t)
        return float(mean) if isinstance(t, float) else mean[..., 0]

    def params_dict(self) -> dict:
        return dict(zip(_CLOSED_FORMS[self.model_name].param_names, self.params))


class LittlewoodVerrall(ReliabilityModel):
    """Bayesian TBF model: exponential interfailure times whose hazards carry
    gamma priors with quadratically growing scale parameter.

    Integrating the prior makes each observed interval ``t_i``
    Pareto-distributed.  With inverse shape ``u`` and scale
    ``s_i = scale0 + scale1*i**2`` (see :class:`LittlewoodVerrallParams`)
    its negative log-density is

        ln s_i + (1 + u) * (t_i/s_i) * L(u * t_i/s_i),   L(x) = log1p(x)/x,

    with ``L(0) = 1``.  This is the classic
    ``-ln[alpha phi_i**alpha / (t_i + phi_i)**(alpha + 1)]`` rewritten so
    that it stays finite and continuous at ``u = 0``, the exponential limit
    ``alpha -> inf``, and at ``scale1 = 0``.  The fit minimizes the sum of
    these terms over ``(u, ln scale0, scale1/m)``, m the mean interval, with
    :func:`geomrel.estimation.levenberg_marquardt`, from analytic first and
    second derivatives of each term (through ``L'`` and ``L''``, see
    :func:`_log1p_ratio_slopes`), with lower bounds ``u >= 0`` and
    ``scale1 >= 0``.  It starts at the nested exponential model's optimum,
    ``u = scale1 = 0`` and ``scale0`` the mean interval, and leaves a bound
    only where the gradient pulls it off.  A step cut short by a bound ends
    exactly on it, so a fit reaches either limit instead of drifting
    towards it.  A fit at the exponential limit is named by
    :attr:`boundary`.

    Predictions invert the closed-form expected time to failure n,
    ``(n*scale0 + scale1*n(n+1)(2n+1)/6)/(1 - u)``, by integer bisection
    and interpolate inside the last interval.
    """

    model_name = "littlewood-verrall"
    min_failures = 5

    @property
    def boundary(self) -> str | None:
        """``"exponential-limit"`` when the inverse shape is below
        ``EXPONENTIAL_LIMIT_INVERSE_SHAPE``, otherwise ``None``.

        There the fit sits at the edge ``alpha -> inf`` of the gamma
        family: the history shows no evidence of varying hazards, and the
        intervals are fitted as exponential with means ``s(i)``.
        ``converged`` still says only whether the search met its stopping
        criterion, with u held on its bound.
        """
        if self.params.inverse_shape < EXPONENTIAL_LIMIT_INVERSE_SHAPE:
            return "exponential-limit"
        return None

    @classmethod
    def fit(cls, ds):
        tbf = ds.time_between_failures()
        n = tbf.size
        if n < cls.min_failures:
            raise ValueError(f"needs at least {cls.min_failures} failures, got {n}")
        squared = np.square(np.arange(1, n + 1, dtype=float))
        scale = float(np.mean(tbf))
        # Intervals near the bottom of the float range give a subnormal
        # mean, whose logarithm loses its digits.
        if not sys.float_info.min <= scale <= sys.float_info.max:
            raise ValueError(
                f"the start's mean interval {scale!r} is not a positive normal float; "
                "the intervals are too small to fit"
            )
        # At u = scale1 = 0 the terms are ln s + t_i/s, least at s = the mean
        # interval.  The search runs in (u, ln scale0, scale1 / scale): with
        # the mean interval as the unit of scale1, no derivative depends on
        # the unit of time.
        start = [0.0, math.log(scale), 0.0]
        spread = scale * squared  # d s / d(scale1 / m)
        unit = np.ones(n)
        probed = []  # the latest probe's (u, scale0, scales, ratios, x, L(x))

        def negative_log_likelihood(z: np.ndarray):
            u, log_scale0, trend = z.tolist()
            # Above the log of the largest float, exp overflows; below its
            # negative, scale0 underflows to zero.
            if abs(log_scale0) > _LOG_FLOAT_MAX:
                return None
            scale0 = math.exp(log_scale0)
            # Tiny scales or huge u can still overflow the ratios below;
            # such probes come out non-finite, which the loop rejects, with
            # numpy's warnings off for its whole run.
            scales = scale0 + trend * scale * squared
            ratios = tbf / scales
            if u == 0.0:  # every x is 0, and L(0) = 1
                x, log1p_ratio = 0.0, 1.0
            else:
                x = u * ratios
                log1p_ratio = np.divide(np.log1p(x), x, out=unit.copy(), where=x > 0)
            probed[:] = u, scale0, scales, ratios, x, log1p_ratio
            return float((np.log(scales) + (1.0 + u) * ratios * log1p_ratio).sum())

        def derivatives(z: np.ndarray):
            u, scale0, scales, ratios, x, log1p_ratio = probed
            if u == 0.0:
                slope, bend = -0.5, 2.0 / 3.0  # L'(0) and L''(0)
            else:
                slope, bend = _log1p_ratio_slopes(x)
            grown = 1.0 + u
            shifted = 1.0 + x
            share = grown * ratios / shifted
            ratios2 = ratios * ratios
            # Each term's derivatives in ln s (first, second, and across u),
            # and d s / s in each scale coordinate: all free of the unit of
            # time.
            by_s = 1.0 - share
            by_ss = share * (2.0 + x) / shifted - 1.0
            by_us = ratios * (ratios - 1.0) / (shifted * shifted)
            p = scale0 / scales
            q = spread / scales
            by_ss_p = by_ss * p
            sums = np.array(
                [
                    ratios * log1p_ratio + grown * ratios2 * slope,
                    ratios2 * (2.0 * slope + grown * ratios * bend),
                    by_s * p,
                    by_s * q,
                    by_us * p,
                    by_us * q,
                    by_ss_p * p,
                    by_ss_p * q,
                    by_ss * q * q,
                ]
            ).sum(axis=1)
            g_u, h_uu, g_a, g_b, h_ua, h_ub, h_aa, h_ab, h_bb = (0.5 * sums).tolist()
            # ln scale0 also enters s through d s = scale0 d(ln scale0).
            h_aa += g_a
            return [g_u, g_a, g_b], [[h_uu, h_ua, h_ub], [h_ua, h_aa, h_ab], [h_ub, h_ab, h_bb]]

        best, diag = estimation.levenberg_marquardt(
            negative_log_likelihood, derivatives, start, lower=[0.0, -math.inf, 0.0]
        )
        u, log_scale0, trend = best.tolist()
        return cls(LittlewoodVerrallParams(u, math.exp(log_scale0), trend * scale), diag)

    def predict_mean(self, t) -> float:
        """Expected cumulative failures at a scalar time ``t``."""
        t, _ = _checked_times(t, 0.0, f"{self.model_name}: predict_mean")
        if not isinstance(t, float):
            raise ValueError(f"{self.model_name}: predict_mean requires a scalar t")
        if t == 0:
            return 0.0
        time_to = self.params.expected_time_to
        # Find n with time_to(n - 1) < t <= time_to(n): grow the bracket
        # by doubling, then bisect it.
        lo, hi = 0, 1
        while time_to(hi) < t:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if time_to(mid) < t:
                lo = mid
            else:
                hi = mid
        # Interpolate inside interval n = hi.  Dividing by the difference of
        # the two sums keeps the fraction in (0, 1] under rounding, so the
        # prediction never decreases across an interval boundary.
        covered, reached = time_to(lo), time_to(hi)
        # An overflowing sum (inf, or nan from 0 * inf) ends no interval.
        if not math.isfinite(reached):
            raise PredictionError(
                f"{self.model_name}: the expected time to failure overflows "
                f"before it reaches t={t!r}"
            )
        return lo + (t - covered) / (reached - covered)

    def params_dict(self) -> dict:
        return {
            "inverse_shape": self.params.inverse_shape,
            "scale0": self.params.scale0,
            "scale1": self.params.scale1,
        }


# The order of ALL_MODEL_NAMES is the order of evaluate's outputs.
ALL_MODEL_NAMES = ("geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp")


def _fit_key(model_name: str):
    """A key two model names share exactly when their fits are equal: a
    closed-form row without its parameter names, otherwise the name
    itself."""
    form = _CLOSED_FORMS.get(model_name)
    return model_name if form is None else form[1:]


def fit_model(model_name: str, ds: FailureDataset) -> ReliabilityModel:
    """Fit any supported model by name: the geometric-rates model (its
    :func:`geomrel.estimation.fit` record), Littlewood-Verrall, or one of
    the closed-form models."""
    if model_name not in ALL_MODEL_NAMES:
        raise ValueError(f"unknown model {model_name!r}; choose from {sorted(ALL_MODEL_NAMES)}")
    try:
        if model_name in _CLOSED_FORMS:
            return ClosedFormModel.fit(model_name, ds)
        if model_name == LittlewoodVerrall.model_name:
            return LittlewoodVerrall.fit(ds)
        return estimation.fit(ds)
    except ValueError as exc:
        raise FitError(f"{model_name}: {exc}") from exc
