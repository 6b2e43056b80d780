"""The geometric-rates model and four reference models behind one
fit/predict interface.

Four classic models (Musa basic, Musa-Okumoto, Littlewood-Verrall in its
quadratic form, and an NHPP with exponentially bounded mean) are exposed
with the same contract as the geometric-rates model so that a validity
harness can treat all five uniformly; :func:`fit_model` fits any of them
by name.

Musa basic, Musa-Okumoto, and NHPP are rows of one table of closed-form
mean value functions, each with its parameter names and a start that
interpolates the history's final point.  :class:`ClosedFormModel` fits any
row by the same log-scale least squares used for the geometric model.
Musa basic and NHPP share the exponential mean ``a(1 - exp(-bt))`` (Goel &
Okumoto 1979) and therefore fit identically; they keep separate names,
parameter names and outputs.  Littlewood-Verrall is TBF-native and is
fitted by maximizing its marginal likelihood.  Every route uses the
in-house Nelder-Mead optimizer, so cross-model comparisons reflect model
shape rather than toolchain differences.  Absolute fitted values therefore
need not match those of other estimation toolchains even on identical
data.

Fitted models are immutable; independent fits may run concurrently.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import estimation, model
from .data import FailureDataset
from .errors import FitError, PredictionError

__all__ = [
    "ALL_MODEL_NAMES",
    "ClosedFormModel",
    "GeometricRates",
    "LittlewoodVerrall",
    "LittlewoodVerrallParams",
    "ReliabilityModel",
    "fit_model",
]

# Expected-TBF accumulation in Littlewood-Verrall predictions stops here;
# reaching the cap means the requested horizon is absurd for the fit.
_LV_PREDICTION_INDEX_CAP = 50_000_000

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ReliabilityModel(ABC):
    """Common contract of every fitted model.

    Fits (see :func:`fit_model`) are deterministic for a given dataset and
    optimizer config.  ``predict_mean`` returns the expected cumulative
    failure count at a time, is 0 at t = 0, and never decreases.
    Instances are immutable once constructed.
    """

    model_name: str

    @abstractmethod
    def predict_mean(self, t: float) -> float:
        """Expected cumulative failures at time ``t``."""

    @abstractmethod
    def params_dict(self) -> dict:
        """Fitted parameters as a plain mapping (for serialization)."""


@dataclass(frozen=True)
class LittlewoodVerrallParams:
    """Gamma shape ``alpha`` and quadratic trend ``phi(i) = beta0 + beta1*i**2``.

    Expected times between failures are ``phi(i) / (alpha - 1)``, which is
    finite only for ``alpha > 1``.  Construction allows any positive alpha
    so that a fit landing at alpha <= 1 can still be reported; predictions
    from such a fit are refused.
    """

    alpha: float
    beta0: float
    beta1: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not (self.beta0 > 0 and self.beta1 > 0):
            raise ValueError("beta0 and beta1 must be positive")

    def trend(self, i) -> float:
        return self.beta0 + self.beta1 * np.square(i)

    def expected_tbf(self, i) -> float:
        """Expected interval before failure ``i``; needs alpha > 1."""
        if self.alpha <= 1.0:
            raise PredictionError(
                f"shape alpha={self.alpha:.4g} <= 1 makes expected times between "
                "failures infinite; prediction refused"
            )
        return self.trend(i) / (self.alpha - 1.0)


class _ClosedForm(NamedTuple):
    """One closed-form model: its two parameter names, its mean value
    function ``mean(p, t)`` and its start ``start(t_q, q) -> p``, which
    interpolates the final point ``(t_q, q)`` of a history exactly."""

    param_names: tuple[str, str]
    mean: Callable
    start: Callable


def _exponential_mean(p, t):
    """Bounded mean ``p[0] * (1 - exp(-p[1] * t))`` (Goel & Okumoto 1979)."""
    return p[0] * -np.expm1(-p[1] * t)


def _exponential_start(t_q: float, q: float) -> tuple[float, float]:
    # Rate 1/t_q, and the total solving mean(t_q) = q.
    return q / -math.expm1(-1.0), 1.0 / t_q


def _logarithmic_mean(p, t):
    """Unbounded mean ``ln(lambda0 * theta * t + 1) / theta`` with initial
    slope ``lambda0``."""
    return np.log1p(p[0] * p[1] * t) / p[1]


def _logarithmic_start(t_q: float, q: float) -> tuple[float, float]:
    # theta = 1/q: ln(lambda0*theta*t_q + 1)/theta = q
    #   =>  lambda0 = expm1(theta*q)/(theta*t_q).
    theta = 1.0 / q
    return math.expm1(theta * q) / (theta * t_q), theta


_CLOSED_FORMS = {
    # Equally likely faults, piecewise exponential interfailure times,
    # intensity proportional to the faults remaining.
    "musa-basic": _ClosedForm(("beta0", "beta1"), _exponential_mean, _exponential_start),
    # Logarithmic Poisson growth: intensity decays exponentially with the
    # failures experienced, so the mean grows without bound.
    "musa-okumoto": _ClosedForm(("lambda0", "theta"), _logarithmic_mean, _logarithmic_start),
    # Poisson-counted detections whose expected number in a small interval
    # stays proportional to the faults still undetected: Musa basic's mean
    # form without its stochastic story.
    "nhpp": _ClosedForm(("a", "b"), _exponential_mean, _exponential_start),
}


class ClosedFormModel(ReliabilityModel):
    """A model with a closed-form mean value function, fitted by the same
    log-scale least squares as the geometric model.

    ``model_name`` is one of ``musa-basic`` (``beta0``, ``beta1``),
    ``musa-okumoto`` (``lambda0``, ``theta``) or ``nhpp`` (``a``, ``b``);
    ``params`` holds the two positive parameters in that order.
    """

    def __init__(
        self, model_name: str, params, diagnostics: estimation.SimplexResult | None = None
    ):
        if model_name not in _CLOSED_FORMS:
            raise ValueError(
                f"unknown closed-form model {model_name!r}; choose from {sorted(_CLOSED_FORMS)}"
            )
        first, second = params
        if not (first > 0 and second > 0):
            raise ValueError(f"{model_name} parameters must be positive, got {params!r}")
        self.model_name = model_name
        self.params = (float(first), float(second))
        self.diagnostics = diagnostics

    @classmethod
    def fit(cls, model_name: str, ds: FailureDataset, config=None) -> "ClosedFormModel":
        """Least squares between log counts and the log mean, searched over
        log-parameters so that ``exp(z)`` keeps them positive."""
        form = _CLOSED_FORMS[model_name]
        config = config or estimation.OptimizerConfig()
        try:
            times, log_counts, _ = estimation._usable_arrays(ds)
        except ValueError as exc:
            raise FitError(f"{model_name}: {exc}") from exc
        if times.size < 2:
            raise FitError(f"{model_name}: need at least 2 usable points, got {times.size}")

        def objective(z: np.ndarray) -> float:
            # Excursions of the simplex can push exp(z) past float range; the
            # resulting non-finite means are rejected as +inf probes.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                mu = form.mean(np.exp(z), times)
                if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
                    return math.inf
                residuals = log_counts - np.log(mu)
                return float(residuals @ residuals)

        # Only after the check above: the starts divide by the final count.
        start = np.log(form.start(ds.final_time, float(ds.final_count)))
        try:
            best, diag = estimation.nelder_mead(objective, config, start)
        except ValueError as exc:
            raise FitError(f"{model_name}: {exc}") from exc
        return cls(model_name, np.exp(best), diag)

    def predict_mean(self, t):
        """Expected cumulative failures at ``t`` (a scalar or an array)."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.model_name}: predict_mean requires finite t >= 0, got {t!r}")
        vals = _CLOSED_FORMS[self.model_name].mean(self.params, arr)
        return float(vals) if arr.ndim == 0 else vals

    def params_dict(self) -> dict:
        return dict(zip(_CLOSED_FORMS[self.model_name].param_names, self.params))


class LittlewoodVerrall(ReliabilityModel):
    """Bayesian TBF model: exponential interfailure times whose hazards carry
    gamma priors with quadratically growing scale parameter.

    Integrating the prior makes each observed interval Pareto-distributed
    with density ``alpha * phi(i)**alpha / (t + phi(i))**(alpha + 1)``;
    the fit maximizes that marginal likelihood.  Predictions accumulate
    expected intervals ``phi(i)/(alpha - 1)`` until they cover the asked
    time, interpolating inside the last interval, because the model has no
    closed-form mean value function.
    """

    model_name = "littlewood-verrall"
    min_failures = 5

    def __init__(self, params: LittlewoodVerrallParams, diagnostics: estimation.SimplexResult | None = None):
        self.params = params
        self.diagnostics = diagnostics

    @classmethod
    def fit(cls, ds, config=None):
        config = config or estimation.OptimizerConfig(max_iterations=4000)
        tbf = ds.time_between_failures()
        n = tbf.size
        if n < cls.min_failures:
            raise FitError(
                f"{cls.model_name}: needs at least {cls.min_failures} failures, got {n}"
            )
        indices = np.arange(1, n + 1, dtype=float)
        squared = np.square(indices)

        def negative_log_likelihood(z: np.ndarray) -> float:
            # Above the log of the largest float, exp(z) overflows.
            if max(z.tolist()) > _LOG_FLOAT_MAX:
                return math.inf
            alpha, beta0, beta1 = np.exp(z)
            if not (np.isfinite(alpha) and np.isfinite(beta0) and np.isfinite(beta1)):
                return math.inf
            phi = beta0 + beta1 * squared
            ll = n * math.log(alpha) + alpha * np.log(phi).sum() - (alpha + 1.0) * np.log(tbf + phi).sum()
            return -float(ll) if math.isfinite(ll) else math.inf

        # Moment-style start: regress the intervals on i^2 for the trend and
        # begin at alpha = 2, where expected TBF equals the trend itself.
        slope, intercept = np.polyfit(squared, tbf, 1)
        scale = float(np.mean(tbf))
        beta1_start = max(float(slope), 1e-6 * scale / squared[-1])
        beta0_start = max(float(intercept), 1e-3 * scale)
        start = np.log([2.0, beta0_start, beta1_start])

        try:
            best, diag = estimation.nelder_mead(negative_log_likelihood, config, start)
        except ValueError as exc:
            raise FitError(f"{cls.model_name}: {exc}") from exc
        alpha, beta0, beta1 = np.exp(best)
        return cls(LittlewoodVerrallParams(float(alpha), float(beta0), float(beta1)), diag)

    def predict_mean(self, t) -> float:
        if t < 0 or not math.isfinite(t):
            raise ValueError(f"predict_mean requires finite t >= 0, got {t!r}")
        if t == 0:
            return 0.0
        covered = 0.0
        i = 1
        while i <= _LV_PREDICTION_INDEX_CAP:
            interval = self.params.expected_tbf(i)
            if covered + interval >= t:
                return (i - 1) + (t - covered) / interval
            covered += interval
            i += 1
        raise PredictionError(
            f"{self.model_name}: horizon t={t} needs more than "
            f"{_LV_PREDICTION_INDEX_CAP} expected intervals"
        )

    def params_dict(self) -> dict:
        return {
            "alpha": self.params.alpha,
            "beta0": self.params.beta0,
            "beta1": self.params.beta1,
        }


class GeometricRates(ReliabilityModel):
    """The geometric-rates model exposed through the comparison interface."""

    model_name = "geometric"

    def __init__(self, params: model.GeometricModelParams, fit_result: estimation.FitResult | None = None):
        self.params = params
        self.fit_result = fit_result

    @classmethod
    def fit(cls, ds, config=None):
        try:
            result = estimation.fit(ds, config)
        except ValueError as exc:
            raise FitError(f"{cls.model_name}: {exc}") from exc
        return cls(result.params, result)

    def predict_mean(self, t) -> float:
        return model.mean_failures(self.params, t)

    def params_dict(self) -> dict:
        return {
            "p1": self.params.p1,
            "d": self.params.d,
            "truncation": self.params.truncation,
        }


# The order of ALL_MODEL_NAMES is the order of evaluate's outputs.
ALL_MODEL_NAMES = ("geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp")


def fit_model(model_name: str, ds: FailureDataset, config=None) -> ReliabilityModel:
    """Fit any supported model by name: the geometric-rates model,
    Littlewood-Verrall, or one of the closed-form models."""
    if model_name in _CLOSED_FORMS:
        return ClosedFormModel.fit(model_name, ds, config)
    if model_name == GeometricRates.model_name:
        return GeometricRates.fit(ds, config)
    if model_name == LittlewoodVerrall.model_name:
        return LittlewoodVerrall.fit(ds, config)
    raise ValueError(
        f"unknown model {model_name!r}; choose from {sorted(ALL_MODEL_NAMES)}"
    )
