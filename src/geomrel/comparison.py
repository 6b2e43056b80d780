"""Reference reliability growth models behind one fit/predict interface.

Four classic models (Musa basic, Musa-Okumoto, Littlewood-Verrall in its
quadratic form, and an NHPP with exponentially bounded mean) are exposed
with the same contract as the geometric-rates model so that a validity
harness can treat all five uniformly.

Musa basic, Musa-Okumoto, and NHPP are fitted by the same log-scale least
squares used for the geometric model, applied to their closed-form mean
value functions; Littlewood-Verrall is TBF-native and is fitted by
maximizing its marginal likelihood.  Every route uses the in-house
Nelder-Mead optimizer, so cross-model comparisons reflect model shape
rather than toolchain differences.  Absolute fitted values therefore need
not match those of other estimation toolchains even on identical data.

Fitted models are immutable; independent fits may run concurrently.
"""

from __future__ import annotations

import json
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import estimation, model
from .data import FailureDataset
from .errors import FitError, PredictionError

__all__ = [
    "GeometricRates",
    "LittlewoodVerrall",
    "LittlewoodVerrallParams",
    "MusaBasic",
    "MusaBasicParams",
    "MusaOkumoto",
    "MusaOkumotoParams",
    "Nhpp",
    "NhppParams",
    "ReliabilityModel",
    "ALL_MODEL_NAMES",
    "REFERENCE_MODEL_NAMES",
    "fit_comparison",
    "fit_model",
    "littlewood_verrall_fit_predict",
    "musa_basic_mean",
    "musa_okumoto_mean",
    "nhpp_mean",
]

# Expected-TBF accumulation in Littlewood-Verrall predictions stops here;
# reaching the cap means the requested horizon is absurd for the fit.
_LV_PREDICTION_INDEX_CAP = 50_000_000

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ReliabilityModel(ABC):
    """Common contract of every fitted model.

    ``fit`` is deterministic for a given dataset and optimizer config,
    ``predict_mean`` returns the expected cumulative failure count at a
    time, is 0 at t = 0, and never decreases.  Instances are immutable
    once constructed.
    """

    model_name: ClassVar[str]

    @classmethod
    @abstractmethod
    def fit(cls, ds: FailureDataset, config: estimation.OptimizerConfig | None = None):
        """Fit the model to a failure history and return the fitted instance."""

    @abstractmethod
    def predict_mean(self, t: float) -> float:
        """Expected cumulative failures at time ``t``."""

    def params_dict(self) -> dict:
        """Fitted parameters as a plain mapping (for serialization)."""
        raise NotImplementedError

    def params_json(self) -> str:
        return json.dumps({self.model_name: self.params_dict()}, indent=2)


@dataclass(frozen=True)
class MusaBasicParams:
    """Expected total failures ``beta0`` and per-fault hazard ``beta1``."""

    beta0: float
    beta1: float

    def __post_init__(self) -> None:
        if not (self.beta0 > 0 and self.beta1 > 0):
            raise ValueError("Musa basic parameters must be positive")


@dataclass(frozen=True)
class MusaOkumotoParams:
    """Initial intensity ``lambda0`` and intensity decay ``theta``."""

    lambda0: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.lambda0 > 0 and self.theta > 0):
            raise ValueError("Musa-Okumoto parameters must be positive")


@dataclass(frozen=True)
class NhppParams:
    """Expected total failures ``a`` and detection rate ``b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError("NHPP parameters must be positive")


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


def _validated_times(t, what: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} requires finite t >= 0, got {t!r}")
    return arr, arr.ndim == 0


def musa_basic_mean(params: MusaBasicParams, t):
    """Bounded exponential mean ``beta0 * (1 - exp(-beta1 * t))``."""
    arr, scalar = _validated_times(t, "musa_basic_mean")
    vals = params.beta0 * -np.expm1(-params.beta1 * arr)
    return float(vals) if scalar else vals


def musa_okumoto_mean(params: MusaOkumotoParams, t):
    """Logarithmic mean ``ln(lambda0 * theta * t + 1) / theta``; unbounded,
    with initial slope ``lambda0``."""
    arr, scalar = _validated_times(t, "musa_okumoto_mean")
    vals = np.log1p(params.lambda0 * params.theta * arr) / params.theta
    return float(vals) if scalar else vals


def nhpp_mean(params: NhppParams, t):
    """Bounded mean ``a * (1 - exp(-b * t))``: the expected detections in a
    small interval stay proportional to the faults still undetected."""
    arr, scalar = _validated_times(t, "nhpp_mean")
    vals = params.a * -np.expm1(-params.b * arr)
    return float(vals) if scalar else vals


def _fit_mean_by_log_least_squares(name, mean_of_logparams, ds, start_log, config):
    """Shared least-squares route for models with a closed-form mean.

    ``mean_of_logparams(z, times)`` evaluates the mean value function at
    exp-transformed parameters, which keeps them positive without
    constraining the simplex.
    """
    config = config or estimation.OptimizerConfig()
    try:
        times, log_counts, _ = estimation._usable_arrays(ds)
    except ValueError as exc:
        raise FitError(f"{name}: {exc}") from exc
    if times.size < 2:
        raise FitError(f"{name}: need at least 2 usable points, got {times.size}")

    def objective(z: np.ndarray) -> float:
        # Excursions of the simplex can push exp(z) past float range; the
        # resulting non-finite means are rejected as +inf probes.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu = mean_of_logparams(z, times)
            if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
                return math.inf
            residuals = log_counts - np.log(mu)
            return float(residuals @ residuals)

    try:
        best, diag = estimation.nelder_mead(objective, config, start_log)
    except ValueError as exc:
        raise FitError(f"{name}: {exc}") from exc
    return np.exp(best), diag


def _exponential_mean_start(ds: FailureDataset) -> np.ndarray:
    # beta1 = 1/t_q and beta0 solving mean(t_q) = q give an exact interpolant
    # of the final point, a deterministic data-driven start.
    t_q = ds.final_time
    q = float(ds.final_count)
    return np.log([q / -math.expm1(-1.0), 1.0 / t_q])


class MusaBasic(ReliabilityModel):
    """Equally likely faults, piecewise exponential interfailure times,
    intensity proportional to the faults remaining."""

    model_name = "musa-basic"

    def __init__(self, params: MusaBasicParams, diagnostics: estimation.SimplexResult | None = None):
        self.params = params
        self.diagnostics = diagnostics

    @classmethod
    def fit(cls, ds, config=None):
        vec, diag = _fit_mean_by_log_least_squares(
            cls.model_name,
            lambda z, t: np.exp(z[0]) * -np.expm1(-np.exp(z[1]) * t),
            ds,
            _exponential_mean_start(ds),
            config,
        )
        return cls(MusaBasicParams(float(vec[0]), float(vec[1])), diag)

    def predict_mean(self, t) -> float:
        return musa_basic_mean(self.params, t)

    def params_dict(self) -> dict:
        return {"beta0": self.params.beta0, "beta1": self.params.beta1}


class MusaOkumoto(ReliabilityModel):
    """Logarithmic Poisson growth: intensity decays exponentially with the
    failures experienced, so the mean grows without bound."""

    model_name = "musa-okumoto"

    def __init__(self, params: MusaOkumotoParams, diagnostics: estimation.SimplexResult | None = None):
        self.params = params
        self.diagnostics = diagnostics

    @classmethod
    def fit(cls, ds, config=None):
        t_q = ds.final_time
        q = float(ds.final_count)
        # theta = 1/q makes the start hit the final point exactly:
        # ln(lambda0*theta*t_q + 1)/theta = q  =>  lambda0 = expm1(theta*q)/(theta*t_q).
        theta0 = 1.0 / q
        lambda0 = math.expm1(theta0 * q) / (theta0 * t_q)
        vec, diag = _fit_mean_by_log_least_squares(
            cls.model_name,
            lambda z, t: np.log1p(np.exp(z[0]) * np.exp(z[1]) * t) / np.exp(z[1]),
            ds,
            np.log([lambda0, theta0]),
            config,
        )
        return cls(MusaOkumotoParams(float(vec[0]), float(vec[1])), diag)

    def predict_mean(self, t) -> float:
        return musa_okumoto_mean(self.params, t)

    def params_dict(self) -> dict:
        return {"lambda0": self.params.lambda0, "theta": self.params.theta}


class Nhpp(ReliabilityModel):
    """Poisson-counted detections with a bounded non-decreasing mean; shares
    the exponential mean form with Musa basic but not its stochastic story."""

    model_name = "nhpp"

    def __init__(self, params: NhppParams, diagnostics: estimation.SimplexResult | None = None):
        self.params = params
        self.diagnostics = diagnostics

    @classmethod
    def fit(cls, ds, config=None):
        vec, diag = _fit_mean_by_log_least_squares(
            cls.model_name,
            lambda z, t: np.exp(z[0]) * -np.expm1(-np.exp(z[1]) * t),
            ds,
            _exponential_mean_start(ds),
            config,
        )
        return cls(NhppParams(float(vec[0]), float(vec[1])), diag)

    def predict_mean(self, t) -> float:
        return nhpp_mean(self.params, t)

    def params_dict(self) -> dict:
        return {"a": self.params.a, "b": self.params.b}


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


def littlewood_verrall_fit_predict(ds: FailureDataset, config=None):
    """Fit the quadratic Littlewood-Verrall model; returns its parameters and
    the prediction function for expected cumulative failures."""
    fitted = LittlewoodVerrall.fit(ds, config)
    return fitted.params, fitted.predict_mean


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


_REFERENCE_REGISTRY = {
    cls.model_name: cls for cls in (MusaBasic, MusaOkumoto, LittlewoodVerrall, Nhpp)
}
_FULL_REGISTRY = {GeometricRates.model_name: GeometricRates, **_REFERENCE_REGISTRY}

REFERENCE_MODEL_NAMES = tuple(_REFERENCE_REGISTRY)
ALL_MODEL_NAMES = tuple(_FULL_REGISTRY)


def fit_comparison(model_name: str, ds: FailureDataset, config=None) -> ReliabilityModel:
    """Fit one of the four reference models by name."""
    if model_name not in _REFERENCE_REGISTRY:
        raise ValueError(
            f"unknown comparison model {model_name!r}; choose from {sorted(REFERENCE_MODEL_NAMES)}"
        )
    return _REFERENCE_REGISTRY[model_name].fit(ds, config)


def fit_model(model_name: str, ds: FailureDataset, config=None) -> ReliabilityModel:
    """Fit any supported model (the geometric-rates model or a reference
    model) by name."""
    if model_name not in _FULL_REGISTRY:
        raise ValueError(
            f"unknown model {model_name!r}; choose from {sorted(ALL_MODEL_NAMES)}"
        )
    return _FULL_REGISTRY[model_name].fit(ds, config)
