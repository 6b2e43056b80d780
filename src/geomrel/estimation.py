"""Least-squares parameter estimation for the geometric-rates model.

The objective is the squared distance between observed and modelled
cumulative failure counts on a log scale,

    S(p1, d) = sum_j (ln r_j - ln mu(t_j; p1, d))**2,

minimized with a self-contained Nelder-Mead simplex optimizer.  The two
parameters live in (0, 1)^2; the search runs in an unconstrained space via
the inverse-sigmoid map of each parameter so feasibility never has to be
patched up afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import FailureDataset
from .model import GeometricModelParams, default_truncation, mean_failures

__all__ = [
    "FitResult",
    "OptimizerConfig",
    "SimplexResult",
    "fit",
    "least_squares_objective",
    "nelder_mead",
]

# Candidate decay ratios whose default truncation would exceed this many
# fault terms are rejected as non-finite probes during fitting.  An
# evaluation no longer costs more with more terms (the model's sums take
# time independent of N); the cap keeps fitted populations at N <= 10,000.
# A history without reliability growth pulls d towards 1 and ends the fit
# on this cap, which FitResult.boundary reports.
MAX_FIT_TRUNCATION = 10_000

_INITIAL_DECAY_GUESS = 0.94


@dataclass(frozen=True)
class OptimizerConfig:
    """Nelder-Mead coefficients, termination settings, and the optional
    starting point for :func:`fit`.

    Termination watches the function-value spread across the simplex
    rather than vertex distances because the fit objective is flat in the
    decay ratio near the optimum, where distance criteria stall.
    """

    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    tolerance: float = 1e-8
    max_iterations: int = 2000
    initial_guess: tuple[float, float] | None = None
    initial_step: float = 0.25

    def __post_init__(self) -> None:
        if self.reflection <= 0:
            raise ValueError("reflection coefficient must be positive")
        if self.expansion <= 1:
            raise ValueError("expansion coefficient must exceed 1")
        if not 0 < self.contraction < 1:
            raise ValueError("contraction coefficient must lie in (0, 1)")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink coefficient must lie in (0, 1)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.initial_step == 0:
            raise ValueError("initial_step must be non-zero")


@dataclass(frozen=True)
class SimplexResult:
    """Diagnostics of one Nelder-Mead run.

    ``evaluations`` counts every objective call, the initial vertices
    included; ``nonfinite_evaluations`` counts those that were not finite.
    """

    x: tuple[float, ...]
    value: float
    iterations: int
    converged: bool
    simplex_spread: float
    nonfinite_evaluations: int
    initial_step: float
    evaluations: int


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus optimizer diagnostics.

    ``objective_value`` is the least-squares objective at ``params`` and
    matches a recomputation via :func:`least_squares_objective` exactly.
    ``skipped_points`` counts measurements with zero cumulative failures,
    which carry no information on a log scale.
    """

    params: GeometricModelParams
    objective_value: float
    iterations: int
    converged: bool
    simplex_spread: float
    skipped_points: int

    @property
    def boundary(self) -> str | None:
        """``"truncation-cap"`` when the fitted truncation equals
        ``MAX_FIT_TRUNCATION``, otherwise ``None``.

        A fit on the cap stopped against the search bound, not at an
        interior optimum: the objective still falls as d moves towards 1,
        as it does for a history without reliability growth.
        ``converged`` only says that the simplex collapsed, which it also
        does there.
        """
        return "truncation-cap" if self.params.truncation == MAX_FIT_TRUNCATION else None

    def to_dict(self) -> dict:
        return {
            "p1": self.params.p1,
            "d": self.params.d,
            "truncation": self.params.truncation,
            "objective": self.objective_value,
            "iterations": self.iterations,
            "converged": self.converged,
            "skipped_points": self.skipped_points,
            "boundary": self.boundary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _usable_arrays(ds: FailureDataset) -> tuple[np.ndarray, np.ndarray, int]:
    """Times and log-counts of the points with at least one failure."""
    mask = ds.counts >= 1
    if not mask.any():
        raise ValueError("no usable points: every cumulative count is zero")
    times = ds.times[mask]
    log_counts = np.log(ds.counts[mask].astype(float))
    return times, log_counts, int((~mask).sum())


def _objective_on_arrays(params: GeometricModelParams, times, log_counts) -> float:
    mu = mean_failures(params, times)
    mu = np.atleast_1d(mu)
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        return math.inf
    residuals = log_counts - np.log(mu)
    return float(residuals @ residuals)


def least_squares_objective(params: GeometricModelParams, ds: FailureDataset) -> float:
    """Log-scale squared error between a failure history and the model mean.

    Points whose cumulative count is zero are skipped (their logarithm is
    undefined and the history effectively starts at the first failure).
    Raises if no point is usable.
    """
    times, log_counts, _ = _usable_arrays(ds)
    return _objective_on_arrays(params, times, log_counts)


def nelder_mead(objective, config: OptimizerConfig, start) -> tuple[np.ndarray, SimplexResult]:
    """Minimize a k-dimensional function with the reflect/expand/contract/
    shrink simplex method.

    The initial simplex is ``start`` plus ``config.initial_step`` along each
    coordinate; the objective must be finite at all of these vertices.
    Later probes returning non-finite values are treated as +inf and
    tallied in the diagnostics.  Iteration stops when the function-value
    spread across the simplex drops to ``config.tolerance`` or the budget
    runs out; the best vertex seen is returned either way and is never
    worse than the best initial vertex.

    Two deterministic tie conventions matter on plateaus: a reflected
    point that exactly ties the worst vertex takes the contraction branch
    that works with the reflected point (replacing the worst vertex with
    an equal-valued mirror image instead would cycle forever), and a value
    spread of exactly zero across geometrically distinct vertices counts
    as a tie plateau rather than convergence (it happens when the simplex
    straddles a kink symmetrically), so the walk continues there.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("start must be a non-empty 1-d vector")
    k = x0.size

    nonfinite = 0
    evaluations = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal nonfinite, evaluations
        evaluations += 1
        v = float(objective(x))
        if not math.isfinite(v):
            nonfinite += 1
            return math.inf
        return v

    simplex = [x0.copy()]
    for i in range(k):
        vertex = x0.copy()
        vertex[i] += config.initial_step
        simplex.append(vertex)
    values = [evaluate(v) for v in simplex]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("objective is not finite at the initial simplex vertices")

    def tolerance_met() -> bool:
        spread = values[-1] - values[0]
        if spread > config.tolerance:
            return False
        if spread == 0.0:
            return all(np.array_equal(v, simplex[0]) for v in simplex[1:])
        return True

    iterations = 0
    converged = False
    while True:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if tolerance_met():
            converged = True
            break
        if iterations >= config.max_iterations:
            break
        iterations += 1

        # np.mean(simplex[:-1], axis=0) bit for bit (the same left-to-right
        # row sum, divided by k), without its per-call dispatch cost.
        centroid = simplex[0].copy()
        for vertex in simplex[1:-1]:
            centroid += vertex
        centroid /= k
        reflected = centroid + config.reflection * (centroid - simplex[-1])
        f_reflected = evaluate(reflected)

        if f_reflected < values[0]:
            expanded = centroid + config.expansion * (reflected - centroid)
            f_expanded = evaluate(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected <= values[-1]:
            contracted = centroid + config.contraction * (reflected - centroid)
            f_contracted = evaluate(contracted)
            if f_contracted <= f_reflected:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, k + 1):
                    simplex[i] = simplex[0] + config.shrink * (simplex[i] - simplex[0])
                    values[i] = evaluate(simplex[i])
        else:
            contracted = centroid + config.contraction * (simplex[-1] - centroid)
            f_contracted = evaluate(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, k + 1):
                    simplex[i] = simplex[0] + config.shrink * (simplex[i] - simplex[0])
                    values[i] = evaluate(simplex[i])

    result = SimplexResult(
        x=tuple(float(v) for v in simplex[0]),
        value=values[0],
        iterations=iterations,
        converged=converged,
        simplex_spread=float(values[-1] - values[0]),
        nonfinite_evaluations=nonfinite,
        initial_step=config.initial_step,
        evaluations=evaluations,
    )
    return simplex[0].copy(), result


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _initial_p1(t_q: float, q: float, d: float = _INITIAL_DECAY_GUESS) -> float:
    """Rate of the leading fault such that the modelled mean hits the final
    observed count, found by bisection (the mean is increasing in p1)."""
    n = default_truncation(d)
    lo, hi = 1e-12, 1.0 - 1e-12

    def excess(p1: float) -> float:
        return mean_failures(GeometricModelParams(p1, d, n), t_q) - q

    if excess(hi) <= 0:
        return hi
    if excess(lo) >= 0:
        return lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit(ds: FailureDataset, config: OptimizerConfig | None = None) -> FitResult:
    """Estimate (p1, d) for a failure history.

    The search runs over logit-transformed parameters, so the returned
    values are strictly inside (0, 1) no matter where the simplex wanders;
    the truncation is re-derived from each candidate decay ratio during the
    search and fixed from the final one.  Unless ``config.initial_guess``
    says otherwise, the start point uses a decay ratio of 0.94 with the
    leading rate chosen so the modelled mean matches the final observed
    count.  Non-convergence is reported through ``converged``, never
    silently.
    """
    config = config or OptimizerConfig()
    times, log_counts, skipped = _usable_arrays(ds)
    if times.size < 2:
        raise ValueError(
            f"need at least 2 usable points to fit, got {times.size}"
        )

    if config.initial_guess is not None:
        p1_start, d_start = config.initial_guess
        if not (0.0 < p1_start < 1.0 and 0.0 < d_start < 1.0):
            raise ValueError(f"initial guess must lie in (0, 1)^2, got {config.initial_guess}")
    else:
        d_start = _INITIAL_DECAY_GUESS
        p1_start = _initial_p1(float(times[-1]), float(math.exp(log_counts[-1])))

    def objective(z: np.ndarray) -> float:
        p1 = _expit(float(z[0]))
        d = _expit(float(z[1]))
        if not (0.0 < p1 < 1.0 and 0.0 < d < 1.0):
            return math.inf
        n = default_truncation(d)
        if n > MAX_FIT_TRUNCATION:
            return math.inf
        return _objective_on_arrays(GeometricModelParams(p1, d, n), times, log_counts)

    start = np.array([_logit(p1_start), _logit(d_start)])
    best, diag = nelder_mead(objective, config, start)

    p1 = _expit(float(best[0]))
    d = _expit(float(best[1]))
    params = GeometricModelParams(p1, d, default_truncation(d))
    return FitResult(
        params=params,
        objective_value=diag.value,
        iterations=diag.iterations,
        converged=diag.converged,
        simplex_spread=diag.simplex_spread,
        skipped_points=skipped,
    )
