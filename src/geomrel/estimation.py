"""Least-squares parameter estimation, shared by every model fitted to
cumulative counts, and the fit of the geometric-rates model.

The objective is the squared distance between observed and modelled
cumulative failure counts on a log scale,

    S = sum_j (ln r_j - ln mu(t_j))**2,

minimized with a self-contained Nelder-Mead simplex optimizer whose record,
:class:`SimplexResult`, is every fitted model's ``diagnostics``.  The
geometric model's parameters p1 and d live in (0, 1)^2; the search runs in
an unconstrained space via the inverse-sigmoid map of each parameter so
feasibility never has to be patched up afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import FailureDataset
from .model import (
    GeometricModelParams,
    _log_ratio,
    _occurrence_sum,
    _sign_change,
    default_truncation,
    mean_failures,
)

__all__ = [
    "FitResult",
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
# on this cap, which the fitted model's ``boundary`` names.
MAX_FIT_TRUNCATION = 10_000

_INITIAL_DECAY_GUESS = 0.94


# Every fit uses the standard Nelder & Mead (1965) coefficients, the same
# budget and the same first step.  Termination watches the function-value
# spread across the simplex rather than vertex distances, because the fit
# objective is flat in the decay ratio near the optimum, where distance
# criteria stall.
_REFLECTION = 1.0
_EXPANSION = 2.0
_CONTRACTION = 0.5
_SHRINK = 0.5
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 2000
_INITIAL_STEP = 0.25


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
    evaluations: int


def _truncation_boundary(params: GeometricModelParams) -> str | None:
    """``"truncation-cap"`` when the truncation equals ``MAX_FIT_TRUNCATION``
    (the fit stopped against its search bound: the objective still falls as
    d moves towards 1, as for a history without reliability growth), else
    ``None``.  ``converged`` says only that the simplex collapsed."""
    return "truncation-cap" if params.truncation == MAX_FIT_TRUNCATION else None


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters plus the optimizer run that found them.

    ``objective_value`` is the least-squares objective at ``params`` and
    matches a recomputation via :func:`least_squares_objective` exactly.
    ``skipped_points`` counts measurements with zero cumulative failures,
    which carry no information on a log scale.
    """

    params: GeometricModelParams
    diagnostics: SimplexResult
    skipped_points: int

    @property
    def objective_value(self) -> float:
        return self.diagnostics.value

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged

    @property
    def boundary(self) -> str | None:
        """See :func:`_truncation_boundary`."""
        return _truncation_boundary(self.params)

    def to_dict(self) -> dict:
        return {
            "p1": self.params.p1,
            "d": self.params.d,
            "truncation": self.params.truncation,
            "objective": self.objective_value,
            "iterations": self.diagnostics.iterations,
            "converged": self.converged,
            "skipped_points": self.skipped_points,
            "boundary": self.boundary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _usable_arrays(ds: FailureDataset, fewest: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """Times and log-counts of the points with at least one failure; raises
    unless there are at least ``fewest`` of them (a fit needs 2)."""
    mask = ds.counts >= 1
    if not mask.any():
        raise ValueError("no usable points: every cumulative count is zero")
    times = ds.times[mask]
    if times.size < fewest:
        raise ValueError(f"need at least {fewest} usable points to fit, got {times.size}")
    log_counts = np.log(ds.counts[mask].astype(float))
    return times, log_counts, int((~mask).sum())


def _log_count_objective(mean, x, times, log_counts) -> float:
    """``sum_j (log_counts_j - ln mean(x, times_j))**2``, or +inf when that
    value is not finite.

    The value itself decides validity: a NaN, infinite, zero or negative
    mean gives a NaN or infinite residual, while a finite positive mean
    keeps every ``|ln mu|`` below about 745 and so the sum finite.  Callers
    run it with numpy's over/invalid/divide warnings off, as
    :func:`nelder_mead` does for its whole search: simplex excursions can
    overflow a mean, or the parameters it builds from x."""
    residuals = log_counts - np.log(mean(x, times))
    value = float(residuals @ residuals)
    return value if math.isfinite(value) else math.inf


def least_squares_objective(params: GeometricModelParams, ds: FailureDataset) -> float:
    """Log-scale squared error between a failure history and the model mean.

    Points whose cumulative count is zero are skipped (their logarithm is
    undefined and the history effectively starts at the first failure).
    Raises if no point is usable.
    """
    times, log_counts, _ = _usable_arrays(ds)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _log_count_objective(mean_failures, params, times, log_counts)


def nelder_mead(objective, start) -> tuple[np.ndarray, SimplexResult]:
    """Minimize a k-dimensional function with the reflect/expand/contract/
    shrink simplex method, with the coefficients 1, 2, 1/2 and 1/2.

    The initial simplex is ``start`` plus 0.25 along each coordinate; the
    objective must be finite at all of these vertices.  Later probes
    returning non-finite values are treated as +inf and tallied in the
    diagnostics.  Iteration stops when the function-value spread across
    the simplex drops to 1e-8 or after 2,000 iterations; the best vertex
    seen is returned either way and is never worse than the best initial
    vertex.  Every fit runs this one setting.

    The objective gets each probe as a fresh 1-d float array.  The whole
    run is under one ``np.errstate`` that silences overflow, invalid and
    divide warnings: a probe that trips them comes out non-finite and is
    rejected as +inf anyway, so objectives need no guard of their own.
    The vertices are kept as lists of Python floats; every coordinate is
    the same IEEE expression, in the same operand order, as elementwise
    array arithmetic would give, so results match it bit for bit.

    Two deterministic tie conventions matter on plateaus: a reflected
    point that exactly ties the worst vertex takes the contraction branch
    that works with the reflected point (replacing the worst vertex with
    an equal-valued mirror image instead would cycle forever), and a value
    spread of exactly zero across geometrically distinct vertices counts
    as a tie plateau rather than convergence (it happens when the simplex
    straddles a kink symmetrically), so the walk continues there.  Vertices
    are ordered by value with a stable sort, so ties keep their order.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError("start must be a non-empty 1-d vector")
    k = x0.size

    nonfinite = 0
    evaluations = 0

    def evaluate(x: list[float]) -> float:
        nonlocal nonfinite, evaluations
        evaluations += 1
        v = float(objective(np.array(x)))
        if not math.isfinite(v):
            nonfinite += 1
            return math.inf
        return v

    def shrink_towards_best() -> None:
        best = simplex[0]
        for i in range(1, k + 1):
            simplex[i] = [b + _SHRINK * (v - b) for b, v in zip(best, simplex[i])]
            values[i] = evaluate(simplex[i])

    def tolerance_met() -> bool:
        spread = values[-1] - values[0]
        if spread > _TOLERANCE:
            return False
        if spread == 0.0:
            best = simplex[0]
            return all(a == b for vertex in simplex[1:] for a, b in zip(vertex, best))
        return True

    simplex = [x0.tolist()]
    for i in range(k):
        vertex = x0.tolist()
        vertex[i] += _INITIAL_STEP
        simplex.append(vertex)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = [evaluate(v) for v in simplex]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("objective is not finite at the initial simplex vertices")

        iterations = 0
        converged = False
        while True:
            order = sorted(range(k + 1), key=values.__getitem__)
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if tolerance_met():
                converged = True
                break
            if iterations >= _MAX_ITERATIONS:
                break
            iterations += 1

            # The row sum from the best vertex on, left to right, divided by
            # k: np.mean(simplex[:-1], axis=0) bit for bit.
            centroid = simplex[0]
            for vertex in simplex[1:-1]:
                centroid = [c + v for c, v in zip(centroid, vertex)]
            centroid = [c / k for c in centroid]
            worst = simplex[-1]
            reflected = [c + _REFLECTION * (c - w) for c, w in zip(centroid, worst)]
            f_reflected = evaluate(reflected)

            if f_reflected < values[0]:
                expanded = [c + _EXPANSION * (r - c) for c, r in zip(centroid, reflected)]
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected <= values[-1]:
                contracted = [c + _CONTRACTION * (r - c) for c, r in zip(centroid, reflected)]
                f_contracted = evaluate(contracted)
                if f_contracted <= f_reflected:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    shrink_towards_best()
            else:
                contracted = [c + _CONTRACTION * (w - c) for c, w in zip(centroid, worst)]
                f_contracted = evaluate(contracted)
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    shrink_towards_best()

    result = SimplexResult(
        x=tuple(simplex[0]),
        value=values[0],
        iterations=iterations,
        converged=converged,
        simplex_spread=values[-1] - values[0],
        nonfinite_evaluations=nonfinite,
        evaluations=evaluations,
    )
    return np.array(simplex[0]), result


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _initial_p1(t_q: float, q: float) -> float:
    """Rate of the leading fault such that the modelled mean at the initial
    decay ratio hits the final observed count (the mean is increasing in
    p1).

    The mean is ``mean_failures(GeometricModelParams(p1, 0.94), t_q)``,
    whose 224 terms are summed directly, evaluated with the same operations
    over powers of 0.94 computed once.  The answer is the float of an
    80-step bisection on (1e-12, 1 - 1e-12) that moves ``lo`` to the
    midpoint when ``excess(mid) < 0`` and ``hi`` otherwise, and stops once
    the midpoint equals an end.  ``model._sign_change`` finds it with
    secant steps on ``ln q - ln mean`` against ln p1, in a third or less of
    the bisection's evaluations.  Below about 4e-9 the 80 steps end before
    adjacent floats; replaying their decisions against the located sign
    change gives the same float at no extra evaluation."""
    d = _INITIAL_DECAY_GUESS
    powers = d ** np.arange(default_truncation(d), dtype=float)
    t = np.asarray(t_q, dtype=float)
    lo, hi = 1e-12, 1.0 - 1e-12

    def excess(p1: float) -> float:
        return float(_occurrence_sum(t, np.log1p(-(p1 * powers)))) - q

    def probe(p1: float):
        over = excess(p1)
        return over < 0, -_log_ratio(over, q)

    hi_excess = excess(hi)
    if hi_excess <= 0:
        return hi
    lo_excess = excess(lo)
    if lo_excess >= 0:
        return lo
    return _sign_change(probe, lo, -_log_ratio(lo_excess, q), hi, -_log_ratio(hi_excess, q), 80)


def fit(ds: FailureDataset) -> FitResult:
    """Estimate (p1, d) for a failure history.

    The search runs over logit-transformed parameters, so the returned
    values are strictly inside (0, 1) no matter where the simplex wanders;
    the truncation is re-derived from each candidate decay ratio during the
    search and fixed from the final one.  The start point uses a decay
    ratio of 0.94 with the leading rate chosen so the modelled mean matches
    the final observed count.  Non-convergence is reported through
    ``converged``, never silently.
    """
    times, log_counts, skipped = _usable_arrays(ds, fewest=2)
    # exp(ln q) differs from q for some counts; starting from q moves fits.
    p1_start = _initial_p1(float(times[-1]), float(math.exp(log_counts[-1])))

    def objective(z: np.ndarray) -> float:
        z0, z1 = z.tolist()
        p1 = _expit(z0)
        d = _expit(z1)
        if not (0.0 < p1 < 1.0 and 0.0 < d < 1.0):
            return math.inf
        n = default_truncation(d)
        if n > MAX_FIT_TRUNCATION:
            return math.inf
        return _log_count_objective(mean_failures, GeometricModelParams(p1, d, n), times, log_counts)

    start = np.array([_logit(p1_start), _logit(_INITIAL_DECAY_GUESS)])
    best, diag = nelder_mead(objective, start)

    p1 = _expit(float(best[0]))
    d = _expit(float(best[1]))
    return FitResult(GeometricModelParams(p1, d, default_truncation(d)), diag, skipped)
