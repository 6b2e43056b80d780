"""Least-squares parameter estimation, shared by every model fitted to
cumulative counts, and the fit of the geometric-rates model.

The objective is the squared distance between observed and modelled
cumulative failure counts on a log scale,

    S = sum_j (ln r_j - ln mu(t_j))**2.

The four models fitted to it (the geometric-rates model here, and the
closed forms of :mod:`geomrel.comparison`) minimize it with a
self-contained Levenberg-Marquardt loop on the residuals and their
Jacobian.  Littlewood-Verrall minimizes its likelihood with a
self-contained Nelder-Mead simplex.  Both optimizers return one record,
:class:`OptimizerResult`, which is every fitted model's ``diagnostics``.
The geometric model's parameters p1 and d live in (0, 1)^2; the search
runs in an unconstrained space via the inverse-sigmoid map of each
parameter so feasibility never has to be patched up afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import FailureDataset
from .model import (
    DEFAULT_RATE_FLOOR,
    GeometricModelParams,
    _checked_times,
    _intensity_sums,
    _mean_terms,
    _occurrence_sum,
    default_truncation,
    mean_failures,
)

__all__ = [
    "FitResult",
    "OptimizerResult",
    "fit",
    "least_squares_objective",
    "levenberg_marquardt",
    "nelder_mead",
]

# The geometric fit bounds d so that its default truncation stays at or
# below this many fault terms.  An evaluation no longer costs more with
# more terms (the model's sums take time independent of N); the bound keeps
# fitted populations at N <= 10,000.  A history without reliability growth
# pulls d towards 1 and ends the fit on this bound, which the fitted
# model's ``boundary`` names.
MAX_FIT_TRUNCATION = 10_000

_INITIAL_DECAY_GUESS = 0.94
# 0.94**a over the 224 faults of the default truncation at 0.94, and the
# start's cap on Newton steps.
_START_POWERS = _INITIAL_DECAY_GUESS ** np.arange(default_truncation(0.94), dtype=float)
_START_STEPS = 16


# Every Nelder-Mead run uses the standard Nelder & Mead (1965)
# coefficients, the same budget and the same first step.  Termination
# watches the function-value spread across the simplex rather than vertex
# distances, because the objectives are flat near their optimum, where
# distance criteria stall.
_REFLECTION = 1.0
_EXPANSION = 2.0
_CONTRACTION = 0.5
_SHRINK = 0.5
_TOLERANCE = 1e-8
_MAX_ITERATIONS = 2000
_INITIAL_STEP = 0.25

# The one Levenberg-Marquardt setting: its first damping, its relative
# decrease and step size to stop at, and its budget of steps.
_LM_DAMPING = 1e-3
_LM_DECREASE = 1e-13
_LM_STEP = 1e-12
_LM_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class OptimizerResult:
    """Diagnostics of one optimizer run.

    ``optimizer`` is ``"nelder-mead"`` or ``"levenberg-marquardt"``, and
    ``x`` the best point in the optimizer's coordinates.  ``evaluations``
    counts every objective (or residual) call, the start included;
    ``nonfinite_evaluations`` counts those that were not finite, and
    ``jacobian_evaluations`` the Jacobians (none for Nelder-Mead).
    ``iterations`` counts simplex steps, or damped steps tried.

    ``converged`` says that the run stopped on its own criterion rather
    than on its iteration cap: for Nelder-Mead a value spread across the
    simplex (``simplex_spread``) of at most 1e-8; for Levenberg-Marquardt
    a relative decrease of at most 1e-13, or a step below 1e-12 relative,
    which includes a point where every coordinate is held at its bound.
    ``simplex_spread`` is ``None`` for Levenberg-Marquardt.  A fit reports
    ``value`` as its objective recomputed at the parameters it returns.
    """

    optimizer: str
    x: tuple[float, ...]
    value: float
    iterations: int
    converged: bool
    nonfinite_evaluations: int
    evaluations: int
    jacobian_evaluations: int
    simplex_spread: float | None


@dataclass(frozen=True)
class FitResult:
    """The fitted geometric-rates model: its parameters plus the optimizer
    run that found them.

    ``objective_value`` is the least-squares objective at ``params`` and
    matches a recomputation via :func:`least_squares_objective` exactly.
    ``skipped_points`` counts measurements with zero cumulative failures,
    which carry no information on a log scale.  It is the geometric
    model's :class:`geomrel.comparison.ReliabilityModel`: ``model_name``
    is a class attribute, not a field, so it takes no part in ``==`` or
    :meth:`to_dict`.
    """

    model_name = "geometric"

    params: GeometricModelParams
    diagnostics: OptimizerResult
    skipped_points: int

    @property
    def objective_value(self) -> float:
        return self.diagnostics.value

    @property
    def converged(self) -> bool:
        return self.diagnostics.converged

    @property
    def boundary(self) -> str | None:
        """``"truncation-cap"`` when the truncation equals
        ``MAX_FIT_TRUNCATION`` (the fit stopped against its bound on d: the
        objective still falls as d moves towards 1, as for a history
        without reliability growth), else ``None``.  ``converged`` says
        only that the search met its stopping criterion, with d held at
        the bound."""
        return "truncation-cap" if self.params.truncation == MAX_FIT_TRUNCATION else None

    def predict_mean(self, t):
        """Expected cumulative failures at ``t`` (:func:`mean_failures`)."""
        return mean_failures(self.params, t)

    def params_dict(self) -> dict:
        return {"p1": self.params.p1, "d": self.params.d, "truncation": self.params.truncation}

    def to_dict(self) -> dict:
        return {
            **self.params_dict(),
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
    both optimizers do for their whole search: excursions can overflow a
    mean, or the parameters built from x."""
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


def nelder_mead(objective, start) -> tuple[np.ndarray, OptimizerResult]:
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

    result = OptimizerResult(
        optimizer="nelder-mead",
        x=tuple(simplex[0]),
        value=values[0],
        iterations=iterations,
        converged=converged,
        nonfinite_evaluations=nonfinite,
        evaluations=evaluations,
        jacobian_evaluations=0,
        simplex_spread=values[-1] - values[0],
    )
    return np.array(simplex[0]), result


def levenberg_marquardt(
    residuals, jacobian, start, upper=None
) -> tuple[np.ndarray, OptimizerResult]:
    """Minimize ``sum(residuals(x)**2)`` by damped Gauss-Newton steps
    (Levenberg 1944; Marquardt 1963), within an optional upper bound on
    each coordinate.

    ``residuals(x)`` gets each probe as a fresh 1-d float array and returns
    the residual vector, or ``None`` for a point outside the model's
    domain; a probe whose sum of squares is not finite is rejected and
    tallied.  ``jacobian(x, r)`` returns the residuals' partial
    derivatives at x, one array per coordinate, given r = residuals(x).
    It is only ever called for the point of the latest ``residuals`` call,
    so it may reuse that call's work.

    Each step solves ``(A + damping diag(A)) step = -g`` with
    ``A = J^T J`` and ``g = J^T r`` (Marquardt's scaling) by Cramer's rule
    in Python floats, so that runs are deterministic whatever linear
    algebra numpy is built with; x has 1 or 2 coordinates, and one whose
    Jacobian column is zero is held.  The damping starts at 1e-3.  A step
    is accepted only when it lowers the objective; the damping then
    shrinks by Nielsen's gain-ratio rule, ``max(1/3, 1 - (2 rho - 1)**3)``,
    and after a rejected step it grows by 2, 4, 8, ...  The run stops once
    an accepted step lowers the objective by at most 1e-13 of its value,
    or a step moves every coordinate x by at most 1e-12 (1 + |x|)
    (``converged``), or after 200 steps.

    ``upper`` gives each coordinate's upper bound (``math.inf`` for none),
    one per coordinate and none NaN, and ``start`` must lie within it;
    otherwise ``ValueError`` is raised.  A step that crosses a bound is
    shortened along its direction to end on it.  A coordinate on its bound
    whose gradient points outward is held while the others move, as is
    one whose step would point outward once solved with the others.

    Like :func:`nelder_mead`, the whole run is under one ``np.errstate``
    that silences overflow, invalid and divide warnings.
    """
    point = [float(v) for v in np.asarray(start, dtype=float)]
    if not 1 <= len(point) <= 2:
        raise ValueError("start must have 1 or 2 coordinates")
    two = len(point) == 2
    if upper is None:
        bounds = [math.inf] * len(point)
    else:
        bounds = [float(u) for u in upper]
        if len(bounds) != len(point):
            raise ValueError(
                f"upper must give one bound per coordinate: {len(bounds)} for {len(point)}"
            )
        if any(math.isnan(b) for b in bounds):
            raise ValueError("upper must not contain NaN")
        if any(v > b for v, b in zip(point, bounds)):
            raise ValueError("start must lie within upper")
    # A 1-d search carries a second coordinate at 0 with no bound, no
    # gradient and no curvature: it is never free, so it never moves, and
    # the first coordinate's floats are those of a 1-d solve.
    x0, x1 = point if two else (point[0], 0.0)
    b0, b1 = bounds if two else (bounds[0], math.inf)
    g1 = n01 = n10 = n11 = 0.0
    free1 = False

    nonfinite = 0
    evaluations = 0
    jacobians = 0

    def evaluate(probe: list[float]):
        nonlocal nonfinite, evaluations
        evaluations += 1
        r = residuals(np.array(probe))
        value = math.inf if r is None else float(r @ r)
        if not math.isfinite(value):
            nonfinite += 1
            return None, math.inf
        return r, value

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, value = evaluate(point)
        if r is None:
            raise ValueError("objective is not finite at the start")

        damping, growth = _LM_DAMPING, 2.0
        iterations = 0
        converged = False
        fresh = True  # the Jacobian is due at the point
        while True:
            if fresh:
                columns = jacobian(np.array(point), r)
                jacobians += 1
                c0 = columns[0]
                g0 = float(c0 @ r)
                n00 = float(c0 @ c0)
                free0 = n00 > 0.0 and not (x0 >= b0 and g0 < 0.0)
                if two:
                    c1 = columns[1]
                    g1 = float(c1 @ r)
                    # numpy's dot multiplies pairwise and sums in index
                    # order, so c1 @ c0 is this same float.
                    n01 = n10 = float(c0 @ c1)
                    n11 = float(c1 @ c1)
                    free1 = n11 > 0.0 and not (x1 >= b1 and g1 < 0.0)
            if not (free0 or free1):
                converged = True
                break
            if iterations >= _LM_MAX_ITERATIONS:
                break
            iterations += 1

            # The damped step over the free coordinates, 0 for the others.
            # A coordinate on its bound whose step points outward is held,
            # and the other solved again alone.  When rounding leaves the
            # determinant at or below zero, the step is NaN and its probe
            # rejected.
            scale = 1.0 + damping
            s0 = s1 = 0.0
            move0, move1 = free0, free1
            if move0 and move1:
                a = n00 * scale
                d = n11 * scale
                det = a * d - n01 * n10
                if det > 0.0:
                    t0 = (-g0 * d - n01 * -g1) / det
                    t1 = (a * -g1 - n10 * -g0) / det
                else:
                    t0 = t1 = math.nan
                move0 = not (x0 >= b0 and t0 > 0.0)
                move1 = not (x1 >= b1 and t1 > 0.0)
                if move0 and move1:
                    s0, s1 = t0, t1
            if move0 and not move1:
                t0 = -g0 / (n00 * scale)
                if not (x0 >= b0 and t0 > 0.0):
                    s0 = t0
            elif move1 and not move0:
                t1 = -g1 / (n11 * scale)
                if not (x1 >= b1 and t1 > 0.0):
                    s1 = t1

            # Shorten a step that crosses a bound so that it ends there, at
            # the smaller share of the step when both cross.
            share = 1.0
            cross0 = x0 + s0 > b0
            if cross0:
                share = f0 = (b0 - x0) / s0
            cross1 = x1 + s1 > b1
            if cross1:
                f1 = (b1 - x1) / s1
                if not cross0 or f1 < share:
                    share = f1
            trial0 = b0 if cross0 and f0 == share else x0 + share * s0
            trial1 = b1 if cross1 and f1 == share else x1 + share * s1
            u0 = trial0 - x0
            u1 = trial1 - x1
            if abs(u0) <= _LM_STEP * (1.0 + abs(x0)) and abs(u1) <= _LM_STEP * (1.0 + abs(x1)):
                converged = True
                break

            trial = [trial0, trial1] if two else [trial0]
            r_trial, value_trial = evaluate(trial)
            if value_trial < value:
                decrease = value - value_trial
                # The reduction the linear model predicts: -(2 g.u + u'Au).
                predicted = -(
                    u0 * (2.0 * g0 + (n00 * u0 + n01 * u1))
                    + u1 * (2.0 * g1 + (n10 * u0 + n11 * u1))
                )
                small = decrease <= _LM_DECREASE * value
                point, x0, x1, r, value = trial, trial0, trial1, r_trial, value_trial
                if small:
                    converged = True
                    break
                if predicted > 0.0:
                    gain = 2.0 * decrease / predicted - 1.0
                    damping *= max(1.0 / 3.0, 1.0 - gain * gain * gain)
                growth = 2.0
                fresh = True
            else:
                damping *= growth
                growth *= 2.0
                fresh = False

    result = OptimizerResult(
        optimizer="levenberg-marquardt",
        x=tuple(point),
        value=value,
        iterations=iterations,
        converged=converged,
        nonfinite_evaluations=nonfinite,
        evaluations=evaluations,
        jacobian_evaluations=jacobians,
        simplex_spread=None,
    )
    return np.array(point), result


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _initial_p1(t_q: float, q: float) -> float:
    """Rate of the leading fault such that the modelled mean at the initial
    decay ratio meets the final observed count (the mean is increasing in
    p1), within [1e-12, 1/2].  The upper end keeps the search off the
    saturated corner p1 -> 1, where the residuals' derivative in logit p1
    carries a factor 1 - p1 and vanishes: a count beyond the mean at
    p1 = 1/2 starts there and leaves d to grow.

    The mean is ``mean_failures(GeometricModelParams(p1, 0.94), t_q)``,
    evaluated with the same operations over its 224 powers of 0.94,
    computed once.  Newton steps on ``ln mean`` against ln p1, with slope
    ``t lambda / mean`` (``d mean / d p1 = t lambda / p1``, as in the
    fit's Jacobian), start from the linear limit ``mean = p1 t
    sum(0.94**a)`` and stop once a step moves ln p1 by at most 1e-10 (the
    mean then meets q to a few parts in 1e15) or after ``_START_STEPS``."""
    lo, hi = 1e-12, 0.5

    def mean(p1: float) -> float:
        return float(_occurrence_sum(t_q, np.log1p(-(p1 * _START_POWERS)))[0])

    if mean(hi) <= q:
        return hi
    if mean(lo) >= q:
        return lo
    p1 = min(max(q / (t_q * float(_START_POWERS.sum())), lo), hi)
    for _ in range(_START_STEPS):
        rates = p1 * _START_POWERS
        log_survival = np.log1p(-rates)
        mu = float(_occurrence_sum(t_q, log_survival)[0])
        reach = t_q * float(rates @ np.exp((t_q - 1.0) * log_survival))  # d mean / d ln p1
        step = (math.log(q) - math.log(mu)) * mu / reach
        last, p1 = p1, min(max(p1 * math.exp(step), lo), hi)
        if abs(math.log(p1 / last)) <= 1e-10:
            break
    return p1


def _decay_logit_bound() -> float:
    """The largest float z with ``default_truncation(_expit(z))`` at most
    ``MAX_FIT_TRUNCATION``: the fit's upper bound on logit d."""
    z = _logit(math.exp(math.log(DEFAULT_RATE_FLOOR) / MAX_FIT_TRUNCATION))
    while default_truncation(_expit(z)) > MAX_FIT_TRUNCATION:
        z = math.nextafter(z, -math.inf)
    while default_truncation(_expit(math.nextafter(z, math.inf))) <= MAX_FIT_TRUNCATION:
        z = math.nextafter(z, math.inf)
    return z


_MAX_DECAY_LOGIT = _decay_logit_bound()


def fit(ds: FailureDataset) -> FitResult:
    """Estimate (p1, d) for a failure history.

    :func:`levenberg_marquardt` minimizes the log-count residuals over
    logit-transformed parameters, so the returned values are strictly
    inside (0, 1) wherever a step lands.  The truncation is re-derived
    from each candidate decay ratio and fixed from the final one, and
    logit d is bounded so that it stays at or below
    ``MAX_FIT_TRUNCATION``.  The Jacobian is analytic on both summation
    routes: with ``lambda`` the intensity, the residuals' derivatives are
    ``-(1 - p1) t lambda(t) / mu(t)`` in logit p1 and
    ``-(1 - d) t W(t) / mu(t)`` in logit d, for the weighted intensity sum
    W of :func:`geomrel.model._intensity_sums`, formed from the array of
    terms that the residuals' mean at the same point built.  The times are
    checked once for all probes.  The start uses a decay ratio of 0.94
    with the leading rate chosen so the modelled mean matches the final
    observed count.  Non-convergence is reported through ``converged``,
    never silently.
    """
    times, log_counts, skipped = _usable_arrays(ds, fewest=2)
    column, t_max = _checked_times(times, 0.0, "fit")
    # exp(ln q) differs from q for some counts; starting from q moves fits.
    p1_start = _initial_p1(float(times[-1]), float(math.exp(log_counts[-1])))
    probed = []  # the latest probe's (p1, d, params, mean, head terms)

    def residuals(z: np.ndarray):
        z0, z1 = z.tolist()
        p1 = _expit(z0)
        d = _expit(z1)
        if not (0.0 < p1 < 1.0 and 0.0 < d < 1.0):
            return None
        params = GeometricModelParams(p1, d, default_truncation(d))
        mu, terms = _mean_terms(params, column, t_max)
        probed[:] = p1, d, params, mu, terms
        return log_counts - np.log(mu)

    def jacobian(z: np.ndarray, r: np.ndarray) -> list[np.ndarray]:
        p1, d, params, mu, terms = probed
        intensity, weighted = _intensity_sums(params, column, terms)
        scale = times / mu
        return [-(1.0 - p1) * scale * intensity, -(1.0 - d) * scale * weighted]

    start = [_logit(p1_start), _logit(_INITIAL_DECAY_GUESS)]
    best, diag = levenberg_marquardt(residuals, jacobian, start, upper=[math.inf, _MAX_DECAY_LOGIT])

    p1 = _expit(float(best[0]))
    d = _expit(float(best[1]))
    return FitResult(GeometricModelParams(p1, d, default_truncation(d)), diag, skipped)
