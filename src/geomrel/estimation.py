"""Least-squares parameter estimation, shared by every model fitted to
cumulative counts, and the fit of the geometric-rates model.

The objective is the squared distance between observed and modelled
cumulative failure counts on a log scale,

    S = sum_j (ln r_j - ln mu(t_j))**2.

Every model is fitted by one self-contained Levenberg-Marquardt loop with
one contract: the objective's value, and half its gradient and half its
Hessian, within lower bounds.  The four models fitted to S (the
geometric-rates model here, and the closed forms of
:mod:`geomrel.comparison`) hand it ``J^T e`` and ``J^T J`` for their
vector e of log-count residuals and its Jacobian J; Littlewood-Verrall
hands it the gradient and Hessian of its negative log-likelihood.  The
loop returns one record, :class:`OptimizerResult`, which is every fitted
model's ``diagnostics``.  :func:`fit`, like every fitting route, refuses
a history with a ``ValueError`` giving the bare reason; only
:func:`geomrel.comparison.fit_model` raises ``FitError``.  The geometric
model's parameters p1 and d live in (0, 1)^2; the search runs on logit p1
and on ``w = -logit d``, so feasibility never has to be patched up
afterwards.  Logit p1 is unbounded; w is bounded below at
``-_MAX_DECAY_LOGIT``, which keeps the truncation at or below
``MAX_FIT_TRUNCATION``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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
]

# The geometric fit bounds d so that its default truncation stays at or
# below this many fault terms.  An evaluation no longer costs more with
# more terms (the model's sums take time independent of N); the bound keeps
# fitted populations at N <= 10,000.  A history without reliability growth
# pulls d towards 1 and ends the fit on this bound, which the fitted
# model's ``boundary`` names.
MAX_FIT_TRUNCATION = 10_000

# A fitted leading rate within this of 1 lies in the saturated corner
# p1 -> 1, which the fitted model's ``boundary`` names: there the
# residuals' derivative in logit p1 carries the factor 1 - p1, so the
# search stops without reaching an optimum inside (0, 1).
SATURATED_RATE_GAP = 1e-9

_INITIAL_DECAY_GUESS = 0.94
# 0.94**a over the 224 faults of the default truncation at 0.94, their
# sum, and the start's cap on Newton steps.
_START_POWERS = _INITIAL_DECAY_GUESS ** np.arange(default_truncation(0.94), dtype=float)
_START_POWER_SUM = float(_START_POWERS.sum())
_START_STEPS = 16


# The one Levenberg-Marquardt setting: its first damping, its relative
# decrease and step size to stop at, and its budget of steps.
_LM_DAMPING = 1e-3
_LM_DECREASE = 1e-13
_LM_STEP = 1e-12
_LM_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class OptimizerResult:
    """Diagnostics of one optimizer run.

    ``optimizer`` names the optimizer, ``"levenberg-marquardt"`` for every
    fitted model (:func:`levenberg_marquardt`); ``x`` is the best point in
    the optimizer's coordinates, whose bounds are all lower bounds: for the
    geometric fit (logit p1, -logit d), for the closed forms (ln c), for
    Littlewood-Verrall (u, ln scale0, scale1 / mean interval).
    ``evaluations`` counts every objective call, the start included;
    ``nonfinite_evaluations`` counts those that were not finite, and
    ``jacobian_evaluations`` the gradient-and-Hessian passes.
    ``iterations`` counts damped steps tried, a step refused for a damped
    matrix that is not positive definite included.

    ``converged`` says that the run stopped on its own criterion rather
    than on its iteration cap: an accepted step that lowered the objective
    by at most 1e-13 of its magnitude, a step below 1e-12 relative, or a
    point where every coordinate is held (its curvature zero, or on its
    bound with the gradient pointing outward).  For a likelihood that is a
    stationary point within the bounds, not a check that the Hessian there
    is positive definite.  A fit reports ``value`` as its objective
    recomputed at the parameters it returns.
    """

    optimizer: str
    x: tuple[float, ...]
    value: float
    iterations: int
    converged: bool
    nonfinite_evaluations: int
    evaluations: int
    jacobian_evaluations: int


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
        without reliability growth); else ``"saturated-rate"`` when
        ``1 - p1 < SATURATED_RATE_GAP`` (the fit ran into the corner
        p1 -> 1); else ``None``.  A fit in both limits reports
        ``"truncation-cap"``, so that the saturated name only ever replaces
        ``None``.  ``converged`` says only that the search met its stopping
        criterion."""
        if self.params.truncation == MAX_FIT_TRUNCATION:
            return "truncation-cap"
        if 1.0 - self.params.p1 < SATURATED_RATE_GAP:
            return "saturated-rate"
        return None

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
    """Times and log-counts of the points with at least one failure, as
    read-only arrays shared by every fit to ``ds`` and to the prefixes of
    the history it was sliced from, and the number of points skipped;
    raises unless there are at least ``fewest`` of them (a fit needs 2)."""
    times, log_counts, skipped = ds._usable_points()
    if not times.size:
        raise ValueError("no usable points: every cumulative count is zero")
    if times.size < fewest:
        raise ValueError(f"need at least {fewest} usable points to fit, got {times.size}")
    return times, log_counts, skipped


def _log_count_objective(mean, x, times, log_counts) -> float:
    """``sum_j (log_counts_j - ln mean(x, times_j))**2``, or +inf when that
    value is not finite.

    The value itself decides validity: a NaN, infinite, zero or negative
    mean gives a NaN or infinite residual, while a finite positive mean
    keeps every ``|ln mu|`` below about 745 and so the sum finite.  Callers
    run it with numpy's over/invalid/divide warnings off, as
    :func:`levenberg_marquardt` does for its whole search: excursions can
    overflow a mean, or the parameters built from x."""
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


def levenberg_marquardt(
    objective, derivatives, start, lower=None
) -> tuple[np.ndarray, OptimizerResult]:
    """Minimize a smooth objective by damped Newton steps (Levenberg 1944;
    Marquardt 1963), within optional lower bounds on each coordinate.

    ``objective(x)`` gets each probe as a fresh 1-d float array and returns
    the objective's value, or ``None`` for a point outside the model's
    domain; a probe whose value is not finite is rejected and tallied.
    ``derivatives(x)`` returns half the objective's gradient, one float per
    coordinate, and half its Hessian, one row per coordinate, of which only
    the upper triangle is read: for a sum of squared residuals r with
    Jacobian J, ``g = J^T r`` and the Gauss-Newton ``A = J^T J``.  The
    objective near x is modelled as ``f + 2 g.s + s'As`` for a step s.
    ``derivatives`` is called at most once per point, and only for the
    point of the latest ``objective`` call, with the very array x that call
    got, so it may reuse, or overwrite, that call's work.  The start and
    every accepted point get their ``derivatives`` call before the next
    probe, except an accepted point that ends the run; the point returned
    is the latest accepted one, so it is the point of the latest
    ``derivatives`` call unless the run ended on accepting the latest
    probe.

    Each step solves ``(A + damping |diag A|) step = -g`` (Marquardt's
    scaling) by Cramer's rule in Python floats, so that runs are
    deterministic whatever linear algebra numpy is built with; x has 1 to 3
    coordinates, and one whose diagonal entry of A is zero is held.  A
    damped matrix that is not positive definite (a leading minor at or
    below zero), as a likelihood's Hessian can be away from its optimum, is
    refused without a probe, like a rejected step.  The damping starts at
    1e-3.  A step is accepted only when it lowers the objective; the
    damping then shrinks by Nielsen's gain-ratio rule,
    ``max(1/3, 1 - (2 rho - 1)**3)``, and after a rejected or refused step
    it grows by 2, 4, 8, ...  The run stops once an accepted step lowers
    the objective by at most 1e-13 of its magnitude, or a step moves every
    coordinate x by at most 1e-12 (1 + |x|) (``converged``), or after 200
    steps.

    ``lower`` gives each coordinate's lower bound (``-math.inf`` for none),
    one per coordinate and none NaN, and ``start`` must lie at or above
    them; otherwise ``ValueError`` is raised.  A search bounded above runs
    on the negated coordinate, which leaves its floats unchanged: rounding
    is symmetric in sign.  A step that crosses a bound is shortened along
    its direction to end exactly on it.  A coordinate on its bound whose
    gradient points outward is held while the others move, as is one whose
    step would point outward once solved with the others.

    The whole run is under one ``np.errstate`` that silences overflow,
    invalid and divide warnings: a probe that trips them comes out
    non-finite and is rejected anyway, so callers need no guard of their
    own.
    """
    point = [float(v) for v in np.asarray(start, dtype=float)]
    k = len(point)
    if not 1 <= k <= 3:
        raise ValueError("start must have 1 to 3 coordinates")
    lows = [-math.inf] * k if lower is None else [float(b) for b in lower]
    if len(lows) != k:
        raise ValueError(f"lower must give one bound per coordinate: {len(lows)} for {k}")
    if any(math.isnan(b) for b in lows):
        raise ValueError("lower must not contain NaN")
    if any(v < low for v, low in zip(point, lows)):
        raise ValueError("start must lie within lower")
    # A search in fewer than 3 coordinates carries the rest at 0 with no
    # bound, gradient or curvature: they are never free, so they never
    # move, and the others' floats are those of a smaller solve.
    pad = 3 - k
    x0, x1, x2 = point + [0.0] * pad
    lo0, lo1, lo2 = lows + [-math.inf] * pad
    g0 = g1 = g2 = 0.0
    a00 = a01 = a02 = a11 = a12 = a22 = 0.0

    nonfinite = 0
    evaluations = 0
    jacobians = 0

    def evaluate(probe: list[float]):
        """The probe's array and its objective; ``None, inf`` for a
        rejected probe."""
        nonlocal nonfinite, evaluations
        evaluations += 1
        z = np.array(probe)
        value = objective(z)
        if value is None or not math.isfinite(value):
            nonfinite += 1
            return None, math.inf
        return z, value

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z, value = evaluate(point)
        if z is None:
            raise ValueError("objective is not finite at the start")

        damping, growth = _LM_DAMPING, 2.0
        iterations = 0
        converged = False
        fresh = True  # the derivatives are due at the point
        while True:
            if fresh:
                gradient, hessian = derivatives(z)
                jacobians += 1
                first = hessian[0]
                g0 = gradient[0]
                a00 = first[0]
                if k > 1:
                    g1 = gradient[1]
                    a01 = first[1]
                    a11 = hessian[1][1]
                    if k > 2:
                        g2 = gradient[2]
                        a02 = first[2]
                        a12 = hessian[1][2]
                        a22 = hessian[2][2]
                free0 = abs(a00) > 0.0 and not (x0 <= lo0 and g0 > 0.0)
                free1 = abs(a11) > 0.0 and not (x1 <= lo1 and g1 > 0.0)
                free2 = abs(a22) > 0.0 and not (x2 <= lo2 and g2 > 0.0)
                on_bound = x0 <= lo0 or x1 <= lo1 or x2 <= lo2
            if not (free0 or free1 or free2):
                converged = True
                break
            if iterations >= _LM_MAX_ITERATIONS:
                break
            iterations += 1

            # The damped step over the free coordinates, 0 for the others:
            # a held coordinate's row and column are those of the identity,
            # with nothing on the right, which leaves the others the floats
            # of their own smaller system.  A coordinate on a bound whose
            # step points outward is held, and the others solved again.
            grow, shrink = 1.0 + damping, 1.0 - damping
            held0, held1, held2 = not free0, not free1, not free2
            while True:
                d00 = 1.0 if held0 else a00 * (grow if a00 > 0.0 else shrink)
                d11 = 1.0 if held1 else a11 * (grow if a11 > 0.0 else shrink)
                d22 = 1.0 if held2 else a22 * (grow if a22 > 0.0 else shrink)
                d01 = 0.0 if held0 or held1 else a01
                d02 = 0.0 if held0 or held2 else a02
                d12 = 0.0 if held1 or held2 else a12
                p = 0.0 if held0 else -g0
                q = 0.0 if held1 else -g1
                r = 0.0 if held2 else -g2
                # The cofactors of the symmetric damped matrix.
                c00 = d11 * d22 - d12 * d12
                c01 = d12 * d02 - d01 * d22
                c02 = d01 * d12 - d11 * d02
                c11 = d00 * d22 - d02 * d02
                c12 = d01 * d02 - d00 * d12
                c22 = d00 * d11 - d01 * d01
                det = d00 * c00 + d01 * c01 + d02 * c02
                # The leading minors are d00, c22 and det.
                positive = d00 > 0.0 and c22 > 0.0 and det > 0.0
                if not positive:
                    break
                s0 = 0.0 if held0 else (c00 * p + c01 * q + c02 * r) / det
                s1 = 0.0 if held1 else (c01 * p + c11 * q + c12 * r) / det
                s2 = 0.0 if held2 else (c02 * p + c12 * q + c22 * r) / det
                if not on_bound:
                    break
                out0 = s0 < 0.0 and x0 <= lo0
                out1 = s1 < 0.0 and x1 <= lo1
                out2 = s2 < 0.0 and x2 <= lo2
                if not (out0 or out1 or out2):
                    break
                held0, held1, held2 = held0 or out0, held1 or out1, held2 or out2
            if not positive:
                damping *= growth
                growth *= 2.0
                fresh = False
                continue

            # Shorten a step that crosses a bound so that it ends exactly
            # there, at the smallest share of the step when several cross.
            share = 1.0
            crossed = False
            cut0 = x0 + s0 < lo0
            cut1 = x1 + s1 < lo1
            cut2 = x2 + s2 < lo2
            if cut0:
                share = f0 = (lo0 - x0) / s0
                crossed = True
            if cut1:
                f1 = (lo1 - x1) / s1
                if not crossed or f1 < share:
                    share = f1
                crossed = True
            if cut2:
                f2 = (lo2 - x2) / s2
                if not crossed or f2 < share:
                    share = f2
            trial0 = lo0 if cut0 and f0 == share else x0 + share * s0
            trial1 = lo1 if cut1 and f1 == share else x1 + share * s1
            trial2 = lo2 if cut2 and f2 == share else x2 + share * s2
            u0 = trial0 - x0
            u1 = trial1 - x1
            u2 = trial2 - x2
            if (
                abs(u0) <= _LM_STEP * (1.0 + abs(x0))
                and abs(u1) <= _LM_STEP * (1.0 + abs(x1))
                and abs(u2) <= _LM_STEP * (1.0 + abs(x2))
            ):
                converged = True
                break

            # A padded coordinate never moves, so its probe is left out.
            trial = [trial0, trial1, trial2][:k]
            z_trial, value_trial = evaluate(trial)
            if value_trial < value:
                decrease = value - value_trial
                # The reduction the model predicts: -(2 g.u + u'Au).
                predicted = -(
                    u0 * (2.0 * g0 + (a00 * u0 + a01 * u1 + a02 * u2))
                    + u1 * (2.0 * g1 + (a01 * u0 + a11 * u1 + a12 * u2))
                    + u2 * (2.0 * g2 + (a02 * u0 + a12 * u1 + a22 * u2))
                )
                small = decrease <= _LM_DECREASE * abs(value)
                point, z, value = trial, z_trial, value_trial
                x0, x1, x2 = trial0, trial1, trial2
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

    # (-p1) * 0.94**a is -(p1 * 0.94**a) to the bit: rounding is symmetric
    # in sign, so the negated rates are formed in one pass.
    def mean(p1: float) -> float:
        return float(_occurrence_sum(t_q, np.log1p((-p1) * _START_POWERS))[0])

    if mean(hi) <= q:
        return hi
    if mean(lo) >= q:
        return lo
    p1 = min(max(q / (t_q * _START_POWER_SUM), lo), hi)
    for _ in range(_START_STEPS):
        negated = (-p1) * _START_POWERS
        log_survival = np.log1p(negated)
        mu = float(_occurrence_sum(t_q, log_survival)[0])
        # d mean / d ln p1, t_q (rates . (1 - rates)**(t_q - 1)), negated twice.
        reach = -(t_q * float(negated.dot(np.exp((t_q - 1.0) * log_survival))))
        step = (math.log(q) - math.log(mu)) * mu / reach
        last, p1 = p1, min(max(p1 * math.exp(step), lo), hi)
        if abs(math.log(p1 / last)) <= 1e-10:
            break
    return p1


def _decay_logit_bound() -> float:
    """The largest float z with ``default_truncation(_expit(z))`` at most
    ``MAX_FIT_TRUNCATION``: the fit's upper bound on logit d, and so minus
    its lower bound on w = -logit d."""
    z = _logit(math.exp(math.log(DEFAULT_RATE_FLOOR) / MAX_FIT_TRUNCATION))
    while default_truncation(_expit(z)) > MAX_FIT_TRUNCATION:
        z = math.nextafter(z, -math.inf)
    while default_truncation(_expit(math.nextafter(z, math.inf))) <= MAX_FIT_TRUNCATION:
        z = math.nextafter(z, math.inf)
    return z


_MAX_DECAY_LOGIT = _decay_logit_bound()
# The sum of d**a over the MAX_FIT_TRUNCATION faults at the bound on d: a
# mean there is about p1 t times this while p1 t is small.
_BOUND_DECAY = _expit(_MAX_DECAY_LOGIT)
_BOUND_POWER_SUM = (1.0 - _BOUND_DECAY**MAX_FIT_TRUNCATION) / (1.0 - _BOUND_DECAY)


class _OffBound(Exception):
    """A search from the d bound probed off it: :func:`fit` abandons it."""


def fit(ds: FailureDataset) -> FitResult:
    """Estimate (p1, d) for a failure history.

    :func:`levenberg_marquardt` minimizes the squared log-count residuals
    over (logit p1, w) with ``w = -logit d``, so the returned values are
    strictly inside (0, 1) wherever a step lands: ``p1 = _expit(x[0])``
    and ``d = _expit(-x[1])``.  The truncation is re-derived from each
    candidate decay ratio and fixed from the final one, and w is bounded
    below at ``-_MAX_DECAY_LOGIT`` so that it stays at or below
    ``MAX_FIT_TRUNCATION``.  The Jacobian is analytic on both summation
    routes: with ``lambda`` the intensity, the residuals' derivatives are
    ``-(1 - p1) t lambda(t) / mu(t)`` in logit p1 and
    ``(1 - d) t W(t) / mu(t)`` in w, for the weighted intensity sum W of
    :func:`geomrel.model._intensity_sums`, formed from the array of terms
    that the residuals' mean at the same point built; the loop gets
    ``J^T r`` and ``J^T J`` from them.  The times are checked once for all
    probes, and probes at one d share one set of tail sums.

    The search starts from the better of two candidates.  The growth
    candidate has d = 0.94 and the leading rate at which the modelled mean
    meets the final observed count q at t_q.  The no-growth candidate sits
    on the d bound (N = ``MAX_FIT_TRUNCATION``) with
    ``p1 = q (1 - d) / (t_q (1 - d**N))``, so that its mean is about the
    linear ``q t / t_q``.  It is probed only when that linear mean's
    objective, in closed form, is below the growth candidate's, and never
    when the growth candidate's rate sits at its clip of 1/2 (a count the
    mean at d = 0.94 cannot reach, towards the saturated corner).  The
    search starts from the probed candidate with the lower objective, and
    the loop takes that probe's objective rather than evaluating it
    again.  A search from the bound that probes off it may be heading for
    another basin than the growth candidate's, so it is abandoned at that
    probe and the fit is the search from the growth candidate, as if that
    were the only one: its mean is concave in t and meets q at t_q, so it
    is at least the bound candidate's linear mean and is finite wherever
    that one is.  So every fit either searches on the bound throughout or
    ends where the growth start alone ends it.  ``diagnostics`` is the kept
    search's, except that ``evaluations``, ``nonfinite_evaluations`` and
    ``jacobian_evaluations`` count every objective evaluation, non-finite
    point and Jacobian the fit made, each once: the candidates and an
    abandoned search's included.  Non-convergence is reported through
    ``converged``, never silently.
    """
    times, log_counts, skipped = _usable_arrays(ds, fewest=2)
    column, t_max = _checked_times(times, 0.0, "fit")
    t_q = float(times[-1])
    # exp(ln q) differs from q for some counts; starting from q moves fits.
    q = float(math.exp(log_counts[-1]))
    p1_start = _initial_p1(t_q, q)
    tails = {}  # the tail sums of every d probed, shared by its probes
    probed = []  # the latest probe's (p1, d, params, mean, head terms, residuals)
    at_jacobian = []  # the params of the latest point the Jacobian was taken at
    handed = []  # the start's probe, objective and state, for the loop's first call
    evaluations = nonfinite = jacobians = 0
    # A search from the bound is abandoned at its first probe off it.
    abandon = False

    def objective(z: np.ndarray):
        nonlocal evaluations, nonfinite
        z0, w = z.tolist()
        if handed and handed[0][0] == [z0, w]:
            _, value, probed[:] = handed.pop()
            return value
        if abandon and w > -_MAX_DECAY_LOGIT:
            raise _OffBound
        evaluations += 1
        p1 = _expit(z0)
        d = _expit(-w)
        if not (0.0 < p1 < 1.0 and 0.0 < d < 1.0):
            nonfinite += 1
            return None
        params = GeometricModelParams._from_checked(p1, d, default_truncation(d))
        params.__dict__["_tails"] = tails.setdefault(d, {})
        mu, terms = _mean_terms(params, column, t_max)
        r = np.log(mu)
        r = np.subtract(log_counts, r, out=r)
        probed[:] = p1, d, params, mu, terms, r
        value = float(r.dot(r))
        nonfinite += not math.isfinite(value)
        return value

    def derivatives(z: np.ndarray):
        nonlocal jacobians
        jacobians += 1
        p1, d, params, mu, terms, r = probed
        at_jacobian[:] = [params]
        intensity, weighted = _intensity_sums(params, column, terms)
        scale = times / mu
        c0 = -(1.0 - p1) * scale * intensity
        c1 = (1.0 - d) * scale * weighted
        a01 = float(c0.dot(c1))
        return [float(c0.dot(r)), float(c1.dot(r))], [
            [float(c0.dot(c0)), a01],
            [a01, float(c1.dot(c1))],
        ]

    def candidate(start: list[float]) -> tuple[float, tuple]:
        """The objective at ``start`` (+inf where it is not finite) and the
        probe that the loop's first call at ``start`` is handed."""
        value = objective(np.array(start))
        finite = value is not None and math.isfinite(value)
        return value if finite else math.inf, (start, value, list(probed))

    def search(probe: tuple) -> tuple[OptimizerResult, GeometricModelParams]:
        """The loop's run from a candidate's probe, and the params that the
        probe at its best point built, with their head of fault terms
        cached: the latest probe's when the run ended on accepting it."""
        handed[:] = [probe]
        best, diag = levenberg_marquardt(
            objective, derivatives, probe[0], lower=[-math.inf, -_MAX_DECAY_LOGIT]
        )
        point = [_expit(float(best[0])), _expit(-float(best[1]))]
        return diag, probed[2] if probed[:2] == point else at_jacobian[0]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, growth = candidate([_logit(p1_start), -_logit(_INITIAL_DECAY_GUESS)])
        start = growth
        p1_bound = q / (t_q * _BOUND_POWER_SUM)
        if p1_start < 0.5 and p1_bound > 0.0:
            linear = (log_counts - log_counts[-1]) - np.log(times / t_q)
            if float(linear.dot(linear)) < value:
                bound_value, bound = candidate([_logit(p1_bound), -_MAX_DECAY_LOGIT])
                if bound_value < value:
                    start = bound
                    abandon = True
    try:
        diag, params = search(start)
    except _OffBound:
        # The search from the bound left it, maybe for another basin than
        # the growth candidate's: the fit is that candidate's search.
        abandon = False
        diag, params = search(growth)
    diag = replace(
        diag,
        evaluations=evaluations,
        nonfinite_evaluations=nonfinite,
        jacobian_evaluations=jacobians,
    )
    return FitResult(params, diag, skipped)
