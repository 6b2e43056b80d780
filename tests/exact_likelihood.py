"""The exact readers of the model tests: the occurrence probability of
one fault, and the likelihood of a failure count by enumeration.

Neither is a fitting or prediction route of the package.  The tests check
the simulator against the one (a Kolmogorov-Smirnov test of a single
fault's first-failure time) and the model's normalization against the
other (acceptance criterion 03).  Both read their time through the
package's one time check, ``geomrel.model._checked_times``, so they refuse
a bad time as the package's readers do.
"""

import itertools
import math

import numpy as np

from geomrel.model import GeometricModelParams, _checked_times

# Enumeration caps for the exact likelihood; the subset count C(N, x) blows
# up beyond desk scale otherwise.
MAX_LIKELIHOOD_TRUNCATION = 20
MAX_LIKELIHOOD_FAILURES = 5


def fault_cdf(p: float, t: float) -> float:
    """Probability that a fault with rate ``p`` has occurred by time ``t``.

    Computes ``1 - (1 - p)**t`` as ``-expm1(t * log1p(-p))`` so that tiny
    rates do not cancel catastrophically.  The per-incident failure process
    is discrete, but real-valued ``t`` is accepted (and interpolates the
    integer-time values monotonically).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"rate must lie in (0, 1), got {p}")
    t, _ = _checked_times(t, 0.0, "fault_cdf")
    if not isinstance(t, float):
        raise ValueError("fault_cdf requires a scalar t")
    return -math.expm1(t * math.log1p(-p))


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
    t, _ = _checked_times(t, 0.0, "log_likelihood_small")
    if not isinstance(t, float):
        raise ValueError("log_likelihood_small requires a scalar t")

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
