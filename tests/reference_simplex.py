"""The reference Nelder-Mead simplex of the objective gates.

Each gate fits a model by the package's Levenberg-Marquardt loop and
checks that the fit ends at or below this simplex run on the same
objective, within a stated bound.  The package itself has no simplex; this
one is the array version the fits were first checked against.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimplexRun:
    """The record of one :func:`reference_nelder_mead` run.

    ``value`` is the objective at the best vertex and ``spread`` the value
    spread across the final simplex; ``nonfinite_evaluations`` counts the
    objective calls that were not finite.  ``converged`` says that the
    spread fell to the tolerance rather than the run reaching its
    iteration budget."""

    value: float
    spread: float
    iterations: int
    converged: bool
    nonfinite_evaluations: int


def reference_nelder_mead(objective, start) -> tuple[np.ndarray, SimplexRun]:
    """Minimize ``objective`` with the reflect/expand/contract/shrink simplex
    of Nelder & Mead (1965), with the coefficients 1, 2, 1/2 and 1/2, and
    numpy-array vertices ordered by ``np.argsort(kind="stable")``.

    The initial simplex is ``start`` plus 0.25 along each coordinate; the
    objective must be finite at all of these vertices.  Later non-finite
    values count as +inf.  The run stops once the value spread across the
    simplex is at most 1e-8, or after 2,000 iterations, and returns the
    best vertex.  A spread of exactly zero across distinct vertices (the
    simplex straddling a kink symmetrically) is a tie plateau, not
    convergence, and a reflected point that ties the worst vertex takes the
    contraction that works with it.

    The whole run is under one ``np.errstate`` that silences overflow,
    invalid and divide warnings, so that an excursion which trips them is
    rejected as +inf rather than raised by a warnings filter."""
    x0 = np.asarray(start, dtype=float)
    k = x0.size
    nonfinite = 0

    def evaluate(x):
        nonlocal nonfinite
        v = float(objective(x))
        if not math.isfinite(v):
            nonfinite += 1
            return math.inf
        return v

    def tolerance_met():
        spread = values[-1] - values[0]
        if spread > 1e-8:
            return False
        if spread == 0.0:
            return all(np.array_equal(v, simplex[0]) for v in simplex[1:])
        return True

    def shrink():
        for i in range(1, k + 1):
            simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
            values[i] = evaluate(simplex[i])

    simplex = [x0.copy()]
    for i in range(k):
        vertex = x0.copy()
        vertex[i] += 0.25
        simplex.append(vertex)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = [evaluate(v) for v in simplex]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("objective is not finite at the initial simplex vertices")

        iterations = 0
        converged = False
        while True:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            if tolerance_met():
                converged = True
                break
            if iterations >= 2000:
                break
            iterations += 1
            centroid = simplex[0].copy()
            for vertex in simplex[1:-1]:
                centroid += vertex
            centroid /= k
            reflected = centroid + 1.0 * (centroid - simplex[-1])
            f_reflected = evaluate(reflected)
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * (reflected - centroid)
                f_expanded = evaluate(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected <= values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_contracted = evaluate(contracted)
                if f_contracted <= f_reflected:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    shrink()
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
                f_contracted = evaluate(contracted)
                if f_contracted < values[-1]:
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    shrink()

    run = SimplexRun(
        value=values[0],
        spread=values[-1] - values[0],
        iterations=iterations,
        converged=converged,
        nonfinite_evaluations=nonfinite,
    )
    return simplex[0].copy(), run
