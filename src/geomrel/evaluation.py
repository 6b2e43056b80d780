"""Number-of-failures predictive-validity harness.

For a history with q failures at the end of its observation window t_q,
the harness refits a model on the data up to each cut t_e <= t_q, predicts
the cumulative count at t_q, and records the relative error
``(mu_hat(t_q) - q) / q`` against the normalized time ``t_e / t_q``.
Curves from several projects are combined per model by binning the
normalized axis and taking per-cell medians, which keeps one badly
predicted project from cancelling or dominating the rest.

Every cut is scored, but a sub-history is fitted only once: cuts that fall
between the same two measurements leave the same data and share its fit
and prediction (or its failure reason).  Because fits are deterministic,
the curves are identical to those of a fresh fit at every cut.

Models whose fits are equal, such as Musa basic and NHPP, have equal
curves up to their names.  ``geomrel evaluate`` therefore computes one
curve per distinct fit and gives the other names a renamed copy, which
equals the curve :func:`number_of_failures_eval` returns for them.

Evaluations are deterministic: the same inputs produce bit-identical
curves.  Fits that fail at a cut are recorded as gaps, never fabricated.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .comparison import ALL_MODEL_NAMES, fit_model
from .data import FailureDataset
from .errors import FitError, PredictionError

__all__ = [
    "AggregateCell",
    "AggregateCurve",
    "ValidityCurve",
    "aggregate_median",
    "aggregate_to_csv",
    "curve_to_csv",
    "default_cut_points",
    "number_of_failures_eval",
    "outlier_report",
]

DEFAULT_CUT_COUNT = 20
DEFAULT_CUT_START_FRACTION = 0.2
DEFAULT_GRID_CELLS = 10


@dataclass(frozen=True)
class ValidityCurve:
    """Relative prediction errors of one model on one project.

    ``points`` holds (normalized_time, relative_error) pairs with strictly
    increasing normalized times in (0, 1]; ``skipped`` records the cuts at
    which no prediction could be made, with the reason.
    """

    model_name: str
    dataset_label: str
    points: tuple[tuple[float, float], ...]
    skipped: tuple[tuple[float, str], ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple((float(nt), float(e)) for nt, e in self.points)
        )
        object.__setattr__(
            self, "skipped", tuple((float(t), str(r)) for t, r in self.skipped)
        )
        previous = 0.0
        for nt, _ in self.points:
            if not previous < nt <= 1.0:
                raise ValueError(
                    "normalized times must be strictly increasing inside (0, 1]"
                )
            previous = nt


@dataclass(frozen=True)
class AggregateCell:
    """One normalized-time bin of an aggregate curve."""

    lower: float
    upper: float
    median_relative_error: float
    contributing_project_count: int

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class AggregateCurve:
    """Per-cell medians of several projects' validity curves for one model.

    Only cells with at least one contributing point appear; the grid covers
    (0, 1] with ``grid_cells`` equal-width bins.
    """

    model_name: str
    grid_cells: int
    cells: tuple[AggregateCell, ...]


def default_cut_points(ds: FailureDataset, count: int = DEFAULT_CUT_COUNT) -> list[float]:
    """``count`` evenly spaced fitting horizons from
    ``DEFAULT_CUT_START_FRACTION * t_q`` (20% of the window) to ``t_q``.
    Below roughly 20% of the window most fits are degenerate."""
    if count < 1:
        raise ValueError("need at least one cut point")
    t_q = ds.final_time
    if count == 1:
        return [t_q]
    return [float(v) for v in np.linspace(DEFAULT_CUT_START_FRACTION * t_q, t_q, count)]


def _require_failures(ds: FailureDataset) -> None:
    """Raise unless ``ds`` records a failure: relative errors of the final
    count are undefined otherwise."""
    if ds.final_count < 1:
        raise ValueError("the history records no failures; relative errors are undefined")


def number_of_failures_eval(model_name: str, ds: FailureDataset, cut_points=None) -> ValidityCurve:
    """Refit ``model_name`` on truncations of ``ds`` and score each
    prediction of the final failure count; each distinct truncation is
    fitted once however many cuts leave it, on a history sliced from
    ``ds`` by :meth:`FailureDataset.prefix`.

    ``cut_points`` defaults to :func:`default_cut_points`.  Cuts that leave
    fewer than two measurements, or at which the fit or prediction fails,
    become entries of the curve's ``skipped`` diagnostics.
    """
    if model_name not in ALL_MODEL_NAMES:
        raise ValueError(
            f"unknown model {model_name!r}; choose from {sorted(ALL_MODEL_NAMES)}"
        )
    _require_failures(ds)
    q = ds.final_count
    t_q = ds.final_time
    if cut_points is None:
        cut_points = default_cut_points(ds)
    cuts = sorted(set(float(t) for t in cut_points))
    if not cuts:
        raise ValueError("need at least one cut point")
    if cuts[-1] > t_q:
        raise ValueError(f"cut point {cuts[-1]} lies beyond the observation window {t_q}")

    # Prefix length -> its prediction at t_q, or the reason there is none.
    outcomes: dict[int, float | str] = {}
    points = []
    skipped = []
    for t_e in cuts:
        n = int(np.searchsorted(ds.times, t_e, side="right"))
        if n < 2:
            skipped.append((t_e, "fewer than 2 measurements at this cut"))
            continue
        if n not in outcomes:
            try:
                outcomes[n] = fit_model(model_name, ds.prefix(n)).predict_mean(t_q)
            except (FitError, PredictionError, ValueError, OverflowError) as exc:
                outcomes[n] = str(exc)
        outcome = outcomes[n]
        if isinstance(outcome, str):
            skipped.append((t_e, outcome))
        else:
            points.append((t_e / t_q, (outcome - q) / q))
    return ValidityCurve(model_name, ds.label, tuple(points), tuple(skipped))


def _renamed(curve: ValidityCurve, model_name: str) -> ValidityCurve:
    """``curve`` as :func:`number_of_failures_eval` returns it for
    ``model_name``, whose fits equal those of ``curve.model_name``.  A
    failed fit's reason starts with the model's name, which is swapped."""
    prefix = f"{curve.model_name}: "
    skipped = tuple(
        (t, f"{model_name}: {reason[len(prefix):]}" if reason.startswith(prefix) else reason)
        for t, reason in curve.skipped
    )
    return replace(curve, model_name=model_name, skipped=skipped)


def _cell_index(normalized_time: float, grid_cells: int) -> int:
    # Cell i covers (i/n, (i+1)/n]; normalized times are in (0, 1].
    idx = math.ceil(normalized_time * grid_cells) - 1
    return min(max(idx, 0), grid_cells - 1)


def aggregate_median(curves, grid_cells: int = DEFAULT_GRID_CELLS) -> AggregateCurve:
    """Combine same-model validity curves into per-cell medians.

    Medians (even counts average the middle two) keep a single far-off
    project from dragging the combined curve; empty cells are omitted.
    """
    curves = list(curves)
    if not curves:
        raise ValueError("need at least one curve to aggregate")
    if grid_cells < 1:
        raise ValueError("grid_cells must be at least 1")
    if grid_cells > sys.float_info.max:  # normalized times are scaled by it
        raise ValueError("grid_cells must not exceed the float range")
    names = {c.model_name for c in curves}
    if len(names) != 1:
        raise ValueError(f"cannot aggregate mixed model names: {sorted(names)}")

    values: dict[int, list[float]] = {}
    contributors: dict[int, set[int]] = {}
    for curve_idx, curve in enumerate(curves):
        for nt, err in curve.points:
            idx = _cell_index(nt, grid_cells)
            values.setdefault(idx, []).append(err)
            contributors.setdefault(idx, set()).add(curve_idx)

    cells = tuple(
        AggregateCell(
            lower=idx / grid_cells,
            upper=(idx + 1) / grid_cells,
            median_relative_error=float(statistics.median(values[idx])),
            contributing_project_count=len(contributors[idx]),
        )
        for idx in sorted(values)
    )
    return AggregateCurve(curves[0].model_name, grid_cells, cells)


def outlier_report(curves, threshold: float) -> list[tuple[str, float]]:
    """Projects whose curve exceeds ``threshold`` in magnitude anywhere,
    with their worst absolute relative error.

    Nothing is excluded automatically; this merely makes candidates for a
    deliberate exclusion visible.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    report = []
    for curve in curves:
        if not curve.points:
            continue
        worst = max(abs(err) for _, err in curve.points)
        if worst > threshold:
            report.append((curve.dataset_label, worst))
    return report


def curve_to_csv(curve: ValidityCurve) -> str:
    """Plot-ready CSV: ``normalized_time,relative_error,model,dataset``."""
    lines = ["normalized_time,relative_error,model,dataset"]
    lines.extend(
        f"{nt!r},{err!r},{curve.model_name},{curve.dataset_label}" for nt, err in curve.points
    )
    return "\n".join(lines) + "\n"


def aggregate_to_csv(agg: AggregateCurve) -> str:
    """Plot-ready CSV of cell centers: ``normalized_time,relative_error,model``."""
    lines = ["normalized_time,relative_error,model"]
    lines.extend(
        f"{cell.center!r},{cell.median_relative_error!r},{agg.model_name}" for cell in agg.cells
    )
    return "\n".join(lines) + "\n"
