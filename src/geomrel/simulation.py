"""Synthetic failure histories drawn from the geometric-rates process.

Each fault's first-failure time is sampled from its geometric distribution
by inverse transform, ``ceil(ln(1 - u) / ln(1 - p))`` with u uniform on
[0, 1), which reproduces the occurrence law exactly at integer times.
Draws are made with NumPy's PCG64 generator (``numpy.random.default_rng``);
replication i seeds its own generator with ``seed + i``, so runs are
reproducible and replications can be produced independently in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FailureDataset, TimeUnit
from .model import GeometricModelParams

__all__ = [
    "SimulationConfig",
    "simulate",
]


# Draws beyond this many incidents are held here, and horizons stay below
# it, so a held draw never counts as a failure.
_DRAW_CAP = 2**62


@dataclass(frozen=True)
class SimulationConfig:
    """What to simulate: model parameters, observation horizon (incidents),
    base seed, and replication count."""

    params: GeometricModelParams
    horizon: int
    seed: int
    replications: int = 1

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1 incident")
        if self.horizon >= _DRAW_CAP:
            raise ValueError(f"horizon must be below 2**62 incidents, got {self.horizon}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative 64-bit integer")


def _draw_failure_times(params: GeometricModelParams, rng: np.random.Generator) -> np.ndarray:
    """One geometric draw per fault (values may exceed any horizon).  A
    draw beyond ``_DRAW_CAP`` incidents is held there, past every horizon,
    so that it stays an int64.  So is the draw of a fault whose rate a
    subnormal p1 rounds to 0, which never fails: its quotient is infinite,
    or NaN where u = 0."""
    u = rng.random(params.truncation)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        times = np.ceil(np.log1p(-u) / params.log_survival)
    times = np.nan_to_num(times, nan=_DRAW_CAP)
    return np.clip(times, 1.0, float(_DRAW_CAP)).astype(np.int64)


def simulate(config: SimulationConfig) -> list[FailureDataset]:
    """Generate one failure history per replication.

    Failures are the fault draws landing inside the horizon; ties at the
    same incident merge into a single measurement with the count jumping
    accordingly.  A replication with no failures is represented by the
    single measurement (horizon, 0).  Identical configs produce identical
    histories bit for bit.
    """
    datasets = []
    for i in range(config.replications):
        rng = np.random.default_rng(config.seed + i)
        times = _draw_failure_times(config.params, rng)
        hits = np.sort(times[times <= config.horizon])
        label = f"sim-seed{config.seed}-rep{i:03d}"
        if hits.size == 0:
            points: tuple[tuple[float, int], ...] = ((float(config.horizon), 0),)
        else:
            unique, per_time = np.unique(hits, return_counts=True)
            cumulative = np.cumsum(per_time)
            points = tuple(
                (float(t), int(c)) for t, c in zip(unique, cumulative)
            )
        datasets.append(FailureDataset(points, label, TimeUnit.INCIDENT))
    return datasets

