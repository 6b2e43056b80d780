"""Fixtures shared by ``test_estimation.py`` and ``test_comparison.py``:
the histories of their objective gates, on which each least-squares fit
must end at or below a run of the tests' reference simplex
(``reference_simplex.py``) on the same objective, within a stated bound;
and a capture of every run of the package's Levenberg-Marquardt loop."""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from geomrel import estimation
from geomrel.data import FailureDataset, parse_dataset
from geomrel.model import GeometricModelParams
from geomrel.simulation import SimulationConfig, simulate

REPO_DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def gate_histories() -> list[FailureDataset]:
    """Every prefix of the NTDS history with at least two points; seeded
    growth histories, as failure times and read on a 40-point grid; and
    constant-rate histories, which show no reliability growth."""
    with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
        ntds = parse_dataset(handle, "tbf_csv", label="ntds")
    histories = [
        FailureDataset(ntds.points[:n], f"ntds[:{n}]") for n in range(2, len(ntds.points) + 1)
    ]
    grid = np.arange(1, 41) * 25.0
    truths = [(0.05, 0.95), (0.02, 0.93), (0.1, 0.97), (0.03, 0.96)]
    for seed, (p1, d) in enumerate(truths, 61):
        config = SimulationConfig(GeometricModelParams(p1, d), horizon=1000, seed=seed)
        (simulated,) = simulate(config)
        histories.append(simulated)
        counts = [simulated.count_at(t) for t in grid]
        histories.append(
            FailureDataset(tuple(zip(grid.tolist(), counts)), f"{simulated.label}-grid")
        )
    for rate in (0.04, 0.07, 0.1):
        counts = np.floor(rate * grid).astype(int).tolist()
        histories.append(FailureDataset(tuple(zip(grid.tolist(), counts)), f"constant-{rate}"))
    return histories


@dataclass
class LoopRun:
    """One ``levenberg_marquardt`` run: the callbacks, start and lower
    bounds it was handed, the point (as a list) and record it returned,
    and how often it called each callback.  ``refused`` counts objective
    calls that returned ``None``.  A run that raised keeps ``best`` and
    ``result`` at ``None``."""

    objective: Callable
    derivatives: Callable
    start: list
    lower: list | None
    best: list | None = None
    result: estimation.OptimizerResult | None = None
    objective_calls: int = 0
    refused: int = 0
    derivative_calls: int = 0


@pytest.fixture
def loop_runs(monkeypatch) -> list[LoopRun]:
    """Every ``levenberg_marquardt`` run of the package while the test
    runs, in order, as :class:`LoopRun` records.  The callbacks are kept as
    the package handed them, and are counted only during the run itself."""
    runs = []
    original = estimation.levenberg_marquardt

    def capture(objective, derivatives, start, lower=None):
        run = LoopRun(objective, derivatives, start, lower)
        runs.append(run)

        def counted_objective(x):
            run.objective_calls += 1
            value = objective(x)
            run.refused += value is None
            return value

        def counted_derivatives(x):
            run.derivative_calls += 1
            return derivatives(x)

        best, run.result = original(counted_objective, counted_derivatives, start, lower)
        run.best = best.tolist()
        return best, run.result

    monkeypatch.setattr(estimation, "levenberg_marquardt", capture)
    return runs
