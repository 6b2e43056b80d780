"""Histories shared by the objective gates of ``test_estimation.py`` and
``test_comparison.py``: each least-squares fit must end at or below a
run of the tests' reference simplex (``reference_simplex.py``) on the same
objective, within a stated bound."""

from pathlib import Path

import numpy as np
import pytest

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
