"""The committed objective gate: every model fitted to every prefix of a
fixed set of histories, and what each fit ended at.

``tests/golden/objectives.json`` holds one entry per model and prefix:
the fitted objective as ``float.hex``, the fit's ``boundary`` and, for the
geometric model, its truncation; a fit that is refused holds the
``FitError`` text instead.  ``test_golden.py`` refits every entry and
fails when an objective rises above its entry by more than
``RELATIVE_TOLERANCE`` (plus ``ABSOLUTE_FLOOR``, for objectives at the
rounding noise of the log counts) or when a boundary changes.

The histories:

* every prefix of the NTDS history with at least two points;
* seeded growth histories drawn with :mod:`geomrel.simulation`, one as
  its failure times and four read on a 32-point grid up to 800 incidents
  (the release-planning shape);
* constant-rate histories ``floor(rate t)`` on the same grid, which show
  no reliability growth and fit the geometric model on its truncation
  cap;
* sparse histories, a few failures in many readings: Poisson counts drawn
  on the grid at low rates, and one fixed draw of 2 failures in 29
  readings whose geometric fit has two basins, the better one reached
  from d = 0.94 and a worse one from the d bound.

Prefixes with fewer than two usable points (nonzero counts) are left
out.  Run from the repository root to rewrite the file from the code in
``src``::

    PYTHONPATH=src python tests/regenerate_golden.py

A change that rewrites the file states which entries moved, and why.
"""

import json
import sys
from pathlib import Path

import numpy as np

from geomrel.comparison import ALL_MODEL_NAMES, fit_model
from geomrel.data import FailureDataset, parse_dataset
from geomrel.errors import FitError
from geomrel.model import GeometricModelParams
from geomrel.simulation import SimulationConfig, simulate

GOLDEN = Path(__file__).resolve().parent / "golden" / "objectives.json"
NTDS = Path(__file__).resolve().parent.parent / "data" / "ntds_tbf.csv"

# An objective may rise above its entry by this much of its magnitude
# (libm results differ across hosts in their last bits), plus a floor for
# objectives that are rounding noise, as a two-point history's exact fit.
RELATIVE_TOLERANCE = 1e-12
ABSOLUTE_FLOOR = 1e-24

GRID = 800.0 * np.arange(1, 33) / 32
GROWTH_TRUTHS = [(0.05, 0.95), (0.02, 0.93), (0.1, 0.97), (0.03, 0.96)]
CONSTANT_RATES = (0.04, 0.07, 0.1)
SPARSE_RATES = (0.003, 0.008)


def constant_rate_history(rate: float) -> FailureDataset:
    """``floor(rate t)`` failures on ``GRID``: no reliability growth."""
    counts = np.floor(rate * GRID).astype(int).tolist()
    return FailureDataset(tuple(zip(GRID.tolist(), counts)), f"constant-{rate}")


def two_basin_history() -> FailureDataset:
    """2 failures in 29 readings (the first at the 11th, the second at the
    28th), a Poisson draw at a rate of about 1e-3 on a grid up to 1784.2."""
    times = 1784.168454611495 * np.arange(1, 30) / 29
    counts = [0] * 10 + [1] * 17 + [2] * 2
    return FailureDataset(tuple(zip(times.tolist(), counts)), "two-basin")


def histories() -> list[FailureDataset]:
    """The gate's histories, each with a label that names it."""
    with open(NTDS, "rb") as handle:
        found = [parse_dataset(handle, "tbf_csv", label="ntds")]
    for seed, (p1, d) in enumerate(GROWTH_TRUTHS, 2201):
        config = SimulationConfig(GeometricModelParams(p1, d), horizon=800, seed=seed)
        (simulated,) = simulate(config)
        if seed == 2201:
            found.append(simulated)
        counts = [simulated.count_at(t) for t in GRID]
        found.append(FailureDataset(tuple(zip(GRID.tolist(), counts)), f"{simulated.label}-grid"))
    found.extend(constant_rate_history(rate) for rate in CONSTANT_RATES)
    rng = np.random.default_rng(2205)
    for rate in SPARSE_RATES:
        counts = np.cumsum(rng.poisson(rate * GRID[0], GRID.size)).tolist()
        found.append(FailureDataset(tuple(zip(GRID.tolist(), counts)), f"sparse-{rate}"))
    found.append(two_basin_history())
    return found


def prefixes() -> list[tuple[str, int, FailureDataset]]:
    """``(label, n, prefix)`` for every prefix of n points with at least two
    usable points."""
    return [
        (ds.label, n, ds.prefix(n))
        for ds in histories()
        for n in range(2, len(ds.points) + 1)
        if np.count_nonzero(ds.counts[:n]) >= 2
    ]


def outcome(model_name: str, ds: FailureDataset) -> dict:
    """What the fit of ``model_name`` to ``ds`` ended at."""
    try:
        fitted = fit_model(model_name, ds)
    except FitError as exc:
        return {"error": str(exc)}
    truncation = getattr(fitted.params, "truncation", None)
    return {
        "objective": fitted.diagnostics.value.hex(),
        "boundary": fitted.boundary,
        "truncation": truncation,
    }


def entries() -> list[dict]:
    return [
        {"history": label, "points": n, "model": name, **outcome(name, ds)}
        for label, n, ds in prefixes()
        for name in ALL_MODEL_NAMES
    ]


def main() -> int:
    GOLDEN.parent.mkdir(exist_ok=True)
    found = entries()
    # One entry per line, so that a diff of the file names the moved fits.
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in found) + "\n]\n")
    print(f"wrote {len(found)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
