"""The Monte-Carlo intensity oracle of the simulation tests.

The package simulates histories from the model; these tests average the
failures that land at one incident across the replications and compare
that with the model's intensity there.
"""

from geomrel.data import FailureDataset


def empirical_intensity(datasets: list[FailureDataset], t: int, horizon: int) -> float:
    """Average number of failures landing exactly at incident ``t`` across
    replications.

    ``horizon`` is the simulation horizon the histories share; it bounds
    the times at which the estimate is meaningful (beyond it every history
    is silent by construction, not by behaviour).
    """
    if not datasets:
        raise ValueError("need at least one replication")
    if t < 1:
        raise ValueError("t must be at least 1")
    if t > horizon:
        raise ValueError(f"t={t} lies beyond the simulation horizon {horizon}")
    total = sum(ds.count_at(t) - ds.count_at(t - 1) for ds in datasets)
    return total / len(datasets)
