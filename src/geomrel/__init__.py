"""Reliability growth modelling with a geometric progression of per-fault
failure rates.

The package bundles the model equations, least-squares fitting with an
in-house Levenberg-Marquardt loop (which also fits Littlewood-Verrall's
likelihood by damped Newton steps), four classic comparison models behind the
same fit/predict interface (three of them rows of one closed-form table),
a number-of-failures predictive-validity harness, and a simulation oracle
for verification.  The ``geomrel``
console command exposes the fit/predict/evaluate/simulate workflows on
CSV failure histories.
"""

from .comparison import (
    ALL_MODEL_NAMES,
    ClosedFormModel,
    LittlewoodVerrall,
    LittlewoodVerrallParams,
    ReliabilityModel,
    fit_model,
)
from .data import (
    FailureDataset,
    TimeConversionProfile,
    TimeUnit,
    convert_time,
    parse_dataset,
    rescale_dataset,
    to_cumulative_csv,
)
from .errors import DataFormatError, FitError, PredictionError
from .estimation import (
    FitResult,
    OptimizerResult,
    fit,
    least_squares_objective,
    levenberg_marquardt,
)
from .evaluation import (
    AggregateCell,
    AggregateCurve,
    ValidityCurve,
    aggregate_median,
    aggregate_to_csv,
    curve_to_csv,
    default_cut_points,
    number_of_failures_eval,
    outlier_report,
)
from .model import (
    GeometricModelParams,
    additional_time,
    default_truncation,
    failure_intensity,
    fault_cdf,
    fault_rate,
    log_likelihood_small,
    mean_failures,
    time_for_intensity,
    time_for_intensity_exact,
)
from .simulation import SimulationConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "ALL_MODEL_NAMES",
    "AggregateCell",
    "AggregateCurve",
    "ClosedFormModel",
    "DataFormatError",
    "FailureDataset",
    "FitError",
    "FitResult",
    "GeometricModelParams",
    "LittlewoodVerrall",
    "LittlewoodVerrallParams",
    "PredictionError",
    "ReliabilityModel",
    "OptimizerResult",
    "SimulationConfig",
    "TimeConversionProfile",
    "TimeUnit",
    "ValidityCurve",
    "additional_time",
    "aggregate_median",
    "aggregate_to_csv",
    "convert_time",
    "curve_to_csv",
    "default_cut_points",
    "default_truncation",
    "failure_intensity",
    "fault_cdf",
    "fault_rate",
    "fit",
    "fit_model",
    "least_squares_objective",
    "levenberg_marquardt",
    "log_likelihood_small",
    "mean_failures",
    "number_of_failures_eval",
    "outlier_report",
    "parse_dataset",
    "rescale_dataset",
    "simulate",
    "time_for_intensity",
    "time_for_intensity_exact",
    "to_cumulative_csv",
]
