"""Command-line surface: fit, predict, evaluate, and simulate.

Machine-readable results go to standard output as JSON; plot-ready curves
go to CSV files under an explicitly given output directory.  Exit codes
are 0 for success, 1 for input or usage errors (or a standard output
closed before everything was written), and 2 for numerical
conditions (a fit that did not converge, or an intensity objective above
the current intensity).  Nothing is read from the environment and no file
is written outside the requested output directory, so a run is fully
determined by its arguments; the file-writing commands record those
arguments in a ``manifest.json`` next to their outputs.

Model fitting treats the input's time axis as incidents (the model's
native unit); rescale a history first if it was recorded on another axis.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .comparison import ALL_MODEL_NAMES, _fit_key
from .data import TimeConversionProfile, TimeUnit, convert_time, parse_dataset, to_cumulative_csv
from .errors import DataFormatError, FitError, PredictionError
from .estimation import fit
from .evaluation import (
    _renamed,
    _require_failures,
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
    failure_intensity,
    mean_failures,
)
from .simulation import SimulationConfig, simulate

__all__ = ["RunManifest", "build_parser", "main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2

_FORMATS = {"cumulative": "cumulative_csv", "tbf": "tbf_csv"}


@dataclass(frozen=True)
class RunManifest:
    """Everything that determined a run: command, inputs, resolved config,
    tool version, and seed (when randomness is involved)."""

    command: str
    inputs: tuple[str, ...]
    config: dict
    tool_version: str = __version__
    seed: int | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "tool_version": self.tool_version,
                "inputs": list(self.inputs),
                "config": self.config,
                "seed": self.seed,
            },
            indent=2,
        )


def _fail(message: str, code: int) -> int:
    print(f"geomrel: error: {message}", file=sys.stderr)
    return code


def _read_dataset(path: str, fmt_flag: str):
    fmt = _FORMATS[fmt_flag]
    with open(path, "rb") as handle:
        return parse_dataset(handle, fmt, label=Path(path).stem)


def _read_profile(path: str) -> TimeConversionProfile:
    with open(path, "rb") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise DataFormatError("profile file must hold a JSON object")
    try:
        return TimeConversionProfile.from_dict(payload)
    except TypeError as exc:
        raise DataFormatError(f"invalid profile: {exc}") from exc


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "dataset"


def cmd_fit(args) -> int:
    ds = _read_dataset(args.input, args.format)
    result = fit(ds)
    print(result.to_json())
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _params_from_args(args) -> GeometricModelParams:
    if args.params is not None:
        with open(args.params, "rb") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise DataFormatError("params file must hold a JSON object")
        missing = [name for name in ("p1", "d", "truncation") if name not in payload]
        if missing:
            raise DataFormatError(f"params file is missing {', '.join(map(repr, missing))}")
        truncation = payload["truncation"]
        # JSON integers load as int; a float such as 2.5, 1e400 or
        # Infinity, a string, a boolean or null is refused, not coerced.
        if isinstance(truncation, bool) or not isinstance(truncation, int):
            raise DataFormatError(
                f"params truncation must be a JSON integer, got {truncation!r}"
            )
        try:
            return GeometricModelParams(payload["p1"], payload["d"], truncation)
        except TypeError as exc:
            raise DataFormatError(f"invalid params: {exc}") from exc
    if args.p1 is None or args.d is None:
        raise DataFormatError("provide either --params FILE or both --p1 and --d")
    return GeometricModelParams(args.p1, args.d, args.truncation)


def cmd_predict(args) -> int:
    ds = _read_dataset(args.input, args.format)
    params = _params_from_args(args)
    if not args.objective > 0 or not math.isfinite(args.objective):
        return _fail("--objective must be finite and positive", EXIT_INPUT)
    t_now = ds.final_time
    if t_now < 1.0:
        return _fail(
            f"observation window ends at t={t_now}; intensities are defined from t=1",
            EXIT_INPUT,
        )
    mu_now = mean_failures(params, t_now)
    lambda_now = failure_intensity(params, t_now)
    if args.objective > lambda_now:
        return _fail(
            f"objective intensity {args.objective} exceeds the current intensity "
            f"{lambda_now}; the model cannot reach a level it has already passed",
            EXIT_NUMERICAL,
        )
    delta_raw = additional_time(params, lambda_now, args.objective)
    payload = {
        "t": t_now,
        "mu": mu_now,
        "lambda": lambda_now,
        "lambda_objective": args.objective,
        "delta_t_raw": delta_raw,
        "delta_t_abs": abs(delta_raw),
        "note": (
            "delta_t_raw keeps the sign produced by the release-time formula, "
            "which is negative whenever the objective lies below the current "
            "intensity; delta_t_abs is the planning magnitude"
        ),
    }
    if args.profile is not None:
        profile = _read_profile(args.profile)
        days = convert_time(delta_raw, TimeUnit.INCIDENT, TimeUnit.CALENDAR_DAY, profile)
        if not math.isfinite(days):
            return _fail("the release time in calendar days is beyond the float range", EXIT_INPUT)
        payload["delta_t_raw_calendar_days"] = days
        payload["delta_t_abs_calendar_days"] = abs(days)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    names = ALL_MODEL_NAMES if args.models == "all" else args.models.split(",")
    models = list(dict.fromkeys(m.strip() for m in names if m.strip()))
    unknown = [m for m in models if m not in ALL_MODEL_NAMES]
    if unknown:
        return _fail(
            f"unknown model names {unknown}; supported: {', '.join(ALL_MODEL_NAMES)}",
            EXIT_INPUT,
        )
    if not models:
        return _fail("no models requested", EXIT_INPUT)
    # Checked before any fit so that a bad value leaves no partial output.
    if args.cuts < 1:
        return _fail("--cuts must be at least 1", EXIT_INPUT)
    if args.bins < 1:
        return _fail("--bins must be at least 1", EXIT_INPUT)
    if args.bins > sys.float_info.max:
        return _fail("--bins must not exceed the float range", EXIT_INPUT)
    if args.threshold is not None and not args.threshold > 0:
        return _fail("--threshold must be positive", EXIT_INPUT)
    datasets = [_read_dataset(path, args.format) for path in args.inputs]
    for ds in datasets:
        _require_failures(ds)
    # Built before the output directory, so that cut points that cannot be
    # built leave no output directory behind.
    cut_points = [default_cut_points(ds, args.cuts) for ds in datasets]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    used = set()
    labels = []
    for ds in datasets:
        label = _safe_name(ds.label)
        while label in used:
            label += "_"
        used.add(label)
        labels.append(label)

    # Models whose fits are equal (Musa basic and NHPP) are evaluated once;
    # the later name gets copies of the first one's curves.
    evaluated = {}
    for model_name in models:
        key = _fit_key(model_name)
        if key in evaluated:
            curves = [_renamed(curve, model_name) for curve in evaluated[key]]
        else:
            curves = evaluated[key] = [
                number_of_failures_eval(model_name, ds, cuts)
                for ds, cuts in zip(datasets, cut_points)
            ]
        for label, curve in zip(labels, curves):
            path = out_dir / f"curve_{label}_{model_name}.csv"
            path.write_text(curve_to_csv(curve))
        aggregate = aggregate_median(curves, args.bins)
        (out_dir / f"aggregate_{model_name}.csv").write_text(aggregate_to_csv(aggregate))
        if args.threshold is not None:
            report = outlier_report(curves, args.threshold)
            if report:
                for label, worst in report:
                    print(f"outlier [{model_name}] {label}: max |relative error| = {worst!r}")
            else:
                print(f"outlier [{model_name}]: none above {args.threshold!r}")

    manifest = RunManifest(
        command="evaluate",
        inputs=tuple(str(p) for p in args.inputs),
        config={
            "format": args.format,
            "models": models,
            "cuts": args.cuts,
            "bins": args.bins,
            "threshold": args.threshold,
            "out": str(args.out),
        },
    )
    (out_dir / "manifest.json").write_text(manifest.to_json())
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = GeometricModelParams(args.p1, args.d, args.truncation)
    config = SimulationConfig(
        params=params, horizon=args.horizon, seed=args.seed, replications=args.replications
    )
    # Drawn first, so that a failed draw leaves no output directory behind.
    datasets = simulate(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, ds in enumerate(datasets):
        (out_dir / f"replication_{index:03d}.csv").write_text(to_cumulative_csv(ds))
    manifest = RunManifest(
        command="simulate",
        inputs=(),
        config={
            "p1": params.p1,
            "d": params.d,
            "truncation": params.truncation,
            "horizon": args.horizon,
            "replications": args.replications,
            "out": str(args.out),
        },
        seed=args.seed,
    )
    (out_dir / "manifest.json").write_text(manifest.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomrel",
        description="Reliability growth analysis with geometrically decaying fault rates.",
    )
    parser.add_argument("--version", action="version", version=f"geomrel {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fit_p = commands.add_parser("fit", help="estimate (p1, d) from a failure history")
    fit_p.add_argument("input", help="failure history CSV")
    fit_p.add_argument("--format", choices=sorted(_FORMATS), default="cumulative")
    fit_p.set_defaults(func=cmd_fit)

    predict_p = commands.add_parser(
        "predict", help="current mean, intensity, and time to an intensity objective"
    )
    predict_p.add_argument("input", help="failure history CSV")
    predict_p.add_argument("--format", choices=sorted(_FORMATS), default="cumulative")
    predict_p.add_argument("--params", help="FitResult JSON produced by 'fit'")
    predict_p.add_argument("--p1", type=float, help="leading fault rate (inline parameters)")
    predict_p.add_argument("--d", type=float, help="decay ratio (inline parameters)")
    predict_p.add_argument(
        "--truncation", type=int, default=None, help="fault terms (default: derived from d)"
    )
    predict_p.add_argument(
        "--objective", type=float, required=True, help="failure intensity objective"
    )
    predict_p.add_argument("--profile", help="time conversion profile JSON")
    predict_p.set_defaults(func=cmd_predict)

    # Options are spelled out in full, so that no prefix reads as --models.
    evaluate_p = commands.add_parser(
        "evaluate",
        help="predictive-validity curves and cross-project medians",
        allow_abbrev=False,
    )
    evaluate_p.add_argument("inputs", nargs="+", help="failure history CSVs")
    evaluate_p.add_argument("--format", choices=sorted(_FORMATS), default="cumulative")
    evaluate_p.add_argument(
        "--models", default="all", help="comma-separated model names, or 'all'"
    )
    evaluate_p.add_argument("--cuts", type=int, default=20, help="fitting horizons per project")
    evaluate_p.add_argument("--bins", type=int, default=10, help="aggregation cells")
    evaluate_p.add_argument(
        "--threshold", type=float, default=None, help="print projects exceeding this |error|"
    )
    evaluate_p.add_argument("--out", required=True, help="output directory")
    evaluate_p.set_defaults(func=cmd_evaluate)

    simulate_p = commands.add_parser(
        "simulate", help="draw synthetic failure histories from the model"
    )
    simulate_p.add_argument("--p1", type=float, required=True)
    simulate_p.add_argument("--d", type=float, required=True)
    simulate_p.add_argument(
        "--truncation", type=int, default=None, help="fault terms (default: derived from d)"
    )
    simulate_p.add_argument("--horizon", type=int, required=True, help="incidents to observe")
    simulate_p.add_argument("--seed", type=int, required=True)
    simulate_p.add_argument("--replications", type=int, default=1)
    simulate_p.add_argument("--out", required=True, help="output directory")
    simulate_p.set_defaults(func=cmd_simulate)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser that :func:`main` uses, built once per process: parsing
    keeps no state in it, so one parser serves every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage problems;
        # usage problems are input errors here.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Standard output was closed early (a reader such as head exited).
        # Point it at devnull so that the interpreter's final flush of
        # what is still buffered stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (OSError, ValueError, KeyError, FitError) as exc:
        # DataFormatError and json.JSONDecodeError are ValueErrors.
        return _fail(str(exc), EXIT_INPUT)
    except PredictionError as exc:
        return _fail(str(exc), EXIT_NUMERICAL)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}", EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
