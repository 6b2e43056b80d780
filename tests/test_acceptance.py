"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them)."""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import geomrel.cli as cli
from geomrel.comparison import ClosedFormModel, fit_model
from geomrel.data import FailureDataset
from geomrel.estimation import fit, levenberg_marquardt
from geomrel.evaluation import ValidityCurve, aggregate_median, number_of_failures_eval
from geomrel.model import (
    GeometricModelParams,
    failure_intensity,
    mean_failures,
)
from geomrel.simulation import SimulationConfig, simulate
from exact_likelihood import log_likelihood_small

REPO_DATA = Path(__file__).resolve().parent.parent / "data"
ALL_FIVE = ("geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp")


class Criterion:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(
            f"[acceptance] criterion {self.number:02d} {verdict} "
            f"({elapsed:.2f}s/{self.budget:.0f}s): {self.description}"
        )
        if exc_type is None:
            assert elapsed <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def random_params(rng, d_high=0.99):
    p1 = rng.uniform(0.001, 0.9)
    d = rng.uniform(0.05, d_high)
    return GeometricModelParams(p1, d)


def rounded_mean_dataset(mean_fn, params, times, label):
    points = tuple((float(t), int(round(mean_fn(params, float(t))))) for t in times)
    return FailureDataset(points, label)


def test_criterion_01_initial_intensity_closed_form():
    with Criterion(1, "intensity at t=1 equals p1(1-d^N)/(1-d) within 1e-12", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            params = random_params(rng)
            value = failure_intensity(params, 1.0)
            closed = params.p1 * (1 - params.d**params.truncation) / (1 - params.d)
            assert abs(value - closed) <= 1e-12 * max(1.0, abs(closed))


def test_criterion_02_first_difference_consistency():
    with Criterion(2, "mean(t) - mean(t-1) equals intensity(t) within 1e-10", 1.0):
        rng = np.random.default_rng(202)
        ts = np.arange(1.0, 501.0)
        for _ in range(20):
            params = random_params(rng)
            diffs = mean_failures(params, ts) - mean_failures(params, ts - 1.0)
            intensities = failure_intensity(params, ts)
            assert np.max(np.abs(diffs - intensities)) <= 1e-10


def test_criterion_03_likelihood_normalization():
    with Criterion(3, "exp(log-likelihood) sums to 1 over x = 0..N", 1.0):
        for n in (2, 3, 4, 5):
            params = GeometricModelParams(0.35, 0.7, n)
            for t in (1.0, 2.0, 5.0):
                total = math.fsum(
                    math.exp(log_likelihood_small(params, x, t)) for x in range(n + 1)
                )
                assert abs(total - 1.0) <= 1e-9


def test_criterion_04_monte_carlo_mean_oracle():
    with Criterion(4, "simulated mean counts match the model mean within 3 SE", 30.0):
        params = GeometricModelParams(0.05, 0.95)
        reps = 10_000
        datasets = simulate(SimulationConfig(params, horizon=100, seed=4040, replications=reps))
        for t in (10, 50, 100):
            counts = np.array([ds.count_at(t) for ds in datasets], dtype=float)
            stderr = counts.std(ddof=1) / math.sqrt(reps)
            assert abs(counts.mean() - mean_failures(params, float(t))) <= 3 * stderr


def test_criterion_05_parameter_recovery():
    with Criterion(5, "noise-free and simulated-data parameter recovery", 60.0):
        true = GeometricModelParams(0.05, 0.95)
        forward = rounded_mean_dataset(
            mean_failures, true, np.arange(10.0, 201.0, 10.0), "forward"
        )
        result = fit(forward)
        assert abs(result.params.p1 - true.p1) / true.p1 <= 0.10
        assert abs(result.params.d - true.d) <= 0.01

        rich = GeometricModelParams(0.15, 0.98)
        errors = []
        for rep in range(20):
            ds = simulate(
                SimulationConfig(rich, horizon=3000, seed=1234 + 1000 * rep, replications=1)
            )[0]
            assert ds.final_count >= 300
            errors.append(abs(fit(ds).params.d - rich.d))
        assert float(np.median(errors)) < 0.02


def test_criterion_06_rosenbrock_benchmark():
    with Criterion(6, "Levenberg-Marquardt reaches the Rosenbrock minimum from (-1.2, 1)", 1.0):
        # Rosenbrock's function as the squares of r = (10(y - x^2), 1 - x),
        # with g = J^T r and A = J^T J.
        def residuals(z):
            x, y = z.tolist()
            return np.array([10.0 * (y - x * x), 1.0 - x])

        def objective(z):
            r = residuals(z)
            return float(r @ r)

        def derivatives(z):
            r = residuals(z)
            columns = [np.array([-20.0 * float(z[0]), -1.0]), np.array([10.0, 0.0])]
            gradient = [float(c @ r) for c in columns]
            return gradient, [[float(a @ b) for b in columns] for a in columns]

        best, diag = levenberg_marquardt(objective, derivatives, [-1.2, 1.0])
        assert diag.converged
        assert abs(best[0] - 1.0) <= 1e-6 and abs(best[1] - 1.0) <= 1e-6


def test_criterion_07_validity_terminal_point():
    with Criterion(7, "relative error at t_e = t_q within 0.05 on own data, all models", 120.0):
        closed_form_mean = ClosedFormModel.predict_mean
        grid = np.arange(10.0, 401.0, 10.0)
        own_data = {
            "geometric": rounded_mean_dataset(
                mean_failures, GeometricModelParams(0.05, 0.95), np.arange(10.0, 201.0, 10.0), "geo"
            ),
            "musa-basic": rounded_mean_dataset(
                closed_form_mean, ClosedFormModel("musa-basic", (100.0, 0.01)), grid, "mb"
            ),
            "musa-okumoto": rounded_mean_dataset(
                closed_form_mean, ClosedFormModel("musa-okumoto", (10.0, 0.1)), grid, "mo"
            ),
            "nhpp": rounded_mean_dataset(
                closed_form_mean, ClosedFormModel("nhpp", (120.0, 0.008)), grid, "nhpp"
            ),
        }
        rng = np.random.default_rng(2024)
        idx = np.arange(1, 501)
        hazards = rng.gamma(shape=3.0, scale=1.0 / (20.0 + 0.05 * idx**2))
        own_data["littlewood-verrall"] = FailureDataset.from_tbf(
            rng.exponential(1.0 / hazards), "lv"
        )
        for name in ALL_FIVE:
            ds = own_data[name]
            curve = number_of_failures_eval(name, ds, [ds.final_time])
            assert curve.points, f"{name}: terminal fit failed: {curve.skipped}"
            (_, err), = curve.points
            assert abs(err) <= 0.05, f"{name}: terminal relative error {err}"


def test_criterion_08_median_robust_to_far_off_project():
    with Criterion(8, "a +6 outlier project cannot move the aggregated medians", 1.0):
        grid = [0.15, 0.45, 0.85]
        good_a = ValidityCurve("lv", "a", tuple((nt, 0.10) for nt in grid))
        good_b = ValidityCurve("lv", "b", tuple((nt, -0.20) for nt in grid))
        far_off = ValidityCurve("lv", "c", tuple((nt, 6.0) for nt in grid))
        agg = aggregate_median([good_a, good_b, far_off], grid_cells=10)
        for cell in agg.cells:
            # The median of {0.1, -0.2, 6.0} is decided by the two sane
            # projects; 6.0 must never shine through.
            assert cell.median_relative_error == pytest.approx(0.10)
            assert cell.contributing_project_count == 3


def test_criterion_09_end_to_end_determinism(tmp_path, capsys):
    with Criterion(9, "simulate -> fit -> evaluate twice is byte-identical", 60.0):
        def run_pipeline(root: Path):
            sim_dir = root / "sim"
            eval_dir = root / "eval"
            assert cli.main(
                ["simulate", "--p1", "0.05", "--d", "0.95", "--horizon", "400",
                 "--seed", "42", "--replications", "2", "--out", str(sim_dir)]
            ) == 0
            assert cli.main(["fit", str(sim_dir / "replication_000.csv")]) == 0
            fit_stdout = capsys.readouterr().out
            assert cli.main(
                ["evaluate",
                 str(sim_dir / "replication_000.csv"), str(sim_dir / "replication_001.csv"),
                 "--models", "geometric,nhpp", "--cuts", "8", "--bins", "5",
                 "--out", str(eval_dir)]
            ) == 0
            capsys.readouterr()
            tree = {}
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(root))] = path.read_bytes()
            return fit_stdout, tree

        workspace = tmp_path / "run"
        first = run_pipeline(workspace)
        shutil.rmtree(workspace)
        second = run_pipeline(workspace)
        assert first == second


def test_criterion_10_public_dataset_smoke():
    with Criterion(10, "all five models fit a classic public TBF dataset", 60.0):
        with open(REPO_DATA / "ntds_tbf.csv", "rb") as handle:
            from geomrel.data import parse_dataset

            ds = parse_dataset(handle, "tbf_csv", label="ntds")
        grid = np.linspace(0.0, ds.final_time * 1.2, 30)
        for name in ALL_FIVE:
            fitted = fit_model(name, ds)
            values = [fitted.predict_mean(float(t)) for t in grid]
            assert values[0] == 0.0
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), name
