"""The benchmark's three workloads: their inputs, the timed job, and the
checks on the job's outputs.

Inputs depend only on the seed and on this file, never on geomrel: the
histories are drawn by the benchmark's own generator and written as
plain CSV, and the checks recompute what they compare against.  Why each
workload exists and what it is predicted to show is in NOTES.md.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from geomrel import cli, comparison, data, estimation, model
from tracing import MODELS, restore, swap_everywhere

CUTS = 20  # the evaluate command's default number of cuts
CUT_START = 0.2  # first cut at this share of the observation window
BINS = 10  # the evaluate command's default number of aggregation cells
RATE_FLOOR = 1e-6  # the paper's truncation rule: drop faults below p1 * 1e-6

PORTFOLIO_PROJECTS = 8
PORTFOLIO_MODELS = ("geometric", "musa-basic", "musa-okumoto", "nhpp")
PORTFOLIO_HORIZON = 1000.0  # incidents observed per project
PORTFOLIO_GRID = 40  # measurements per project, evenly spaced

RELEASE_REQUESTS = 100  # requests per job
RELEASE_NO_GROWTH = 20  # of which this many histories show no growth
RELEASE_HORIZON = 800.0
RELEASE_GRID = 32
OBJECTIVE_SHARES = (0.5, 0.25, 0.1)  # intensity objectives, as shares of the current one
FORECAST_SPAN = 3.0  # the forecast runs from t_q to this multiple of t_q
FORECAST_POINTS = 256

DECAY_RANGE = (0.92, 0.96)  # d observed in practice, per the paper
LEADING_RATE_RANGE = (0.01, 0.05)  # p1
NO_GROWTH_RATE_RANGE = (0.04, 0.1)  # failures per incident, constant
# Fits whose truncation reaches 99% of this cap on fault terms count as
# pushed to the cap (the fitting cap of geomrel when this benchmark was set).
FIT_TRUNCATION_CAP = 10_000


# Host-speed probes: a fixed piece of reference work, timed between the
# steps of the untraced jobs at most this often.
PROBE_EVERY_S = 0.2
_PROBE_ARRAY = np.linspace(0.0, 1.0, 10_000)


@dataclass
class JobOutcome:
    """What one timed job did and whether its outputs passed the checks.

    Times exclude the host-speed probes taken during the job; ``probe_s``
    holds those probes' samples, from the one taken just before the job.
    """

    wall_s: float
    request_s: list[float]
    attempted: int
    probe_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


# -- input generation --------------------------------------------------------


def _stratified(rng: np.random.Generator, k: int, lo: float, hi: float) -> np.ndarray:
    """k values in [lo, hi), one per equal-width stratum, in seeded order.

    Stratifying keeps the cost of a job nearly the same from seed to seed,
    while every value is still a seeded draw.
    """
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _measurement_grid(horizon: float, points: int) -> np.ndarray:
    return horizon * np.arange(1, points + 1) / points


def fault_history(rng, p1: float, d: float, horizon: float, points: int):
    """Cumulative failures of the paper's process, read on a regular grid.

    Fault n fails first at a geometric time with rate p1 * d**(n-1); the
    population is truncated at ceil(ln(1e-6) / ln d) faults.
    """
    n = math.ceil(math.log(RATE_FLOOR) / math.log(d))
    rates = p1 * d ** np.arange(n)
    first = np.maximum(np.ceil(np.log1p(-rng.random(n)) / np.log1p(-rates)), 1.0)
    grid = _measurement_grid(horizon, points)
    return grid, np.searchsorted(np.sort(first), grid, side="right")


def constant_rate_history(rate: float, horizon: float, points: int):
    """Cumulative failures of a process without reliability growth: one
    failure every 1/rate incidents."""
    grid = _measurement_grid(horizon, points)
    return grid, np.floor(rate * grid).astype(int)


def cumulative_csv(times, counts) -> str:
    rows = ["time,cumulative_failures"]
    rows.extend(f"{float(t)!r},{int(c)}" for t, c in zip(times, counts))
    return "\n".join(rows) + "\n"


def distinct_prefix_share(times) -> float:
    """Share of the default cuts that leave a sub-history no earlier cut left."""
    times = np.asarray(times, dtype=float)
    t_q = float(times[-1])
    sizes = [int(np.searchsorted(times, t_e, side="right"))
             for t_e in np.linspace(CUT_START * t_q, t_q, CUTS)]
    return len(set(sizes)) / CUTS


# -- evaluate workloads ------------------------------------------------------


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def check_evaluate(out: Path, windows: dict[str, float], models) -> tuple[int, list[str]]:
    """Failed ops and problems of one evaluate run's CSV outputs.

    Every (model, project) curve must score each of the CUTS cuts with a
    finite relative error; a cut without a row is a skipped cut and counts
    as failed.  Every aggregate cell must equal the median of the points
    binned into it, recomputed here.
    """
    failed = 0
    problems: list[str] = []
    for name in models:
        binned: dict[int, list[float]] = {}
        for label, t_q in windows.items():
            expected = [float(t_e) / t_q for t_e in np.linspace(CUT_START * t_q, t_q, CUTS)]
            path = out / f"curve_{label}_{name}.csv"
            rows = _read_rows(path) if path.exists() else []
            scored: set[int] = set()
            for row in rows:
                nt, err = float(row[0]), float(row[1])
                hits = [i for i, e in enumerate(expected) if _close(nt, e) and i not in scored]
                if not hits or not math.isfinite(err):
                    problems.append(f"{path.name}: bad row {row}")
                    continue
                scored.add(hits[0])
                cell = min(max(math.ceil(nt * BINS) - 1, 0), BINS - 1)
                binned.setdefault(cell, []).append(err)
            if len(scored) < CUTS:
                problems.append(f"{path.name}: {CUTS - len(scored)} of {CUTS} cuts not scored")
            failed += CUTS - len(scored)

        path = out / f"aggregate_{name}.csv"
        rows = _read_rows(path) if path.exists() else []
        cells = {}
        for row in rows:
            cells[float(row[0])] = float(row[1])
        for cell, errors in sorted(binned.items()):
            center = 0.5 * (cell / BINS + (cell + 1) / BINS)
            got = [v for c, v in cells.items() if _close(c, center)]
            if len(got) != 1 or not _close(got[0], statistics.median(errors)):
                problems.append(f"{path.name}: cell {cell} is not the median of its points")
                failed += len(errors)
        if len(cells) != len(binned):
            problems.append(f"{path.name}: {len(cells)} cells, expected {len(binned)}")
    return failed, problems


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def reference_work_s() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work that
    does not touch geomrel, about 2 ms."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    for _ in range(20):
        np.exp(-_PROBE_ARRAY).sum()
    return perf_counter() - start


class SpeedProbe:
    """Samples of the host's speed, taken between the steps of a job.

    ``clock`` is ``perf_counter`` minus the time spent probing, so a job
    timed with it does not pay for its probes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = float("-inf")

    def clock(self) -> float:
        return perf_counter() - self._spent

    def sample(self, force: bool = False) -> None:
        """Time the reference work, unless that was done within
        PROBE_EVERY_S and ``force`` is false."""
        began = perf_counter()
        if began - self._last < PROBE_EVERY_S and not force:
            return
        self.samples.append(reference_work_s())
        self._last = perf_counter()
        self._spent += self._last - began


def _probing(fn, probe: SpeedProbe):
    """``fn``, giving ``probe`` a chance to sample first on every call."""

    def wrapper(*args, **kwargs):
        probe.sample()
        return fn(*args, **kwargs)

    return wrapper


class EvaluateWorkload:
    """One in-process ``geomrel evaluate`` call per job."""

    models: tuple[str, ...] = MODELS

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.probe = SpeedProbe()
        self.out = work / "out"
        self.windows: dict[str, float] = {}  # project label -> t_q
        self.facts: dict = {}

    def argv(self) -> list[str]:
        raise NotImplementedError

    @property
    def ops_per_job(self) -> int:
        return len(self.models) * len(self.windows) * CUTS

    def run_job(self, tracer=None) -> JobOutcome:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.argv()
        outcome = JobOutcome(0.0, [], self.ops_per_job)
        patches = []
        first_probe = len(self.probe.samples)
        if tracer is not None:
            tracer.install()
        else:
            # An evaluate job runs for seconds; probe before each model fit.
            self.probe.sample(force=True)
            fit_model = getattr(comparison, "fit_model", None)
            if fit_model is not None:
                patches = swap_everywhere(fit_model, _probing(fit_model, self.probe))
        start = self.probe.clock()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails every op of the job
            code = repr(exc)
        finally:
            outcome.wall_s = self.probe.clock() - start
            restore(patches)
            if tracer is not None:
                tracer.uninstall()
        outcome.request_s.append(outcome.wall_s)
        outcome.probe_s = self.probe.samples[first_probe:]
        if code != 0:
            outcome.failed = outcome.attempted
            outcome.problems.append(f"geomrel evaluate returned {code}")
            return outcome
        outcome.failed, outcome.problems = check_evaluate(self.out, self.windows, self.models)
        outcome.digest = output_digest(self.out)
        if tracer is not None:
            tracer.counts["cli.bytes_written"] = sum(
                p.stat().st_size for p in self.out.iterdir())
            for curve in tracer.curves:
                if len(curve.points) + len(curve.skipped) != CUTS:
                    outcome.problems.append(
                        f"{curve.model_name}/{curve.dataset_label}: points plus skipped "
                        f"cuts is {len(curve.points) + len(curve.skipped)}, not {CUTS}")
        return outcome


class NtdsEvaluate(EvaluateWorkload):
    """All five models on the NTDS history shipped in ``data/``.

    The input is fixed, so the seed does not change it.
    """

    source = Path("data/ntds_tbf.csv")

    def build(self) -> None:
        if not self.source.is_file():
            raise FileNotFoundError(f"{self.source} is missing from the checkout")
        with open(self.source, newline="") as handle:
            tbf = [float(row[0]) for row in list(csv.reader(handle))[1:] if row]
        times = np.cumsum(tbf)
        self.windows = {self.source.stem: float(times[-1])}
        self.facts["input_distinct_prefix_share"] = distinct_prefix_share(times)

    def argv(self) -> list[str]:
        return ["evaluate", str(self.source), "--format", "tbf", "--out", str(self.out)]


class PortfolioEvaluate(EvaluateWorkload):
    """The four least-squares models over seeded grid-sampled projects."""

    models = PORTFOLIO_MODELS

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        d = _stratified(rng, PORTFOLIO_PROJECTS, *DECAY_RANGE)
        p1 = _stratified(rng, PORTFOLIO_PROJECTS, *LEADING_RATE_RANGE)
        shares = []
        for k in range(PORTFOLIO_PROJECTS):
            times, counts = fault_history(rng, p1[k], d[k], PORTFOLIO_HORIZON, PORTFOLIO_GRID)
            label = f"project_{k:02d}"
            (inputs / f"{label}.csv").write_text(cumulative_csv(times, counts))
            self.windows[label] = float(times[-1])
            shares.append(distinct_prefix_share(times))
        self.facts["input_distinct_prefix_share"] = statistics.fmean(shares)
        self.inputs = [str(inputs / f"{label}.csv") for label in self.windows]

    def argv(self) -> list[str]:
        return ["evaluate", *self.inputs, "--models", ",".join(self.models),
                "--out", str(self.out)]


# -- release planning --------------------------------------------------------


def plan_release(label: str, text: str):
    """One interactive request: what ``geomrel fit`` then ``geomrel
    predict`` do for a history, plus release times for several intensity
    objectives and a forecast of the mean.

    Calls go through the geomrel module attributes at call time, so a
    traced job sees them.
    """
    ds = data.parse_dataset(text.encode(), "cumulative_csv", label=label)
    result = estimation.fit(ds)
    params = result.params
    t_now = ds.final_time
    lambda_now = model.failure_intensity(params, t_now)
    objectives = []
    for share in OBJECTIVE_SHARES:
        target = share * lambda_now
        objectives.append({
            "lambda_objective": target,
            "delta_t_raw": model.additional_time(params, lambda_now, target),
            "t_closed_form": model.time_for_intensity(params, target),
            "t_exact": model.time_for_intensity_exact(params, target),
        })
    grid = np.linspace(t_now, FORECAST_SPAN * t_now, FORECAST_POINTS)
    forecast = model.mean_failures(params, grid)
    payload = {
        "label": label,
        "fit": result.to_dict(),
        "t": t_now,
        "mu": model.mean_failures(params, t_now),
        "lambda": lambda_now,
        "objectives": objectives,
        "forecast": forecast.tolist(),
    }
    return json.dumps(payload, sort_keys=True), ds, result


def check_request(ds, result, payload: dict) -> list[str]:
    """Identities every request's answer must satisfy."""
    problems = []
    params = result.params
    for obj in payload["objectives"]:
        target = obj["lambda_objective"]
        reached = model.failure_intensity(params, obj["t_exact"])
        if abs(reached - target) > 1e-9 * target:
            problems.append(f"intensity at t_exact is {reached!r}, objective {target!r}")
    t = math.floor(payload["t"])
    if t >= 2:
        step = model.mean_failures(params, t) - model.mean_failures(params, t - 1)
        lam = model.failure_intensity(params, t)
        if abs(step - lam) > 1e-9 * lam:
            problems.append(f"mean step {step!r} differs from intensity {lam!r} at t={t}")
    if np.any(np.diff(payload["forecast"]) < 0):
        problems.append("forecast decreases")
    if result.objective_value != estimation.least_squares_objective(params, ds):
        problems.append("objective_value differs from its recomputation")
    return problems


class ReleasePlanning:
    """A closed loop of interactive requests from one client."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.probe = SpeedProbe()
        self.facts: dict = {}

    ops_per_job = RELEASE_REQUESTS

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        growth = RELEASE_REQUESTS - RELEASE_NO_GROWTH
        d = _stratified(rng, growth, *DECAY_RANGE)
        p1 = _stratified(rng, growth, *LEADING_RATE_RANGE)
        rate = _stratified(rng, RELEASE_NO_GROWTH, *NO_GROWTH_RATE_RANGE)
        histories = [fault_history(rng, p1[k], d[k], RELEASE_HORIZON, RELEASE_GRID)
                     for k in range(growth)]
        histories += [constant_rate_history(r, RELEASE_HORIZON, RELEASE_GRID)
                      for r in rate]
        kinds = ["growth"] * growth + ["no-growth"] * RELEASE_NO_GROWTH
        order = rng.permutation(RELEASE_REQUESTS)
        self.requests = [(f"request_{i:02d}_{kinds[k]}", cumulative_csv(*histories[k]))
                         for i, k in enumerate(order)]
        self.facts["no_growth_share_generated"] = RELEASE_NO_GROWTH / RELEASE_REQUESTS

    def run_job(self, tracer=None) -> JobOutcome:
        outcome = JobOutcome(0.0, [], RELEASE_REQUESTS)
        answers = []
        clock = self.probe.clock
        first_probe = len(self.probe.samples)
        if tracer is not None:
            tracer.install()
        else:
            self.probe.sample(force=True)
        start = clock()
        try:
            for label, text in self.requests:
                began = clock()
                try:
                    answers.append((label, plan_release(label, text)))
                except Exception as exc:  # a request that raises is a failed op
                    answers.append((label, exc))
                outcome.request_s.append(clock() - began)
                if tracer is None:
                    self.probe.sample()
        finally:
            outcome.wall_s = clock() - start
            if tracer is not None:
                tracer.uninstall()
        outcome.probe_s = self.probe.samples[first_probe:]

        digest = hashlib.sha256()
        at_cap = 0
        for label, answer in answers:
            if isinstance(answer, Exception):
                outcome.failed += 1
                outcome.problems.append(f"{label}: raised {answer!r}")
                continue
            text, ds, result = answer
            digest.update(text.encode() + b"\0")
            problems = check_request(ds, result, json.loads(text))
            if problems:
                outcome.failed += 1
                outcome.problems.extend(f"{label}: {p}" for p in problems)
            at_cap += result.params.truncation >= 0.99 * FIT_TRUNCATION_CAP
        outcome.digest = digest.hexdigest()
        self.facts["fits_at_truncation_cap_share"] = at_cap / RELEASE_REQUESTS
        return outcome


WORKLOADS = {
    "ntds-evaluate": NtdsEvaluate,
    "portfolio-evaluate": PortfolioEvaluate,
    "release-planning": ReleasePlanning,
}
