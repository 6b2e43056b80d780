"""Run one geomrel benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ntds-evaluate --seed 1 --seconds 40 --trace 0

The run imports geomrel from ``src/`` of the checkout, builds the
workload's inputs from ``--seed``, repeats the workload's job until
``--seconds`` are used up, checks every job's outputs, and prints as the
last line of standard output one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the job also runs under the
outside-in tracer of ``tracing.py`` and the metrics are the per-layer
ones.  Times are scaled by the host's speed during each job, measured
by timing a fixed piece of reference work between the job's steps (see
"Host speed" in NOTES.md).  The line before it is a JSON report with the
output digest, the machine and toolchain, and the workload's measured
input shares.

Exit codes: 0 when every check passed; 1 when one failed (the result is
still printed); 2 when the checkout cannot be benchmarked, for instance
because ``src/geomrel`` is missing (no result is printed).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One client, one process: BLAS and OpenMP pools are pinned to one thread
# before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path("perfbench/_work")  # relative to ROOT; removed at the end of a run
SETUP_PROBES = 15  # fresh processes timed per run for setup_s, spread over the run
SETUP_REFERENCE_RUNS = 5  # reference work timed in each set-up probe process
# Reported times are scaled to a host on which the reference work of
# workloads.reference_work_s takes this long (about its time on the 2-vCPU
# Xeon host the baseline in NOTES.md was measured on).
REFERENCE_WORK_S = 0.002

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
WORKLOAD_NAMES = ("ntds-evaluate", "portfolio-evaluate", "release-planning")


class Unbenchmarkable(Exception):
    """The checkout lacks what the benchmark needs."""


def load_workloads():
    """Import geomrel from the checkout's ``src/`` and the workload module."""
    package = ROOT / "src" / "geomrel"
    if not (package / "__init__.py").is_file():
        raise Unbenchmarkable(f"{package} is missing; run from a geomrel checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import geomrel

    if Path(geomrel.__file__).resolve().parent != package.resolve():
        raise Unbenchmarkable(f"imported geomrel from {geomrel.__file__}, not {package}")
    import workloads

    return workloads


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(args, work: Path) -> tuple[float, float]:
    """Seconds to import geomrel and build the inputs, in a fresh process,
    and the median time of the reference work in that process."""
    probe = work / "setup-probe"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(probe)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(probe, ignore_errors=True)
    if proc.returncode != 0:
        raise Unbenchmarkable(f"setup probe failed: {proc.stderr.strip()}")
    took, reference = proc.stdout.split()[-2:]
    return float(took), float(reference)


def repeat_jobs(workload, seconds: float, make_tracer=None, setup_probe=None):
    """Jobs, run back to back while another one is expected to end within
    ``seconds`` (at least one).

    With ``make_tracer``, every traced job follows an untraced one, so the
    two kinds see the same machine conditions.  With ``setup_probe``,
    SETUP_PROBES calls of it are spread over the run between jobs, so that
    set-up is timed under the same machine conditions as the jobs, not in
    one burst.  Returns the untraced outcomes, the traced outcomes, their
    tracers and the set-up probe times.
    """
    untraced, traced, tracers, laps, setup = [], [], [], [], []

    def probe_until(due: float) -> None:
        while setup_probe and len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_probe())

    start = time.perf_counter()
    while not laps or time.perf_counter() - start + statistics.median(laps) <= seconds:
        began = time.perf_counter()
        probe_until(1 + SETUP_PROBES * (began - start) / seconds)
        untraced.append(workload.run_job())
        if make_tracer:
            tracers.append(make_tracer())
            traced.append(workload.run_job(tracers[-1]))
        laps.append(time.perf_counter() - began)
    probe_until(SETUP_PROBES)
    return untraced, traced, tracers, setup


def end_to_end_metrics(outcomes, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    # The host runs the same work at speeds up to 1.5x apart, in spells of
    # seconds to minutes.  Each job's times are scaled by how long the
    # reference work took during that job (see "Host speed" in NOTES.md).
    scales = [REFERENCE_WORK_S / statistics.fmean(o.probe_s) for o in outcomes]
    latencies = [s * scale * 1000.0 for o, scale in zip(outcomes, scales) for s in o.request_s]
    deciles = (statistics.quantiles(latencies, n=10, method="inclusive")
               if len(latencies) > 1 else latencies * 9)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    job_s = statistics.fmean(o.wall_s * scale for o, scale in zip(outcomes, scales))
    values = {
        "wall_s": job_s,
        "ops_per_s": (attempted - failed) / len(outcomes) / job_s,
        "request_ms_p50": deciles[4],
        "request_ms_p90": deciles[8],
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(took * REFERENCE_WORK_S / ref for took, ref in setup),
    }
    details = {
        "job_scales": scales,
        "reference_work_samples": sum(len(o.probe_s) for o in outcomes),
        "job_mean_wall_s_unscaled": statistics.fmean(o.wall_s for o in outcomes),
        "requests": len(latencies),
        "requests_beyond_p90": sum(1 for v in latencies if v > deciles[8]),
        "error_rate": failed / attempted,
        "setup_samples_s_unscaled": [took for took, _ in setup],
        "setup_reference_work_s": [ref for _, ref in setup],
    }
    return values, details


def per_layer_metrics(untraced, outcomes, tracers) -> tuple[dict, dict, list[str]]:
    from tracing import EXACT_METRICS, PER_LAYER_METRICS

    per_job = [t.metrics() for t in tracers]
    problems = []
    for name in EXACT_METRICS:
        if len({m[name] for m in per_job}) != 1:
            problems.append(f"traced count {name} differs between jobs: "
                            f"{[m[name] for m in per_job]}")
    values = {}
    for name, _, _ in PER_LAYER_METRICS:
        if name in per_job[0]:
            values[name] = (per_job[0][name] if name in EXACT_METRICS
                            else statistics.median(m[name] for m in per_job))
    traced_wall = statistics.median(o.wall_s for o in outcomes)
    untraced_wall = statistics.median(o.wall_s for o in untraced)
    values["tracing.overhead_s"] = traced_wall - untraced_wall
    details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "not_traced": sorted(set(tracers[0].missing)),
    }
    return values, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="time import and input building in this process, then the "
                             "reference work, print both and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    try:
        workloads = load_workloads()
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](Path(args.setup_probe), args.seed).build()
            took = time.perf_counter() - _START
            reference = statistics.median(
                workloads.reference_work_s() for _ in range(SETUP_REFERENCE_RUNS))
            print(took, reference)
            return 0
        work = WORK / f"{args.workload}-{os.getpid()}"
        try:
            workload = workloads.WORKLOADS[args.workload](work, args.seed)
            workload.build()
            if args.trace:
                from tracing import PER_LAYER_METRICS, Tracer

                units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
                untraced, traced, tracers, _ = repeat_jobs(workload, args.seconds, Tracer)
                values, details, problems = per_layer_metrics(untraced, traced, tracers)
                outcomes = untraced + traced
            else:
                units = dict(END_TO_END)
                outcomes, _, _, setup = repeat_jobs(
                    workload, args.seconds, setup_probe=lambda: measure_setup(args, work))
                values, details = end_to_end_metrics(outcomes, setup)
                problems = []
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if WORK.is_dir() and not any(WORK.iterdir()):
                WORK.rmdir()
    except (Unbenchmarkable, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    digests = sorted({o.digest for o in outcomes})
    if len(digests) != 1:
        problems.append(f"jobs on the same inputs gave {len(digests)} different outputs")
    for o in outcomes:
        problems.extend(o.problems)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not problems and failed == 0

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": len(outcomes),
        "job_wall_s": [o.wall_s for o in outcomes],
        "output_digest": digests[0] if len(digests) == 1 else digests,
        **details,
        **workload.facts,
        "machine": machine(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
