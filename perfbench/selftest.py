"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, runs ``run.py`` twice with ``--trace 1`` and once with
``--trace 0``, each for one second (one job, or one untraced and one
traced job), and checks that

* every run's outputs pass the benchmark's checks;
* the two traced runs give identical counts (``*.calls``, evaluations,
  iterations, non-finite and non-converged counts, fault terms, fits,
  bytes written, points parsed and the distinct-prefix ratio);
* the traced and untraced runs give the same output digest.

Exits 0 when all of that holds and 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES
from tracing import EXACT_METRICS

HERE = Path(__file__).resolve().parent
SEED = 7


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main() -> int:
    failures = []
    for workload in WORKLOAD_NAMES:
        (report_a, traced_a), (report_b, traced_b), (report_u, _) = (
            run(workload, SEED, trace) for trace in (1, 1, 0))
        differing = [name for name in EXACT_METRICS
                     if traced_a["metrics"][name] != traced_b["metrics"][name]]
        if differing:
            failures.append(f"{workload}: traced counts differ between runs: {differing}")
        digests = {report["output_digest"] for report in (report_a, report_b, report_u)}
        if len(digests) != 1:
            failures.append(f"{workload}: traced and untraced outputs differ: {sorted(digests)}")
        print(f"{workload}: {len(EXACT_METRICS)} counts compared, "
              f"{'differing: ' + ', '.join(differing) if differing else 'all identical'}; "
              f"{len(digests)} distinct output digest(s)")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
