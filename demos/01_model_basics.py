#!/usr/bin/env python3
"""Walk through the core model quantities.

A system's faults are ranked by how likely each one is to surface during a
single incident (one usage task).  Rates fall geometrically from fault to
fault, so two numbers describe the whole population: the leading rate p1
and the decay ratio d.  Everything else (expected failure counts, failure
intensity, release timing) follows from those.
"""

import numpy as np

from geomrel import (
    GeometricModelParams,
    additional_time,
    failure_intensity,
    fault_rate,
    mean_failures,
    time_for_intensity,
    time_for_intensity_exact,
)

params = GeometricModelParams(p1=0.05, d=0.95)
print(f"parameters: p1={params.p1}, d={params.d}")
print(f"derived truncation: {params.truncation} fault terms "
      "(rates below p1 * 1e-6 are dropped)\n")

print("the first faults dominate the failure process:")
for n in (1, 2, 5, 10, 50, params.truncation):
    print(f"  fault #{n:>3}: rate = {fault_rate(params, n):.3e}")

print("\nexpected cumulative failures and intensity over time:")
print(f"  {'t':>6} {'mean':>9} {'intensity':>10}")
for t in (10, 50, 100, 500, 1000):
    print(f"  {t:>6} {mean_failures(params, t):>9.2f} "
          f"{failure_intensity(params, float(t)):>10.4f}")

# How long until the intensity drops to one failure per hundred incidents?
objective = 0.01
t_closed = time_for_intensity(params, objective)
t_exact = time_for_intensity_exact(params, objective)
print(f"\ntime to reach intensity {objective}:")
print(f"  closed-form shortcut : {t_closed:9.1f} incidents")
print(f"  exact curve inversion: {t_exact:9.1f} incidents")
print("  (the shortcut is an algebraic rearrangement that does not invert")
print("   the intensity exactly for more than one fault; both are exposed)")

# From the current intensity, how much further testing is needed?
lam_now = failure_intensity(params, 200.0)
dt_raw = additional_time(params, lam_now, objective)
dt_abs = abs(dt_raw)
print(f"\nfrom t=200 (intensity {lam_now:.4f}) down to {objective}:")
print(f"  raw formula value: {dt_raw:.1f}   planning magnitude: {dt_abs:.1f} incidents")
print("  (the raw value is negative by construction; the sign is surfaced,")
print("   never hidden, and the magnitude is what enters a test plan)")

# Saturation: the mean can never exceed the fault population.
ts = np.array([1e3, 1e4, 1e5])
print("\nsaturation toward the truncation bound:")
for t, m in zip(ts, mean_failures(params, ts)):
    print(f"  mean({t:>8.0f}) = {m:8.2f}  (bound {params.truncation})")
