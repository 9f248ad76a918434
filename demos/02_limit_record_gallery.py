"""
The limiting record processes, one atom cloud at a time
=======================================================

All the limits in this package are functionals of a single random
object: a Poisson cloud of (time, magnitude) atoms whose magnitudes
follow a power-law intensity.  This script draws one cloud, prints its
atoms, and then assembles the three record paths built from it: the
backward record (running best of magnitude minus age), the forward
record (the same score recentred so it drifts down between atoms), and
the bare peak record.  A quick marginal check against the closed-form
distribution closes the loop.
"""

import numpy as np

from perpetuities import (
    LimitKind,
    PrmSpec,
    drift_marginal_cdf,
    extremal_path,
    ks_statistic,
    ks_threshold,
    limit_marginal_values,
    sample_prm,
)

# --- one atom configuration -------------------------------------------------
# gamma truncates small magnitudes; the atom count is Poisson with mean
# T * c * gamma**-alpha = 8 here, so the printout stays readable.
spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.5, seed=3)
cloud = sample_prm(spec, rep=5)
print(f"one truncated Poisson cloud: {cloud.count} atoms")
for t, y in zip(cloud.times, cloud.marks):
    print(f"  time {t:.3f}  magnitude {y:8.3f}")

# --- the three record paths --------------------------------------------------
grid = np.linspace(0.0, 2.0, 9)
print("\nrecord paths sampled on a coarse grid")
header = "  t      backward   forward    peak"
print(header)
paths = {
    LimitKind.BACKWARD: extremal_path(cloud, LimitKind.BACKWARD),
    LimitKind.FORWARD: extremal_path(cloud, LimitKind.FORWARD, grid_step=0.01),
    LimitKind.PEAK: extremal_path(cloud, LimitKind.PEAK),
}
for t in grid:
    row = "  ".join(f"{paths[k].value_at(t):9.3f}" for k in paths)
    print(f"  {t:.2f}  {row}")
print("(backward and peak only ever step up; forward loses height at")
print("unit rate until the next sufficiently large atom lands)")

# --- marginal law of the backward record -------------------------------------
# With a fine truncation the backward value at t = 1 follows
# x -> (x / (x + 1))**c exactly in the limit; 600 replications put the
# empirical curve well inside the 5% KS band.
fine = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.005, seed=3)
values = limit_marginal_values(LimitKind.BACKWARD, fine, 600)


def cdf(x):
    xv = np.asarray(x, dtype=float)
    out = np.zeros(xv.shape)
    keep = xv >= 0
    out[keep] = drift_marginal_cdf(xv[keep], 1.0, 1.0, 1.0)
    return out


D = ks_statistic(np.sort(values), cdf)
band = ks_threshold(600)
print(f"\nbackward record at t=1 over 600 draws: KS D = {D:.4f}, "
      f"5% band {band:.4f}")
print("verdict:", "matches the closed form" if D <= band else "off")
