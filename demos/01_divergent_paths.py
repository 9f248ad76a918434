"""
Divergent perpetuity paths, backward and forward
================================================

A perpetuity accumulates products of random coefficients.  In the
divergent regime the partial sums grow without bound, yet after a
log-and-scale transform the path of the running sum settles into a
nondegenerate limit.  This script simulates a handful of paths both
ways (backward sums and the forward recursion started at zero) and
shows that the two constructions agree in law at a fixed time even
though the paths themselves look nothing alike.
"""

import numpy as np

from perpetuities import (
    SimScenario,
    preset_law,
    simulate_forward_chain_path,
    simulate_perpetuity_path,
    two_sample_ks,
    two_sample_threshold,
)

law = preset_law("cauchy")
scenario = SimScenario(law, n=2000, T=1.0, x0=0.0, seed=7)

# --- a few raw paths -------------------------------------------------------
# Each replication gets its own generator stream, so path r is the same
# object no matter how many other paths are drawn.  Paths report the raw
# log magnitude; dividing by a*n puts them on the scale of the limit law.
print("log|sum| along three backward paths (note how flat they are: one")
print("early giant term dominates everything that follows)")
grid = np.array([0.25, 0.5, 0.75, 1.0])
for rep in range(3):
    path = simulate_perpetuity_path(scenario, rep=rep)
    row = ", ".join(f"{t:.2f}: {path.value_at(t):8.3f}" for t in grid)
    print(f"  rep {rep}: {row}")

print("\nsame streams, forward recursion from x0 = 0 (jagged: the newest")
print("coefficient keeps rescaling the whole running state)")
for rep in range(3):
    path = simulate_forward_chain_path(scenario, rep=rep)
    row = ", ".join(f"{t:.2f}: {path.value_at(t):8.3f}" for t in grid)
    print(f"  rep {rep}: {row}")

# --- equality in law at t = 1 ----------------------------------------------
# Backward and forward values are exchangeable one coefficient pair at a
# time, so their one-point laws coincide.  A two-sample comparison over
# disjoint replication blocks should stay below the 1% band.
R = 800
scale = law.a * scenario.n
bwd = np.array([
    simulate_perpetuity_path(scenario, rep=r).value_at(1.0) for r in range(R)
])
fwd = np.array([
    simulate_forward_chain_path(scenario, rep=R + r).value_at(1.0) for r in range(R)
])
D = two_sample_ks(bwd / scale, fwd / scale)
band = two_sample_threshold(R, R)
print(f"\ntwo-sample KS on {R} + {R} scaled values at t=1: "
      f"D = {D:.4f}, 1% band {band:.4f}")
print("verdict:", "same law" if D <= band else "distinguishable")
