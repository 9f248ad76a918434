"""
Which regime is a coefficient law in?
=====================================

Whether the recursion X_n = M X_{n-1} + Q forgets its past, stabilises,
or blows up depends on two things: the mean of log|M| (contraction) and,
for a contracting M, whether the giants of Q outrun it.  Goldie and
Maller (2000) settle the second with one integral, and each bundled
family pins its tails exactly, so the classifier reads the verdict off
the family with no estimate.  This script prints the verdict, the exact
E log|M| and the reason for every preset, and for a Cauchy-tailed Q
whose tail starts late (c = 3.3e6): it still diverges.
"""

from perpetuities import PRESET_NAMES, classify_regime, preset_law

laws = [(name, preset_law(name)) for name in PRESET_NAMES]
laws.append(("cauchy, c = 3.3e6", preset_law("cauchy", c=3.3e6)))

for name, law in laws:
    verdict = classify_regime(law)
    print(f"{name} ({law.family})")
    print(f"  E log|M| = {verdict.mean_log_m:+.4f}")
    print(f"  regime:  {verdict.tag}")
    print(f"  because: {verdict.reason}\n")
