"""False-fail rates of the verification gates on exact limit-law samples.

A sample drawn by inverse CDF from the limit law itself is what a
perfect simulator would give, so the share of such samples that a gate
rejects is its false-fail rate.  ``verify_marginal`` judges the
one-sample D by the absolute bound ``DEFAULT_D_BOUND``; its false-fail
rate is P(D_R > 0.05), the tail of the exact Kolmogorov-Smirnov
distribution (scipy's ``kstwo.sf``).  That rate falls from 0.95 at
R = 100 to 0.013 at R = 1000, so the bound works as a test level only
at large R.  The two-sample checks judge D by the asymptotic 1%
critical value, so their rate must not exceed 1%.  Each rate is pinned
within four binomial standard errors over ``DRAWS`` samples.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstwo

from perpetuities.laws import preset_law
from perpetuities.verify import (
    DEFAULT_D_BOUND,
    TAG_RULES,
    ks_statistic,
    two_sample_ks,
    two_sample_threshold,
)

DRAWS = 2000
U = 1.0
SIZES = [100, 512, 1000]


def drift_sample(law, rng, size):
    """Inverse of the drift CDF (x / (x + u))^(c/a) at time ``U``."""
    v = rng.random(size) ** (law.a / law.c)
    return U * v / (1.0 - v)


def peak_sample(law, rng, size):
    """Inverse of the peak CDF exp(-u x^-alpha) at time ``U``."""
    return (U / -np.log(rng.random(size))) ** (1.0 / law.alpha)


# one tag per regime, with the preset law and exact sampler of its limit
LIMITS = {
    "Thm11-backward": ("cauchy", drift_sample),
    "Thm15-backward": ("regvar", peak_sample),
}


def four_sigma(p):
    return 4.0 * math.sqrt(p * (1.0 - p) / DRAWS)


@pytest.mark.parametrize("R", SIZES)
@pytest.mark.parametrize("tag", LIMITS)
def test_one_sample_bound_fails_at_the_exact_ks_tail(tag, R):
    preset, sample = LIMITS[tag]
    law = preset_law(preset)
    cdf = TAG_RULES[tag].limit_cdf(law, U)
    rng = np.random.default_rng([R, list(LIMITS).index(tag)])
    fails = sum(ks_statistic(sample(law, rng, R), cdf) > DEFAULT_D_BOUND for _ in range(DRAWS))
    exact = kstwo.sf(DEFAULT_D_BOUND, R)
    assert abs(fails / DRAWS - exact) <= four_sigma(exact)


@pytest.mark.parametrize("R", SIZES)
def test_two_sample_gate_fails_at_most_one_percent(R):
    # two-sample KS is distribution-free for continuous laws: uniforms do
    rng = np.random.default_rng([R, len(LIMITS)])
    gate = two_sample_threshold(R, R)
    fails = sum(two_sample_ks(rng.random(R), rng.random(R)) > gate for _ in range(DRAWS))
    assert fails / DRAWS <= 0.01 + four_sigma(0.01)
