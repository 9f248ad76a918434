"""The KS quantile and the atom matcher equal the scipy routines they
replaced.

``verify._kolmogi`` solves P(K > x) = level over the floats, and
``paths.point_match_distance`` tests perfect matchings with its own
augmenting-path search.  The oracles below are ``scipy.special.kolmogi``
and the bisection over ``scipy.sparse.csgraph.maximum_bipartite_matching``
that the package used before; tests may import scipy, the package does
not on these paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.special import kolmogi

from perpetuities import paths, verify
from perpetuities.paths import PointMeasure, point_match_distance

# both sides of 1/2, where the quantile compares different tails, down
# to 1e-6 from level 1
LEVELS = np.unique(np.concatenate([
    np.logspace(-12, math.log10(0.5), 1500),
    1.0 - np.logspace(-6, math.log10(0.5), 1500),
]))


@pytest.mark.parametrize("level", [0.01, 0.05])
def test_kolmogi_is_scipys_at_the_gate_levels(level):
    assert verify._kolmogi(level) == float(kolmogi(level))


def test_kolmogi_matches_scipy_over_the_levels():
    got = np.array([verify._kolmogi(float(p)) for p in LEVELS])
    np.testing.assert_allclose(got, kolmogi(LEVELS), rtol=1e-13, atol=0)


def test_thresholds_are_the_scipy_formulas():
    assert verify.ks_threshold(512) == float(kolmogi(0.05)) / math.sqrt(512)
    assert verify.two_sample_threshold(512, 300) == (
        float(kolmogi(0.01)) * math.sqrt((512 + 300) / (512 * 300)))


def scipy_point_match_distance(nu1, nu2, delta):
    """The package's matcher before it dropped scipy."""
    r1, r2 = nu1.restrict(delta), nu2.restrict(delta)
    if r1.count != r2.count:
        return float("inf")
    n = r1.count
    if n == 0:
        return 0.0
    cost = (np.abs(r1.times[:, None] - r2.times[None, :])
            + np.abs(r1.marks[:, None] - r2.marks[None, :]))
    cands = np.unique(cost.ravel())

    def feasible(D):
        match = maximum_bipartite_matching(csr_matrix(cost <= D), perm_type="column")
        return int(np.sum(match >= 0)) == n

    if feasible(cands[0]):
        return float(cands[0])
    lo, hi = 0, cands.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid
    return float(cands[hi])


# a coarse grid of times and marks, so costs tie and atoms coincide
ATOM = st.tuples(st.integers(0, 4).map(lambda k: k / 4), st.integers(1, 6).map(lambda k: k / 2))


def measure(atoms):
    times, marks = zip(*atoms) if atoms else ((), ())
    return PointMeasure(1.0, times, marks)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60).flatmap(lambda n: st.tuples(
           st.lists(ATOM, min_size=n, max_size=n), st.lists(ATOM, min_size=n, max_size=n))),
       st.sampled_from([0.0, 0.75, 1.75]))
def test_point_match_distance_matches_scipy(pair, delta):
    nu1, nu2 = measure(pair[0]), measure(pair[1])
    assert point_match_distance(nu1, nu2, delta) == scipy_point_match_distance(nu1, nu2, delta)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_perfect_matching_matches_scipy(n, density, seed):
    allowed = np.random.default_rng(seed).random((n, n)) < density
    match = maximum_bipartite_matching(csr_matrix(allowed), perm_type="column")
    assert paths._perfect_matching(allowed) == bool(np.all(match >= 0))


def test_a_path_as_long_as_the_measure_needs_no_recursion():
    # every atom at one time, marks on a line: at cost 1 the cells form
    # one path, row n-1 - col 0 - row 0 - col 1 - ... - col n-1.  Rows
    # 0..n-2 first take their lower column, so row n-1's augmenting path
    # runs through all 3000 rows.
    n = 3000
    t = np.full(n, 0.5)
    rows = np.concatenate([2.0 * np.arange(n - 1) + 3.0, [1.0]])
    cols = 2.0 * np.arange(n) + 2.0
    assert point_match_distance(PointMeasure(1.0, t, rows), PointMeasure(1.0, t, cols), 0.0) == 1.0
