"""Tests for step paths, point measures, and the path metrics."""

import itertools
import tracemalloc

import numpy as np
import pytest

from perpetuities.errors import ParameterError
from perpetuities.paths import (
    PointMeasure,
    StepPath,
    j1_distance,
    point_match_distance,
    restrict_path,
    uniform_distance,
)


def random_path(rng, horizon=1.0, n_jumps=10, scale=1.0):
    times = np.sort(rng.uniform(0, horizon, size=n_jumps))
    while np.any(np.diff(times) <= 0) or (n_jumps and times[0] <= 0):
        times = np.sort(rng.uniform(0, horizon, size=n_jumps))
    values = rng.normal(0, scale, size=n_jumps + 1)
    return StepPath(horizon, times, values)


def j1_minmax_oracle(f, g):
    """Reference bottleneck DP over monotone jump pairings, cell by cell.

    cost(i, j) = best achievable max-cost among staircases ending at the
    segment pair (i, j); moves are unpaired f jump (up), unpaired g jump
    (right), and paired jumps (diagonal, costing the time displacement).
    This is the recurrence ``j1_distance`` runs, written over full
    matrices; ``j1_pairing_bruteforce`` checks both against the definition.
    """
    T = f.horizon
    fv, gv, a, b = f.values, g.values, f.times, g.times
    p1, q1 = fv.size, gv.size
    big = float("inf")
    cost = np.full((p1, q1), big)
    cost[0, 0] = abs(fv[0] - gv[0])
    for i in range(p1):
        for j in range(q1):
            if i == 0 and j == 0:
                continue
            best = big
            if i > 0:
                best = min(best, cost[i - 1, j])
            if j > 0:
                best = min(best, cost[i, j - 1])
            if i > 0 and j > 0:
                pc = abs(a[i - 1] - b[j - 1])
                if (a[i - 1] == T) != (b[j - 1] == T):
                    pc = big
                best = min(best, max(cost[i - 1, j - 1], pc))
            cost[i, j] = max(best, abs(fv[i] - gv[j]))
    return float(cost[p1 - 1, q1 - 1])


def j1_pairing_bruteforce(f, g):
    """Least cost over every monotone partial pairing of the two jump sets.

    A pairing costs the larger of the largest time displacement of a paired
    jump (infinite when exactly one of the two sits at the horizon) and the
    value mismatch on every segment overlap it induces.  Between two
    consecutive pairs, the unpaired jumps of f and of g may come in any
    order at no time cost; each order induces its own overlaps, and the
    pairing takes the cheapest.  Exponential, so only for a few jumps per side.
    """
    T = f.horizon
    a, b = f.times, g.times
    p, q = a.size, b.size

    def gap(i, j):
        return abs(f.values[i] - g.values[j])

    def block(i0, j0, i1, j1):
        # from the segment pair (i0, j0) to (i1, j1) by unpaired jumps only
        m, n = i1 - i0, j1 - j0
        least = np.inf
        for f_steps in itertools.combinations(range(m + n), m):
            i, j = i0, j0
            worst = gap(i, j)
            for k in range(m + n):
                if k in f_steps:
                    i += 1
                else:
                    j += 1
                worst = max(worst, gap(i, j))
            least = min(least, worst)
        return least

    best = np.inf
    for k in range(min(p, q) + 1):
        for paired_f in itertools.combinations(range(1, p + 1), k):
            for paired_g in itertools.combinations(range(1, q + 1), k):
                pairs = list(zip(paired_f, paired_g))
                cost = 0.0
                for i, j in pairs:
                    s, u = a[i - 1], b[j - 1]
                    cost = max(cost, abs(s - u) if (s == T) == (u == T) else np.inf)
                # a pair (i, j) enters the segment pair (i, j) from (i-1, j-1)
                starts = [(0, 0)] + pairs
                ends = [(i - 1, j - 1) for i, j in pairs] + [(p, q)]
                for (i0, j0), (i1, j1) in zip(starts, ends):
                    cost = max(cost, block(i0, j0, i1, j1))
                best = min(best, cost)
    return float(best)


class TestStepPathBasics:
    def test_no_jump_constant(self):
        p = StepPath(1.0, [], [5.0])
        assert p.value_at(0.7) == 5.0

    def test_right_continuity_at_jump(self):
        p = StepPath(1.0, [0.5], [0.0, 2.0])
        assert p.value_at(0.5) == 2.0
        assert p.value_at(0.499) == 0.0

    def test_eval_matches_linear_scan(self):
        rng = np.random.default_rng(11)
        p = random_path(rng, n_jumps=17)
        ts = rng.uniform(0, 1, size=1000)

        def scan(t):
            v = p.values[0]
            for tk, vk in zip(p.times, p.values[1:]):
                if tk <= t:
                    v = vk
                else:
                    break
            return v

        expected = np.array([scan(t) for t in ts])
        np.testing.assert_allclose(p.values_at(ts), expected, rtol=0)

    def test_eval_outside_domain_raises(self):
        p = StepPath(1.0, [0.5], [0.0, 1.0])
        with pytest.raises(ParameterError):
            p.value_at(1.5)
        with pytest.raises(ParameterError):
            p.value_at(-0.1)
        with pytest.raises(ParameterError):
            p.value_at(np.nan)

    def test_invalid_construction(self):
        with pytest.raises(ParameterError):
            StepPath(1.0, [0.5, 0.5], [0.0, 1.0, 2.0])
        with pytest.raises(ParameterError):
            StepPath(1.0, [0.2, np.nan, 0.5], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ParameterError):
            StepPath(1.0, [0.0], [0.0, 1.0])
        with pytest.raises(ParameterError):
            StepPath(1.0, [1.5], [0.0, 1.0])
        with pytest.raises(ParameterError):
            StepPath(1.0, [0.5], [0.0])
        with pytest.raises(ParameterError):
            StepPath(-1.0, [], [0.0])
        with pytest.raises(ParameterError):
            StepPath(1.0, [0.5], [0.0, np.inf])

    def test_immutability(self):
        p = StepPath(1.0, [0.5], [0.0, 1.0])
        with pytest.raises(ValueError):
            p.times[0] = 0.2

    def test_restrict_path(self):
        p = StepPath(2.0, [0.5, 1.2, 1.8], [0.0, 1.0, 2.0, 3.0])
        r = restrict_path(p, 1.0)
        assert r.horizon == 1.0
        np.testing.assert_allclose(r.times, [0.5])
        np.testing.assert_allclose(r.values, [0.0, 1.0])
        # restriction keeps a jump sitting exactly at the new horizon
        r2 = restrict_path(p, 1.2)
        np.testing.assert_allclose(r2.times, [0.5, 1.2])


class TestUniformDistance:
    def test_identical(self):
        rng = np.random.default_rng(3)
        p = random_path(rng)
        assert uniform_distance(p, p) == 0.0

    def test_constants(self):
        f = StepPath(1.0, [], [1.0])
        g = StepPath(1.0, [], [3.0])
        assert uniform_distance(f, g) == 2.0

    def test_matches_dense_grid(self):
        # merged-grid sup equals brute force on a 1e-4 grid for step paths
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_path(rng, n_jumps=10)
            g = random_path(rng, n_jumps=10)
            grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
            brute = np.max(np.abs(f.values_at(grid) - g.values_at(grid)))
            np.testing.assert_allclose(uniform_distance(f, g), brute, rtol=0, atol=0)

    def test_horizon_mismatch(self):
        with pytest.raises(ParameterError):
            uniform_distance(StepPath(1.0, [], [0.0]), StepPath(2.0, [], [0.0]))


class TestJ1Distance:
    def test_identical_paths(self):
        rng = np.random.default_rng(5)
        p = random_path(rng)
        assert j1_distance(p, p) == 0.0

    def test_shifted_single_jump(self):
        # aligning the jumps costs only the 0.1 time displacement
        f = StepPath(1.0, [0.5], [0.0, 1.0])
        g = StepPath(1.0, [0.6], [0.0, 1.0])
        np.testing.assert_allclose(j1_distance(f, g), 0.1)

    def test_shifted_single_jump_grid_bruteforce(self):
        # oracle: single-breakpoint piecewise linear time changes on a grid
        f = StepPath(1.0, [0.5], [0.0, 1.0])
        g = StepPath(1.0, [0.6], [0.0, 1.0])
        grid = np.linspace(0.01, 0.99, 99)
        eval_pts = np.linspace(0.0, 1.0, 2001)
        best = np.inf
        for s in grid:
            for u in grid:
                lam = np.where(
                    eval_pts <= s,
                    eval_pts * (u / s),
                    u + (eval_pts - s) * (1.0 - u) / (1.0 - s),
                )
                time_part = np.max(np.abs(lam - eval_pts))
                val_part = np.max(np.abs(f.values_at(np.minimum(lam, 1.0)) - g.values_at(eval_pts)))
                best = min(best, max(time_part, val_part))
        np.testing.assert_allclose(j1_distance(f, g), best, atol=5e-3)

    def test_constant_vs_constant(self):
        f = StepPath(1.0, [], [0.0])
        g = StepPath(1.0, [], [0.25])
        np.testing.assert_allclose(j1_distance(f, g), 0.25)

    def test_bounded_by_uniform(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            f = random_path(rng, n_jumps=rng.integers(0, 8))
            g = random_path(rng, n_jumps=rng.integers(0, 8))
            assert j1_distance(f, g) <= uniform_distance(f, g) + 1e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
    def test_unpaired_jumps_do_not_cross_for_free(self):
        # pairing the jumps costs 0.8 of time; unpaired, f's jump at 0.9
        # cannot come before g's at 0.1, so g = 0.02 meets f = 0 on
        # [0.1, 0.9) and the J1 distance is the uniform one; the lattice
        # takes f's jump first and returns 0.01
        f = StepPath(1.0, [0.9], [0.0, 0.01])
        g = StepPath(1.0, [0.1], [0.0, 0.02])
        assert uniform_distance(f, g) == 0.02
        assert j1_distance(f, g) == 0.02

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_path(rng, n_jumps=rng.integers(0, 6))
            g = random_path(rng, n_jumps=rng.integers(0, 6))
            np.testing.assert_allclose(j1_distance(f, g), j1_distance(g, f), rtol=0)

    def test_matches_minmax_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            f = random_path(rng, n_jumps=rng.integers(0, 5))
            g = random_path(rng, n_jumps=rng.integers(0, 5))
            np.testing.assert_allclose(j1_distance(f, g), j1_minmax_oracle(f, g), rtol=0)

    def test_matches_pairing_bruteforce(self):
        # jump times on a coarse grid that ends at the horizon, so jumps
        # coincide and sit at T; integer values half the time, so gaps tie
        rng = np.random.default_rng(41)
        grid = np.array([0.25, 0.5, 0.75, 1.0])

        def tied_path():
            times = np.sort(rng.choice(grid, size=rng.integers(0, 4), replace=False))
            if rng.random() < 0.5:
                values = rng.integers(-2, 3, size=times.size + 1).astype(float)
            else:
                values = rng.normal(size=times.size + 1)
            return StepPath(1.0, times, values)

        for _ in range(300):
            f, g = tied_path(), tied_path()
            assert j1_distance(f, g) == j1_pairing_bruteforce(f, g)

    def test_memory_linear_in_jump_counts(self):
        # one row of the (p+1) x (q+1) lattice at a time, never the matrix
        rng = np.random.default_rng(43)
        f = random_path(rng, n_jumps=300)
        g = random_path(rng, n_jumps=300)
        tracemalloc.start()
        try:
            j1_distance(f, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < f.values.size * g.values.size * 8

    def test_horizon_jump_must_pair_with_horizon_jump(self):
        # a jump exactly at T cannot be slid anywhere else, so the value
        # mismatch on the final segment is unavoidable
        f = StepPath(1.0, [1.0], [0.0, 1.0])
        g = StepPath(1.0, [0.9], [0.0, 1.0])
        d = j1_distance(f, g)
        oracle = j1_minmax_oracle(f, g)
        np.testing.assert_allclose(d, oracle, rtol=0)
        assert d == 1.0

    def test_near_jumps_cheaper_than_uniform(self):
        f = StepPath(1.0, [0.30, 0.70], [0.0, 2.0, -1.0])
        g = StepPath(1.0, [0.32, 0.69], [0.05, 1.95, -1.02])
        d = j1_distance(f, g)
        assert d <= 0.06
        assert uniform_distance(f, g) >= 1.9


class TestPointMeasure:
    def test_sorts_atoms(self):
        nu = PointMeasure(1.0, [0.7, 0.2], [1.0, 2.0])
        np.testing.assert_allclose(nu.times, [0.2, 0.7])
        np.testing.assert_allclose(nu.marks, [2.0, 1.0])

    def test_rejects_nonpositive_marks(self):
        with pytest.raises(ParameterError):
            PointMeasure(1.0, [0.5], [0.0])

    def test_rejects_atoms_outside_horizon(self):
        for t in (-0.1, 1.5):
            with pytest.raises(ParameterError):
                PointMeasure(1.0, [0.5, t], [1.0, 1.0])

    def test_restrict(self):
        nu = PointMeasure(1.0, [0.1, 0.4, 0.8], [0.5, 2.0, 1.5])
        r = nu.restrict(1.0)
        assert r.count == 2
        np.testing.assert_allclose(r.marks, [2.0, 1.5])


class TestPointMatchDistance:
    def test_identical(self):
        rng = np.random.default_rng(31)
        nu = PointMeasure(1.0, rng.uniform(0, 1, 6), rng.uniform(0.5, 3, 6))
        for delta in [0.1, 0.6, 1.0]:
            assert point_match_distance(nu, nu, delta) == 0.0

    def test_count_mismatch_is_infinite(self):
        nu1 = PointMeasure(1.0, [0.1, 0.5], [1.0, 1.0])
        nu2 = PointMeasure(1.0, [0.1, 0.5, 0.9], [1.0, 1.0, 1.0])
        assert point_match_distance(nu1, nu2, 0.5) == np.inf

    @pytest.mark.parametrize("delta", [-0.1, np.nan])
    def test_rejects_bad_delta(self, delta):
        # NaN would discard every atom and report two unequal measures as equal
        nu1 = PointMeasure(1.0, [0.1, 0.5], [1.0, 1.0])
        nu2 = PointMeasure(1.0, [0.1, 0.5, 0.9], [1.0, 1.0, 1.0])
        with pytest.raises(ParameterError, match="delta"):
            point_match_distance(nu1, nu2, delta)

    def test_single_pair(self):
        nu1 = PointMeasure(1.0, [0.1], [1.0])
        nu2 = PointMeasure(1.0, [0.2], [1.05])
        np.testing.assert_allclose(point_match_distance(nu1, nu2, 0.5), 0.15)

    def test_matches_permutation_bruteforce(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            nu1 = PointMeasure(1.0, rng.uniform(0, 1, n), rng.uniform(0.2, 2, n))
            nu2 = PointMeasure(1.0, rng.uniform(0, 1, n), rng.uniform(0.2, 2, n))
            cost = (np.abs(nu1.times[:, None] - nu2.times[None, :])
                    + np.abs(nu1.marks[:, None] - nu2.marks[None, :]))
            brute = min(
                max(cost[i, p] for i, p in enumerate(perm))
                for perm in itertools.permutations(range(n))
            )
            np.testing.assert_allclose(point_match_distance(nu1, nu2, 0.0), brute, rtol=0)

    def test_restriction_applied_before_matching(self):
        # below-threshold atoms never participate
        nu1 = PointMeasure(1.0, [0.1, 0.6], [3.0, 0.2])
        nu2 = PointMeasure(1.0, [0.12], [3.1])
        np.testing.assert_allclose(point_match_distance(nu1, nu2, 0.5), 0.12)
