"""Tests for the Poisson limit processes and their marginal laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import kolmogi
from scipy.stats import ks_2samp, kstest

from perpetuities.errors import ParameterError
from perpetuities.laws import preset_law
from perpetuities.limits import (
    MAX_GRID_CELLS,
    MAX_MEAN_COUNT,
    LimitKind,
    PrmSpec,
    drift_exceedance_intensity,
    drift_marginal_cdf,
    extremal_path,
    limit_marginal_values,
    peak_marginal_cdf,
    sample_prm,
)
from perpetuities.paths import PointMeasure
from perpetuities.verify import TAG_RULES, ks_statistic

TWO_ATOMS = PointMeasure(3.0, [1.0, 2.0], [3.0, 1.0])


def pareto_cdf(x, gamma, alpha):
    return 1.0 - (gamma / np.asarray(x, dtype=float)) ** alpha


class TestPrmSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.0)
        with pytest.raises(ParameterError):
            PrmSpec(c=-1.0, alpha=1.0, T=1.0, gamma=0.5)
        with pytest.raises(ParameterError):
            PrmSpec(c=1.0, alpha=1.0, T=np.inf, gamma=0.5)
        # a draw of mean 10**9 atoms would not fit in memory; at 1e-300
        # gamma**-alpha itself overflows a float
        for gamma in (1e-9, 1e-300):
            with pytest.raises(ParameterError, match="mean atom count"):
                PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=gamma)
        assert PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=1e-6).mean_count == MAX_MEAN_COUNT

    def test_mean_count(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.5)
        assert spec.mean_count == 4.0


class TestSamplePrm:
    def test_seed_repeatability(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.5, seed=3)
        a = sample_prm(spec, rep=5)
        b = sample_prm(spec, rep=5)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.marks, b.marks)
        c = sample_prm(spec, rep=6)
        assert a.count != c.count or not np.array_equal(a.marks, c.marks)

    def test_atom_bounds(self):
        spec = PrmSpec(c=2.0, alpha=0.7, T=3.0, gamma=0.2, seed=1)
        pm = sample_prm(spec)
        assert pm.count > 0
        assert np.all(pm.times >= 0) and np.all(pm.times <= 3.0)
        assert np.all(pm.marks >= 0.2)

    def test_mark_law(self):
        # pooled marks across replications follow the truncated power law
        spec = PrmSpec(c=1.0, alpha=2.0, T=40.0, gamma=0.5, seed=7)
        marks = np.concatenate([sample_prm(spec, r).marks for r in range(70)])
        assert marks.size >= 10_000
        stat = kstest(marks, lambda x: pareto_cdf(x, 0.5, 2.0)).statistic
        assert stat <= 0.02

    def test_count_calibration(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.5, seed=9)
        counts = np.array([sample_prm(spec, r).count for r in range(3000)])
        se = math.sqrt(spec.mean_count / counts.size)
        assert abs(counts.mean() - spec.mean_count) <= 4.0 * se


class TestExtremalPath:
    def test_backward_two_atoms(self):
        p = extremal_path(TWO_ATOMS, LimitKind.BACKWARD)
        for t in [0.0, 0.5, 0.999]:
            assert p.value_at(t) == 0.0
        for t in [1.0, 1.5, 2.0, 3.0]:
            # the later atom scores -2 + 1 and never displaces the first
            assert p.value_at(t) == 2.0

    def test_peak_two_atoms(self):
        p = extremal_path(TWO_ATOMS, LimitKind.PEAK)
        assert p.value_at(0.5) == 0.0
        assert p.value_at(1.0) == 3.0
        assert p.value_at(2.5) == 3.0

    def test_forward_two_atoms_on_grid(self):
        p = extremal_path(TWO_ATOMS, LimitKind.FORWARD, grid_step=0.25)
        np.testing.assert_allclose(p.value_at(2.5), 1.5, rtol=1e-12)
        np.testing.assert_allclose(p.value_at(1.0), 3.0, rtol=1e-12)
        np.testing.assert_allclose(p.value_at(0.25), -0.25, rtol=1e-12)
        assert p.meta["grid_step"] == 0.25

    def test_forward_dense_grid_accuracy(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.1, seed=21)
        pm = sample_prm(spec)
        p = extremal_path(pm, LimitKind.FORWARD)
        step = p.meta["grid_step"]
        rng = np.random.default_rng(0)
        for t in rng.uniform(0.0, 2.0, size=200):
            sel = pm.times <= t
            sup = np.max(pm.times[sel] + pm.marks[sel]) if sel.any() else 0.0
            assert abs(p.value_at(t) - (sup - t)) <= step + 1e-12

    def test_empty_measure(self):
        pm = PointMeasure(1.0, [], [])
        b = extremal_path(pm, LimitKind.BACKWARD)
        assert b.value_at(0.7) == 0.0
        f = extremal_path(pm, LimitKind.FORWARD, grid_step=0.25)
        np.testing.assert_allclose(f.value_at(0.75), -0.75, rtol=1e-12)

    def test_atom_at_time_zero(self):
        pm = PointMeasure(2.0, [0.0, 1.0], [5.0, 1.0])
        p = extremal_path(pm, LimitKind.BACKWARD)
        assert p.value_at(0.0) == 5.0
        assert p.value_at(1.5) == 5.0

    def test_duplicate_atom_times(self):
        pm = PointMeasure(2.0, [1.0, 1.0], [2.0, 7.0])
        b = extremal_path(pm, LimitKind.BACKWARD)
        assert b.value_at(1.0) == 6.0
        s = extremal_path(pm, LimitKind.PEAK)
        assert s.value_at(1.0) == 7.0
        assert b.times.size == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            extremal_path(TWO_ATOMS, LimitKind.BACKWARD, grid_step=0.1)
        with pytest.raises(ParameterError):
            extremal_path(TWO_ATOMS, "backward")
        with pytest.raises(ParameterError):
            extremal_path(TWO_ATOMS, LimitKind.FORWARD, grid_step=0.0)
        # 3e12 grid cells over [0, 3]; refused before any array is built
        with pytest.raises(ParameterError, match="cells"):
            extremal_path(TWO_ATOMS, LimitKind.FORWARD, grid_step=1e-12)
        with pytest.raises(ParameterError, match="cells"):
            extremal_path(TWO_ATOMS, LimitKind.FORWARD, grid_step=3.0 / MAX_GRID_CELLS / 1.01)

    def test_meta_records_atoms(self):
        p = extremal_path(TWO_ATOMS, LimitKind.PEAK)
        assert p.meta["atoms"] == 2 and p.meta["kind"] == "peak"


class TestMarginalSampler:
    def test_matches_path_at_horizon(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.5, gamma=0.2, seed=31)
        for kind in LimitKind:
            vals = limit_marginal_values(kind, spec, 20)
            for r in range(20):
                p = extremal_path(sample_prm(spec, r), kind)
                np.testing.assert_allclose(vals[r], p.value_at(1.5), rtol=1e-12)

    def test_interior_time(self):
        # the batch sampler reads the horizon only; an interior value is
        # read off the path, from the atoms up to that time
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.3, seed=33)
        for r in range(10):
            pm = sample_prm(spec, r)
            value = extremal_path(pm, LimitKind.BACKWARD).value_at(0.6)
            sel = pm.times <= 0.6
            want = np.max(pm.marks[sel] - pm.times[sel]) if sel.any() else 0.0
            np.testing.assert_allclose(value, want, rtol=1e-12)

    def test_validation(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.5)
        with pytest.raises(ParameterError):
            limit_marginal_values(LimitKind.PEAK, spec, 0)
        with pytest.raises(ParameterError):
            limit_marginal_values(LimitKind.PEAK, spec, -1)

    def test_rep_start_shifts_streams(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.1, seed=35)
        v = limit_marginal_values(LimitKind.PEAK, spec, 12)
        w = limit_marginal_values(LimitKind.PEAK, spec, 7, rep_start=5)
        np.testing.assert_array_equal(v[5:], w)

    # T / gamma <= 10 keeps the rounding of (t + j) - t within 1e-14 of j
    @settings(max_examples=100, deadline=None)
    @given(
        c=st.floats(0.2, 3.0),
        alpha=st.floats(0.3, 1.0),
        T=st.floats(0.2, 2.0),
        gamma=st.floats(0.2, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_peak_endpoint_is_forward_sup(self, c, alpha, T, gamma, seed):
        # the forward path falls at unit rate between atoms, so its sup
        # over [0, T] is its largest mark, the PEAK value at T
        spec = PrmSpec(c=c, alpha=alpha, T=T, gamma=gamma, seed=seed)
        peak = limit_marginal_values(LimitKind.PEAK, spec, 5)
        for r in range(5):
            path = extremal_path(sample_prm(spec, r), LimitKind.FORWARD)
            # the path starts at 0 at t = 0, which its grid leaves out
            sup = max(0.0, float(np.max(path.values)))
            np.testing.assert_allclose(peak[r], sup, rtol=1e-14, atol=0.0)


class TestMarginalLaws:
    def test_backward_matches_closed_form(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.005, seed=11)
        vals = limit_marginal_values(LimitKind.BACKWARD, spec, 4000)
        stat = kstest(
            vals, lambda z: drift_marginal_cdf(np.clip(z, 0.0, None), 1.0, 1.0, 1.0)
        ).statistic
        assert stat <= 0.03

    def test_peak_matches_closed_form(self):
        spec = PrmSpec(c=1.0, alpha=0.5, T=1.0, gamma=0.004, seed=13)
        vals = limit_marginal_values(LimitKind.PEAK, spec, 4000)
        assert np.all(vals > 0)
        stat = kstest(vals, lambda z: peak_marginal_cdf(z, 1.0, 0.5)).statistic
        assert stat <= 0.03

    def test_forward_matches_closed_form(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.005, seed=17)
        vals = limit_marginal_values(LimitKind.FORWARD, spec, 4000)
        stat = kstest(
            vals, lambda z: drift_marginal_cdf(np.clip(z, 0.0, None), 1.0, 1.0, 1.0)
        ).statistic
        assert stat <= 0.03

    def test_forward_backward_same_marginal(self):
        spec = PrmSpec(c=1.0, alpha=1.0, T=1.0, gamma=0.01, seed=19)
        b = limit_marginal_values(LimitKind.BACKWARD, spec, 3000)
        f = limit_marginal_values(LimitKind.FORWARD, spec, 3000, rep_start=3000)
        assert ks_2samp(b, f, method="asymp").pvalue > 0.01


class TestSelfConsistency:
    # limit-process samples against their own closed form, scaled as the
    # verification tags scale them, at the 1 percent level
    def test_self_test_soundness(self):
        # at least 95 of 100 seeds pass
        rule, law = TAG_RULES["Thm11-backward"], preset_law("cauchy")
        crit = float(kolmogi(0.01)) / 20.0
        passes = 0
        for seed in range(100):
            vals = limit_marginal_values(rule.kind, rule.limit_spec(law, 1.0, seed), 400)
            passes += int(ks_statistic(vals, rule.limit_cdf(law, 1.0)) <= crit)
        assert passes >= 95

    def test_peak_self_test(self):
        rule, law = TAG_RULES["Thm15-backward"], preset_law("regvar")
        crit = float(kolmogi(0.01)) / 20.0
        for seed in range(10):
            vals = limit_marginal_values(rule.kind, rule.limit_spec(law, 1.0, seed), 400)
            D = ks_statistic(vals, rule.limit_cdf(law, 1.0))
            assert D <= crit, (seed, D)


class TestTruncationExactness:
    def test_superposed_refinement(self):
        # adding the atoms between a finer and a coarser truncation level
        # never moves sup statistics that sit above the coarse level
        spec = PrmSpec(c=1.0, alpha=1.0, T=2.0, gamma=0.5, seed=23)
        g1, g2, alpha = 0.5, 0.1, 1.0
        rate = spec.T * spec.c * (g2 ** -alpha - g1 ** -alpha)
        for r in range(50):
            base = sample_prm(spec, r)
            rng = np.random.default_rng([spec.seed + 999, r])
            n = int(rng.poisson(rate))
            times = spec.T * rng.random(n)
            u = rng.random(n)
            marks = (g2 ** -alpha - u * (g2 ** -alpha - g1 ** -alpha)) ** (-1.0 / alpha)
            assert np.all((marks > g2) & (marks <= g1))
            merged = PointMeasure(
                spec.T,
                np.concatenate([base.times, times]),
                np.concatenate([base.marks, marks]),
            )
            for kind in (LimitKind.BACKWARD, LimitKind.PEAK):
                v0 = extremal_path(base, kind).value_at(spec.T)
                v1 = extremal_path(merged, kind).value_at(spec.T)
                assert v1 >= v0
                if v0 > g1:
                    assert v1 == v0
                for x in (0.6, 1.0, 2.5):
                    assert (v1 > x) == (v0 > x)


class TestClosedForms:
    def test_drift_cdf_pinned(self):
        np.testing.assert_allclose(drift_marginal_cdf(1.0, 1.0, 1.0, 1.0), 0.5)
        np.testing.assert_allclose(drift_marginal_cdf(3.0, 1.0, 2.0, 1.0), 0.5625)
        assert drift_marginal_cdf(0.0, 1.0, 1.0, 1.0) == 0.0

    def test_drift_cdf_is_cdf(self):
        xs = np.linspace(0.0, 50.0, 2001)
        vals = drift_marginal_cdf(xs, 2.0, 1.5, 0.5)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0
        assert drift_marginal_cdf(1e12, 2.0, 1.5, 0.5) > 1.0 - 1e-9

    def test_peak_cdf_pinned(self):
        np.testing.assert_allclose(peak_marginal_cdf(1.0, 1.0, 1.0), math.exp(-1.0))
        np.testing.assert_allclose(peak_marginal_cdf(4.0, 2.0, 0.5), math.exp(-1.0))
        assert peak_marginal_cdf(1e12, 1.0, 0.5) > 1.0 - 1e-5

    def test_peak_cdf_monotone(self):
        xs = np.logspace(-3, 6, 500)
        vals = peak_marginal_cdf(xs, 1.0, 0.7)
        assert np.all(np.diff(vals) >= 0)

    def test_intensity_pinned(self):
        np.testing.assert_allclose(
            drift_exceedance_intensity(1.0, 3.0, 2.0, 1.0), 2.0 * math.log(4.0)
        )
        assert drift_exceedance_intensity(1.0, 1e-12, 1.0, 1.0) < 1e-11

    def test_intensity_matches_cdf(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, u, c, a = rng.uniform(0.1, 5.0, size=4)
            lam = drift_exceedance_intensity(x, u, c, a)
            np.testing.assert_allclose(
                math.exp(-lam), drift_marginal_cdf(x, u, c, a), rtol=1e-12
            )

    def test_intensity_double_integral(self):
        # mean measure mass of {t <= u, y - t > x}, integrated numerically
        rng = np.random.default_rng(6)
        for _ in range(5):
            x, u, ratio = rng.uniform(0.2, 3.0, size=3)
            val, err = dblquad(
                lambda y, t: ratio * y ** -2.0, 0.0, u, lambda t: x + t, np.inf
            )
            np.testing.assert_allclose(
                drift_exceedance_intensity(x, u, ratio, 1.0), val, atol=1e-6, rtol=1e-6
            )

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            drift_marginal_cdf(-0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            drift_marginal_cdf(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            peak_marginal_cdf(0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            peak_marginal_cdf(1.0, 1.0, 1.5)
        with pytest.raises(ParameterError):
            drift_exceedance_intensity(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            drift_exceedance_intensity(1.0, 1.0, -1.0, 1.0)

    def test_nan_points_rejected(self):
        # NaN fails every ordered comparison, so it needs its own check
        for x in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ParameterError):
                drift_marginal_cdf(x, 1.0, 1.0, 1.0)
            with pytest.raises(ParameterError):
                peak_marginal_cdf(x, 1.0, 0.5)
            with pytest.raises(ParameterError):
                drift_exceedance_intensity(x, 1.0, 1.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_point_gives_the_limit(self):
        # x / (x + u) is inf / inf at x = inf; the functions return the
        # limits 1 and 0, with no NaN and no RuntimeWarning
        assert drift_marginal_cdf(math.inf, 2.0, 1.5, 0.5) == 1.0
        assert drift_exceedance_intensity(math.inf, 2.0, 1.5, 0.5) == 0.0
        xs = np.array([1.0, math.inf])
        np.testing.assert_array_equal(drift_marginal_cdf(xs, 1.0, 1.0, 1.0), [0.5, 1.0])
        np.testing.assert_array_equal(
            drift_exceedance_intensity(xs, 1.0, 1.0, 1.0), [math.log(2.0), 0.0]
        )
