"""Tests for coefficient-law construction, tails, A, b_n, and the classifier."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from perpetuities.errors import (
    ConfigurationError,
    ParameterError,
    UnsupportedFamilyError,
)
from perpetuities import laws
from perpetuities.laws import (
    FAMILIES,
    TRUNCATION_LEVELS,
    CoefficientLaw,
    classify_regime,
    compute_A,
    compute_bn,
    draw_log_mq,
    law_from_dict,
    law_to_dict,
    mean_log_m,
    preset_law,
    quantile_log_q,
    stability_integral_truncated,
    tail_Q,
)

RANDOM_FAMILIES = [
    CoefficientLaw("CauchyTail", a=1.0, c=1.0),
    CoefficientLaw("RegVarTail", alpha=0.5),
    CoefficientLaw("RegVarTail", alpha=1.0),
    CoefficientLaw("HeavyNegM", alpha=0.5, beta=0.75),
    CoefficientLaw("ConvergentControl", a=1.0),
    CoefficientLaw("ExpandingControl", a=1.0),
]

SLOW_VAR = CoefficientLaw("RegVarTail", alpha=1.0)


def _bisection_quantile(u):
    # oracle: 80 halvings of a bracket on w = log x for (1 + w)e^{-w} = u;
    # the upper end L + log1p(L) + 3 satisfies w - log1p(w) >= L
    L = -np.log(u)
    lo = np.zeros_like(L)
    hi = L + np.log1p(L) + 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_low = np.log1p(mid) - mid + L > 0
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return np.exp(0.5 * (lo + hi))


def survival_neg_log_m_reference(law, u):
    # independent reimplementation from the family definitions
    if law.family == "HeavyNegM":
        return 1.0 if u < 1.0 else u ** (-law.beta)
    if law.family == "Degenerate":
        return 1.0 if u < max(-math.log(abs(law.m0)), 0.0) else 0.0
    mu = law.a if law.family == "ExpandingControl" else -law.a
    return norm.cdf(-u - mu)


class TestConstruction:
    def test_rejects_unknown_family(self):
        with pytest.raises(UnsupportedFamilyError):
            CoefficientLaw("GeometricTail")

    def test_parameter_ranges(self):
        with pytest.raises(ParameterError):
            CoefficientLaw("CauchyTail", a=0.0)
        with pytest.raises(ParameterError):
            CoefficientLaw("CauchyTail", c=-1.0)
        with pytest.raises(ParameterError):
            CoefficientLaw("RegVarTail", alpha=0.0)
        with pytest.raises(ParameterError):
            CoefficientLaw("RegVarTail", alpha=1.5)
        with pytest.raises(ParameterError):
            CoefficientLaw("HeavyNegM", alpha=0.5, beta=0.5)
        with pytest.raises(ParameterError):
            CoefficientLaw("HeavyNegM", alpha=0.5, beta=1.0)
        with pytest.raises(ParameterError):
            CoefficientLaw("CauchyTail", p_Q=1.5)

    def test_degenerate_zero_coefficients_rejected(self):
        with pytest.raises(ParameterError):
            CoefficientLaw("Degenerate", m0=0.0, q0=1.0)
        with pytest.raises(ParameterError):
            CoefficientLaw("Degenerate", m0=2.0, q0=0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", ["a", "c", "alpha", "beta", "m0", "q0"])
    def test_non_finite_fields_rejected(self, family, name):
        # also the fields a family never reads, which would still reach
        # the config line of every output file
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                CoefficientLaw(family, **{name: value})

    def test_tail_cutoffs(self):
        assert CoefficientLaw("CauchyTail", c=2.5).x0 == 2.5
        assert CoefficientLaw("RegVarTail", alpha=0.5).x0 == 1.0
        assert CoefficientLaw("HeavyNegM").x0 == 1.0
        np.testing.assert_allclose(
            CoefficientLaw("Degenerate", m0=0.5, q0=np.e).x0, 1.0
        )


class TestTailQ:
    def test_pinned_values(self):
        np.testing.assert_allclose(tail_Q(CoefficientLaw("CauchyTail", c=2.0), 4.0), 0.5)
        assert tail_Q(CoefficientLaw("RegVarTail", alpha=0.5), 0.5) == 1.0
        np.testing.assert_allclose(
            tail_Q(CoefficientLaw("RegVarTail", alpha=1.0), math.e), 2.0 / math.e
        )

    def test_monotone_and_bounded(self):
        xs = np.linspace(-2.0, 400.0, 3001)
        for law in RANDOM_FAMILIES:
            t = tail_Q(law, xs)
            assert np.all((t >= 0) & (t <= 1))
            assert np.all(np.diff(t) <= 1e-15)

    def test_quantile_inverts_tail(self):
        us = np.concatenate((np.logspace(-12, -0.001, 40), [1.0]))
        for law in RANDOM_FAMILIES:
            xs = quantile_log_q(law, us)
            np.testing.assert_allclose(tail_Q(law, xs), us, rtol=1e-9)

    def test_slow_var_quantile_near_branch_point(self):
        # (1 + w)e^{-w} = 1 - w^2/2 + O(w^3), so w = log of the returned
        # value tends to sqrt(2(1 - u)) as u -> 1; the Newton solve starts
        # from this series there, where Lambert W loses every digit
        for d in (1e-10, 1e-12):
            u = 1.0 - d
            w = math.log(float(quantile_log_q(CoefficientLaw("RegVarTail", alpha=1.0), u)))
            np.testing.assert_allclose(w, math.sqrt(2.0 * (1.0 - u)), rtol=1e-4)

    def test_slow_var_quantile_matches_bisection(self):
        us = np.concatenate((
            [1.0, 1.0 - 2.0 ** -53, 2.0 ** -53],
            np.logspace(-16, 0, 400),
            1.0 - np.logspace(-15, -1, 200),
        ))
        x = quantile_log_q(SLOW_VAR, us)
        np.testing.assert_allclose(x, _bisection_quantile(us), rtol=1e-13)
        assert x[0] == 1.0

    def test_slow_var_fifth_newton_step_is_idle(self):
        # four steps already sit on the float root: one more moves w by at
        # most 2 ulp of max(w, 1), and so the returned e^w by at most that
        # much relative
        L = np.concatenate(([0.0], np.logspace(-17, math.log10(745.0), 2000)))
        w = laws._slow_var_log(L)
        w5 = w - (w - np.log1p(w) - L) * (1.0 + w) / np.where(w == 0.0, 1.0, w)
        assert np.all(np.abs(w5 - w) <= 2 * np.spacing(np.maximum(w, 1.0)))

    @settings(deadline=None, max_examples=300)
    @given(law=st.sampled_from(RANDOM_FAMILIES), u=st.floats(2.0 ** -53, 1.0))
    def test_tail_inverts_quantile(self, law, u):
        assert tail_Q(law, quantile_log_q(law, u)) == pytest.approx(u, rel=1e-12)

    def test_quantile_overflow_is_a_parameter_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="overflows"):
                quantile_log_q(preset_law("regvar", alpha=0.01), 1e-5)
            with pytest.raises(ParameterError, match="overflows"):
                quantile_log_q(SLOW_VAR, 1e-310)

    def test_quantile_rejects_bad_probability(self):
        for u in (0.0, 1.5, math.nan):
            with pytest.raises(ParameterError, match="tail probability"):
                quantile_log_q(RANDOM_FAMILIES[0], u)


class TestSampling:
    def test_degenerate_point_mass(self):
        law = CoefficientLaw("Degenerate", m0=math.exp(-1.0), q0=math.e)
        sign_m, log_m, sign_q, log_q = draw_log_mq(law, np.random.default_rng(0), 3)
        np.testing.assert_array_equal(sign_m, [1, 1, 1])
        np.testing.assert_allclose(log_m, -1.0, rtol=1e-15)
        np.testing.assert_array_equal(sign_q, [1, 1, 1])
        np.testing.assert_allclose(log_q, 1.0, rtol=1e-15)

    def test_same_seed_same_draw(self):
        law = preset_law("cauchy")
        a = draw_log_mq(law, np.random.default_rng(99), 50)
        b = draw_log_mq(law, np.random.default_rng(99), 50)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_drift_sample_mean(self):
        # mean of log|M| over 1e5 draws within 3 standard errors of -a
        law = preset_law("cauchy")
        _, log_m, _, _ = draw_log_mq(law, np.random.default_rng(7), 100_000)
        assert abs(np.mean(log_m) + 1.0) <= 3.0 / math.sqrt(100_000)

    def test_empirical_tail_matches_exact_tail(self):
        R = 100_000
        for i, law in enumerate(RANDOM_FAMILIES):
            _, _, _, log_q = draw_log_mq(law, np.random.default_rng(100 + i), R)
            for x in [1.0, 2.0, 5.0, 10.0]:
                p = tail_Q(law, x)
                emp = np.mean(log_q > x)
                bound = 3.0 * math.sqrt(p * (1.0 - p) / R)
                assert abs(emp - p) <= bound, (law.family, x, emp, p)

    def test_sign_frequencies(self):
        law = CoefficientLaw("CauchyTail", p_M=0.8, p_Q=0.3)
        sign_m, _, sign_q, _ = draw_log_mq(law, np.random.default_rng(5), 100_000)
        np.testing.assert_allclose(np.mean(sign_m == 1), 0.8, atol=0.005)
        np.testing.assert_allclose(np.mean(sign_q == 1), 0.3, atol=0.005)

    def test_heavy_m_is_contraction(self):
        law = preset_law("heavynegm")
        _, log_m, _, _ = draw_log_mq(law, np.random.default_rng(11), 10_000)
        assert np.all(log_m <= -1.0)


class TestMeanLogM:
    def test_closed_forms(self):
        assert mean_log_m(preset_law("cauchy")) == -1.0
        assert mean_log_m(preset_law("expanding")) == 1.0
        assert mean_log_m(preset_law("heavynegm")) == -np.inf
        np.testing.assert_allclose(
            mean_log_m(CoefficientLaw("Degenerate", m0=-0.25, q0=1.0)), math.log(0.25)
        )


class TestComputeA:
    def test_heavy_m_closed_form(self):
        law = CoefficientLaw("HeavyNegM", alpha=0.5, beta=0.75)
        np.testing.assert_allclose(compute_A(law, 1.0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(compute_A(law, 16.0), 5.0, rtol=1e-12)
        np.testing.assert_allclose(compute_A(law, 0.25), 0.25, rtol=1e-12)

    def test_vanishes_at_zero(self):
        for law in RANDOM_FAMILIES:
            assert compute_A(law, 1e-12) < 1e-11

    def test_rejects_nonpositive(self):
        for x in (0.0, math.nan):
            with pytest.raises(ParameterError):
                compute_A(RANDOM_FAMILIES[0], x)

    def test_matches_quadrature(self):
        laws = RANDOM_FAMILIES + [CoefficientLaw("Degenerate", m0=0.5, q0=1.0)]
        for law in laws:
            for x in np.linspace(0.05, 40.0, 20):
                ref, _ = quad(
                    lambda u: survival_neg_log_m_reference(law, u),
                    0.0,
                    x,
                    points=[v for v in (1.0, math.log(2.0)) if v < x],
                    limit=200,
                )
                np.testing.assert_allclose(compute_A(law, x), ref, rtol=1e-6, atol=1e-12)

    def test_monotone_concave(self):
        xs = np.linspace(0.1, 50.0, 200)
        for law in RANDOM_FAMILIES:
            vals = compute_A(law, xs)
            d = np.diff(vals)
            assert np.all(d >= -1e-12)
            assert np.all(np.diff(d) <= 1e-9)

    def test_heavy_m_dominates_q_tail(self):
        # A(x) / (x P{log|Q| > x}) decreasing to 0 along x = 10^k
        law = preset_law("heavynegm")
        xs = 10.0 ** np.arange(1, 7)
        ratio = compute_A(law, xs) / (xs * tail_Q(law, xs))
        assert np.all(np.diff(ratio) < 0)
        # decay rate is x^{beta-1} = x^{-1/4} for the bundled parameters
        assert ratio[-1] < 0.15 * ratio[0]


class TestComputeBn:
    def test_closed_form_alpha_half(self):
        law = CoefficientLaw("RegVarTail", alpha=0.5)
        np.testing.assert_allclose(compute_bn(law, 9), 81.0, rtol=1e-9)
        np.testing.assert_allclose(compute_bn(law, 1), 1.0, rtol=0)
        np.testing.assert_allclose(compute_bn(law, 5000), 5000.0 ** 2, rtol=1e-9)

    def test_residual_small(self):
        laws = [
            CoefficientLaw("RegVarTail", alpha=0.5),
            CoefficientLaw("RegVarTail", alpha=1.0),
            CoefficientLaw("HeavyNegM", alpha=0.5, beta=0.75),
        ]
        for law in laws:
            for n in [10, 100, 1000, 10_000, 100_000]:
                b = compute_bn(law, n)
                np.testing.assert_allclose(n * tail_Q(law, b), 1.0, rtol=1e-9)

    def test_slowly_varying_case(self):
        law = CoefficientLaw("RegVarTail", alpha=1.0)
        b = compute_bn(law, 100)
        np.testing.assert_allclose((1.0 + math.log(b)) / b, 0.01, rtol=1e-9)

    def test_grows_faster_than_n(self):
        law = CoefficientLaw("RegVarTail", alpha=1.0)
        ns = [10, 100, 1000, 10_000]
        ratios = [compute_bn(law, n) / n for n in ns]
        assert np.all(np.diff(ratios) > 0)

    def test_unsupported_families(self):
        with pytest.raises(UnsupportedFamilyError):
            compute_bn(preset_law("cauchy"), 10)
        with pytest.raises(ParameterError):
            compute_bn(CoefficientLaw("RegVarTail", alpha=0.5), 0)

    def test_overflowing_scale_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="overflows"):
            compute_bn(preset_law("regvar", alpha=0.01), 2000)


class TestStabilityIntegral:
    def test_cauchy_grows_logarithmically(self):
        law = preset_law("cauchy")
        vals = [stability_integral_truncated(law, lev) for lev in TRUNCATION_LEVELS]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] / vals[0] > 10

    def test_convergent_levels_off(self):
        law = preset_law("convergent")
        vals = [stability_integral_truncated(law, lev) for lev in TRUNCATION_LEVELS]
        assert vals[-1] / vals[0] < 3
        assert vals[-1] - vals[-2] < 1e-8

    def test_matches_riemann_oracle(self):
        # independent check: fine midpoint rule on the log scale for the
        # CauchyTail integrand c / A(e^w)
        law = preset_law("cauchy")
        level = math.exp(8.0)
        w = np.linspace(0.0, 8.0, 200_001)
        mid = 0.5 * (w[1:] + w[:-1])
        integrand = law.c / compute_A(law, np.exp(mid))
        riemann = float(np.sum(integrand) * (w[1] - w[0]))
        np.testing.assert_allclose(
            stability_integral_truncated(law, level), riemann, rtol=1e-6
        )

    def test_degenerate_value(self):
        law = CoefficientLaw("Degenerate", m0=0.5, q0=math.exp(2.0))
        expect = 2.0 / compute_A(law, 2.0)
        np.testing.assert_allclose(stability_integral_truncated(law, 100.0), expect)
        assert stability_integral_truncated(CoefficientLaw("Degenerate", m0=0.5, q0=0.5), 100.0) == 0.0

    @pytest.mark.parametrize("level", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_level(self, level):
        with pytest.raises(ParameterError):
            stability_integral_truncated(preset_law("cauchy"), level)


class TestClassifyRegime:
    def test_bundled_presets(self):
        assert classify_regime(preset_law("cauchy")).tag == "DivergentContractive"
        assert classify_regime(preset_law("convergent")).tag == "ConvergentPerpetuity"
        assert classify_regime(preset_law("expanding")).tag == "NonContractive"

    def test_heavy_m_family_diverges(self):
        assert classify_regime(preset_law("heavynegm")).tag == "DivergentContractive"

    def test_degenerate_contraction_converges(self):
        r = classify_regime(CoefficientLaw("Degenerate", m0=0.5, q0=7.0))
        assert r.tag == "ConvergentPerpetuity"

    def test_evidence_fields(self):
        r = classify_regime(preset_law("cauchy"), rng=np.random.default_rng(3))
        assert r.mean_log_m == -1.0
        assert abs(r.mean_log_m_mc + 1.0) < 0.05
        assert len(r.integral_estimates) == len(r.truncation_levels)
        assert r.growth_ratio > r.ratio_threshold

    def test_noncontractive_skips_integral(self):
        r = classify_regime(preset_law("expanding"))
        assert r.integral_estimates == ()


class TestConfigSchema:
    def test_round_trip(self):
        law = CoefficientLaw("HeavyNegM", alpha=0.4, beta=0.9, p_Q=0.25)
        assert law_from_dict(law_to_dict(law)) == law

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            law_from_dict({"family": "CauchyTail", "gamma": 1.0})

    def test_missing_family_rejected(self):
        with pytest.raises(ConfigurationError):
            law_from_dict({"a": 1.0})

    def test_presets(self):
        law = preset_law("cauchy", c=3.0)
        assert law.family == "CauchyTail" and law.c == 3.0
        with pytest.raises(ConfigurationError):
            preset_law("weibull")
