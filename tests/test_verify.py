"""Tests for the KS machinery and the verification suites."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import kolmogi

from perpetuities.errors import ConfigurationError, ParameterError, StatisticalError
from perpetuities.laws import PRESET_NAMES, compute_bn, preset_law
from perpetuities.limits import LimitKind, limit_marginal_values
from perpetuities.simulate import (
    backward_marginal_values,
    backward_sup_values,
    forward_marginal_values,
)
from perpetuities.verify import (
    MARGINAL_TAGS,
    REPORT_TAGS,
    TAG_RULES,
    VerificationReport,
    canonical_tag,
    compatible_tags,
    ks_statistic,
    ks_threshold,
    two_sample_ks,
    two_sample_threshold,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
    write_reports_csv,
    write_reports_json,
)

CAUCHY = preset_law("cauchy")
REGVAR = preset_law("regvar")
HEAVY = preset_law("heavynegm")


def uniform_cdf(x):
    return np.clip(x, 0.0, 1.0)


class TestKsStatistic:
    def test_single_sample(self):
        assert ks_statistic([0.5], uniform_cdf) == 0.5

    def test_quantile_placement(self):
        r = 9
        samples = np.arange(1, r + 1) / (r + 1)
        assert ks_statistic(samples, uniform_cdf) <= 2.0 / (r + 1)

    def test_far_out_sample(self):
        assert ks_statistic([-5.0], uniform_cdf) == 1.0

    def test_uniform_sweep_calibration(self):
        r = 10_000
        crit = 1.63 / math.sqrt(r)
        fails = 0
        for seed in range(100):
            draws = np.random.default_rng(seed).uniform(0, 1, r)
            if ks_statistic(draws, uniform_cdf) > crit:
                fails += 1
        assert fails <= 1

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            draws = rng.normal(size=int(rng.integers(5, 400)))
            mine = ks_statistic(draws, stats.norm.cdf)
            ref = stats.kstest(draws, stats.norm.cdf).statistic
            np.testing.assert_allclose(mine, ref, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ks_statistic([], uniform_cdf)
        with pytest.raises(ParameterError):
            ks_statistic([np.nan], uniform_cdf)
        with pytest.raises(ParameterError):
            ks_statistic([0.2, 0.4], lambda x: -x)
        with pytest.raises(ParameterError):
            ks_statistic([0.2, 0.6], lambda x: 2.0 * x)
        with pytest.raises(ParameterError):
            ks_statistic([0.2, 0.6], lambda x: np.full(x.shape, np.nan))


class TestTwoSampleKs:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0])
        assert two_sample_ks(x, x) == 0.0

    def test_disjoint_samples(self):
        assert two_sample_ks([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.integers(0, 12, size=int(rng.integers(10, 200))).astype(float)
            b = rng.integers(0, 12, size=int(rng.integers(10, 200))).astype(float)
            mine = two_sample_ks(a, b)
            ref = stats.ks_2samp(a, b, method="asymp").statistic
            np.testing.assert_allclose(mine, ref, rtol=1e-12)

    def test_threshold_coefficients(self):
        assert round(float(kolmogi(0.01)), 3) == 1.628
        assert round(float(kolmogi(0.05)), 3) == 1.358
        got = two_sample_threshold(2000, 2000, 0.01)
        np.testing.assert_allclose(got, kolmogi(0.01) * math.sqrt(2 / 2000), rtol=1e-12)
        np.testing.assert_allclose(
            ks_threshold(400, 0.01), kolmogi(0.01) / 20.0, rtol=1e-12
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            two_sample_ks([], [1.0])
        with pytest.raises(ParameterError):
            two_sample_threshold(0, 5)
        with pytest.raises(ParameterError):
            ks_threshold(100, 1.5)


class TestReportObject:
    def make(self, **kw):
        base = dict(
            tag="Thm11-backward",
            n=100,
            R=200,
            u=1.0,
            D=0.03,
            threshold=0.05,
            degenerate=0,
            seed=7,
        )
        base.update(kw)
        return VerificationReport(**base)

    def test_roundtrip(self):
        # to_dict keeps every field, so the report rebuilds from it
        rep = self.make(detail="family=CauchyTail")
        d = rep.to_dict()
        assert d.pop("pass") is True
        assert VerificationReport(**d) == rep

    @settings(max_examples=200, deadline=None)
    @given(
        D=st.floats(0.0, 1.0),
        threshold=st.none() | st.floats(min_value=1e-9, max_value=2.0),
    )
    def test_dict_pass_flag(self, D, threshold):
        # None draws the tie D == threshold, which passes
        threshold = D if threshold is None else threshold
        assume(threshold > 0)
        d = self.make(D=D, threshold=threshold).to_dict()
        assert d["pass"] is (D <= threshold)

    def test_invariants(self):
        with pytest.raises(ParameterError):
            self.make(tag="Thm99")
        with pytest.raises(ParameterError):
            self.make(D=1.5)
        with pytest.raises(ParameterError):
            self.make(threshold=0.0)
        with pytest.raises(ParameterError):
            self.make(R=0)

    # n and seed are in the count table of test_whole_numbers.py
    @pytest.mark.parametrize("u", [-2.0, 0.0, math.nan, math.inf])
    def test_rejects_a_time_that_is_not_finite_and_positive(self, u):
        with pytest.raises(ParameterError, match="u must be"):
            self.make(u=u)

    def test_rejects_negative_n_u_and_seed_together(self):
        # built without an error before: n, u and seed were never checked
        with pytest.raises(ParameterError):
            VerificationReport(tag="Thm11-backward", n=-5, R=100, u=-2.0, D=0.01,
                               threshold=0.05, degenerate=0, seed=-3)

    def test_csv_and_json_writers(self):
        reports = [self.make(), self.make(tag="FunctionalSup", D=0.06)]
        buf = io.StringIO()
        write_reports_csv(reports, buf, config={"seed": 7})
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1].split(",")[:3] == ["tag", "n", "R"]
        assert len(lines) == 4
        assert [row["pass"] for row in csv.DictReader(lines[1:])] == ["True", "False"]
        buf = io.StringIO()
        write_reports_json(reports, buf, config={"seed": 7})
        text = buf.getvalue()
        assert '"config"' in text and '"Thm11-backward"' in text

    def test_canonical_tag(self):
        assert canonical_tag("thm11-backward") == "Thm11-backward"
        assert canonical_tag("PAKES114") == "Pakes114"
        assert canonical_tag("forward_backward_equality") == "ForwardBackwardEquality"
        assert canonical_tag("FunctionalSup") == "FunctionalSup"
        with pytest.raises(ConfigurationError):
            canonical_tag("thm12")

    def test_tag_tables(self):
        assert len(REPORT_TAGS) == 8
        assert set(MARGINAL_TAGS) < set(REPORT_TAGS)
        assert compatible_tags(CAUCHY) == ("Thm11-backward", "Thm11-forward", "Pakes114")
        assert compatible_tags(REGVAR) == ("Thm15-backward", "Thm15-forward", "Pakes119")
        assert compatible_tags(HEAVY) == ("Thm15-backward", "Thm15-forward")


class TestVerifyMarginal:
    def test_simulation_passes(self):
        rep = verify_marginal("thm11-backward", CAUCHY, 2000, 1.0, 500, seed=7)
        assert rep.passed and rep.degenerate == 0
        assert rep.tag == "Thm11-backward" and rep.threshold == 0.05

    def test_all_six_tags_run(self):
        for tag, law in [
            ("Thm11-backward", CAUCHY),
            ("Thm11-forward", CAUCHY),
            ("Thm15-backward", REGVAR),
            ("Thm15-forward", REGVAR),
            ("Pakes114", CAUCHY),
            ("Pakes119", REGVAR),
        ]:
            rep = verify_marginal(tag, law, 1000, 1.0, 300, seed=3)
            assert rep.D <= 0.12, (tag, rep.D)
            assert rep.degenerate == 0

    def test_heavy_m_family_allowed(self):
        rep = verify_marginal("thm15-backward", HEAVY, 1000, 1.0, 300, seed=5)
        assert rep.D <= 0.12

    def test_wrong_alpha_stays_far(self):
        # samples scaled under alpha 0.5 do not fit the alpha 0.9 curve,
        # and the gap does not shrink as R grows
        from perpetuities.limits import peak_marginal_cdf

        def wrong_cdf(x):
            out = np.zeros(np.shape(x))
            mask = np.asarray(x) > 0
            out[mask] = peak_marginal_cdf(np.asarray(x)[mask], 1.0, 0.9)
            return out

        for r in (500, 2000):
            vals, flags = backward_marginal_values(REGVAR, 1000, 1.0, r, seed=2)
            scaled = vals[flags == 0] / compute_bn(REGVAR, 1000)
            assert ks_statistic(scaled, wrong_cdf) > 0.15

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            verify_marginal("thm11-backward", REGVAR, 500, 1.0, 200, seed=1)
        with pytest.raises(ConfigurationError):
            verify_marginal("pakes119", CAUCHY, 500, 1.0, 200, seed=1)
        with pytest.raises(ConfigurationError):
            verify_marginal("pakes114", CAUCHY, 500, 2.0, 200, seed=1)
        with pytest.raises(ConfigurationError):
            verify_marginal("forwardbackwardequality", CAUCHY, 500, 1.0, 200, seed=1)

    def test_replication_floor(self):
        with pytest.raises(ParameterError):
            verify_marginal("thm11-backward", CAUCHY, 500, 1.0, 0, seed=1)
        with pytest.raises(ParameterError):
            verify_marginal("thm11-backward", CAUCHY, 500, 1.0, 99, seed=1)


class TestForwardBackwardEquality:
    def test_degenerate_identical(self):
        # at two terms both accumulation orders agree bitwise, so the
        # constant samples coincide exactly and the distance is zero
        law = preset_law("degenerate", m0=0.5, q0=2.5)
        rep = verify_forward_backward_equality(law, 1, 1.0, 100, seed=3)
        assert rep.D == 0.0 and rep.passed
        assert rep.tag == "ForwardBackwardEquality"

    def test_cauchy_agrees(self):
        rep = verify_forward_backward_equality(CAUCHY, 2000, 1.0, 2000, seed=13)
        assert rep.passed and rep.degenerate == 0
        np.testing.assert_allclose(
            rep.threshold, two_sample_threshold(2000, 2000, 0.01), rtol=1e-12
        )

    def test_disjoint_streams_used(self):
        rep = verify_forward_backward_equality(CAUCHY, 300, 1.0, 150, seed=21)
        fwd, _ = forward_marginal_values(CAUCHY, 300, 1.0, 150, seed=21)
        bwd, _ = backward_marginal_values(CAUCHY, 300, 1.0, 150, seed=21, rep_start=150)
        assert rep.D == two_sample_ks(fwd, bwd)

    def test_all_degenerate(self):
        law = preset_law("degenerate", m0=-1.0, q0=1.0)
        with pytest.raises(StatisticalError):
            verify_forward_backward_equality(law, 50, 1.0, 100, seed=3)


class TestFunctionalSup:
    def test_cauchy_backward_passes(self):
        rep = verify_functional_sup("thm11-backward", CAUCHY, 5000, 1.0, 1000, seed=14)
        assert rep.passed and rep.tag == "FunctionalSup"
        assert "Thm11-backward" in rep.detail

    def test_forward_and_peak_variants(self):
        rep = verify_functional_sup("thm11-forward", CAUCHY, 1000, 1.0, 300, seed=15)
        assert rep.passed
        rep = verify_functional_sup("thm15-backward", REGVAR, 1000, 1.0, 300, seed=15)
        assert rep.passed

    def test_mismatched_limit_law_fails(self):
        # the check reassembled with the limit side drawn under c = 3
        # instead of the simulated law's c = 1
        rule, r = TAG_RULES["Thm11-backward"], 300
        sups, flags = backward_sup_values(CAUCHY, 1000, 1.0, r, seed=16)
        sim = sups[flags == 0] / rule.scale(CAUCHY, 1000)
        spec = rule.limit_spec(preset_law("cauchy", c=3.0), 1.0, 16)
        lim = limit_marginal_values(rule.kind, spec, r, u=1.0, rep_start=r)
        D = two_sample_ks(sim, lim)
        assert D > 0.2 and not D <= two_sample_threshold(sim.size, lim.size)

    def test_monotone_kind_reduces_to_marginal(self):
        # for the nondecreasing limit kinds the limit-side sup is the
        # endpoint marginal, so the whole check can be reassembled by hand
        r = 200
        rep = verify_functional_sup("thm11-backward", CAUCHY, 500, 1.0, r, seed=4)
        sups, flags = backward_sup_values(CAUCHY, 500, 1.0, r, seed=4)
        spec = TAG_RULES["Thm11-backward"].limit_spec(CAUCHY, 1.0, 4)
        lim = limit_marginal_values(LimitKind.BACKWARD, spec, r, u=1.0, rep_start=r)
        manual = two_sample_ks(sups[flags == 0] / (CAUCHY.a * 500), lim)
        assert rep.D == manual

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            verify_functional_sup("pakes114", CAUCHY, 500, 1.0, 200, seed=1)
        with pytest.raises(ConfigurationError):
            verify_functional_sup("thm11-backward", REGVAR, 500, 1.0, 200, seed=1)


@pytest.mark.parametrize("tag", MARGINAL_TAGS)
class TestTagRegistry:
    def test_default_preset_is_covered(self, tag):
        rule = TAG_RULES[tag]
        law = preset_law(rule.preset)
        assert law.family in rule.families
        assert tag in compatible_tags(law)

    def test_functional_sup_refuses_exactly_the_chainless_tags(self, tag):
        # the chainless tags are the decayed sums, which have no time
        # parameter: no sup form and no marginal away from u = 1
        rule = TAG_RULES[tag]
        law = preset_law(rule.preset)
        assert (rule.chain is None) == tag.startswith("Pakes")
        if rule.chain is None:
            with pytest.raises(ConfigurationError, match="no path-functional form"):
                verify_functional_sup(tag, law, 50, 1.0, 100, seed=1)
            with pytest.raises(ConfigurationError, match="u must be 1"):
                verify_marginal(tag, law, 50, 0.5, 100, seed=1)
        else:
            rep = verify_functional_sup(tag, law, 50, 1.0, 100, seed=1)
            assert rep.detail.startswith(f"variant={tag} ")

    def test_marginal_refuses_other_families(self, tag):
        outside = [preset_law(name) for name in PRESET_NAMES]
        outside = [law for law in outside if law.family not in TAG_RULES[tag].families]
        assert outside
        for law in outside:
            with pytest.raises(ConfigurationError, match="applies to families"):
                verify_marginal(tag, law, 100, 1.0, 100, seed=1)
