"""Tests for path simulation and batch value samplers."""

import decimal
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from perpetuities.errors import ParameterError, StatisticalError
from perpetuities.laws import PRESET_NAMES, CoefficientLaw, draw_log_mq, preset_law
import perpetuities.simulate as simulate_module
from perpetuities.simulate import (
    SimScenario,
    backward_marginal_values,
    backward_sup_values,
    batch_columns,
    forward_marginal_values,
    forward_sup_values,
    pakes_values,
    replication_rng,
    simulate_forward_chain_path,
    simulate_perpetuity_path,
    write_paths_csv,
)
from perpetuities.slog import sign_pools, signed_log_cumsum, signed_log_diff

HALF = CoefficientLaw("Degenerate", m0=0.5, q0=1.0)
UNIT = CoefficientLaw("Degenerate", m0=1.0, q0=1.0)

# each batch sampler at u = T = 1 and seed 0, as a function of n, the
# replication count and the thread count
BATCH_SAMPLERS = {
    "backward_marginal_values":
        lambda n, reps, jobs=1: backward_marginal_values(HALF, n, 1.0, reps, 0, jobs=jobs),
    "backward_sup_values":
        lambda n, reps, jobs=1: backward_sup_values(HALF, n, 1.0, reps, 0, jobs=jobs),
    "forward_marginal_values":
        lambda n, reps, jobs=1: forward_marginal_values(HALF, n, 1.0, reps, 0, jobs=jobs),
    "forward_sup_values":
        lambda n, reps, jobs=1: forward_sup_values(HALF, n, 1.0, reps, 0, jobs=jobs),
    "pakes_values": lambda n, reps, jobs=1: pakes_values(HALF, n, reps, 0, jobs=jobs),
}
# an n that no sampler takes
BAD_N = [(name, n) for name in BATCH_SAMPLERS for n in (-1, 0, 2.5)]


class TestScenario:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SimScenario(HALF, n=0)
        with pytest.raises(ParameterError, match="positive integer"):
            SimScenario(HALF, n=2.5)
        with pytest.raises(ParameterError):
            SimScenario(HALF, n=10, T=0.0)
        with pytest.raises(ParameterError):
            SimScenario(HALF, n=10, x0=np.inf)

    def test_steps(self):
        assert SimScenario(HALF, n=2, T=1.2).steps == 3
        assert SimScenario(HALF, n=5000, T=1.0).steps == 5001


class TestPerpetuityPath:
    def test_geometric_sum(self):
        # Y_k = 2(1 - 2^-k); at [nt]+1 = 3 the value is log(7/4)
        p = simulate_perpetuity_path(SimScenario(HALF, n=2, T=1.2))
        np.testing.assert_allclose(p.value_at(1.1), math.log(7.0 / 4.0), rtol=1e-12)
        np.testing.assert_allclose(p.value_at(0.0), math.log(1.0), atol=1e-15)
        np.testing.assert_allclose(p.value_at(0.5), math.log(3.0 / 2.0), rtol=1e-12)

    def test_counting_sum(self):
        # M = 1, Q = 1 gives Y_k = k
        p = simulate_perpetuity_path(SimScenario(UNIT, n=10, T=1.0))
        for t in [0.0, 0.25, 0.55, 1.0]:
            k = math.floor(10 * t) + 1
            np.testing.assert_allclose(p.value_at(t), math.log(k), rtol=1e-12)

    def test_jumps_on_lattice(self):
        p = simulate_perpetuity_path(SimScenario(preset_law("cauchy"), n=50, T=1.0, seed=3))
        np.testing.assert_allclose(p.times, np.arange(1, 51) / 50.0)

    def test_matches_naive_sum(self):
        # direct floating evaluation of the partial sums, small horizon
        law = preset_law("convergent")
        for rep in range(10):
            s = SimScenario(law, n=30, T=1.0, seed=11)
            p = simulate_perpetuity_path(s, rep=rep)
            sm, lm, sq, lq = draw_log_mq(law, replication_rng(11, rep), s.steps)
            if np.max(np.cumsum(lm)) + np.max(lq) > 200:
                continue
            terms = (np.concatenate(([1], np.cumprod(sm[:-1]))) * sq
                     * np.exp(np.concatenate(([0.0], np.cumsum(lm[:-1]))) + lq))
            partial = np.cumsum(terms)
            np.testing.assert_allclose(p.values, np.log(np.abs(partial)), rtol=1e-9)

    def test_determinism_across_calls(self):
        s = SimScenario(preset_law("cauchy"), n=40, T=1.0, seed=5)
        p1 = simulate_perpetuity_path(s, rep=2)
        p2 = simulate_perpetuity_path(s, rep=2)
        np.testing.assert_array_equal(p1.values, p2.values)

    def test_exact_zero_rejected(self):
        flip = CoefficientLaw("Degenerate", m0=-1.0, q0=1.0)
        with pytest.raises(StatisticalError):
            simulate_perpetuity_path(SimScenario(flip, n=4, T=1.0))


class TestForwardChainPath:
    def test_degenerate_matches_backward(self):
        # deterministic coefficients make X_k and Y_k identical from x0 = 0
        s = SimScenario(HALF, n=3, T=1.0)
        f = simulate_forward_chain_path(s)
        b = simulate_perpetuity_path(s)
        np.testing.assert_allclose(f.values, b.values, rtol=1e-12)

    def test_nonzero_start(self):
        # X_k = m^k x0 + sum m^{k-i} q: with m=1/2, q=1, x0=8: X_1 = 5, X_2 = 3.5
        s = SimScenario(HALF, n=2, T=1.0, x0=8.0)
        f = simulate_forward_chain_path(s)
        np.testing.assert_allclose(f.values[0], math.log(5.0), rtol=1e-12)
        np.testing.assert_allclose(f.values[1], math.log(3.5), rtol=1e-12)

    def test_matches_scalar_recursion(self):
        cases = [
            (preset_law("convergent"), 25, 0.0),
            # the Pi_k x0 term and the signs of the M products
            (preset_law("convergent", p_M=0.5), 25, 3.0),
            (preset_law("convergent"), 25, -2.0),
            # |S_k| in the thousands: the closed form adds S_k back to a
            # pool of comparable size
            (preset_law("heavynegm"), 200, 0.0),
        ]
        # x = m x + q in 60-digit decimals, whose exponent range holds the
        # heavy-tailed coefficients that overflow or underflow a float
        ctx = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        for law, n, x0 in cases:
            s = SimScenario(law, n=n, T=1.0, x0=x0, seed=21)
            f = simulate_forward_chain_path(s, rep=4)
            sm, lm, sq, lq = draw_log_mq(law, replication_rng(21, 4), s.steps)
            with decimal.localcontext(ctx):
                x = decimal.Decimal(x0)
                direct = []
                for k in range(s.steps):
                    m = int(sm[k]) * decimal.Decimal(float(lm[k])).exp()
                    x = m * x + int(sq[k]) * decimal.Decimal(float(lq[k])).exp()
                    direct.append(float(abs(x).ln()))
            np.testing.assert_allclose(f.values, direct, rtol=1e-9, err_msg=f"{law} x0={x0}")

    def test_pathwise_differs_from_backward(self):
        s = SimScenario(preset_law("cauchy"), n=50, T=1.0, seed=9)
        f = simulate_forward_chain_path(s)
        b = simulate_perpetuity_path(s)
        assert np.max(np.abs(f.values - b.values)) > 1e-6

    def test_marginals_match_backward_in_distribution(self):
        # X_n and Y_n share one law for x0 = 0; disjoint replication
        # streams keep the two samples independent
        law = preset_law("cauchy")
        R, n, u = 400, 200, 1.0
        y, fy = backward_marginal_values(law, n, u, R, seed=31, rep_start=R)
        x, fx = forward_marginal_values(law, n, u, R, seed=31)
        assert fy.sum() == 0 and fx.sum() == 0
        stat = ks_2samp(y, x, method="asymp")
        assert stat.pvalue > 0.01


class TestForwardFlags:
    # M = -1, Q = 1 from 0: X_k = 1 for odd k and exactly 0 for even k,
    # and Y_k is the same sequence
    FLIP = CoefficientLaw("Degenerate", m0=-1.0, q0=1.0)

    def test_forward_flags_count_every_prefix(self):
        # a forward flag counts the cancelled prefix combines (one per zero
        # iterate) up to the index, plus one for any exact zero up to it
        for n, expected in [(1, 2), (2, 2), (50, 26)]:
            _, flags = forward_marginal_values(self.FLIP, n, 1.0, 3, seed=3)
            np.testing.assert_array_equal(flags, expected)
        _, flags = forward_sup_values(self.FLIP, 50, 1.0, 3, seed=3)
        np.testing.assert_array_equal(flags, 26)

    def test_backward_marginal_flags_only_the_endpoint(self):
        # Y_51 = 1 after 25 zero iterates; Y_50 = 0 is cancelled and zero
        vals, flags = backward_marginal_values(self.FLIP, 50, 1.0, 3, seed=3)
        np.testing.assert_allclose(vals, 0.0, atol=1e-12)
        np.testing.assert_array_equal(flags, 0)
        _, flags = backward_marginal_values(self.FLIP, 49, 1.0, 3, seed=3)
        np.testing.assert_array_equal(flags, 2)

    def test_path_cancel_count(self):
        # M = Q = 1 from x0 = -1 + 2^-45: X_1 = 2^-45 keeps 2^-45 of the
        # pool magnitude, below CANCEL_RTOL; X_2 = 1 + 2^-45 is clean
        s = SimScenario(UNIT, n=3, T=1.0, x0=-1.0 + 2.0 ** -45)
        p = simulate_forward_chain_path(s)
        assert p.meta["cancel_count"] == 1 and p.meta["degenerate"]
        np.testing.assert_allclose(p.values[1:], np.log(np.arange(1, 4) + 2.0 ** -45))
        with pytest.raises(StatisticalError):
            simulate_forward_chain_path(SimScenario(self.FLIP, n=4, T=1.0))


class TestPakesSum:
    def test_geometric(self):
        law = CoefficientLaw("Degenerate", m0=1.0, q0=1.0, a=math.log(2.0))
        v, _ = pakes_values(law, 20, 1, seed=0)
        np.testing.assert_allclose(v, math.log(2.0 * (1.0 - 2.0 ** -21)), rtol=1e-12)

    def test_single_term(self):
        # the table's decayed sum runs over the [nu] + 1 = 1 drawn terms
        law = preset_law("cauchy")
        v, flags = batch_columns(law, 2, 0.4, 1, 13, (), pakes=True)[None, "marginal"]
        _, _, _, lq = draw_log_mq(law, replication_rng(13, 0), 1)
        np.testing.assert_allclose(v, lq[0], rtol=1e-12)
        assert flags.tolist() == [0]

    def test_huge_terms_no_overflow(self):
        # heavy tail pushes single weights far beyond float range
        law = preset_law("cauchy")
        vals, flags = pakes_values(law, 2000, 50, seed=17)
        assert np.all(np.isfinite(vals))
        assert flags.sum() == 0

    def test_equals_the_signed_total_bit_for_bit(self):
        # a positive pool combined with an empty negative pool is the pool
        law = preset_law("regvar1")
        for seed in (0, 7, 19):
            _, _, _, lq = draw_log_mq(law, replication_rng(seed, 2), 301)
            _, want, _ = signed_log_diff(*sign_pools(np.ones(301), -law.a * np.arange(301) + lq))
            assert pakes_values(law, 300, 3, seed)[0][2] == want

    def test_validation(self):
        with pytest.raises(ParameterError, match="decay rate"):
            pakes_values(CoefficientLaw("Degenerate", m0=1.0, q0=1.0, a=0.0), 5, 3, seed=0)
        # n + 1 terms at n >= 1, the floor of every sampler
        for n in (-1, 0, 2.5):
            with pytest.raises(ParameterError, match="positive integer"):
                pakes_values(UNIT, n, 3, seed=0)


class TestBatchSamplers:
    def test_marginal_matches_path(self):
        # a path with horizon u draws exactly the same coefficient count
        law = preset_law("cauchy")
        vals, flags = backward_marginal_values(law, 50, 1.0, 5, seed=41)
        for rep in range(5):
            p = simulate_perpetuity_path(SimScenario(law, n=50, T=1.0, seed=41), rep=rep)
            np.testing.assert_allclose(vals[rep], p.value_at(1.0), rtol=1e-12)

    def test_sup_matches_path(self):
        law = preset_law("cauchy")
        vals, flags = backward_sup_values(law, 50, 1.0, 5, seed=43)
        for rep in range(5):
            p = simulate_perpetuity_path(SimScenario(law, n=50, T=1.0, seed=43), rep=rep)
            np.testing.assert_allclose(vals[rep], np.max(p.values), rtol=1e-12)

    def test_forward_sup_matches_path(self):
        law = preset_law("cauchy")
        vals, flags = forward_sup_values(law, 40, 1.0, 4, seed=47)
        for rep in range(4):
            p = simulate_forward_chain_path(SimScenario(law, n=40, T=1.0, seed=47), rep=rep)
            assert vals[rep] == np.max(p.values)

    def test_jobs_do_not_change_results(self):
        law = preset_law("cauchy")
        v1, f1 = backward_marginal_values(law, 30, 1.0, 37, seed=53, jobs=1)
        v3, f3 = backward_marginal_values(law, 30, 1.0, 37, seed=53, jobs=3)
        np.testing.assert_array_equal(v1, v3)
        np.testing.assert_array_equal(f1, f3)
        w1, g1 = forward_marginal_values(law, 30, 1.0, 37, seed=53, jobs=1)
        w4, g4 = forward_marginal_values(law, 30, 1.0, 37, seed=53, jobs=4)
        np.testing.assert_array_equal(w1, w4)
        np.testing.assert_array_equal(g1, g4)
        z1, h1 = forward_sup_values(law, 30, 1.0, 37, seed=53, jobs=1)
        z3, h3 = forward_sup_values(law, 30, 1.0, 37, seed=53, jobs=3)
        np.testing.assert_array_equal(z1, z3)
        np.testing.assert_array_equal(h1, h3)

    def test_rep_start_shifts_streams(self):
        law = preset_law("cauchy")
        v, _ = backward_marginal_values(law, 30, 1.0, 10, seed=53)
        w, _ = backward_marginal_values(law, 30, 1.0, 5, seed=53, rep_start=5)
        np.testing.assert_array_equal(v[5:], w)

    def test_overflowing_log_q_is_a_parameter_error(self):
        # alpha = 0.01 puts log|Q| = u^-100 past the float range below
        # u = 8.3e-4, which a few thousand draws reach
        with pytest.raises(ParameterError, match="overflows"):
            backward_marginal_values(preset_law("regvar", alpha=0.01), 2000, 1.0, 200, seed=3)

    @pytest.mark.parametrize("T", [0.0, -1e-4, -1.0, np.nan])
    @pytest.mark.parametrize("sampler", [backward_sup_values, forward_sup_values],
                             ids=lambda f: f.__name__)
    def test_sup_rejects_bad_horizon(self, sampler, T):
        with pytest.raises(ParameterError, match="evaluation time"):
            sampler(preset_law("cauchy"), 1000, T, 3, seed=0)

    @pytest.mark.parametrize("reps", [0, -1])
    @pytest.mark.parametrize("name", BATCH_SAMPLERS)
    def test_rejects_bad_replication_count(self, name, reps):
        with pytest.raises(ParameterError, match="replication count"):
            BATCH_SAMPLERS[name](10, reps)

    @pytest.mark.parametrize("name, n", BAD_N)
    def test_rejects_bad_n(self, name, n):
        with pytest.raises(ParameterError, match="n must be a"):
            BATCH_SAMPLERS[name](n, 3)

    # values below 1 start no thread
    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("name", BATCH_SAMPLERS)
    def test_rejects_bad_jobs(self, name, jobs):
        with pytest.raises(ParameterError, match="jobs must be a positive integer"):
            BATCH_SAMPLERS[name](10, 3, jobs)

    def test_no_degenerate_samples_for_continuous_law(self):
        # condition: continuous Q laws never hit flagged cancellation
        law = preset_law("cauchy")
        _, flags = backward_marginal_values(law, 100, 1.0, 2000, seed=59)
        assert int(np.sum(flags > 0)) == 0


class TestSharedBatches:
    """``batch_columns``: one draw per replication, read as every sampler's
    columns."""

    LAW = preset_law("cauchy")
    LAWS = [preset_law(name) for name in ("cauchy", "regvar", "regvar1", "heavynegm")] + [
        TestForwardFlags.FLIP
    ]

    @pytest.mark.parametrize("pakes", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(law=st.sampled_from(LAWS), n=st.integers(1, 60),
           u=st.floats(0.05, 2.0), reps=st.integers(1, 6), seed=st.integers(0, 2**32),
           jobs=st.integers(1, 3))
    def test_each_column_equals_its_sampler(self, pakes, law, n, u, reps, seed, jobs):
        # counts the coefficient draws, one per replication and batch
        draws = []

        def counted(law, rng, size):
            draws.append(size)
            return draw_log_mq(law, rng, size)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate_module, "draw_log_mq", counted)
            columns = batch_columns(law, n, u, reps, seed, ("backward", "forward"), pakes, jobs)
        assert len(draws) == reps
        count = math.floor(n * u) + 1
        samplers = {
            ("backward", "sup"): backward_sup_values(law, n, u, reps, seed),
            ("forward", "marginal"): forward_marginal_values(law, n, u, reps, seed),
            ("forward", "sup"): forward_sup_values(law, n, u, reps, seed),
        }
        # the decayed sum of [nu] + 1 terms is the Pakes sampler at n = [nu]
        if pakes and count > 1:
            samplers[None, "marginal"] = pakes_values(law, count - 1, reps, seed)
        assert ((None, "marginal") in columns) == pakes
        for key, want in samplers.items():
            for got, expected in zip(columns[key], want):
                np.testing.assert_array_equal(got, expected)
                assert got.dtype == expected.dtype
        v, f = backward_marginal_values(law, n, u, reps, seed)
        w, g = columns["backward", "marginal"]
        np.testing.assert_allclose(v, w, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(f, g)
        assert f.dtype == g.dtype

    def test_returned_arrays_are_fresh(self):
        # no column is a view of the table or of another column
        columns = batch_columns(self.LAW, 40, 1.0, 6, 61, ("backward", "forward"), pakes=True)
        arrays = [a for pair in columns.values() for a in pair]
        assert all(a.base is None and a.flags.writeable for a in arrays)
        assert len({id(a) for a in arrays}) == len(arrays)

    def test_rejects_an_unknown_chain(self):
        with pytest.raises(ParameterError, match="chains must be"):
            batch_columns(self.LAW, 40, 1.0, 6, 61, ("backward", "sideways"))

    def test_flags_keep_their_semantics_in_the_scope(self):
        # one flip-flop draw read as a backward marginal (endpoint flag)
        # and as a backward sup (prefix flag)
        columns = batch_columns(TestForwardFlags.FLIP, 49, 1.0, 3, 3, ("backward",))
        np.testing.assert_array_equal(columns["backward", "marginal"][1], 2)
        np.testing.assert_array_equal(columns["backward", "sup"][1], 26)


class TestBackwardEndpoints:
    """The backward marginal reduces each chain to its two sign-pool
    totals; the suite's columns read the full prefix table."""

    LAWS = [pytest.param(preset_law(name), id=name) for name in PRESET_NAMES] + [
        pytest.param(TestForwardFlags.FLIP, id="flip-flop")
    ]

    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("n", [49, 400])
    def test_matches_the_table(self, law, n):
        v, f = backward_marginal_values(law, n, 1.0, 24, seed=67)
        w, g = batch_columns(law, n, 1.0, 24, 67, ("backward",))["backward", "marginal"]
        finite = np.isfinite(w)
        np.testing.assert_array_equal(np.isfinite(v), finite)
        np.testing.assert_array_equal(v[~finite], w[~finite])
        np.testing.assert_allclose(v[finite], w[finite], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(f, g)
        assert f.dtype == g.dtype

    @pytest.mark.parametrize("law", LAWS)
    def test_jobs_do_not_change_results(self, law):
        v1, f1 = backward_marginal_values(law, 60, 1.0, 23, seed=71, jobs=1)
        for jobs in (2, 3):
            v, f = backward_marginal_values(law, 60, 1.0, 23, seed=71, jobs=jobs)
            np.testing.assert_array_equal(v, v1)
            np.testing.assert_array_equal(f, f1)

    @pytest.fixture
    def cumsums(self, monkeypatch):
        calls = []

        def counted(signs, mags):
            calls.append(len(signs))
            return signed_log_cumsum(signs, mags)

        monkeypatch.setattr(simulate_module, "signed_log_cumsum", counted)
        return calls

    def test_no_prefix_scan_outside_a_scope(self, cumsums):
        # the backward marginal alone never builds the prefix table
        backward_marginal_values(preset_law("cauchy"), 40, 1.0, 6, seed=61, jobs=2)
        assert cumsums == []

    def test_a_sup_in_the_scope_reuses_the_marginal_batch(self, cumsums):
        # the suite's marginal and sup columns of each chain read one scan:
        # per replication, the backward terms, then x0 and the forward terms
        columns = batch_columns(preset_law("cauchy"), 40, 1.0, 6, 61, ("backward", "forward"),
                                pakes=True)
        assert cumsums == [41, 42] * 6
        for chain in ("backward", "forward"):
            assert np.all(columns[chain, "sup"][0] >= columns[chain, "marginal"][0])


class TestRunJobs:
    """The replication map equals the serial loop for every thread split."""

    # reps < jobs included; jobs stays small
    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 40), jobs=st.integers(1, 8), tuple_rows=st.booleans())
    def test_equals_the_serial_map(self, reps, jobs, tuple_rows):
        def one(r):
            return (r, math.sqrt(r), -r) if tuple_rows else r + 0.25
        want = np.array([one(r) for r in range(reps)])
        got = simulate_module._run_jobs(one, reps, jobs)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestPathAsymptotics:
    def test_negative_part_collapses(self):
        # sup_t log^-|Y| / (an): 99th percentile shrinks as n grows
        law = preset_law("cauchy")

        def p99_neg(n, reps, seed):
            out = np.empty(reps)
            for rep in range(reps):
                p = simulate_perpetuity_path(SimScenario(law, n=n, T=1.0, seed=seed), rep=rep)
                out[rep] = max(-np.min(p.values), 0.0) / n
            return np.quantile(out, 0.99)

        small = p99_neg(200, 200, seed=61)
        big = p99_neg(5000, 200, seed=61)
        assert big < small
        assert big < 0.05

    def test_drift_concentrates(self):
        # S_[nT] / (a n) near -T
        law = preset_law("cauchy")
        n, reps = 4000, 100
        ends = np.empty(reps)
        for rep in range(reps):
            _, lm, _, _ = draw_log_mq(law, replication_rng(67, rep), n)
            ends[rep] = np.sum(lm) / n
        assert abs(np.mean(ends) + 1.0) < 0.01
        assert np.std(ends) < 0.05


class TestCsvOutput:
    def test_consolidated_rows(self):
        paths = [
            simulate_perpetuity_path(SimScenario(UNIT, n=2, T=1.0, seed=1), rep=r)
            for r in range(2)
        ]
        buf = io.StringIO()
        write_paths_csv(paths, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "rep,t,value"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
