"""The signed-log kernels equal their plain numpy formulas bit for bit.

The kernels skip work whose result is fixed in advance: each sign pool
is accumulated over its own terms only, and exp is not called on
arguments that underflow to +0.0.  The oracles below are the formulas
without those shortcuts.  Each property compares every output bit,
so +0.0 and -0.0 differ; NaNs only need to sit at the same places.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perpetuities import slog
from perpetuities.slog import pool_logsumexp, signed_log_cumsum, signed_log_diff

NEG_INF, INF, NAN = -math.inf, math.inf, math.nan

# log magnitudes: ordinary ones, ones thousands of e-folds apart (so most
# exp arguments underflow), values near 9e15 where the float grid is
# coarser than 1, and the special values
MAGS = st.one_of(
    st.floats(-50.0, 50.0),
    st.floats(-3000.0, 100.0),
    st.floats(-9.1e15, -8.9e15),
    st.floats(8.9e15, 9.1e15),
    st.sampled_from([NEG_INF, INF, NAN, 0.0, -0.0]),
)
SIGNS = st.sampled_from([-1, 0, 1])


def bits(a):
    """The 64-bit patterns of the float array ``a``, every NaN as one."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), NAN, a).view(np.int64)


def assert_same(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        if w.dtype.kind == "f":
            np.testing.assert_array_equal(bits(g), bits(w))
        else:
            np.testing.assert_array_equal(g, w)


def oracle_diff(pos, neg):
    """``signed_log_diff`` with a plain ``np.exp``."""
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    sign = (pos > neg).astype(np.int64) - (neg > pos).astype(np.int64)
    big = np.maximum(pos, neg)
    with np.errstate(divide="ignore", invalid="ignore"):
        res = big + np.log1p(-np.exp(np.minimum(pos, neg) - big))
        near = (res - big) < math.log(slog.CANCEL_RTOL)
    tie = sign == 0
    return sign, np.where(tie, NEG_INF, res), np.where(tie, big != NEG_INF, near)


def oracle_cumsum(signs, mags):
    """``signed_log_cumsum`` as one full-length accumulate per pool, the
    other pool's entries set to -inf."""
    signs, mags = np.asarray(signs), np.asarray(mags, dtype=float)
    pos = np.logaddexp.accumulate(np.where(signs > 0, mags, NEG_INF))
    neg = np.logaddexp.accumulate(np.where(signs < 0, mags, NEG_INF))
    return oracle_diff(pos, neg)


def oracle_pool(mags):
    """``pool_logsumexp`` with a plain ``np.exp``; every term, zeros
    included, goes into the sum, so numpy's pairwise order is the same."""
    m = float(mags.max(initial=NEG_INF))
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.exp(mags - m).sum()))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(SIGNS, MAGS), max_size=40))
@example([])
@example([(1, 2.0), (1, -800.0), (1, -0.0)])
@example([(-1, -0.0), (0, 1.0), (-1, 3.0)])
@example([(1, -0.0), (0, 1.0), (1, -0.0)])
@example([(0, NAN), (0, -0.0), (0, 5.0)])
@example([(1, 9e15), (-1, 9e15 + 2.0), (1, NEG_INF), (-1, NAN)])
def test_cumsum_matches_full_length_accumulate(terms):
    signs = np.array([s for s, _ in terms], dtype=np.int64)
    mags = np.array([m for _, m in terms], dtype=float)
    with np.errstate(invalid="ignore"):
        got, want = signed_log_cumsum(signs, mags), oracle_cumsum(signs, mags)
    assert_same(got, want)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(MAGS, MAGS, st.floats(-760.0, -700.0)), max_size=30),
       st.booleans())
def test_diff_matches_plain_exp(pairs, near_cutoff):
    # with near_cutoff the negative pool sits 700-760 e-folds below the
    # positive one, around the argument where exp reaches zero
    pos = np.array([p for p, _, _ in pairs], dtype=float)
    neg = np.array([pos_ + d if near_cutoff else n for pos_, n, d in pairs], dtype=float)
    with np.errstate(invalid="ignore"):
        assert_same(signed_log_diff(pos, neg), oracle_diff(pos, neg))
        assert_same(signed_log_diff(neg, pos), oracle_diff(neg, pos))


@settings(max_examples=500, deadline=None)
@given(st.lists(MAGS, max_size=40))
@example([])
@example([NEG_INF, NEG_INF])
@example([0.0, -745.0, -745.2, -746.0, -0.0])
@example([1.0, NAN])
@example([INF, 3.0])
def test_pool_logsumexp_matches_plain_exp(mags):
    mags = np.array(mags, dtype=float)
    with np.errstate(invalid="ignore"):
        got, want = pool_logsumexp(mags), oracle_pool(mags)
    assert bits(got) == bits(want)


def test_exp_cutoff_returns_what_numpy_exp_returns():
    # every argument the cutoff skips gives +0.0 from np.exp on this build,
    # and the arguments around it are passed to np.exp unchanged
    cutoff = slog._EXP_UNDERFLOW
    edges = [cutoff, np.nextafter(cutoff, INF), np.nextafter(cutoff, NEG_INF),
             -1074 * math.log(2.0), -1075 * math.log(2.0), NEG_INF, NAN, -0.0, 0.0]
    x = np.concatenate((np.linspace(-760.0, -700.0, 600_001), edges))
    got = slog._exp(x)
    np.testing.assert_array_equal(bits(got), bits(np.exp(x)))
    assert np.all(bits(got[x < cutoff]) == bits(0.0))
