"""Property tests of the signed log-space sums against math.fsum."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuities.slog import signed_log_cumsum, signed_log_diff

from test_slog import split, total

# normal floats whose sums of up to 30 terms stay finite; a subnormal
# carries too few bits to survive the trip through log and exp
FINITE = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=False
)


def with_mirror(xs, k):
    # k appends each term negated and scaled by 1 + k ulp, which leaves a
    # residual of a few ulp of sum |x|, or exactly zero for k = 0
    if k is None:
        return xs
    return xs + [-x * (1 + k * 2.0**-52) for x in xs]


def assert_matches_fsum(value, cancelled, xs):
    # the error is relative to sum |x|, the magnitude before any
    # cancellation; so it is relative 1e-12 when all terms share a sign,
    # and a result below 1e-14 of sum |x| must carry the cancelled flag
    exact = math.fsum(xs)
    scale = math.fsum(abs(x) for x in xs)
    assert abs(value - exact) <= 1e-12 * scale
    if abs(exact) <= 1e-14 * scale and scale > 0:
        assert cancelled
    if cancelled:
        assert abs(exact) <= 1e-12 * scale


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, max_size=15), st.one_of(st.none(), st.integers(-4, 4)))
def test_pool_total_matches_fsum(xs, k):
    xs = with_mirror(xs, k)
    sign, mag, cancelled = total(*split(xs))
    assert_matches_fsum(sign * math.exp(mag), cancelled, xs)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE, max_size=15), st.one_of(st.none(), st.integers(-4, 4)))
def test_cumsum_prefixes_match_fsum(xs, k):
    xs = with_mirror(xs, k)
    signs, mags = split(xs)
    sign, mag, cancelled = signed_log_cumsum(signs, mags)
    assert sign.shape == mag.shape == cancelled.shape == (len(xs),)
    for j in range(len(xs)):
        assert_matches_fsum(sign[j] * math.exp(mag[j]), cancelled[j], xs[: j + 1])
    # the reduce-only kernel lands on the last prefix; both sit within
    # 1e-12 of sum |x| of the exact total, and agree in sign unless one
    # of them flags the combine
    total_sign, total_mag, total_cancelled = total(signs, mags)
    scale = math.fsum(abs(x) for x in xs)
    last = sign[-1] * math.exp(mag[-1]) if xs else 0.0
    assert abs(total_sign * math.exp(total_mag) - last) <= 2e-12 * scale
    if xs and not (total_cancelled or cancelled[-1]):
        assert total_sign == sign[-1]


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 3))
def test_ties_and_empty_pools_give_sign_zero(m, zeros):
    # `zeros` zero terms (both pools empty), then +e^m and -e^m (an exact
    # tie); the prefixes follow signed_log_diff on the two pools exactly
    signs = np.array([0] * zeros + [1, -1])
    mags = np.array([-np.inf] * zeros + [m, m])
    got = signed_log_cumsum(signs, mags)
    want = signed_log_diff([-np.inf] * zeros + [m, m], [-np.inf] * (zeros + 1) + [m])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    sign, mag, cancelled = got
    assert not np.any(sign[:zeros]) and not np.any(cancelled[:zeros])
    assert sign[zeros] == 1 and mag[zeros] == m and not cancelled[zeros]
    assert sign[-1] == 0 and mag[-1] == -np.inf and cancelled[-1]
    assert total(signs, mags) == (0, -np.inf, True)
    assert total(signs[:zeros], mags[:zeros]) == (0, -np.inf, False)
