"""Property test of the scalar signed log-space sum against math.fsum."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuities.slog import SignedLogValue, slog_sum

# normal floats whose sums of up to 30 terms stay finite; a subnormal
# carries too few bits to survive the trip through log and exp
FINITE = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=False
)


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, max_size=15), st.one_of(st.none(), st.integers(-4, 4)))
def test_slog_sum_matches_fsum(xs, k):
    # the error is relative to sum |x|, the magnitude before any
    # cancellation; so it is relative 1e-12 when all terms share a sign,
    # and a result below 1e-14 of sum |x| must carry the cancelled flag.
    # k appends each term negated and scaled by 1 + k ulp, which leaves a
    # residual of a few ulp of sum |x|, or exactly zero for k = 0
    if k is not None:
        xs = xs + [-x * (1 + k * 2.0**-52) for x in xs]
    exact = math.fsum(xs)
    scale = math.fsum(abs(x) for x in xs)
    got = slog_sum(SignedLogValue.from_real(x) for x in xs)
    assert abs(got.to_real() - exact) <= 1e-12 * scale
    if abs(exact) <= 1e-14 * scale and scale > 0:
        assert got.cancelled
    if got.cancelled:
        assert abs(exact) <= 1e-12 * scale
