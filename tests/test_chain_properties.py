"""Property tests of the chain term builder against the pathwise reversal.

With the coefficient pairs taken in reverse order, the forward chain from
x0 = 0 ends where the backward chain does:
X_n = sum_i Q_i M_{i+1}...M_n equals Y_n = sum_i M_1...M_{i-1} Q_i of
the reversed pairs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from perpetuities.simulate import _chain_terms
from perpetuities.slog import signed_log_sum

# quarter steps of log-magnitude, so partial sums of them are exact and
# both chains see the same term magnitudes
LOG_GRID = st.integers(-20, 20).map(lambda k: k / 4)
SIGN = st.sampled_from([-1, 1])
PAIR = st.tuples(SIGN, LOG_GRID, SIGN, LOG_GRID)


def endpoint(coeffs, forward):
    """(sign, logmag, cancelled, log of sum |term|) of the last iterate."""
    sign_m, log_m, sign_q, log_q = (np.array(c, dtype=float) for c in zip(*coeffs))
    sign_pi, S, term_sign, term_mag = _chain_terms(sign_m, log_m, sign_q, log_q, 0.0, forward)
    total = signed_log_sum(term_sign, term_mag)
    scale = signed_log_sum(np.abs(term_sign), term_mag).logmag
    if forward:
        # X_n = Pi_n times the pool sum
        return total.sign * int(sign_pi[-1]), total.logmag + S[-1], total.cancelled, scale + S[-1]
    return total.sign, total.logmag, total.cancelled, scale


@settings(max_examples=400, deadline=None)
@given(st.lists(PAIR, min_size=1, max_size=30))
def test_reversed_forward_chain_ends_at_the_backward_value(coeffs):
    b_sign, b_mag, b_cancelled, b_scale = endpoint(coeffs, forward=False)
    f_sign, f_mag, f_cancelled, f_scale = endpoint(coeffs[::-1], forward=True)
    assert math.isclose(f_scale, b_scale, rel_tol=1e-12, abs_tol=1e-12)
    if b_cancelled or f_cancelled:
        # a sum that cancels to roundoff has no reliable sign; the kernel
        # flags it instead
        return
    assert f_sign == b_sign
    # each side sums the same terms in another order, an error of a few
    # ulp of sum |term|, so the log error grows with the cancellation
    loss = math.exp(b_scale - b_mag)
    assert math.isclose(f_mag, b_mag, rel_tol=1e-12 * loss, abs_tol=1e-12 * loss)
