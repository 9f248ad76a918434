"""Signed log-space sums.

Magnitudes that span thousands of e-folds cannot be added as ordinary
floats, so values are carried as (sign, log magnitude) arrays.  Every
signed sum splits its terms into a positive and a negative pool and
reduces each pool in log space.  Two kernels do that:
``signed_log_cumsum`` gives every prefix sum, and ``sign_pools`` gives
the two pool totals, each reduced around its maximum by
``pool_logsumexp``.  The only true subtraction happens in one final
signed combine, ``signed_log_diff``, which also runs elementwise over
many pool pairs at once; a near-total loss of magnitude is flagged on
the result instead of being returned silently.
"""

from __future__ import annotations

import math

import numpy as np

# relative residual below which a signed combine counts as a cancellation
CANCEL_RTOL = 1e-12
_LOG_CANCEL = math.log(CANCEL_RTOL)
_NEG_INF = float("-inf")
# exp underflows to +0.0 below log(2**-1075) = -745.133; numpy's exp takes
# a slow path to get there, so the kernels skip those arguments
_EXP_UNDERFLOW = -745.2


def _exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` bit for bit: +0.0 wherever x < _EXP_UNDERFLOW, and
    exp is called on the other entries only (NaN included)."""
    return np.exp(x, out=np.zeros(x.shape), where=~(x < _EXP_UNDERFLOW))


def pool_logsumexp(mags: np.ndarray) -> float:
    """log of sum(exp(mags)) for the terms of one sign pool: a plain
    max-shifted reduction, -inf for an empty pool."""
    m = float(mags.max(initial=_NEG_INF))
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(float(_exp(mags - m).sum()))


def signed_log_diff(pos: np.ndarray, neg: np.ndarray):
    """Combine a positive pool and a negative pool, elementwise.

    ``pos`` and ``neg`` are log magnitudes (-inf for an empty pool).
    Returns (sign, logmag, cancelled) arrays.
    """
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    sign = (pos > neg).astype(np.int64) - (neg > pos).astype(np.int64)
    big = np.maximum(pos, neg)
    # a tie takes log1p(-1), or -inf - -inf for two empty pools; np.where
    # discards those entries
    with np.errstate(divide="ignore", invalid="ignore"):
        res = big + np.log1p(-_exp(np.minimum(pos, neg) - big))
        near = (res - big) < _LOG_CANCEL
    # a tie (or a NaN pool) is a clean zero only when both pools are empty
    tie = sign == 0
    mag = np.where(tie, _NEG_INF, res)
    cancelled = np.where(tie, big != _NEG_INF, near)
    return sign, mag, cancelled


def signed_log_cumsum(signs, mags):
    """(sign, logmag, cancelled) of every prefix sum of the terms
    ``signs[k] * exp(mags[k])``: a prefix log-sum-exp per sign pool, then
    one ``signed_log_diff`` per prefix."""
    signs, mags = np.asarray(signs), np.asarray(mags, dtype=float)
    return signed_log_diff(_pool_prefix(mags, signs > 0), _pool_prefix(mags, signs < 0))


def _pool_prefix(mags, mask):
    """Every prefix log-sum-exp of the pool ``mags[mask]``, -inf before
    its first term: the pool is accumulated over its own terms and each
    total is carried across the entries outside it.

    Equal bit for bit to ``np.logaddexp.accumulate(np.where(mask, mags,
    -inf))``: there logaddexp(a, -inf) is a + 0.0, so past index 0 a
    -0.0 comes out as +0.0, and adding 0.0 does the same here.
    """
    acc = np.empty(np.count_nonzero(mask) + 1)
    acc[0] = _NEG_INF
    np.logaddexp.accumulate(mags[mask], out=acc[1:])
    out = acc[np.cumsum(mask)]
    out[1:] += 0.0
    return out


def sign_pools(signs, mags):
    """(pos, neg): the log-magnitudes of the positive and the negative
    pool totals of the terms ``signs[k] * exp(mags[k])``."""
    signs, mags = np.asarray(signs), np.asarray(mags, dtype=float)
    return pool_logsumexp(mags[signs > 0]), pool_logsumexp(mags[signs < 0])


def signed_log_add_arrays(sign_a, mag_a, sign_b, mag_b):
    """Elementwise signed add on (sign, logmag) arrays."""
    pos = np.logaddexp(np.where(sign_a > 0, mag_a, _NEG_INF),
                       np.where(sign_b > 0, mag_b, _NEG_INF))
    neg = np.logaddexp(np.where(sign_a < 0, mag_a, _NEG_INF),
                       np.where(sign_b < 0, mag_b, _NEG_INF))
    return signed_log_diff(pos, neg)
