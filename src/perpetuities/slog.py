"""Signed log-space scalars.

Magnitudes that span thousands of e-folds cannot be added as ordinary
floats, so values are carried as (sign, log magnitude) pairs.  Every
signed sum splits its terms into a positive and a negative pool and
reduces each pool in log space: ``signed_log_cumsum`` gives every prefix
sum, ``sign_pools`` the two pool totals (each reduced around its
maximum by ``pool_logsumexp``) and ``signed_log_sum`` their combined
total.  The only true subtraction happens in one final signed combine,
``signed_log_diff``, which also runs elementwise over many pool pairs at
once; a near-total loss of magnitude is flagged on the result instead of
being returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError

# relative residual below which a signed combine counts as a cancellation
CANCEL_RTOL = 1e-12
_LOG_CANCEL = math.log(CANCEL_RTOL)
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign and log of absolute value.

    ``sign`` is -1, 0 or +1 and ``logmag`` is ``log|x|`` (``-inf`` exactly
    when the value is zero, never ``+inf``).  ``cancelled`` marks results
    whose magnitude fell below ``CANCEL_RTOL`` times the larger operand
    during a signed add.
    """

    sign: int
    logmag: float
    cancelled: bool = False

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ParameterError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if (self.sign == 0) != (self.logmag == _NEG_INF):
            raise ParameterError(
                "sign 0 must pair with logmag -inf and vice versa "
                f"(got sign={self.sign}, logmag={self.logmag})"
            )
        if math.isnan(self.logmag) or self.logmag == math.inf:
            raise ParameterError(f"logmag must be a number below +inf, got {self.logmag}")

    @classmethod
    def from_real(cls, x: float) -> "SignedLogValue":
        x = float(x)
        if math.isnan(x):
            raise ParameterError("cannot represent NaN")
        if x == 0.0:
            return cls(0, _NEG_INF)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def to_real(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logmag)


def pool_logsumexp(mags: np.ndarray) -> float:
    """log of sum(exp(mags)) for the terms of one sign pool: a plain
    max-shifted reduction, -inf for an empty pool."""
    m = float(mags.max(initial=_NEG_INF))
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(float(np.exp(mags - m).sum()))


def slog_sum(terms: Iterable[SignedLogValue]) -> SignedLogValue:
    """Sum of signed log-space terms, reduced by ``signed_log_sum``."""
    terms = list(terms)
    return signed_log_sum(np.array([t.sign for t in terms]),
                          np.array([t.logmag for t in terms], dtype=float))


# ---------------------------------------------------------------------------
# array kernels

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
        res = big + np.log1p(-np.exp(np.minimum(pos, neg) - big))
        near = (res - big) < _LOG_CANCEL
    tie = sign == 0
    mag = np.where(tie, _NEG_INF, res)
    cancelled = np.where(tie, np.isfinite(pos) & np.isfinite(neg), near)
    return sign, mag, cancelled


def signed_log_cumsum(signs, mags):
    """(sign, logmag, cancelled) of every prefix sum of the terms
    ``signs[k] * exp(mags[k])``: a prefix log-sum-exp per sign pool, then
    one ``signed_log_diff`` per prefix."""
    signs, mags = np.asarray(signs), np.asarray(mags, dtype=float)
    pos = np.logaddexp.accumulate(np.where(signs > 0, mags, _NEG_INF))
    neg = np.logaddexp.accumulate(np.where(signs < 0, mags, _NEG_INF))
    return signed_log_diff(pos, neg)


def sign_pools(signs, mags):
    """(pos, neg): the log-magnitudes of the positive and the negative
    pool totals of the terms ``signs[k] * exp(mags[k])``."""
    signs, mags = np.asarray(signs), np.asarray(mags, dtype=float)
    return pool_logsumexp(mags[signs > 0]), pool_logsumexp(mags[signs < 0])


def signed_log_sum(signs, mags) -> SignedLogValue:
    """The last prefix of ``signed_log_cumsum``: the two ``sign_pools``
    and one combine; it does not depend on term order beyond roundoff."""
    pos, neg = sign_pools(signs, mags)
    sign, mag, cancelled = signed_log_diff(np.array([pos]), np.array([neg]))
    return SignedLogValue(int(sign[0]), float(mag[0]), bool(cancelled[0]))


def signed_log_add_arrays(sign_a, mag_a, sign_b, mag_b):
    """Elementwise signed add on (sign, logmag) arrays."""
    pos = np.logaddexp(np.where(sign_a > 0, mag_a, _NEG_INF),
                       np.where(sign_b > 0, mag_b, _NEG_INF))
    neg = np.logaddexp(np.where(sign_a < 0, mag_a, _NEG_INF),
                       np.where(sign_b < 0, mag_b, _NEG_INF))
    return signed_log_diff(pos, neg)
