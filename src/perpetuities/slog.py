"""Signed log-space scalars.

Magnitudes that span thousands of e-folds cannot be added as ordinary
floats, so values are carried as (sign, log magnitude) pairs.  Sums are
reduced per sign pool around the pool maximum; the only true subtraction
happens in one final signed combine, where a near-total loss of magnitude
is flagged on the result instead of being returned silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ParameterError

__all__ = [
    "CANCEL_RTOL",
    "SignedLogValue",
    "log_plus",
    "slog_add",
    "slog_mul",
    "slog_sum",
]

# relative residual below which a signed combine counts as a cancellation
CANCEL_RTOL = 1e-12
_LOG_CANCEL = math.log(CANCEL_RTOL)
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as sign and log of absolute value.

    ``sign`` is -1, 0 or +1 and ``logmag`` is ``log|x|`` (``-inf`` exactly
    when the value is zero).  ``cancelled`` marks results whose magnitude
    fell below ``CANCEL_RTOL`` times the larger operand during a signed add.
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
        if math.isnan(self.logmag):
            raise ParameterError("logmag must not be NaN")

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

    def log_plus(self) -> float:
        """max(log|x|, 0); zero maps to 0."""
        return max(self.logmag, 0.0)


def log_plus(x: float) -> float:
    """log of max(|x|, 1) for a plain real ``x``."""
    return math.log(max(abs(float(x)), 1.0))


def slog_mul(x: SignedLogValue, y: SignedLogValue) -> SignedLogValue:
    sign = x.sign * y.sign
    if sign == 0:
        return SignedLogValue(0, _NEG_INF)
    return SignedLogValue(sign, x.logmag + y.logmag)


def _scalar(sign, mag, cancelled) -> SignedLogValue:
    """The single entry of a length-1 kernel result."""
    return SignedLogValue(int(sign[0]), float(mag[0]), bool(cancelled[0]))


def slog_add(x: SignedLogValue, y: SignedLogValue) -> SignedLogValue:
    return _scalar(*signed_log_add_arrays(
        np.array([x.sign]), np.array([x.logmag]),
        np.array([y.sign]), np.array([y.logmag]),
    ))


def _pool_logsumexp(mags: np.ndarray) -> float:
    # all terms share a sign, so this is a plain max-shifted reduction
    if mags.size == 0:
        return _NEG_INF
    m = float(np.max(mags))
    if m == _NEG_INF:
        return _NEG_INF
    return m + math.log(float(np.sum(np.exp(mags - m))))


def slog_sum(terms: Iterable[SignedLogValue]) -> SignedLogValue:
    """Sum of signed log-space terms.

    Two-pass: the positive and negative pools are each reduced around
    their own maximum, then combined once with sign.  The result does not
    depend on term order beyond roundoff.
    """
    pos = []
    neg = []
    for t in terms:
        if t.sign > 0:
            pos.append(t.logmag)
        elif t.sign < 0:
            neg.append(t.logmag)
    p = _pool_logsumexp(np.asarray(pos, dtype=float))
    n = _pool_logsumexp(np.asarray(neg, dtype=float))
    return _scalar(*signed_log_diff(np.array([p]), np.array([n])))


# ---------------------------------------------------------------------------
# array kernels used by the simulators

def signed_log_diff(pos: np.ndarray, neg: np.ndarray):
    """Combine a positive pool and a negative pool, elementwise.

    ``pos`` and ``neg`` are log magnitudes (-inf for an empty pool).
    Returns (sign, logmag, cancelled) arrays.
    """
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    sign = (pos > neg).astype(np.int64) - (neg > pos).astype(np.int64)
    mag = np.full(pos.shape, _NEG_INF)
    cancelled = (sign == 0) & np.isfinite(pos) & np.isfinite(neg)
    live = sign != 0
    if np.any(live):
        big = np.maximum(pos[live], neg[live])
        small = np.minimum(pos[live], neg[live])
        res = big + np.log1p(-np.exp(small - big))
        mag[live] = res
        near = np.zeros(pos.shape, dtype=bool)
        near[live] = (res - big) < _LOG_CANCEL
        cancelled |= near
    return sign, mag, cancelled


def signed_log_add_arrays(sign_a, mag_a, sign_b, mag_b):
    """Elementwise signed add on (sign, logmag) arrays."""
    pos = np.logaddexp(np.where(sign_a > 0, mag_a, _NEG_INF),
                       np.where(sign_b > 0, mag_b, _NEG_INF))
    neg = np.logaddexp(np.where(sign_a < 0, mag_a, _NEG_INF),
                       np.where(sign_b < 0, mag_b, _NEG_INF))
    return signed_log_diff(pos, neg)
